"""Canonical JSON/CSV encodings: rationals as "p/q" strings in lowest terms,
elements as coordinate arrays, polynomials with index = degree.  Output is
deterministic and byte-stable (sorted keys, fixed separators)."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .fields import PRESETS, AlgElem, FieldSpec
from .moduli import ProjValue, is_inf
from .poly import Poly


def format_rational(r: Fraction | int) -> str:
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def elem_to_json(x: AlgElem) -> Any:
    return [format_rational(c) for c in x.coords]


def elem_from_json(field: FieldSpec, data: Any) -> AlgElem:
    if isinstance(data, (str, int)):
        return field.from_rational(Fraction(data))
    return field.element([Fraction(str(c)) for c in data])


def field_to_json(field: FieldSpec) -> Any:
    for name, preset in PRESETS.items():
        if preset == field:
            return name
    return {"modulus": [format_rational(c) for c in field.modulus]}


def field_from_json(data: Any) -> FieldSpec:
    if isinstance(data, str):
        if data not in PRESETS:
            raise ValueError(f"unknown field preset {data!r}")
        return PRESETS[data]
    return FieldSpec([Fraction(str(c)) for c in data["modulus"]])


def poly_to_json(p: Poly) -> Any:
    return {"field": field_to_json(p.field),
            "coeffs": [elem_to_json(c) for c in p.coeffs]}


def poly_from_json(data: Any) -> Poly:
    field = field_from_json(data["field"])
    return Poly(field, [elem_from_json(field, c) for c in data["coeffs"]])


def proj_to_json(v: ProjValue | Fraction | int) -> Any:
    """inf -> "inf"; rational values as strings; other elements as arrays."""
    if is_inf(v):
        return "inf"
    if isinstance(v, (int, Fraction)):
        return format_rational(v)
    if v.is_rational():
        return format_rational(v.as_rational())
    return elem_to_json(v)


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
