"""Command-line front end.

Every subcommand writes one JSON document (CSV for sweep) to stdout and
diagnostics to stderr.  Exit codes: 0 success, 1 domain error (poles,
field too small, precondition failures, arithmetic overflow), 2
negative-but-valid results (NoPair, nonexistence verdicts, Undecided
equivalence).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import sys
from fractions import Fraction

from . import critical, family, jsonio, moduli, weyl
from .errors import (EllipticTargetObstruction, EqcritError, NoPair,
                     NoRationalFiberPoint)
from .fields import DISPLAY_EMBEDDINGS, PRESETS, QQ, FieldSpec
from .moduli import INF
from .poly import Poly

_NEGATIVE_EXIT = 2
_ERROR_EXIT = 1

def _emit(doc, stream=None) -> None:
    (stream or sys.stdout).write(jsonio.dumps_canonical(doc) + "\n")


def parse_t(text: str, field: FieldSpec):
    """A rational string, or a symbolic token resolved against the field."""
    token = text.strip().lower()
    if token == "inf":
        return INF
    if token in family.SPECIAL_T:
        return family.special_t(token, field)
    return field.from_rational(Fraction(text))


def display_critical_values(cv: Poly) -> list[list[float]] | None:
    """Numeric critical values, the roots of the cv polynomial, via a fixed
    complex embedding: display only; None when a coefficient or a value is
    not a finite float."""
    root = DISPLAY_EMBEDDINGS[cv.field.name]
    try:
        cs = [c.complex_embedding(root) for c in reversed(cv.coeffs)]
    except OverflowError:
        return None
    if not all(cmath.isfinite(c) for c in cs):
        return None
    import numpy as np  # deferred: only the float display needs it

    vals = [complex(v) for v in np.roots(cs)]
    if not all(cmath.isfinite(v) for v in vals):
        return None
    vals.sort(key=lambda z: (z.real, z.imag))
    return [[v.real, v.imag] for v in vals]


def _pair_doc(p: family.EquicriticalPair) -> dict:
    return {
        "t": jsonio.proj_to_json(p.t),
        "case": p.case.value,
        "field": jsonio.field_to_json(p.field),
        "f": jsonio.poly_to_json(p.f),
        "g": jsonio.poly_to_json(p.g),
        "verified": p.verified,
        "display": {"note": "display only (fixed float embedding)",
                    "critical_values": display_critical_values(p.cv.poly)},
    }


# -- subcommand handlers ----------------------------------------------------


def _cmd_pair(args) -> int:
    field = PRESETS[args.field]
    t = parse_t(args.t, field)
    try:
        if args.pipeline:
            p = family.pipeline_pair(t, field)
        else:
            p = family.pair(t, field)
    except NoPair as exc:
        _emit({"status": "no-pair", "t": args.t, "reason": str(exc)})
        return _NEGATIVE_EXIT
    doc = _pair_doc(p)
    text = jsonio.dumps_canonical(doc) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    with open(args.file) as fh:
        data = json.load(fh)
    f = jsonio.poly_from_json(data["f"])
    g = jsonio.poly_from_json(data["g"])
    same = critical.equicritical(f, g)
    verdict = critical.affine_equivalent(f, g)
    doc = {
        "equicritical": same,
        "verdict": {"status": verdict.status},
    }
    if verdict.witness:
        doc["verdict"]["witness"] = {"a": jsonio.elem_to_json(verdict.witness[0]),
                                     "b": jsonio.elem_to_json(verdict.witness[1])}
    if verdict.obstruction is not None:
        doc["verdict"]["obstruction_degree"] = verdict.obstruction.degree
    _emit(doc)
    if not same or verdict.status == "Undecided":
        return _NEGATIVE_EXIT
    return 0


def _load_poly(path: str) -> Poly:
    with open(path) as fh:
        return jsonio.poly_from_json(json.load(fh))


def _cmd_cvpoly(args) -> int:
    f = _load_poly(args.poly)
    cv = critical.cvpoly(f)
    _emit({"cvpoly": jsonio.poly_to_json(cv.poly),
           "source_degree": cv.source_degree,
           "is_morse": cv.is_morse})
    return 0


def _cmd_jcv(args) -> int:
    f = _load_poly(args.poly)
    if f.degree not in (None, 0, 1, 4):
        # the error j_of_cubic gives on cvpoly(f), raised before cvpoly runs
        raise ValueError("j_of_cubic needs a monic cubic")
    cv = critical.cvpoly(f)
    _emit({"jcv": jsonio.proj_to_json(moduli.j_of_cubic(cv.poly))})
    return 0


_MAPS = {
    "beta4": moduli.beta4,
    "psi4": moduli.psi4,
    "pi3": moduli.pi3,
    "jt": family.jt,
    "x1": family.x1,
    "x2": family.x2,
    "j1": family.j1,
    "j2": family.j2,
}


def _cmd_maps(args) -> int:
    fn = _MAPS[args.eval]
    at = INF if args.at.strip().lower() == "inf" else QQ.from_rational(Fraction(args.at))
    value = fn(at)
    _emit({"map": args.eval, "at": jsonio.proj_to_json(at),
           "value": jsonio.proj_to_json(value)})
    return 0


def _cmd_fiber(args) -> int:
    v = INF if args.jcv.strip().lower() == "inf" else QQ.from_rational(Fraction(args.jcv))
    fib = moduli.fiber_beta4(v)
    _emit({
        "v": jsonio.proj_to_json(fib.v),
        "polynomial": jsonio.poly_to_json(fib.polynomial),
        "points": [[jsonio.proj_to_json(pt), m] for pt, m in fib.points],
        "total_multiplicity": fib.total_multiplicity,
        "accounted_multiplicity": fib.accounted_multiplicity,
    })
    return 0


def _classify_doc(args) -> tuple[dict, Poly, moduli.Fiber]:
    """The j / exists / witness_u document that classify and lift share,
    with the target cubic and the beta4-fiber it was read from."""
    y = [Fraction(v) for v in (args.y1, args.y2, args.y3)]
    q = moduli.cubic_with_roots(*y, QQ)
    fiber = moduli.critical_fiber(q)
    res = moduli.classify_critical_values(fiber)
    doc = {"j": jsonio.proj_to_json(res.j),
           "exists": res.exists,
           "witness_u": None if res.witness_u is None
           else jsonio.format_rational(res.witness_u)}
    return doc, q, fiber


def _cmd_classify(args) -> int:
    doc, _, _ = _classify_doc(args)
    _emit(doc)
    return 0 if doc["exists"] is True else _NEGATIVE_EXIT


def _cmd_lift(args) -> int:
    doc, q, fiber = _classify_doc(args)
    try:
        lifts = moduli.lifts_from_cvpoly(q, fiber)
    except (NoRationalFiberPoint, EllipticTargetObstruction) as exc:
        doc["lift"] = None
        doc["obstruction"] = type(exc).__name__
        _emit(doc)
        return _NEGATIVE_EXIT
    doc["lift"] = jsonio.poly_to_json(lifts[0])
    doc["all_lifts"] = [jsonio.poly_to_json(p) for p in lifts]
    _emit(doc)
    return 0


def _cmd_weyl(args) -> int:
    if args.direct_only or args.reduced_only:
        fn, key = ((weyl.weyl_direct, "W") if args.direct_only
                   else (weyl.weyl_reduced, "reduced"))
        F, G = weyl.scaled_integral_pair(args.t)
        vf, vg = (fn(weyl.FpPoly.reduce(P, args.p, 2), args.a, args.p) for P in (F, G))
        _emit({"p": args.p, "a": args.a, "t": args.t,
               f"{key}_f": [vf.real, vf.imag], f"{key}_g": [vg.real, vg.imag],
               "pair_difference": abs(vf - vg)})
        return 0
    report = weyl.fd_pair_check(args.t, args.p, args.a)
    _emit(report.to_json_dict())
    return 0


def _cmd_sweep(args) -> int:
    field = PRESETS[args.field]
    bad = 0
    out = open(args.out, "w", newline="") if args.out != "-" else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["t", "case", "j1", "j2", "jt", "f_coeffs", "g_coeffs",
                         "equicritical", "inequivalent"])
        def flat(v):
            encoded = jsonio.proj_to_json(v)
            return encoded if isinstance(encoded, str) else json.dumps(encoded)

        # one row at a time: the range may be far too wide to hold in memory
        for t in range(args.t_from, args.t_to + 1):
            [row] = family.sweep([t], field)
            bad += not row.identities_ok
            f_json = (json.dumps(jsonio.poly_to_json(row.pair.f)["coeffs"])
                      if row.pair else "")
            g_json = (json.dumps(jsonio.poly_to_json(row.pair.g)["coeffs"])
                      if row.pair else "")
            writer.writerow([
                flat(row.t), row.case.value,
                flat(row.j1), flat(row.j2), flat(row.jt),
                f_json, g_json,
                str(row.equicritical).lower(),
                str(row.inequivalent).lower(),
            ])
    finally:
        if out is not sys.stdout:
            out.close()
            print(f"wrote {args.out}", file=sys.stderr)
    if bad:
        print(f"identity check failed on {bad} rows", file=sys.stderr)
        return _ERROR_EXIT
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The eqcrit argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="eqcrit",
        description="critical values of quartics, equicritical pairs, and "
                    "Weyl sums mod p^2, in exact arithmetic")
    sub = ap.add_subparsers(dest="command", required=True)

    field_kw = dict(choices=sorted(PRESETS), default="qq",
                    help="coefficient field preset")

    p = sub.add_parser("pair", help="emit the verified pair at parameter t")
    p.add_argument("--t", required=True,
                   help="rational value or symbolic token (rho, omega, inf, "
                        "...); write --t=-5/3 for negatives")
    p.add_argument("--field", **field_kw)
    p.add_argument("--pipeline", action="store_true",
                   help="build through the curve-integral pipeline")
    p.add_argument("--out", help="also write the JSON document to this file")
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("verify", help="recheck a pair file")
    p.add_argument("--file", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cvpoly", help="critical-value polynomial of a quartic")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.set_defaults(fn=_cmd_cvpoly)

    p = sub.add_parser("jcv", help="critical j-invariant of a quartic")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.set_defaults(fn=_cmd_jcv)

    p = sub.add_parser("maps", help="evaluate a named modular map exactly")
    p.add_argument("--eval", required=True, choices=sorted(_MAPS))
    p.add_argument("--at", required=True, help="rational value or 'inf'")
    p.set_defaults(fn=_cmd_maps)

    p = sub.add_parser("fiber", help="beta4-fiber over a critical j-invariant")
    p.add_argument("--jcv", required=True, help="rational value or 'inf'")
    p.set_defaults(fn=_cmd_fiber)

    for name, fn, help_ in (
            ("classify", _cmd_classify,
             "existence of a rational quartic with the given critical values"),
            ("lift", _cmd_lift,
             "construct a rational quartic with the given critical values")):
        p = sub.add_parser(name, help=help_)
        for flag in ("--y1", "--y2", "--y3"):
            p.add_argument(flag, required=True,
                           help="rational value (write --y1=-3/4 for negatives)")
        p.set_defaults(fn=fn)

    p = sub.add_parser("weyl", help="Weyl-sum report for the scaled pair at t")
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--a", required=True, type=int)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--direct-only", action="store_true")
    g.add_argument("--reduced-only", action="store_true")
    p.set_defaults(fn=_cmd_weyl)

    p = sub.add_parser("sweep", help="batch rows with all identity checks (CSV)")
    p.add_argument("--t-from", required=True, type=int)
    p.add_argument("--t-to", required=True, type=int)
    p.add_argument("--field", **field_kw)
    p.add_argument("--out", required=True, help="output CSV path ('-' = stdout)")
    p.set_defaults(fn=_cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (EqcritError, ValueError, ArithmeticError, OSError, KeyError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
