"""Output checker of the benchmark, independent of eqcrit.

It never imports eqcrit.  Critical values are recomputed with sympy as the
resultant Res_x(f'(x), f(x) - y), made monic; rational roots come from
sympy's factorization over Q.  Known answers are checked as well: the closed
forms of f_t and g_t, the exit codes of the symbolic parameters on each field
preset, realizability of theta-built triples, and for ``weyl`` an O(p)
critical-point sum computed here in pure Python.

``Checker.check(op)`` returns None for a correct op and otherwise
the reason it failed.  An op is a failure when its exit code is unexpected,
when it raised, or when its output is rejected.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from typing import Optional

import numpy as np
from sympy import QQ, Poly, symbols
from sympy.polys.rings import ring

# Field presets as the README documents them: modulus coefficients with
# index = degree, and the named constants each one contains.
PRESET_MODULI = {"q-sqrt3": (-3, 0, 1), "q-omega": (1, 1, 1),
                 "q-zeta12": (1, 0, -1, 0, 1)}
PRESET_CONTAINS = {"qq": set(), "q-sqrt3": {"sqrt3"}, "q-omega": {"omega"},
                   "q-zeta12": {"sqrt3", "omega", "i"}}
# What each symbolic --t needs from the field, and the case it resolves to.
# omega and omega^2 are the cusp parameters, which have no pair (exit 2); the
# omega-rho pairs need i.
_OMEGA_RHO = {"sqrt3", "omega", "i"}
TOKEN_NEEDS = {"inf": set(), "rho": {"sqrt3"}, "rho-bar": {"sqrt3"},
               "omega": {"omega"}, "omega2": {"omega"}, "m2omega": {"omega"},
               "m2omega2": {"omega"}, "omega-rho": _OMEGA_RHO,
               "omega2-rho": _OMEGA_RHO, "omega-rho-bar": _OMEGA_RHO,
               "omega2-rho-bar": _OMEGA_RHO}
TOKEN_CASE = {"inf": "TInfinity", "rho": "Rho", "rho-bar": "RhoBar",
              "m2omega": "M2Omega", "m2omega2": "M2Omega2",
              "omega-rho": "OmegaRho", "omega2-rho": "Omega2Rho",
              "omega-rho-bar": "OmegaRhoBar", "omega2-rho-bar": "Omega2RhoBar"}
NO_PAIR_TOKENS = {"omega", "omega2"}
VERIFIED = {"equicritical_exact": True, "inequivalent": True}
LIFT_OBSTRUCTIONS = {"NoRationalFiberPoint", "EllipticTargetObstruction"}
DISPLAY_TOLERANCE = 1e-6
WEYL_TOLERANCE = 1e-6


def expected_pair_exit(token: str, field: str) -> int:
    if not TOKEN_NEEDS[token] <= PRESET_CONTAINS[field]:
        return 1  # FieldTooSmall
    return 2 if token in NO_PAIR_TOKENS else 0


def _qq(r: Fraction):
    return QQ(r.numerator, r.denominator)


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def f_closed(t: Fraction) -> list[Fraction]:
    """x^4 - 6 t^3 x^2 - 8 t^3 x, index = degree."""
    return [Fraction(0), -8 * t ** 3, -6 * t ** 3, Fraction(0), Fraction(1)]


def g_closed(t: Fraction) -> list[Fraction]:
    """-((t-1)^3 v / (3 (t+2)^3)) x^4 + 2v x^2 + (8/3) v x - 8 t^4 (t^2+t+1)
    with v = t^4 (t-1)^3 / (t+2), index = degree."""
    v = t ** 4 * (t - 1) ** 3 / (t + 2)
    return [-8 * t ** 4 * (t ** 2 + t + 1), Fraction(8, 3) * v, 2 * v,
            Fraction(0), -((t - 1) ** 3) * v / (3 * (t + 2) ** 3)]


def j_invariant(ys: list[Fraction]) -> Fraction:
    """j of {y1, y2, y3, inf}: 1728 * 4A^3 / (4A^3 + 27B^2) for the
    depressed form z^3 + Az + B of (y - y1)(y - y2)(y - y3)."""
    e1 = sum(ys)
    e2 = ys[0] * ys[1] + ys[0] * ys[2] + ys[1] * ys[2]
    e3 = ys[0] * ys[1] * ys[2]
    A = e2 - e1 ** 2 / 3
    B = -e3 + e1 * e2 / 3 - 2 * e1 ** 3 / 27
    return 1728 * 4 * A ** 3 / (4 * A ** 3 + 27 * B ** 2)


def scaled_pair(t: int) -> tuple[list[int], list[int]]:
    """F = 3 (t+2)^4 f_t and G = 3 (t+2)^4 g_t as integer coefficients."""
    scale = 3 * (t + 2) ** 4
    out = []
    for coeffs in (f_closed(Fraction(t)), g_closed(Fraction(t))):
        scaled = [c * scale for c in coeffs]
        if any(c.denominator != 1 for c in scaled):
            raise ArithmeticError("scaled pair is not integral")
        out.append([int(c) for c in scaled])
    return out[0], out[1]


def critical_point_sum(coeffs: list[int], p: int, a: int) -> complex:
    """(1/p) sum over x mod p^2 of e(a f(x)/p^2), by x = v + p w: only v with
    f'(v) = 0 mod p survive, each contributing e(a f(v)/p^2)."""
    q = p * p
    deriv = [i * c for i, c in enumerate(coeffs)][1:]

    def ev(cs, x, m):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % m
        return acc

    return sum((cmath.exp(2j * cmath.pi * (a * ev(coeffs, v, q) % q) / q)
                for v in range(p) if ev(deriv, v, p) == 0), 0j)


class Checker:
    def __init__(self) -> None:
        self._rings: dict = {}

    # -- exact critical values ----------------------------------------------

    def _ring(self, field: str):
        """(ring in x, y, its coefficient domain) for a preset, or for Q."""
        if field not in self._rings:
            if field == "qq":
                domain = QQ
            else:
                z = symbols("z")
                modulus = PRESET_MODULI[field]
                domain = QQ.alg_field_from_poly(Poly(list(reversed(modulus)), z))
                if [int(c) for c in domain.mod.to_list()] != list(reversed(modulus)):
                    raise RuntimeError(f"sympy chose another modulus for {field}")
            R, x, y = ring("x,y", domain)
            self._rings[field] = (R, x, y, domain)
        return self._rings[field]

    def _element(self, domain, coords: list[Fraction]):
        if domain == QQ:
            return _qq(coords[0])
        rep = [_qq(c) for c in reversed(coords)]
        while rep and not rep[0]:
            rep.pop(0)
        return domain.new(rep)

    def cvpoly(self, field: str, coeffs: list[list[Fraction]]):
        """Monic Res_x(f', f - y) of f with the given coordinates."""
        R, x, y, domain = self._ring(field)
        f = R.zero
        for i, coords in enumerate(coeffs):
            f += R(self._element(domain, coords)) * x ** i
        return f.diff(x).resultant(f - y).monic()

    # -- ops ------------------------------------------------------------------

    def check(self, op: dict) -> Optional[str]:
        if op["error"]:
            return f"raised {op['error']}"
        try:
            doc = json.loads(op["out"])
        except ValueError:
            return "stdout is not one JSON document"
        kind = op["argv"][0]
        try:
            return getattr(self, f"_check_{kind}")(op["meta"], op["rc"], doc)
        except Exception as exc:  # an output the checks cannot read is a failure
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check_pair(self, meta: dict, rc: int, doc: dict) -> Optional[str]:
        field = meta["field"]
        if meta["token"]:
            token = meta["t"]
            want = expected_pair_exit(token, field)
            if rc != want:
                return f"exit {rc}, expected {want}"
            if want == 1:
                kind = doc["error"]["type"]
                return None if kind == "FieldTooSmall" else f"error {kind}"
            if want == 2:
                return None if doc["status"] == "no-pair" else "no no-pair status"
            if doc["case"] != TOKEN_CASE[token]:
                return f"case {doc['case']}, expected {TOKEN_CASE[token]}"
        else:
            if rc != 0:
                return f"exit {rc}, expected 0"
            t = Fraction(meta["t"])
            if doc["case"] != "Generic" or doc["t"] != str(t):
                return f"case {doc['case']} at t = {doc['t']}"
        if doc["field"] != field or doc["f"]["field"] != field \
                or doc["g"]["field"] != field:
            return "wrong field"
        if doc["verified"] != VERIFIED:
            return f"verified = {doc['verified']}"
        f = [[Fraction(c) for c in coords] for coords in doc["f"]["coeffs"]]
        g = [[Fraction(c) for c in coords] for coords in doc["g"]["coeffs"]]
        if len(f) != 5 or len(g) != 5:
            return "not a pair of quartics"
        rational = all(c == 0 for coords in f + g for c in coords[1:])
        if not meta["token"]:
            if not rational:
                return "irrational coefficients for a rational t"
            if [coords[0] for coords in f] != f_closed(t):
                return "f differs from x^4 - 6t^3 x^2 - 8t^3 x"
            if [coords[0] for coords in g] != g_closed(t):
                return "g differs from the closed form of g_t"
        # Over a number field, a pair with rational coordinates is checked in Q.
        cv = self.cvpoly("qq" if rational else field, f)
        if cv != self.cvpoly("qq" if rational else field, g):
            return "cvpoly(f) != cvpoly(g)"
        if rational:
            return self._check_display(cv, doc["display"]["critical_values"])
        return None

    def _check_display(self, cv, shown) -> Optional[str]:
        """The displayed critical values are the roots of the exact cvpoly."""
        terms = cv.to_dict()  # a polynomial in y alone
        coeffs = [float(terms.get((k,), 0)) for k in (3, 2, 1, 0)]
        roots = list(np.roots(coeffs))
        if len(shown) != len(roots):
            return f"{len(shown)} displayed critical values"
        for re_, im_ in shown:
            value = complex(re_, im_)
            nearest = min(roots, key=lambda r: abs(r - value))
            if abs(nearest - value) > DISPLAY_TOLERANCE * max(1.0, abs(nearest)):
                return f"displayed critical value {value} is not a root of cvpoly"
            roots.remove(nearest)
        return None

    def _check_lift(self, meta: dict, rc: int, doc: dict) -> Optional[str]:
        ys = [Fraction(y) for y in meta["y"]]
        j = j_invariant(ys)
        if doc["j"] != str(j):
            return f"j = {doc['j']}, expected {j}"
        if j in (0, 1728):
            exists, witness = "out-of-scope", None
        else:
            R, u = ring("u", QQ)
            member = (u + 3) ** 3 * (u + 27) - _qq(j) * u
            roots = []
            for factor, _ in member.factor_list()[1]:
                if factor.degree() == 1:
                    c = factor.to_dict()
                    roots.append(-_fraction(c.get((0,), QQ(0))) / _fraction(c[(1,)]))
            roots = [r for r in roots if r != 0]
            exists = bool(roots)
            witness = str(min(roots)) if roots else None
        if doc["exists"] != exists or doc["witness_u"] != witness:
            return (f"exists = {doc['exists']}, witness {doc['witness_u']}; "
                    f"expected {exists}, {witness}")
        if rc == 0:
            lifts = doc["all_lifts"]
            if not lifts or doc["lift"] != lifts[0]:
                return "lift is not the first of all_lifts"
            for lift in lifts:
                coeffs = [[Fraction(c) for c in coords] for coords in lift["coeffs"]]
                if lift["field"] != "qq" or len(coeffs) != 5:
                    return "a lift is not a rational quartic"
                cv = self.cvpoly("qq", coeffs)
                y = cv.ring.gens[0]
                if cv != (y - _qq(ys[0])) * (y - _qq(ys[1])) * (y - _qq(ys[2])):
                    return "a lift has other critical values than requested"
        elif rc == 2:
            if doc["lift"] is not None or doc["obstruction"] not in LIFT_OBSTRUCTIONS:
                return f"exit 2 with obstruction {doc.get('obstruction')}"
        else:
            return f"exit {rc}"
        if meta["built"] == "theta" and rc != 0:
            return "a theta-built triple was not lifted"
        if exists is True and rc != 0:
            return "classified as realizable but not lifted"
        if exists is False and rc != 2:
            return "classified as not realizable but lifted"
        return None

    def _check_weyl(self, meta: dict, rc: int, doc: dict) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}, expected 0"
        t, p, a = meta["t"], meta["p"], meta["a"]
        if (doc["t"], doc["p"], doc["a"]) != (t, p, a):
            return "report is for other parameters"
        if doc["exact_multiset_equal"] is not True:
            return "exact_multiset_equal is not true"
        if doc["within_tolerance"] is not True:
            return "within_tolerance is not true"
        if not all(doc["guards"].values()):
            return f"guards {doc['guards']}"
        F, G = scaled_pair(t)
        for key, coeffs in (("W_f", F), ("W_g", G)):
            mine = critical_point_sum(coeffs, p, a)
            if abs(complex(*doc[key]) - mine) > WEYL_TOLERANCE:
                return f"{key} = {doc[key]}, critical-point sum {mine}"
        return None
