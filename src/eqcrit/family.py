"""The classified family of inequivalent equicritical quartic pairs: the
generic t-parametrization, the curve-integral pipeline that produces it,
the special pairs over the cusps and elliptic fibers, and the sweep table
with its exact modular identities."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Optional, Sequence

from .critical import CVPoly, affine_equivalent, cvpoly, post_compose
from .errors import (ExcludedT, FieldTooSmall, NoPair, PoleAtT,
                     VerificationError)
from .fields import QQ, AlgElem, FieldSpec
from .moduli import (INF, ProjValue, ShortWeierstrass, as_proj, beta4,
                     is_inf, map_at, pi3, weierstrass_integral)
from .poly import Poly


class PairCase(str, Enum):
    GENERIC = "Generic"
    T0 = "T0"
    T1 = "T1"
    TM2 = "Tm2"
    T_INFINITY = "TInfinity"
    RHO = "Rho"
    RHO_BAR = "RhoBar"
    OMEGA_RHO = "OmegaRho"
    OMEGA2_RHO = "Omega2Rho"
    OMEGA_RHO_BAR = "OmegaRhoBar"
    OMEGA2_RHO_BAR = "Omega2RhoBar"
    M2_OMEGA = "M2Omega"
    M2_OMEGA2 = "M2Omega2"
    CUSP_OMEGA = "CuspOmega"


@dataclass
class EquicriticalPair:
    """A verified pair (f, g): same critical values, inequivalent; cv is
    their shared critical-value polynomial."""

    f: Poly
    g: Poly
    t: ProjValue
    case: PairCase
    field: FieldSpec
    cv: CVPoly
    verified: dict = dc_field(default_factory=dict)


# -- the modular parametrization maps (exact, with infinity conventions) ------


def gamma(t, field: FieldSpec = QQ) -> ProjValue:
    """gamma(t) = (t+2)/(t-1), the involution swapping the pair members."""
    return map_at(as_proj(t, field), field.one, lambda t: (t + 2) / (t - 1))


def x1(t, field: FieldSpec = QQ) -> ProjValue:
    """x1(t) = 27/(t^3 - 1) on the level-3 model."""
    return map_at(as_proj(t, field), field.zero, lambda t: 27 / (t ** 3 - 1))


def x2(t, field: FieldSpec = QQ) -> ProjValue:
    """x2(t) = 3(t-1)^3/(t^2+t+1) = x1((t+2)/(t-1))."""
    return map_at(as_proj(t, field), INF,
                  lambda t: (t - 1) ** 3 * 3 / (t ** 2 + t + 1))


def j1(t, field: FieldSpec = QQ) -> ProjValue:
    """j1(t) = 1728 t^3/(t^3-1), the critical-point j of the first member."""
    return map_at(as_proj(t, field), field.coerce(1728),
                  lambda t: t ** 3 * 1728 / (t ** 3 - 1))


def j2(t, field: FieldSpec = QQ) -> ProjValue:
    """j2(t) = 1728 + 192 (t-1)^3/(t^2+t+1) = j1(gamma(t))."""
    return map_at(as_proj(t, field), INF,
                  lambda t: (t - 1) ** 3 * 192 / (t ** 2 + t + 1) + 1728)


def jt(t, field: FieldSpec = QQ) -> ProjValue:
    """j_t = 27 (t (t^3+8)/(t^3-1))^3, the shared critical j-invariant."""
    return map_at(as_proj(t, field), INF,
                  lambda t: (t * (t ** 3 + 8)) ** 3 * 27 / (t ** 3 - 1) ** 3)


# -- closed-form family members ------------------------------------------------


def f_t(t, field: FieldSpec = QQ) -> Poly:
    """f_t = x^4 - 6 t^3 x^2 - 8 t^3 x."""
    t = field.coerce(t) if not isinstance(t, AlgElem) else t
    fld = t.field
    t3 = t ** 3
    return Poly(fld, (0, t3 * (-8), t3 * (-6), 0, 1))


def g_t(t, field: FieldSpec = QQ) -> Poly:
    """The partner of f_t:
    -((t-1)^3 v / (3 (t+2)^3)) x^4 + 2v x^2 + (8/3)v x - 8 t^4 (t^2+t+1)
    with v = t^4 (t-1)^3/(t+2); cross-checked against the equivalent
    closed form with leading -t^4(t-1)^6/(3(t+2)^4)."""
    t = field.coerce(t) if not isinstance(t, AlgElem) else t
    fld = t.field
    if t == 1 or t == -2:
        raise PoleAtT(f"g_t is degenerate at t = {t!r}")
    v = t ** 4 * (t - 1) ** 3 / (t + 2)
    lead = -((t - 1) ** 3 * v / ((t + 2) ** 3 * 3))
    const = t ** 4 * (t ** 2 + t + 1) * (-8)
    lead_alt = -(t ** 4 * (t - 1) ** 6 / ((t + 2) ** 4 * 3))
    const_alt = t ** 4 * (t + 2) ** 2 - t ** 4 * (t ** 2 + t + 1) * 12 + t ** 6 * 3
    if lead != lead_alt or const != const_alt:
        raise VerificationError("g_t closed forms disagree")
    return Poly(fld, (const, v * Fraction(8, 3), v * 2, 0, lead))


# -- special elements and the excluded set --------------------------------------


# token -> (factors, case) for every non-generic finite parameter: the value
# is the product of the factors, each a named field element or a rational
SPECIAL_T: dict[str, tuple[tuple, PairCase]] = {
    "0": ((0,), PairCase.T0),
    "1": ((1,), PairCase.T1),
    "-2": ((-2,), PairCase.TM2),
    "rho": (("rho",), PairCase.RHO),
    "rho-bar": (("rho_bar",), PairCase.RHO_BAR),
    "omega": (("omega",), PairCase.CUSP_OMEGA),
    "omega2": (("omega2",), PairCase.CUSP_OMEGA),
    "m2omega": (("omega", -2), PairCase.M2_OMEGA),
    "m2omega2": (("omega2", -2), PairCase.M2_OMEGA2),
    "omega-rho": (("omega", "rho"), PairCase.OMEGA_RHO),
    "omega2-rho": (("omega2", "rho"), PairCase.OMEGA2_RHO),
    "omega-rho-bar": (("omega", "rho_bar"), PairCase.OMEGA_RHO_BAR),
    "omega2-rho-bar": (("omega2", "rho_bar"), PairCase.OMEGA2_RHO_BAR),
}


def special_t(token: str, field: FieldSpec) -> AlgElem:
    """The value of a SPECIAL_T token in the field, the product of its
    factors from the first on; FieldTooSmall when a named factor is not
    representable there."""
    return reduce(mul, (field.named_element(p) if isinstance(p, str)
                        else field.from_rational(p) for p in SPECIAL_T[token][0]))


def _special_values(field: FieldSpec) -> list[tuple[AlgElem, PairCase]]:
    """The non-generic parameter values representable in the field, with the
    case each one dispatches to."""
    return [(special_t(token, field), case)
            for token, (factors, case) in SPECIAL_T.items()
            if all(field.has_named(p) for p in factors if isinstance(p, str))]


def classify_parameter(t, field: FieldSpec = QQ) -> PairCase:
    """Which case of the classification a parameter value falls in."""
    t = as_proj(t, field)
    if is_inf(t):
        return PairCase.T_INFINITY
    for value, case in _special_values(t.field):
        if t == value:
            return case
    return PairCase.GENERIC


# -- pipeline construction (Weierstrass integrals + transport) -------------------


def pipeline_pair(t, field: FieldSpec = QQ) -> EquicriticalPair:
    """The generic pair built the way it was found: integrate the
    Weierstrass polynomials of the two curves with j-invariants j1(t),
    j2(t), transport the second by lambda_t, normalize both by
    mu(z) = z/3 + 3t^6; must equal (f_t, g_t) coefficientwise."""
    if is_inf(t):
        raise PoleAtT("pipeline_pair is defined for finite parameters")
    t = field.coerce(t) if not isinstance(t, AlgElem) else t
    fld = t.field
    case = classify_parameter(t, fld)
    if case in (PairCase.T0, PairCase.T1, PairCase.TM2):
        raise PoleAtT(f"pipeline_pair has a pole at t = {t!r}")
    if case is not PairCase.GENERIC:
        raise ExcludedT(f"t = {t!r} lies in the excluded set ({case.value})")
    s = (t + 2) / (t - 1)
    E = ShortWeierstrass(t ** 3 * -3, t ** 3 * -2)
    F = ShortWeierstrass(s ** 3 * -3, s ** 3 * -2)
    f_up = weierstrass_integral(E)   # 3x^4 - 18 t^3 x^2 - 24 t^3 x - 9 t^6
    g_up = weierstrass_integral(F)
    lam_scale = -(t ** 4 * (t - 1) ** 6 / ((t + 2) ** 4 * 3))
    lam_shift = t ** 4 * (t ** 2 + t + 1) * -36
    g_moved = post_compose(lam_scale, lam_shift, g_up)
    mu_shift = t ** 6 * 3
    f = post_compose(Fraction(1, 3), mu_shift, f_up)
    g = post_compose(Fraction(1, 3), mu_shift, g_moved)
    if f != f_t(t) or g != g_t(t):
        raise VerificationError("pipeline disagrees with the closed form")
    return _verified_pair(f, g, t, PairCase.GENERIC, fld)


# -- the special pairs -----------------------------------------------------------


def _p0(field: FieldSpec) -> Poly:
    return Poly(field, (0, -1, 0, 0, 1))  # x^4 - x


def _g0(field: FieldSpec) -> Poly:
    # -1/48 x^4 - 1/4 x^2 + 1/6 x - 1/2  (the -1/4 is the verified constant)
    return Poly(field, (Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 4), 0,
                        Fraction(-1, 48)))


def _c1_members(field: FieldSpec) -> tuple[Poly, Poly]:
    f = Poly(field, (0, 0, 9, 6, 1))      # x^2 (x+3)^2
    g = Poly(field, (0, 0, 0, -6, -3))    # -3 x^3 (x+2)
    return f, g


def _f_rho(field: FieldSpec, conjugate: bool) -> Poly:
    s3 = field.named_element("sqrt3")
    rho = 1 - s3 if conjugate else 1 + s3
    return f_t(rho, field)


def _C_of(field: FieldSpec, conjugate: bool) -> AlgElem:
    s3 = field.named_element("sqrt3")
    return s3 * 720 - 1248 if conjugate else s3 * -720 - 1248


def _iR_of(field: FieldSpec, conjugate: bool) -> AlgElem:
    s3 = field.named_element("sqrt3")
    i = field.named_element("i")
    R = s3 * -209 + 362 if conjugate else s3 * 209 + 362
    return i * R


def _verified_pair(f: Poly, g: Poly, t: ProjValue, case: PairCase,
                   field: FieldSpec) -> EquicriticalPair:
    """Fail-closed construction: every returned pair is equicritical
    exactly and decided Inequivalent."""
    cv = cvpoly(f)
    if cv.poly != cvpoly(g).poly:
        raise VerificationError(
            f"pair for case {case.value} is not equicritical")
    verdict = affine_equivalent(f, g)
    if verdict.status != "Inequivalent":
        raise VerificationError(
            f"pair for case {case.value} has equivalence verdict {verdict.status}")
    return EquicriticalPair(f, g, t, case, field, cv,
                            verified={"equicritical_exact": True,
                                      "inequivalent": True})


def pair(t, field: FieldSpec = QQ) -> EquicriticalPair:
    """The classified pair at parameter t over the given field.

    Dispatches on the case split; raises NoPair at the cusp exceptions
    t in {omega, omega^2} and FieldTooSmall when a required constant is
    not representable.
    """
    t = as_proj(t, field)
    case = classify_parameter(t, field)
    fld = field

    if case is PairCase.T_INFINITY:
        f, g = _c1_members(fld)
        return _verified_pair(g, f, INF, case, fld)
    if case is PairCase.T0:
        return _verified_pair(_p0(fld), _g0(fld), t, case, fld)
    if case is PairCase.TM2:
        return _verified_pair(_g0(fld), _p0(fld), t, case, fld)
    if case is PairCase.T1:
        f, g = _c1_members(fld)
        return _verified_pair(f, g, t, case, fld)
    if case is PairCase.CUSP_OMEGA:
        raise NoPair("t in {omega, omega^2}: non-Morse topological types do "
                     "not pair up")
    if case is PairCase.M2_OMEGA or case is PairCase.M2_OMEGA2:
        w = fld.named_element("omega")
        g0 = _g0(fld)
        wg0 = g0 * w
        if case is PairCase.M2_OMEGA:
            return _verified_pair(g0, wg0, t, case, fld)
        return _verified_pair(wg0, g0, t, case, fld)
    if case is PairCase.RHO or case is PairCase.RHO_BAR:
        conj = case is PairCase.RHO_BAR
        f = _f_rho(fld, conj)
        C = _C_of(fld, conj)
        return _verified_pair(f, post_compose(-1, C * 2, f), t, case, fld)
    if case in (PairCase.OMEGA_RHO, PairCase.OMEGA2_RHO,
                PairCase.OMEGA_RHO_BAR, PairCase.OMEGA2_RHO_BAR):
        if not fld.has_named("i"):
            raise FieldTooSmall("the omega-rho pairs need i (use q-zeta12)")
        f = _f_rho(fld, conjugate=False)
        f_bar = _f_rho(fld, conjugate=True)
        C = _C_of(fld, conjugate=False)
        C_bar = _C_of(fld, conjugate=True)
        iR = _iR_of(fld, conjugate=False)
        # the transported partner: iR (pm f_bar mp C_bar) + C; the +C shift
        # recentres the transported values onto the critical values of f_rho
        if case in (PairCase.OMEGA_RHO, PairCase.OMEGA_RHO_BAR):
            partner = post_compose(iR, -(iR * C_bar) + C, f_bar)
        else:
            partner = post_compose(-iR, iR * C_bar + C, f_bar)
        if case in (PairCase.OMEGA_RHO, PairCase.OMEGA2_RHO):
            return _verified_pair(f, partner, t, case, fld)
        return _verified_pair(partner, f, t, case, fld)

    # generic branch
    if is_inf(t):  # pragma: no cover - handled above
        raise ExcludedT("unreachable")
    return _verified_pair(f_t(t, fld), g_t(t, fld), t, PairCase.GENERIC, fld)


# -- sweep -----------------------------------------------------------------------


@dataclass
class SweepRow:
    t: ProjValue
    case: PairCase
    j1: ProjValue
    j2: ProjValue
    jt: ProjValue
    pair: Optional[EquicriticalPair]
    identities_ok: bool
    note: str = ""

    @property
    def equicritical(self) -> bool:
        return bool(self.pair and self.pair.verified.get("equicritical_exact"))

    @property
    def inequivalent(self) -> bool:
        return bool(self.pair and self.pair.verified.get("inequivalent"))


def sweep(t_values: Sequence, field: FieldSpec = QQ) -> list[SweepRow]:
    """Per-parameter table rows with the exact identity checks
    pi3(x1) = pi3(x2) = j_t, beta4(j1) = beta4(j2) = j_t and
    x2 = x1(gamma(t)); rows with poles are flagged, not fatal."""
    rows = []
    for t in t_values:
        tv = as_proj(t, field)
        case = classify_parameter(tv, field)
        v_j1, v_j2, v_jt = j1(tv, field), j2(tv, field), jt(tv, field)
        ok = (pi3(x1(tv, field)) == v_jt and pi3(x2(tv, field)) == v_jt
              and beta4(v_j1) == v_jt and beta4(v_j2) == v_jt
              and x2(tv, field) == x1(gamma(tv, field), field))
        note = ""
        the_pair = None
        try:
            the_pair = pair(tv, field)
        except NoPair:
            note = "no-pair"
        except (PoleAtT, FieldTooSmall) as exc:
            note = type(exc).__name__
        rows.append(SweepRow(tv, case, v_j1, v_j2, v_jt, the_pair, ok, note))
    return rows


def jt_fiber_parameters(t, field: FieldSpec = QQ) -> list[ProjValue]:
    """The preimage parameters gamma^i(omega^k gamma^j(t)) of j_t that are
    representable in the field (all 12 need omega; 4 otherwise)."""
    t = as_proj(t, field)
    units: list[AlgElem] = [field.one]
    if field.has_named("omega"):
        units += [field.named_element("omega"), field.named_element("omega2")]
    out = []
    for jj in (0, 1):
        base = t if jj == 0 else gamma(t, field)
        for w in units:
            if is_inf(base):
                scaled = INF
            else:
                scaled = base * w
            for ii in (0, 1):
                out.append(scaled if ii == 0 else gamma(scaled, field))
    return out
