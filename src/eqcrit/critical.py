"""Critical values of polynomials: the cvpoly, the critical-point map,
Morse testing, affine actions, and the affine-equivalence decision."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegreeMismatch, NotQuartic, VerificationError, ZeroScale
from .fields import QQ, AlgElem, FieldSpec
from .poly import (Poly, divmod_poly, poly_gcd, rational_roots,
                   resultant_bivariate)


@dataclass(frozen=True)
class CVPoly:
    """Monic degree-(d-1) polynomial in y whose root multiset is the set
    of finite critical values of a degree-d source polynomial."""

    poly: Poly
    source_degree: int


def cvpoly(f: Poly, d: int | None = None) -> CVPoly:
    """Critical-value polynomial of f: monic, degree d-1, computed as
    (-1)^(d-1) Res_x(f'(x), f(x) - y) / (d lc(f))^d."""
    if f.is_zero() or f.degree < 2:
        raise DegreeMismatch("cvpoly needs a polynomial of degree >= 2")
    if d is None:
        d = f.degree
    elif d != f.degree:
        raise DegreeMismatch(f"declared degree {d} but deg f = {f.degree}")
    field = f.field
    fp = f.derivative()
    # coefficients of f' and f - y as elements of K[y]
    px = [Poly(field, (c,)) for c in fp.coeffs]
    qx = [Poly(field, (c,)) for c in f.coeffs]
    qx[0] = Poly(field, (f.coeffs[0], -1))
    res = resultant_bivariate(px, qx)
    scale = (field.coerce(d) * f.lc) ** d
    sign = field.one if (d - 1) % 2 == 0 else -field.one
    cv = res * (sign / scale)
    if cv.degree != d - 1 or cv.lc != 1:
        raise VerificationError("cvpoly normalization failed")
    return CVPoly(cv, d)


def _elementary_symmetric(points: Sequence[AlgElem], field: FieldSpec) -> list[AlgElem]:
    """e_0..e_n of the given points, via incremental expansion."""
    es = [field.one]
    for x in points:
        es.append(field.zero)
        for i in range(len(es) - 1, 0, -1):
            es[i] = es[i] + es[i - 1] * x
        # es currently accumulates coefficients of prod (1 + x_k T)
    return es


def poly_from_critical_points(points: Sequence[AlgElem | int | Fraction],
                              field: FieldSpec | None = None) -> Poly:
    """The normalized (monic, zero constant term) degree-d polynomial whose
    derivative is d * prod(x - x_i); d = len(points) + 1."""
    if field is None:
        field = points[0].field if isinstance(points[0], AlgElem) else QQ
    pts = [field.coerce(p) for p in points]
    d = len(pts) + 1
    es = _elementary_symmetric(pts, field)
    coeffs = [field.zero] * (d + 1)
    for i in range(d):
        # coefficient of x^(d-i): (-1)^i e_i d/(d-i)
        c = es[i] * Fraction(d, d - i)
        coeffs[d - i] = c if i % 2 == 0 else -c
    return Poly(field, coeffs)


def theta(points: Sequence[AlgElem | int | Fraction],
          field: FieldSpec | None = None) -> list[AlgElem]:
    """Finite critical values of the normalized polynomial with the given
    critical points: y_j = sum_i (-1)^i (d/(d-i)) e_i x_j^(d-i)."""
    if field is None:
        field = points[0].field if isinstance(points[0], AlgElem) else QQ
    pts = [field.coerce(p) for p in points]
    d = len(pts) + 1
    es = _elementary_symmetric(pts, field)
    out = []
    for xj in pts:
        acc = field.zero
        powers = [field.one]
        for _ in range(d):
            powers.append(powers[-1] * xj)
        for i in range(d):
            term = es[i] * Fraction(d, d - i) * powers[d - i]
            acc = acc + (term if i % 2 == 0 else -term)
        out.append(acc)
    return out


def is_morse(f: Poly) -> bool:
    """True iff the d-1 finite critical values are pairwise distinct."""
    cv = cvpoly(f).poly
    return poly_gcd(cv, cv.derivative()).degree == 0


def equicritical(f: Poly, g: Poly) -> bool:
    """True iff f and g have the same finite critical values, with
    multiplicity (exact monic cvpoly equality)."""
    if f.is_zero() or g.is_zero() or f.degree != g.degree:
        raise DegreeMismatch("equicritical needs equal degrees")
    return cvpoly(f).poly == cvpoly(g).poly


def apply_affine(f: Poly, a: AlgElem | int | Fraction,
                 b: AlgElem | int | Fraction) -> Poly:
    """Precomposition f(ax + b); leaves the cvpoly unchanged."""
    a = f.field.coerce(a)
    if a.is_zero():
        raise ZeroScale("affine scale must be nonzero")
    return f.compose(Poly(f.field, (b, a)))


def post_compose(c: AlgElem | int | Fraction, e: AlgElem | int | Fraction,
                 f: Poly) -> Poly:
    """c*f + e; transports critical values by z -> cz + e."""
    c = f.field.coerce(c)
    if c.is_zero():
        raise ZeroScale("post-composition scale must be nonzero")
    return f * c + f.field.coerce(e)


@dataclass
class EquivalenceVerdict:
    """Outcome of the affine-equivalence decision for two quartics.

    Equivalent comes with a witness (a, b) satisfying f = g(ax + b)
    exactly.  Undecided (only possible over a proper number field)
    carries the gcd obstruction polynomial in a.
    """

    status: str  # "Equivalent" | "Inequivalent" | "Undecided"
    witness: Optional[tuple[AlgElem, AlgElem]] = None
    obstruction: Optional[Poly] = None

    @property
    def is_equivalent(self) -> bool:
        return self.status == "Equivalent"


def _recompose_matches(f: Poly, g: Poly, a: AlgElem, b: AlgElem) -> bool:
    return not a.is_zero() and g.compose(Poly(g.field, (b, a))) == f


def affine_equivalent(f: Poly, g: Poly) -> EquivalenceVerdict:
    """Decide whether f = g(ax+b) for some a != 0, b over the declared field.

    The cubic coefficient pins b as a function of a; substituting it into
    the remaining coefficient equations and taking a monic gcd G(a) (always
    including a^4 g4 - f4) leaves finitely many candidates, each tested by
    exact recomposition.  Over Q the verdict is always decided; over a
    proper number field a gcd of degree >= 2 is reported as Undecided.
    """
    if f.is_zero() or g.is_zero() or f.degree != 4 or g.degree != 4:
        raise NotQuartic("affine equivalence is implemented for quartics")
    if f.field != g.field:
        raise DegreeMismatch("polynomials over different fields")
    field = f.field
    f4, f3, f2, f1, f0 = (f.coeff(i) for i in (4, 3, 2, 1, 0))
    g4, g3, g2, g1, g0 = (g.coeff(i) for i in (4, 3, 2, 1, 0))

    A = lambda *cs: Poly(field, cs)  # polynomials in the unknown scale a
    a_var = A(0, 1)
    # b(a) = (f3 a^-3 - g3)/(4 g4) = N/D with N, D in K[a]
    N = A(f3) - A(g3) * a_var ** 3
    D = A(g4 * 4) * a_var ** 3

    eqs = []
    eqs.append(A(g4) * a_var ** 4 - A(f4))
    # x^2:  a^2 (g2 + 3 g3 b + 6 g4 b^2) = f2, cleared by D^2
    eqs.append(a_var ** 2 * (A(g2) * D ** 2 + A(g3 * 3) * N * D + A(g4 * 6) * N ** 2)
               - A(f2) * D ** 2)
    # x^1:  a (g1 + 2 g2 b + 3 g3 b^2 + 4 g4 b^3) = f1, cleared by D^3
    eqs.append(a_var * (A(g1) * D ** 3 + A(g2 * 2) * N * D ** 2
                        + A(g3 * 3) * N ** 2 * D + A(g4 * 4) * N ** 3)
               - A(f1) * D ** 3)
    # x^0:  g0 + g1 b + g2 b^2 + g3 b^3 + g4 b^4 = f0, cleared by D^4
    eqs.append(A(g0) * D ** 4 + A(g1) * N * D ** 3 + A(g2) * N ** 2 * D ** 2
               + A(g3) * N ** 3 * D + A(g4) * N ** 4 - A(f0) * D ** 4)

    G: Poly | None = None
    for eq in eqs:
        if eq.is_zero():
            continue
        G = eq.monic() if G is None else poly_gcd(G, eq)
        if G.degree == 0:
            return EquivalenceVerdict("Inequivalent")
    assert G is not None  # the a^4 equation is never the zero polynomial

    def try_candidate(a0: AlgElem) -> Optional[tuple[AlgElem, AlgElem]]:
        if a0.is_zero():
            return None
        b0 = (f3 / a0 ** 3 - g3) / (g4 * 4)
        return (a0, b0) if _recompose_matches(f, g, a0, b0) else None

    if field == QQ:
        for r in sorted(set(rational_roots(G))):
            hit = try_candidate(field.from_rational(r))
            if hit:
                return EquivalenceVerdict("Equivalent", witness=hit)
        return EquivalenceVerdict("Inequivalent")

    # over a proper number field, peel off the enumerable candidates: the
    # single root when deg G = 1, and all rational roots when G has
    # rational coefficients; what remains (if anything) is the obstruction
    if G.degree >= 2 and all(c.is_rational() for c in G.coeffs):
        for r in sorted(set(rational_roots(G))):
            a0 = field.from_rational(r)
            hit = try_candidate(a0)
            if hit:
                return EquivalenceVerdict("Equivalent", witness=hit)
            lin = Poly(field, (-a0, 1))
            while True:
                quot, rem = divmod_poly(G, lin)
                if rem.is_zero():
                    G = quot
                else:
                    break
    if G.degree == 0:
        return EquivalenceVerdict("Inequivalent")
    if G.degree == 1:
        a0 = -G.coeff(0) / G.coeff(1)
        hit = try_candidate(a0)
        if hit:
            return EquivalenceVerdict("Equivalent", witness=hit)
        return EquivalenceVerdict("Inequivalent")
    return EquivalenceVerdict("Undecided", obstruction=G)
