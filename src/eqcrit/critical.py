"""Critical values of polynomials: the cvpoly, the critical-point map,
Morse testing, affine actions, and the affine-equivalence decision."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegreeMismatch, NotQuartic, VerificationError, ZeroScale
from .fields import QQ, AlgElem, FieldSpec
from .poly import Poly, poly_gcd, rational_roots


@dataclass(frozen=True)
class CVPoly:
    """Monic degree-(d-1) polynomial in y whose root multiset is the set
    of finite critical values of a degree-d source polynomial."""

    poly: Poly
    source_degree: int

    @property
    def is_morse(self) -> bool:
        """True iff the d-1 finite critical values are pairwise distinct."""
        return poly_gcd(self.poly, self.poly.derivative()).degree == 0


def cvpoly(f: Poly) -> CVPoly:
    """Critical-value polynomial of f: monic, degree d-1, the product of
    y - f(c) over the roots c of f'.

    That product is the characteristic polynomial of multiplication by f
    on K[x]/(h), h = f'/(d lc(f)), the norm-resultant identity (Cohen, A
    Course in Computational Algebraic Number Theory, GTM 138, 3.3 and 4.3).
    Column j of its matrix holds x^j f mod h; h is monic, so every
    reduction is a shift and a subtraction, and :func:`_charpoly` needs no
    division either, which keeps algebras with a zero divisor answerable.
    """
    if f.is_zero() or f.degree < 2:
        raise DegreeMismatch("cvpoly needs a polynomial of degree >= 2")
    d = f.degree
    field = f.field
    n = d - 1
    inv = (field.coerce(d) * f.lc).inverse()
    h = [c * inv for c in f.derivative().coeffs[:n]]  # monic h without its x^n

    def times_x(r: list[AlgElem]) -> list[AlgElem]:
        # x r mod h for a reduced r
        top = r[-1]
        return [-top * h[0]] + [r[i - 1] - top * h[i] for i in range(1, n)]

    col = [field.zero] * n
    for c in reversed(f.coeffs):  # Horner: col = f mod h
        col = times_x(col)
        col[0] = col[0] + c
    cols = [col]
    for _ in range(n - 1):
        cols.append(times_x(cols[-1]))
    cv = Poly(field, reversed(_charpoly(list(zip(*cols)), field)))
    if cv.degree != d - 1 or cv.lc != 1:
        raise VerificationError("cvpoly normalization failed")
    return CVPoly(cv, d)


def _charpoly(m: Sequence[Sequence[AlgElem]], field: FieldSpec) -> list[AlgElem]:
    """det(yI - m) of a square matrix, leading coefficient first, by
    Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984).

    The vector of the leading k x k block grows to the (k+1) x (k+1) one
    by the lower-triangular Toeplitz matrix with first column 1, -a,
    -R C, -R A C, ..., -R A^(k-1) C, where A is the k x k block, a the new
    diagonal entry, R the new row and C the new column.
    """
    vec = [field.one]
    for k in range(len(m)):
        row = m[k][:k]
        col = [m[i][k] for i in range(k)]
        first = [field.one, -m[k][k]]
        for _ in range(k):
            first.append(-sum((a * b for a, b in zip(row, col)), field.zero))
            col = [sum((a * b for a, b in zip(m[i][:k], col)), field.zero)
                   for i in range(k)]
        vec = [sum((first[i - j] * vec[j] for j in range(min(i, k) + 1)), field.zero)
               for i in range(k + 2)]
    return vec


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
    return cvpoly(f).is_morse


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
    carries the candidate polynomial in a that was left undecided.
    """

    status: str  # "Equivalent" | "Inequivalent" | "Undecided"
    witness: Optional[tuple[AlgElem, AlgElem]] = None
    obstruction: Optional[Poly] = None


def _recompose_matches(f: Poly, g: Poly, a: AlgElem, b: AlgElem) -> bool:
    return not a.is_zero() and g.compose(Poly(g.field, (b, a))) == f


def _depressed(f: Poly) -> tuple[AlgElem, Poly]:
    """(s, F) with F(y) = f(y + s) free of its cubic term."""
    s = -f.coeff(3) / (f.lc * 4)
    return s, f.compose(Poly(f.field, (s, 1)))


def affine_equivalent(f: Poly, g: Poly) -> EquivalenceVerdict:
    """Decide whether f = g(ax+b) for some a != 0, b over the declared field.

    With the depressed forms F(y) = f(y + s_f) and G(y) = g(y + s_g), f =
    g(ax + b) holds exactly when F(y) = G(ay) and b = s_g - a s_f, that is
    F0 = G0, F1 = G1 a, F2 = G2 a^2 and F4 = G4 a^4.  For G1 != 0 the only
    candidate is a = F1/G1; otherwise the candidates are the roots of the
    squarefree a^4 - F4/G4, or of its monic gcd with a^2 - F2/G2 when
    G2 != 0.  Each candidate is tested by exact recomposition.  Over Q the
    verdict is always decided; over a proper number field a candidate
    polynomial of degree >= 2 without rational roots is reported as
    Undecided, with that polynomial as the obstruction.
    """
    if f.is_zero() or g.is_zero() or f.degree != 4 or g.degree != 4:
        raise NotQuartic("affine equivalence is implemented for quartics")
    if f.field != g.field:
        raise DegreeMismatch("polynomials over different fields")
    field = f.field
    s_f, F = _depressed(f)
    s_g, G = _depressed(g)
    F4, F2, F1, F0 = (F.coeff(i) for i in (4, 2, 1, 0))
    G4, G2, G1, G0 = (G.coeff(i) for i in (4, 2, 1, 0))
    inequivalent = EquivalenceVerdict("Inequivalent")
    if F0 != G0 or F1.is_zero() != G1.is_zero() or F2.is_zero() != G2.is_zero():
        return inequivalent

    def verdict_at(a0: AlgElem) -> Optional[EquivalenceVerdict]:
        b0 = s_g - a0 * s_f
        if _recompose_matches(f, g, a0, b0):
            return EquivalenceVerdict("Equivalent", witness=(a0, b0))
        return None

    if not G1.is_zero():
        return verdict_at(F1 / G1) or inequivalent
    cands = Poly(field, (-(F4 / G4), 0, 0, 0, 1))
    if not G2.is_zero():
        cands = poly_gcd(cands, Poly(field, (-(F2 / G2), 0, 1)))
    # every root of cands solves the system, and cands is a polynomial in
    # a^2 (degree 0, 2 or 4): the least rational root, if any, is the witness
    if all(c.is_rational() for c in cands.coeffs):
        for r in rational_roots(cands):
            hit = verdict_at(field.from_rational(r))
            if hit:
                return hit
    if cands.degree == 0 or field == QQ:
        return inequivalent
    return EquivalenceVerdict("Undecided", obstruction=cands)
