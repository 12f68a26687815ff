"""The explicit modular model of the quartic Hurwitz space: j-invariants of
branch quadruples, the maps beta4 = pi3 o psi4, fiber solving, membership of
critical j-invariants, constructive lifts, and twist scales."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Optional, Union

from .critical import cvpoly, post_compose
from .errors import (EllipticJ, EllipticTargetObstruction, JMismatch,
                     NoRationalFiberPoint, NotDistinct, VerificationError)
from .fields import QQ, AlgElem, FieldSpec
from .poly import Poly, iroot, rational_roots


class _Infinity:
    """The point at infinity of P^1; compares equal only to itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Infinity)

    def __hash__(self) -> int:
        return hash("eqcrit-inf")


INF = _Infinity()

ProjValue = Union[AlgElem, _Infinity]


def is_inf(v) -> bool:
    return isinstance(v, _Infinity)


def as_proj(v, field: FieldSpec = QQ) -> ProjValue:
    """Coerce an int/Fraction/AlgElem/INF into a ProjValue over ``field``."""
    if is_inf(v):
        return INF
    return field.coerce(v)


def map_at(t: ProjValue, at_inf: ProjValue,
           formula: Callable[[AlgElem], ProjValue]) -> ProjValue:
    """A rational map of P^1 at t: at_inf at t = inf, formula(t) elsewhere,
    and inf at a pole, where the formula's one division hits zero."""
    if is_inf(t):
        return at_inf
    try:
        return formula(t)
    except ZeroDivisionError:
        return INF


# -- the three explicit maps -------------------------------------------------


def psi4(j: ProjValue) -> ProjValue:
    """j/64 - 27, the isomorphism onto the level-3 model; inf -> inf."""
    return map_at(j, INF, lambda j: j / 64 - 27)


def pi3(u: ProjValue) -> ProjValue:
    """(u+3)^3 (u+27) / u; the degree-4 covering of the j-line.
    pi3(0) = pi3(inf) = inf."""
    return map_at(u, INF, lambda u: (u + 3) ** 3 * (u + 27) / u)


def beta4(j: ProjValue) -> ProjValue:
    """2^-18 j (j-1536)^3 / (j-1728); beta4(1728) = beta4(inf) = inf.

    Equals pi3(psi4(j)) as an exact identity of rational maps.
    """
    return map_at(j, INF, lambda j: j * (j - 1536) ** 3 / ((j - 1728) * (1 << 18)))


# -- branch quadruples and short Weierstrass curves ---------------------------


def j_of_cubic(p: Poly) -> ProjValue:
    """j-invariant of the quadruple {roots of p, inf}, p a monic cubic:
    depress to y^3 + Ay + B and return -1728 (4A)^3 / Delta (inf if the
    cubic has a repeated root)."""
    if p.is_zero() or p.degree != 3 or p.lc != 1:
        raise ValueError("j_of_cubic needs a monic cubic")
    return ShortWeierstrass(*depressed_cubic_constants(p)).j


def depressed_cubic_constants(p: Poly) -> tuple[AlgElem, AlgElem]:
    """(A, B) of the depressed form y^3 + Ay + B of a monic cubic."""
    shift = -p.coeff(2) / 3
    q = p.compose(Poly(p.field, (shift, 1)))
    return q.coeff(1), q.coeff(0)


@dataclass(frozen=True)
class ShortWeierstrass:
    """E: y^2 = x^3 + Ax + B (A, B in a common field; possibly singular)."""

    A: AlgElem
    B: AlgElem

    @classmethod
    def make(cls, A, B, field: FieldSpec = QQ) -> "ShortWeierstrass":
        return cls(field.coerce(A), field.coerce(B))

    @property
    def field(self) -> FieldSpec:
        return self.A.field

    @property
    def discriminant(self) -> AlgElem:
        return (self.A ** 3 * 4 + self.B ** 2 * 27) * (-16)

    @property
    def j(self) -> ProjValue:
        disc = self.discriminant
        if disc.is_zero():
            return INF
        return self.A ** 3 * (-1728 * 64) / disc


def weierstrass_integral(E: ShortWeierstrass) -> Poly:
    """f_E(x) = 12 * int_0^x (s^3 + As + B) ds - A^2
             = 3x^4 + 6Ax^2 + 12Bx - A^2."""
    f = E.field
    return Poly(f, (-(E.A ** 2), E.B * 12, E.A * 6, f.zero, f.coerce(3)))


def jcv_of_curve(E: ShortWeierstrass) -> ProjValue:
    """Critical j-invariant of the Weierstrass integral of E, by the closed
    formula 2^20 A^3 (A^3 - 54 B^2)^3 / (B^2 Delta^3); inf on the loci
    where beta4 is inf (singular E, or j(E) = 1728 i.e. B = 0)."""
    disc = E.discriminant
    if disc.is_zero() or E.B.is_zero():
        return INF
    num = E.A ** 3 * (E.A ** 3 - E.B ** 2 * 54) ** 3 * (1 << 20)
    return num / (E.B ** 2 * disc ** 3)


def curve_with_j(j: AlgElem | int | Fraction,
                 field: FieldSpec = QQ) -> ShortWeierstrass:
    """The curve y^2 = x^3 + (3j/(1728-j))x + (2j/(1728-j)), valid and of
    j-invariant exactly j for j not in {0, 1728}."""
    j = field.coerce(j) if not isinstance(j, AlgElem) else j
    if j.is_zero() or j == 1728:
        raise EllipticJ("no one-parameter model at j in {0, 1728}; "
                        "use designated curves (0,1) and (1,0)")
    den = -j + 1728
    E = ShortWeierstrass(j * 3 / den, j * 2 / den)
    if E.j != j:
        raise VerificationError("curve_with_j produced a wrong j-invariant")
    return E


CURVE_J0 = ShortWeierstrass.make(0, 1)     # j = 0
CURVE_J1728 = ShortWeierstrass.make(1, 0)  # j = 1728


# -- beta4 fibers and membership ----------------------------------------------


@dataclass
class Fiber:
    """The beta4-fiber over a value v, of total multiplicity 4.

    ``polynomial`` cuts out the finite part (monic in j); ``points``
    lists the known roots in the base field together with the infinity
    conventions, as (value, multiplicity) pairs.
    """

    v: ProjValue
    polynomial: Poly
    points: list[tuple[ProjValue, int]]
    total_multiplicity: ClassVar[int] = 4

    @property
    def accounted_multiplicity(self) -> int:
        return sum(m for _, m in self.points)

    @property
    def witness_u(self) -> Optional[Fraction]:
        """The least rational u with pi3(u) = v, or None: psi4 of the least
        finite rational point, since beta4 = pi3 o psi4 and psi4 increases."""
        js = [pt.as_rational() for pt, _ in self.points if not is_inf(pt)]
        return psi4(min(js)) if js else None


def fiber_polynomial(v: AlgElem, field: FieldSpec = QQ) -> Poly:
    """j (j-1536)^3 - 2^18 v (j-1728), the monic quartic cutting out the
    finite beta4-fiber over finite v."""
    x = Poly(field, (0, 1))
    return x * (x - 1536) ** 3 - (x - 1728) * (v * (1 << 18))


def fiber_beta4(v, field: FieldSpec = QQ) -> Fiber:
    """Roots with multiplicity of the fiber polynomial (the fiber over inf
    is {1728, inf x3}); the rational sublist is found by rational_roots."""
    v = as_proj(v, field)
    if is_inf(v):
        poly = Poly(field, (-1728, 1))
        return Fiber(INF, poly, [(field.coerce(1728), 1), (INF, 3)])
    poly = fiber_polynomial(v, v.field)
    pts: list[tuple[ProjValue, int]] = []
    if all(c.is_rational() for c in poly.coeffs):
        roots = rational_roots(poly)
        for r in sorted(set(roots)):
            pts.append((v.field.coerce(r), roots.count(r)))
    return Fiber(v, poly, pts)


def cj_membership(v) -> Optional[Fraction]:
    """The smallest rational witness u with pi3(u) = v, or None; read off
    the beta4-fiber over v (v = inf has the witness u = 0)."""
    return fiber_beta4(v).witness_u


def critical_fiber(q: Poly) -> Fiber:
    """The beta4-fiber over the critical j-invariant of a monic cubic; its
    ``v`` is that j.  Classification and lifting both read it."""
    v = j_of_cubic(q)
    if is_inf(v):
        raise NotDistinct("the target cubic has a repeated root")
    return fiber_beta4(v, q.field)


# -- classification and constructive lifting -----------------------------------


@dataclass
class ClassifyResult:
    """Existence verdict for a rational quartic with prescribed distinct
    critical values; 'out-of-scope' at the elliptic j in {0, 1728}."""

    j: ProjValue
    exists: Union[bool, str]  # True | False | "out-of-scope"
    witness_u: Optional[Fraction] = None


def cubic_with_roots(y1, y2, y3, field: FieldSpec) -> Poly:
    """(x - y1)(x - y2)(x - y3) over the field, for pairwise distinct y."""
    ys = [field.coerce(y) for y in (y1, y2, y3)]
    if ys[0] == ys[1] or ys[0] == ys[2] or ys[1] == ys[2]:
        raise NotDistinct("branch points must be pairwise distinct")
    x = Poly(field, (0, 1))
    return (x - ys[0]) * (x - ys[1]) * (x - ys[2])


def classify_critical_values(fiber: Fiber) -> ClassifyResult:
    """Does a quartic over the field have the critical values of this
    critical_fiber?  Decided by its membership witness away from the
    elliptic j in {0, 1728}, where the characterization does not apply."""
    j = fiber.v
    if j == 0 or j == 1728:
        return ClassifyResult(j, "out-of-scope")
    u = fiber.witness_u
    return ClassifyResult(j, u is not None, u)


def _rational_root(r: Fraction, k: int) -> Optional[Fraction]:
    """The rational k-th root of r (the nonnegative one for even k), or None
    when r has none; exact for every size of r."""
    if r < 0:
        if k % 2 == 0:
            return None
        root = _rational_root(-r, k)
        return -root if root is not None else None
    n, d = iroot(r.numerator, k), iroot(r.denominator, k)
    if n ** k == r.numerator and d ** k == r.denominator:
        return Fraction(n, d)
    return None


def _twist_alpha(A0: AlgElem, B0: AlgElem, A1: AlgElem, B1: AlgElem) -> AlgElem:
    """alpha = A0 B1 / (A1 B0), checked against alpha^2 = A1/A0 and
    alpha^3 = B1/B0 (A, B of two curves with equal nonelliptic j)."""
    alpha = (A0 * B1) / (A1 * B0)
    if alpha ** 2 != A1 / A0 or alpha ** 3 != B1 / B0:
        raise VerificationError("twist scale verification equalities failed")
    return alpha


def _transport(f0: Poly, q0: Poly, q1: Poly) -> Optional[Poly]:
    """Affine map mu with cvpoly(mu o f0) = q1, given cvpoly(f0) = q0 and
    j(q0-quadruple) = j(q1-quadruple); None when the needed root is
    irrational (elliptic j only)."""
    s0 = q0.coeff(2) / (-3)
    s1 = q1.coeff(2) / (-3)
    A0, B0 = depressed_cubic_constants(q0)
    A1, B1 = depressed_cubic_constants(q1)
    if not A0.is_zero() and not B0.is_zero():
        alpha = _twist_alpha(A0, B0, A1, B1)
    else:
        # j = 0 needs a rational cube root of B1/B0, j = 1728 a square root of A1/A0
        ratio, k = (B1 / B0, 3) if A0.is_zero() else (A1 / A0, 2)
        root = _rational_root(ratio.as_rational(), k)
        if root is None:
            return None
        alpha = f0.field.coerce(root)
    # mu(z) = alpha (z - s0) + s1
    return post_compose(alpha, s1 - alpha * s0, f0)


def lifts_from_cvpoly(q1: Poly, fiber: Fiber) -> list[Poly]:
    """Every quartic whose critical-value polynomial equals the given monic
    squarefree cubic, obtainable from a rational point of its
    :func:`critical_fiber`; each result is self-verified exactly.

    Raises NoRationalFiberPoint when the fiber has no usable rational
    point, and EllipticTargetObstruction when only irrational transports
    exist (possible at j in {0, 1728} only).
    """
    field = q1.field
    candidates: list[ShortWeierstrass] = []
    for pt, _mult in fiber.points:
        if is_inf(pt) or pt == 1728:
            continue  # non-Morse integrals; no Morse lift through here
        if pt.is_zero():
            candidates.append(CURVE_J0)
        else:
            candidates.append(curve_with_j(pt, field))
    obstructed = False
    lifts: list[Poly] = []
    for E in candidates:
        f0 = weierstrass_integral(E)
        q0 = cvpoly(f0).poly
        lifted = _transport(f0, q0, q1)
        if lifted is None:
            obstructed = True
            continue
        if cvpoly(lifted).poly != q1.monic():
            raise VerificationError("lift postcondition cvpoly(result) = target failed")
        lifts.append(lifted)
    if not lifts:
        if obstructed:
            raise EllipticTargetObstruction(
                "only irrational transports exist for this elliptic-j target")
        raise NoRationalFiberPoint(
            "no rational point in the beta4-fiber over the critical j-invariant")
    return lifts


def twist_scale(E0: ShortWeierstrass, E1: ShortWeierstrass) -> AlgElem:
    """alpha = A0 B1 / (A1 B0); x -> alpha x carries the 2-torsion
    x-coordinates of E0 to those of E1.  Requires equal nonelliptic j."""
    if E0.A.is_zero() or E0.B.is_zero() or E1.A.is_zero() or E1.B.is_zero():
        raise EllipticJ("twist scale needs A B != 0 on both curves")
    if E0.j != E1.j:
        raise JMismatch("curves have different j-invariants")
    return _twist_alpha(E0.A, E0.B, E1.A, E1.B)
