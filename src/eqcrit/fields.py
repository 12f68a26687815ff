"""Quotient algebras Q[x]/(m) with exact rational coordinates.

Scalars are ``fractions.Fraction`` throughout; an :class:`AlgElem` is a
coordinate vector in the power basis 1, alpha, ..., alpha^(k-1) of
Q[x]/(m).  A degree-1 modulus represents Q itself.  The modulus is only
required to be squarefree, so the algebra may have a zero divisor;
inversion raises :class:`~eqcrit.errors.ZeroDivisor` in that case.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import FieldTooSmall, ZeroDivisor

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(v: RationalLike) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class FieldSpec:
    """A quotient algebra Q[x]/(m) with m monic squarefree.

    ``named`` maps element names (sqrt3, omega, i, rho, ...) to coordinate
    tuples when the element is representable.
    """

    __slots__ = ("modulus", "name", "generator_name", "named", "_deg")

    def __init__(self, modulus: Sequence[RationalLike], name: str = "custom",
                 generator_name: str = "a",
                 named: dict[str, tuple[Fraction, ...]] | None = None):
        mod = tuple(_as_fraction(c) for c in modulus)
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        m, r = list(mod), [c * i for i, c in enumerate(mod)][1:]
        while r:  # Euclid: gcd(m, m') is constant iff m is squarefree
            m, r = r, _poly_divmod(m, r)[1]
        if len(m) > 1:
            raise ValueError("modulus must be squarefree")
        self.modulus = mod
        self._deg = len(mod) - 1
        self.name = name
        self.generator_name = generator_name
        self.named = dict(named or {})

    @property
    def degree(self) -> int:
        return self._deg

    @property
    def is_rational(self) -> bool:
        return self._deg == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"FieldSpec({self.name})"

    # -- element constructors ----------------------------------------

    def element(self, coords: Iterable[RationalLike]) -> "AlgElem":
        c = tuple(_as_fraction(v) for v in coords)
        if len(c) != self._deg:
            raise ValueError(f"need {self._deg} coordinates, got {len(c)}")
        return AlgElem(c, self)

    def from_rational(self, v: RationalLike) -> "AlgElem":
        c = [_ZERO] * self._deg
        c[0] = _as_fraction(v)
        return AlgElem(tuple(c), self)

    @property
    def zero(self) -> "AlgElem":
        return self.from_rational(0)

    @property
    def one(self) -> "AlgElem":
        return self.from_rational(1)

    @property
    def generator(self) -> "AlgElem":
        if self._deg == 1:
            # Q[x]/(x - r): the generator is the rational root itself.
            return self.from_rational(-self.modulus[0])
        c = [_ZERO] * self._deg
        c[1] = _ONE
        return AlgElem(tuple(c), self)

    def named_element(self, name: str) -> "AlgElem":
        if name not in self.named:
            raise FieldTooSmall(f"{name!r} is not representable in {self.name}")
        return AlgElem(self.named[name], self)

    def has_named(self, name: str) -> bool:
        return name in self.named

    def coerce(self, v: "AlgElem | RationalLike") -> "AlgElem":
        if isinstance(v, AlgElem):
            if v.field != self:
                if v.is_rational():
                    return self.from_rational(v.coords[0])
                raise FieldTooSmall(
                    f"element {v!r} is not representable in {self.name}")
            return v
        return self.from_rational(v)


def _reduce_mod(coeffs: list[Fraction], modulus: tuple[Fraction, ...]) -> list[Fraction]:
    """Reduce a coefficient list mod the monic modulus, in place."""
    k = len(modulus) - 1
    for i in range(len(coeffs) - 1, k - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = _ZERO
            for j in range(k):
                coeffs[i - k + j] -= c * modulus[j]
    del coeffs[k:]
    while len(coeffs) < k:
        coeffs.append(_ZERO)
    return coeffs


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    """Division with remainder for dense Fraction lists (trailing zeros ok)."""
    num = num[:]
    while num and num[-1] == 0:
        num.pop()
    d = den[:]
    while d and d[-1] == 0:
        d.pop()
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(d):
        return [], num
    q = [_ZERO] * (len(num) - len(d) + 1)
    lc = d[-1]
    while len(num) >= len(d):
        c = num[-1] / lc
        k = len(num) - len(d)
        q[k] = c
        for j in range(len(d)):
            num[k + j] -= c * d[j]
        while num and num[-1] == 0:
            num.pop()
        if not num:
            break
    return q, num


class AlgElem:
    """An element of a FieldSpec, as a power-basis coordinate vector.

    Immutable; arithmetic is exact and performed mod the modulus.
    Mixed arithmetic with int/Fraction lifts the scalar into the algebra.
    """

    __slots__ = ("coords", "field")

    def __init__(self, coords: tuple[Fraction, ...], field: FieldSpec):
        self.coords = coords
        self.field = field

    # -- basic predicates --------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        """The element as a Fraction; raises if it has irrational coordinates."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coords[0]

    # -- arithmetic ---------------------------------------------------

    def _lift(self, other) -> "AlgElem | None":
        if isinstance(other, AlgElem):
            if other.field != self.field:
                if other.field.is_rational:
                    return self.field.from_rational(other.coords[0])
                if self.field.is_rational:
                    return None  # handled by reflected op
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return AlgElem(tuple(a + b for a, b in zip(self.coords, o.coords)), self.field)

    __radd__ = __add__

    def __neg__(self):
        return AlgElem(tuple(-a for a in self.coords), self.field)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return AlgElem(tuple(a - b for a, b in zip(self.coords, o.coords)), self.field)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        k = self.field.degree
        if k == 1:
            return AlgElem((self.coords[0] * o.coords[0],), self.field)
        prod = [_ZERO] * (2 * k - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        prod[i + j] += a * b
        return AlgElem(tuple(_reduce_mod(prod, self.field.modulus)), self.field)

    __rmul__ = __mul__

    def inverse(self) -> "AlgElem":
        """Extended-Euclid inverse in Q[x]/(m).

        Raises ZeroDivisionError for 0 and ZeroDivisor when the lift of the
        element shares a nonconstant factor with the modulus.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.field.degree == 1:
            return AlgElem((1 / self.coords[0],), self.field)
        # xgcd(lift, modulus): r0 = lift, r1 = m
        r0, s0 = list(self.coords), [_ONE]
        r1, s1 = list(self.field.modulus), [_ZERO]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if not r1:
                break
            q, rem = _poly_divmod(r0, r1)
            # s_new = s0 - q*s1
            s_new = s0[:] + [_ZERO] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        s_new[i + j] -= qc * sc
            r0, s0, r1, s1 = r1, s1, rem, s_new
        while r0 and r0[-1] == 0:
            r0.pop()
        if len(r0) != 1:
            raise ZeroDivisor(
                f"element shares the factor gcd of degree {len(r0) - 1} with the modulus")
        g = r0[0]
        inv = [c / g for c in s0]
        return AlgElem(tuple(_reduce_mod(inv, self.field.modulus)), self.field)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / display ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, AlgElem):
            return NotImplemented
        if other.field != self.field:
            if other.is_rational() and self.is_rational():
                return other.coords[0] == self.coords[0]
            return False
        return self.coords == other.coords

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.coords, self.field.modulus))

    def __repr__(self) -> str:
        g = self.field.generator_name
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mon = g if i == 1 else f"{g}^{i}"
                terms.append(mon if c == 1 else f"-{mon}" if c == -1 else f"{c}*{mon}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def complex_embedding(self, root: complex) -> complex:
        """Numeric value with the generator mapped to ``root`` (display only)."""
        acc = 0j
        for c in reversed(self.coords):
            acc = acc * root + complex(c)
        return acc


# -- built-in presets ------------------------------------------------------

QQ = FieldSpec((0, 1), name="qq", generator_name="x0")

Q_SQRT3 = FieldSpec(
    (-3, 0, 1), name="q-sqrt3", generator_name="sqrt3",
    named={
        "sqrt3": (_ZERO, _ONE),
        "rho": (_ONE, _ONE),                                  # 1 + sqrt3
        "rho_bar": (_ONE, Fraction(-1)),                      # 1 - sqrt3
    })

Q_OMEGA = FieldSpec(
    (1, 1, 1), name="q-omega", generator_name="omega",
    named={
        "omega": (_ZERO, _ONE),
        "omega2": (Fraction(-1), Fraction(-1)),               # omega^2 = -1 - omega
    })

# Q(zeta12), zeta a primitive 12th root of unity: contains sqrt3, i, omega.
def _z12(a, b, c, d):
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


Q_ZETA12 = FieldSpec(
    (1, 0, -1, 0, 1), name="q-zeta12", generator_name="z",
    named={
        "sqrt3": _z12(0, 2, 0, -1),       # 2z - z^3
        "i": _z12(0, 0, 0, 1),            # z^3
        "omega": _z12(-1, 0, 1, 0),       # z^2 - 1
        "omega2": _z12(0, 0, -1, 0),      # -z^2
        "rho": _z12(1, 2, 0, -1),         # 1 + sqrt3
        "rho_bar": _z12(1, -2, 0, 1),     # 1 - sqrt3
    })

PRESETS: dict[str, FieldSpec] = {
    "qq": QQ,
    "q-sqrt3": Q_SQRT3,
    "q-omega": Q_OMEGA,
    "q-zeta12": Q_ZETA12,
}

# Fixed complex embeddings of the preset generators, for display only.
DISPLAY_EMBEDDINGS: dict[str, complex] = {
    "qq": 0j,
    "q-sqrt3": complex(3 ** 0.5),
    "q-omega": complex(-0.5, 0.75 ** 0.5),
    "q-zeta12": complex(0.75 ** 0.5, 0.5),
}
