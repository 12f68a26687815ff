"""Dense univariate polynomials over a FieldSpec, with exact arithmetic.

Canonical form: no trailing zero coefficients; the zero polynomial has an
empty coefficient vector and its ``degree`` is the sentinel ``None``
(never -1 arithmetic).  Includes monic Euclidean gcd, Sylvester-matrix
resultants by fraction-free (Bareiss) elimination, resultants over K[y]
by evaluation-interpolation, and rational roots by p-adic lifting of the
integer roots of a monic transform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .fields import QQ, AlgElem, FieldSpec, RationalLike

CoeffLike = Union[AlgElem, int, Fraction]


class Poly:
    """Dense polynomial; index = degree; coefficients are AlgElems."""

    __slots__ = ("coeffs", "field")

    def __init__(self, field: FieldSpec, coeffs: Iterable[CoeffLike] = ()):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self.field = field

    # -- basics --------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def lc(self) -> AlgElem:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> AlgElem:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.field.modulus))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            mon = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            cs = repr(c)
            if not mon:
                parts.append(cs)
            elif cs == "1":
                parts.append(mon)
            elif cs == "-1":
                parts.append(f"-{mon}")
            elif "+" in cs or (cs.count("-") and not cs.startswith("-")) or "*" in cs:
                parts.append(f"({cs})*{mon}")
            else:
                parts.append(f"{cs}*{mon}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, AlgElem)):
            other = Poly(self.field, (other,))
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field,
                    [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, AlgElem)):
            other = Poly(self.field, (other,))
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field,
                    [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgElem)):
            c = self.field.coerce(other)
            return Poly(self.field, [a * c for a in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly(self.field, (1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: CoeffLike) -> AlgElem:
        """Horner evaluation."""
        x = self.field.coerce(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- calculus-flavoured helpers --------------------------------------

    def derivative(self) -> "Poly":
        return Poly(self.field,
                    [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), by Horner over the polynomial ring."""
        self._check(inner)
        acc = Poly(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("monic of the zero polynomial")
        if self.lc == 1:
            return self
        inv = self.lc.inverse()
        return Poly(self.field, [c * inv for c in self.coeffs])


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Division with remainder over the coefficient field."""
    p._check(q)
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero() or len(p.coeffs) < len(q.coeffs):
        return Poly(p.field), p
    rem = list(p.coeffs)
    dq = len(q.coeffs) - 1
    inv_lc = q.lc.inverse()
    quot = [p.field.zero] * (len(rem) - dq)
    for k in range(len(rem) - dq - 1, -1, -1):
        c = rem[k + dq] * inv_lc
        if c.is_zero():
            continue
        quot[k] = c
        for j in range(dq + 1):
            rem[k + j] = rem[k + j] - c * q.coeffs[j]
    return Poly(p.field, quot), Poly(p.field, rem[:dq])


def exact_div(p: Poly, q: Poly) -> Poly:
    quot, rem = divmod_poly(p, q)
    if not rem.is_zero():
        raise ValueError("division is not exact")
    return quot


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic Euclidean gcd; not both zero."""
    p._check(q)
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero():
        # a monic divisor leaves the same remainder, and keeps the
        # coefficients of the remainders over Q from growing
        b = b.monic()
        a, b = b, divmod_poly(a, b)[1]
    return a.monic()


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic."""
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return Poly(p.field, (1,))
    return exact_div(p, poly_gcd(p, p.derivative())).monic()


# -- resultants -------------------------------------------------------------


def _det_bareiss(mat: list[list[AlgElem]], field: FieldSpec) -> AlgElem:
    """Determinant by fraction-free (Bareiss) elimination with row pivoting."""
    n = len(mat)
    if n == 0:
        return field.one
    sign = 1
    prev = field.one
    for k in range(n - 1):
        if mat[k][k].is_zero():
            for i in range(k + 1, n):
                if not mat[i][k].is_zero():
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return field.zero
        pivot = mat[k][k]
        inv_prev = prev.inverse()
        for i in range(k + 1, n):
            row_i = mat[i]
            row_k = mat[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) * inv_prev
            row_i[k] = field.zero
        prev = pivot
    d = mat[n - 1][n - 1]
    return d if sign == 1 else -d


def _sylvester(pc: Sequence, qc: Sequence, zero) -> list[list]:
    """Sylvester matrix rows for coefficient sequences (index = degree)."""
    m = len(pc) - 1
    n = len(qc) - 1
    size = m + n
    rows: list[list] = []
    rp = list(reversed(pc))
    rq = list(reversed(qc))
    for i in range(n):
        rows.append([zero] * i + rp + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + rq + [zero] * (size - n - 1 - i))
    return rows


def resultant(p: Poly, q: Poly) -> AlgElem:
    """Res(p, q) = det of the Sylvester matrix.

    Satisfies Res(p, q) = lc(p)^deg(q) * prod q(alpha) over the roots of p.
    """
    p._check(q)
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    field = p.field
    m, n = p.degree, q.degree
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    mat = _sylvester(p.coeffs, q.coeffs, field.zero)
    return _det_bareiss(mat, field)


def resultant_bivariate(px: Sequence[Poly], qx: Sequence[Poly]) -> Poly:
    """Res_x of two polynomials in x whose coefficients live in K[y].

    ``px[i]``/``qx[i]`` is the K[y]-coefficient of x^i; the leading entries
    must be nonzero.  Computed by evaluating the y-coefficients at distinct
    rational points, taking scalar Sylvester determinants, and
    interpolating; the formal Sylvester structure makes every node valid.
    """
    if not px or not qx or px[-1].is_zero() or qx[-1].is_zero():
        raise ValueError("leading coefficients in x must be nonzero")
    field = px[-1].field
    m, n = len(px) - 1, len(qx) - 1
    dp = max((0 if c.is_zero() else c.degree) for c in px)
    dq = max((0 if c.is_zero() else c.degree) for c in qx)
    bound = n * dp + m * dq
    nodes = [Fraction(k) for k in range(bound + 2)]
    values = []
    for node in nodes:
        pc = [c(node) for c in px]
        qc = [c(node) for c in qx]
        mat = _sylvester(pc, qc, field.zero)
        values.append(_det_bareiss(mat, field))
    out = interpolate(field, nodes, values)
    if not out.is_zero() and out.degree > bound:
        raise ArithmeticError("interpolated resultant exceeds its degree bound")
    return out


def interpolate(field: FieldSpec, nodes: Sequence[RationalLike],
                values: Sequence[AlgElem]) -> Poly:
    """Lagrange interpolation through (nodes[i], values[i]); exact."""
    if len(nodes) != len(values):
        raise ValueError("node/value length mismatch")
    total = Poly(field)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        if yi.is_zero():
            continue
        num = Poly(field, (1,))
        denom = field.one
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            num = num * Poly(field, (-Fraction(xj), 1))
            denom = denom * field.coerce(Fraction(xi) - Fraction(xj))
        total = total + num * (yi / denom)
    return total


# -- rational roots ---------------------------------------------------------


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for integers n >= 0 and k >= 1, exactly, by Newton's
    method on integers."""
    if n < 0:
        raise ValueError("iroot of a negative integer")
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _horner_mod(cs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _integer_roots(t: list[int]) -> list[int]:
    """The distinct integer roots of the monic squarefree integer polynomial
    t (index = degree, t[0] != 0), by p-adic lifting (Loos, SIAM J. Comput.
    12, 1983; von zur Gathen and Gerhard, Modern Computer Algebra, ch. 15).

    Take the least m >= 2 at which every root r of t mod m has
    gcd(t'(r), m) = 1; any prime not dividing disc(t) qualifies.  An integer
    root y divides t[0], and y mod m is one of those r, whose Newton lift
    mod m^(2^k) is unique; once the modulus exceeds 2|t[0]|, the symmetric
    residue is y.  Lifted residues that are not roots fail the exact test.
    """
    dt = [i * c for i, c in enumerate(t)][1:]
    m = 1
    while True:
        m += 1
        tm, dm = [c % m for c in t], [c % m for c in dt]
        starts = [r for r in range(m) if _horner_mod(tm, r, m) == 0]
        if all(math.gcd(_horner_mod(dm, r, m), m) == 1 for r in starts):
            break
    roots = []
    for r in starts:
        mod = m
        while mod <= 2 * abs(t[0]):
            mod *= mod
            r = (r - _horner_mod(t, r, mod)
                 * pow(_horner_mod(dt, r, mod), -1, mod)) % mod
        y = r - mod if 2 * r > mod else r
        if sum(c * y ** i for i, c in enumerate(t)) == 0:
            roots.append(y)
    return roots


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p with multiplicity (p over Q, nonzero).

    With s the squarefree part of p, denominators cleared, n = deg s and
    lc = lc(s), the distinct roots are y/lc for the integer roots y of the
    monic lc^(n-1) s(y/lc) (see :func:`_integer_roots`); a root's
    multiplicity is one more than the number of successive derivatives of
    p it annuls.
    """
    if p.is_zero():
        raise ValueError("rational roots of the zero polynomial")
    if not all(c.is_rational() for c in p.coeffs):
        raise ValueError("rational_roots needs rational coefficients")
    coeffs = [c.as_rational() for c in p.coeffs]
    den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    ints = [int(c * den) for c in coeffs]
    roots: list[Fraction] = []
    # strip x^k: roots at zero
    k = 0
    while k < len(ints) and ints[k] == 0:
        k += 1
    roots.extend([Fraction(0)] * k)
    ints = ints[k:]
    if len(ints) <= 1:
        return sorted(roots)
    g = math.gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]

    whole = Poly(QQ, ints)
    sqf = [c.as_rational() for c in squarefree_part(whole).coeffs]
    sden = math.lcm(*(c.denominator for c in sqf))
    s = [int(c * sden) for c in sqf]
    n, lc = len(s) - 1, s[-1]
    t = [c * lc ** (n - 1 - i) for i, c in enumerate(s[:-1])] + [1]
    for r in sorted(Fraction(y, lc) for y in _integer_roots(t)):
        # a root of p of multiplicity k annuls exactly k - 1 of p', p'', ...
        roots.append(r)
        q = whole.derivative()
        while q(r).is_zero():
            roots.append(r)
            q = q.derivative()
    return sorted(roots)
