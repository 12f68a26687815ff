"""Dense univariate polynomials over a FieldSpec, with exact arithmetic.

Canonical form: no trailing zero coefficients; the zero polynomial has an
empty coefficient vector and its ``degree`` is the sentinel ``None``
(never -1 arithmetic).  Includes monic Euclidean gcd, Sylvester-matrix
resultants by fraction-free (Bareiss) elimination, resultants over K[y]
by evaluation-interpolation, and rational root extraction by divisor
search.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .fields import AlgElem, FieldSpec, RationalLike

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

    def shift_x(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (self.field.zero,) * k + self.coeffs)

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
        a, b = b, divmod_poly(a, b)[1]
    return a.monic()


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic."""
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return Poly(p.field, (1,))
    return exact_div(p, poly_gcd(p, p.derivative())).monic()


def derivative(p: Poly) -> Poly:
    return p.derivative()


def compose(p: Poly, q: Poly) -> Poly:
    return p.compose(q)


def monic(p: Poly) -> Poly:
    return p.monic()


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


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    """Brent-cycle Pollard rho; n odd composite, returns a proper factor."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


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


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(m, k) with m^k = n and k > 1, if such exists."""
    for k in (2, 3, 5, 7):
        if n.bit_length() < k:
            continue
        m = iroot(n, k)
        if m ** k == n:
            return m, k
    return None


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| (trial division, perfect-power peeling,
    Miller-Rabin, Pollard rho with Brent's cycle detection)."""
    return dict(_factorint_cached(abs(n)))


@lru_cache(maxsize=4096)
def _factorint_cached(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    if n <= 1:
        return ()
    for p in (2, 3, 5, 7):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 11
    while d * d <= n and d < 10000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        rng = random.Random(0xEC4)
        stack = [(n, 1)]
        while stack:
            v, mult = stack.pop()
            if v == 1:
                continue
            if _is_probable_prime(v):
                out[v] = out.get(v, 0) + mult
                continue
            power = _perfect_power(v)
            if power is not None:
                stack.append((power[0], mult * power[1]))
                continue
            f = _pollard_rho(v, rng)
            stack.append((f, mult))
            stack.append((v // f, mult))
    return tuple(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of |n|, unsorted."""
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _root_valuations(ints: list[int], p: int) -> list[int]:
    """Admissible p-adic valuations of a rational root: the negated integer
    slopes of the lower Newton polygon of the coefficients at p."""
    pts = [(i, _valuation(c, p)) for i, c in enumerate(ints) if c != 0]
    # lower convex hull, left to right
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        num, den = y1 - y2, x2 - x1  # -slope
        if num % den == 0:
            out.append(num // den)
    return out


def _root_candidates(ints: list[int]) -> list[Fraction]:
    """Candidate rational roots by divisor search restricted to the Newton
    polygon valuations (the exact prime powers a root can carry)."""
    primes = set(factorint(ints[0])) | set(factorint(ints[-1]))
    magnitudes = [Fraction(1)]
    for p in sorted(primes):
        vals = _root_valuations(ints, p)
        magnitudes = [m * Fraction(p) ** v for m in magnitudes for v in vals]
    return sorted({sign * m for m in magnitudes for sign in (1, -1)})


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p with multiplicity (p over Q, nonzero).

    Divisor search on numerator/denominator candidates after clearing
    denominators (pruned to the valuations the Newton polygon admits),
    then deflation for multiplicities.
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

    def eval_int(cs: list[int], r: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * r + c
        return acc

    def deflate(cs: list[int], r: Fraction) -> list[int]:
        # cs / (x - r), exact; clear the denominator reintroduced by r
        quot_fr: list[Fraction] = [Fraction(0)] * (len(cs) - 1)
        acc = Fraction(0)
        for i in range(len(cs) - 1, 0, -1):
            acc = acc * r + cs[i]
            quot_fr[i - 1] = acc
        d = math.lcm(*(q.denominator for q in quot_fr))
        out = [int(q * d) for q in quot_fr]
        gg = math.gcd(*out)
        return [c // gg for c in out] if gg > 1 else out

    # classical filters: if r/s is a root then (r - s) | p(1), (r + s) | p(-1)
    p_at_1 = sum(ints)
    p_at_m1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(ints))
    for r in _root_candidates(ints):
        rn, rd = r.numerator, r.denominator
        if p_at_1 != 0 and (rn - rd) != 0 and p_at_1 % (rn - rd) != 0:
            continue
        if p_at_m1 != 0 and (rn + rd) != 0 and p_at_m1 % (rn + rd) != 0:
            continue
        while len(ints) > 1 and ints[0] != 0 and eval_int(ints, r) == 0:
            roots.append(r)
            ints = deflate(ints, r)
    return sorted(roots)
