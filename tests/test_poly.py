import random
import time
from fractions import Fraction

import pytest
import sympy

from eqcrit.fields import Q_SQRT3, QQ
from eqcrit.poly import (Poly, divmod_poly, exact_div, interpolate, iroot,
                         poly_gcd, rational_roots, resultant,
                         resultant_bivariate, squarefree_part)

X = Poly(QQ, (0, 1))


def qq(*coeffs):
    return Poly(QQ, coeffs)


def to_sympy(p):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(c.as_rational()) * x ** i
               for i, c in enumerate(p.coeffs))


def random_poly(rng, max_deg=4, size=9):
    return qq(*[Fraction(rng.randint(-size, size), rng.randint(1, 4))
                for _ in range(rng.randint(1, max_deg + 1))])


def test_canonical_zero():
    z = qq(0, 0, 0)
    assert z.is_zero() and z.coeffs == () and z.degree is None


def test_gcd_examples():
    assert poly_gcd(X ** 2 - 1, X - 1) == X - 1
    f = qq(3, 0, -6, 2)
    assert poly_gcd(f, f) == f.monic()
    p = (X ** 2 + 1) * (X - 2)
    q = (X ** 2 + 1) * (X + 5)
    g = poly_gcd(p, q)
    assert g == X ** 2 + 1
    assert exact_div(p, g) == X - 2 and exact_div(q, g) == X + 5


def test_gcd_product_bookkeeping():
    rng = random.Random(7)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        g = poly_gcd(p, q)
        assert p * q == exact_div(p, g) * exact_div(q, g) * g * g


def test_resultant_examples():
    assert resultant(X ** 2 - 1, X - 2) == 3
    # defining property Res(p,q) = lc(p)^deg(q) prod q(roots of p):
    # for p = x-a, q = x-b this is q(a) = a-b
    a, b = Fraction(5), Fraction(-7, 2)
    assert resultant(X - a, X - b) == a - b


def test_resultant_multiplicative():
    rng = random.Random(11)
    for _ in range(50):
        p, q, r = (random_poly(rng, 3) for _ in range(3))
        if p.is_zero() or q.is_zero() or r.is_zero():
            continue
        assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)


def test_resultant_swap_sign():
    rng = random.Random(13)
    for _ in range(50):
        p, q = random_poly(rng), random_poly(rng)
        if p.is_zero() or q.is_zero() or p.degree == 0 or q.degree == 0:
            continue
        sign = (-1) ** (p.degree * q.degree)
        assert resultant(p, q) == sign * resultant(q, p)


def sympy_sylvester_det(p, q):
    # independent oracle: build the Sylvester matrix from scratch and take
    # its determinant with sympy (sympy.resultant itself carries PRS sign
    # quirks when deg p < deg q)
    m, n = p.degree, q.degree
    pc = [sympy.Rational(c.as_rational()) for c in reversed(p.coeffs)]
    qc = [sympy.Rational(c.as_rational()) for c in reversed(q.coeffs)]
    rows = [[0] * i + pc + [0] * (m + n - m - 1 - i) for i in range(n)]
    rows += [[0] * i + qc + [0] * (m + n - n - 1 - i) for i in range(m)]
    return sympy.Matrix(rows).det()


def test_resultant_against_sympy_sylvester_det():
    rng = random.Random(17)
    for _ in range(25):
        p, q = random_poly(rng), random_poly(rng)
        if p.is_zero() or q.is_zero() or p.degree == 0 or q.degree == 0:
            continue
        ours = resultant(p, q).as_rational()
        assert sympy.Rational(ours) == sympy_sylvester_det(p, q)


def test_resultant_defining_property_on_split_polys():
    # Res(p, q) = lc(p)^deg(q) * prod q(alpha) over the roots of p
    rng = random.Random(19)
    for _ in range(30):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))]
        lc = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        p = qq(lc)
        for r in roots:
            p = p * (X - r)
        q = random_poly(rng)
        if q.is_zero() or q.degree == 0:
            continue
        expected = QQ.coerce(lc ** q.degree)
        for r in roots:
            expected = expected * q(r)
        assert resultant(p, q) == expected


def test_resultant_over_number_field():
    s3 = Q_SQRT3.named_element("sqrt3")
    x = Poly(Q_SQRT3, (0, 1))
    # Res(x - sqrt3, x + sqrt3) = 2 sqrt3 evaluated: (x+sqrt3) at sqrt3
    assert resultant(x - s3, x + s3) == s3 * 2


def test_resultant_bivariate_matches_sympy():
    # Res_x(f'(x), f(x) - y) for f = x^4 - x, as a polynomial in y
    f = qq(0, -1, 0, 0, 1)
    fp = f.derivative()
    px = [qq(c.as_rational()) for c in fp.coeffs]
    qx = [qq(c.as_rational()) for c in f.coeffs]
    qx[0] = qq(f.coeffs[0].as_rational(), -1)
    ours = resultant_bivariate(px, qx)
    x, y = sympy.symbols("x y")
    theirs = sympy.Poly(
        sympy.resultant(4 * x ** 3 - 1, x ** 4 - x - y, x), y).all_coeffs()
    assert [c.as_rational() for c in reversed(ours.coeffs)] == [
        Fraction(int(t.p), int(t.q)) for t in map(sympy.Rational, theirs)]


def test_rational_roots_examples():
    assert rational_roots(X ** 2 - 4) == [-2, 2]
    p = (X - Fraction(1, 3)) ** 2 * (X ** 2 + 1)
    assert rational_roots(p) == [Fraction(1, 3), Fraction(1, 3)]
    assert p(Fraction(1, 3)).is_zero()
    assert rational_roots(X ** 2 - 2) == []


def test_rational_roots_substitute_back():
    rng = random.Random(23)
    for _ in range(30):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(rng.randint(1, 3))]
        p = qq(1)
        for r in roots:
            p = p * (X - r)
        p = p * (X ** 2 + rng.randint(1, 5))  # irrational noise factor
        found = rational_roots(p)
        assert found == sorted(roots)
        for r in found:
            assert p(r).is_zero()


def test_rational_roots_zero_roots_and_big_coeffs():
    p = X ** 3 * (X * 12 - 5) * (X * 7 + 3)
    assert rational_roots(p) == [Fraction(-3, 7), 0, 0, 0, Fraction(5, 12)]


def sympy_rational_roots(p):
    """Roots of the linear factors of sympy's factorization, with
    multiplicity."""
    out = []
    for factor, mult in sympy.factor_list(to_sympy(p))[1]:
        fp = sympy.Poly(factor, sympy.Symbol("x"))
        if fp.degree() == 1:
            a, b = fp.all_coeffs()
            r = sympy.Rational(-b, a)
            out += [Fraction(int(r.p), int(r.q))] * mult
    return sorted(out)


def test_rational_roots_of_high_height_match_sympy():
    # planted roots of height up to 1e12 / 1e8 times noise factors with
    # 30-bit coefficients: the end coefficients carry large prime factors
    rng = random.Random(5)
    slowest = 0.0
    for _ in range(40):
        roots = [Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 8))
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            roots.append(roots[0])
        p = qq(1)
        for r in roots:
            p = p * (X - r)
        degree = rng.randint(5, 11)
        while p.degree < degree:
            d = max(2, min(rng.randint(2, 4), degree - p.degree))
            p = p * qq(*[rng.randint(-2 ** 30, 2 ** 30) for _ in range(d)],
                       rng.randint(1, 2 ** 30))
        start = time.perf_counter()
        found = rational_roots(p)
        slowest = max(slowest, time.perf_counter() - start)
        assert found == sympy_rational_roots(p)
        assert sorted(roots) == [r for r in found if r in roots]
    assert slowest < 2.0
    # a 150-bit semiprime constant term, which a factoring search must split
    n = (2 ** 61 - 1) * (2 ** 89 - 1)
    r = Fraction(10 ** 12 + 39, 99991)
    p = (X * 99991 - (10 ** 12 + 39)) ** 2 * (X ** 3 + X + n)
    start = time.perf_counter()
    assert rational_roots(p) == [r, r] == sympy_rational_roots(p)
    assert time.perf_counter() - start < 2.0


def test_squarefree_derivative_compose_monic():
    p = (X - 1) ** 3 * (X + 2)
    assert squarefree_part(p) == (X - 1) * (X + 2)
    assert qq(0, -1, 0, 0, 1).derivative() == qq(-1, 0, 0, 4)
    assert (X ** 2).compose(X + 1) == X ** 2 + 2 * X + 1
    assert qq(2, 4).monic() == X + Fraction(1, 2)
    with pytest.raises(ValueError):
        qq().monic()


def test_divmod_over_extension():
    s3 = Q_SQRT3.named_element("sqrt3")
    x = Poly(Q_SQRT3, (0, 1))
    p = (x - s3) * (x + 1) + 5
    q, r = divmod_poly(p, x - s3)
    assert q == x + 1 and r == Poly(Q_SQRT3, (5,))


def test_interpolation_roundtrip():
    rng = random.Random(31)
    for _ in range(20):
        p = random_poly(rng, 5)
        nodes = list(range(7))
        vals = [p(n) for n in nodes]
        assert interpolate(QQ, nodes, vals) == p


def test_iroot_is_the_exact_floor_root():
    rng = random.Random(17)
    cases = [(n, k) for n in range(200) for k in range(1, 6)]
    cases += [(rng.getrandbits(rng.randint(1, 1500)), rng.randint(1, 9))
              for _ in range(500)]
    cases += [(m ** k + d, k) for m in (10 ** 30 + 1, 2 ** 521 - 1)
              for k in (2, 3, 7) for d in (-1, 0, 1)]
    for n, k in cases:
        m = iroot(n, k)
        assert m ** k <= n < (m + 1) ** k
    with pytest.raises(ValueError):
        iroot(-8, 3)
