import random
import time
from fractions import Fraction

import numpy as np
import pytest

from eqcrit.critical import (affine_equivalent, apply_affine, cvpoly,
                             equicritical, is_morse,
                             poly_from_critical_points, post_compose, theta)
from eqcrit.errors import DegreeMismatch, NotQuartic, ZeroScale
from eqcrit.fields import PRESETS, Q_OMEGA, QQ, FieldSpec
from eqcrit.poly import Poly, divmod_poly, resultant_bivariate

X = Poly(QQ, (0, 1))


def qq(*coeffs):
    return Poly(QQ, coeffs)


# -- independent oracle: elementary symmetric functions of the critical
#    values via power sums of the roots of f' (Newton's identities); no
#    resultants anywhere in this path -----------------------------------


def cv_oracle_newton(f):
    field = f.field
    m = f.derivative().monic()
    n = m.degree
    assert n == 3, "oracle written for quartic sources"
    # e_i of the critical points from the monic derivative
    e = [field.one, -m.coeff(2), m.coeff(1), -m.coeff(0)]
    # power sums p_0..p_2 of the critical points (Newton)
    p0 = field.coerce(3)
    p1 = e[1]
    p2 = e[1] * p1 - e[2] * 2
    psums = [p0, p1, p2]

    def trace(poly):
        # sum of poly(x_i) over the roots x_i of m, after reduction mod m
        r = divmod_poly(poly, m)[1]
        return sum((r.coeff(i) * psums[i] for i in range(3)), field.zero)

    P1 = trace(f)
    P2 = trace(f * f)
    P3 = trace(f * f * f)
    e1 = P1
    e2 = (P1 * P1 - P2) / 2
    e3 = (P1 ** 3 - P1 * P2 * 3 + P3 * 2) / 6
    return Poly(field, (-e3, e2, -e1, 1))


def test_cvpoly_x4():
    assert cvpoly(qq(0, 0, 0, 0, 1)).poly == X ** 3


def test_cvpoly_x4_minus_x_against_newton_oracle():
    f = qq(0, -1, 0, 0, 1)
    expected = cv_oracle_newton(f)
    assert expected == X ** 3 + Fraction(27, 256)  # hand value, frozen
    assert cvpoly(f).poly == expected


def test_cvpoly_x4_minus_x_against_numeric_roots():
    crit_pts = np.roots([4.0, 0.0, 0.0, -1.0])
    values = sorted(p ** 4 - p for p in crit_pts)
    got = sorted(np.roots([1.0, 0.0, 0.0, 27.0 / 256.0]))
    for a, b in zip(values, got):
        assert abs(a - b) < 1e-9


def test_cvpoly_double_critical_values():
    f = qq(0, 0, 9, 6, 1)  # x^2 (x+3)^2, values {0, 0, 81/16}
    assert cvpoly(f).poly == X * X * (X - Fraction(81, 16))


def test_cvpoly_f42_second_coefficient():
    f = qq(0, -592704, -444528, 0, 1)
    cv = cvpoly(f).poly
    assert cv == cv_oracle_newton(f)
    assert cv.coeff(2) == 98802571392  # = 3 * 32934190464


def test_cvpoly_matches_oracle_randomly():
    rng = random.Random(5)
    for _ in range(40):
        f = qq(*[Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                 for _ in range(4)], Fraction(rng.randint(1, 8)))
        assert cvpoly(f).poly == cv_oracle_newton(f)


def cv_resultant(f):
    # the former cvpoly: (-1)^(d-1) Res_x(f', f - y) / (d lc f)^d
    field, d = f.field, f.degree
    px = [Poly(field, (c,)) for c in f.derivative().coeffs]
    qx = [Poly(field, (c,)) for c in f.coeffs]
    qx[0] = Poly(field, (f.coeffs[0], -1))
    res = resultant_bivariate(px, qx) * ((field.coerce(d) * f.lc) ** -d)
    return res if d % 2 else -res


def test_cvpoly_matches_resultant_formula():
    # random inputs of degree 2-11 over Q, and of degree 2-7 (2-6 over
    # Q(zeta12)) over the number fields, where the resultant takes seconds
    # per input beyond that
    rng = random.Random(8)
    top = {"qq": 11, "q-sqrt3": 7, "q-omega": 7, "q-zeta12": 6}
    for name, field in PRESETS.items():
        def elem():
            return field.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                  for _ in range(field.degree)])

        for d in range(2, top[name] + 1):
            lc = elem()
            while lc.is_zero():
                lc = elem()
            f = Poly(field, [elem() for _ in range(d)] + [lc])
            assert cvpoly(f).poly == cv_resultant(f)
            if d <= 5:
                # f = c (x - a)^d is the one shape with f mod f' = 0: the
                # multiplication matrix is zero and the cvpoly is y^(d-1)
                x = Poly(field, (0, 1))
                for g in (x ** d, (x + 2) ** d * lc):
                    assert cvpoly(g).poly == cv_resultant(g) == x ** (d - 1)
    for f in (qq(0, 0, 9, 6, 1), qq(0, 0, 0, -6, -3)):  # x^2 (x+3)^2, -3x^3 (x+2)
        assert cvpoly(f).poly == cv_resultant(f)


def test_cvpoly_over_an_algebra_with_zero_divisors():
    # Q[a]/(a^2 - a) is Q x Q (a -> 0, a -> 1); the cvpoly of f is the Q
    # cvpoly of each component, although a and a - 1 have no inverse
    alg = FieldSpec((0, -1, 1), name="q-x-q")
    a = alg.generator

    def component(p, value):
        return Poly(QQ, [c.coords[0] + c.coords[1] * value for c in p.coeffs])

    f = Poly(alg, (-a, -1, 0, 0, 1))
    assert cvpoly(f).poly == Poly(alg, (a + Fraction(27, 256), a * 3, a * 3, 1))
    rng = random.Random(9)
    for k in range(30):
        d = 2 + k % 5
        lc0, lc1 = rng.choice([-3, -1, 2, 5]), rng.choice([-2, 1, 3])
        coeffs = [alg.element([rng.randint(-6, 6), rng.randint(-6, 6)])
                  for _ in range(d)] + [alg.element([lc0, lc1 - lc0])]
        f = Poly(alg, coeffs)
        cv = cvpoly(f).poly
        for value in (0, 1):
            assert component(cv, value) == cvpoly(component(f, value)).poly


def test_cvpoly_rejects_wrong_degree():
    with pytest.raises(DegreeMismatch):
        cvpoly(qq(3))


def test_theta_examples():
    assert [v.as_rational() for v in theta([0, 0, 0])] == [0, 0, 0]
    assert poly_from_critical_points([0, 0, 0]) == qq(0, 0, 0, 0, 1)
    c = Fraction(5, 3)
    assert theta([c])[0] == -c * c
    # d=3, points {1,-1}: f = x^3 - 3x, values f(1), f(-1)
    assert poly_from_critical_points([1, -1]) == X ** 3 - 3 * X
    assert [v.as_rational() for v in theta([1, -1])] == [-2, 2]


def test_theta_agrees_with_integral_evaluation():
    rng = random.Random(9)
    for _ in range(100):
        pts = [Fraction(rng.randint(-12, 12), rng.randint(1, 5))
               for _ in range(3)]
        f = poly_from_critical_points(pts)
        assert [f(p) for p in pts] == theta(pts)


def test_integral_and_theta_link_via_cvpoly():
    # cvpoly(poly_from_critical_points(X)) = monic prod (y - theta_j)
    rng = random.Random(29)
    for _ in range(25):
        pts = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(3)]
        f = poly_from_critical_points(pts)
        prod = qq(1)
        for y in theta(pts):
            prod = prod * (X - y.as_rational())
        assert cvpoly(f).poly == prod


def test_is_morse():
    assert is_morse(qq(0, -1, 0, 0, 1))
    assert not is_morse(qq(0, 0, 9, 6, 1))
    assert not is_morse(qq(0, 0, 0, 0, 1))


def test_is_morse_iff_cvpoly_discriminant_nonzero():
    from eqcrit.poly import resultant
    rng = random.Random(59)
    for _ in range(40):
        f = qq(*[Fraction(rng.randint(-5, 5)) for _ in range(4)],
               Fraction(rng.randint(1, 3)))
        cv = cvpoly(f).poly
        disc = resultant(cv, cv.derivative())  # monic cv: disc up to sign
        assert is_morse(f) == (not disc.is_zero())


def test_is_morse_degree_25_in_time():
    # the degree-25 input of the cvpoly CLI test: Euclid on its cvpoly took
    # about 4 s while the remainders' rational coefficients grew
    rng = random.Random(25)
    cv = cvpoly(qq(*[rng.randint(-3, 3) for _ in range(25)], 1))
    start = time.perf_counter()
    assert cv.is_morse
    assert time.perf_counter() - start < 2.0


def test_equicritical_examples():
    f = qq(0, -1, 0, 0, 1)
    assert equicritical(f, apply_affine(f, Fraction(2), Fraction(-1, 3)))
    # x^4 + x = f(-x) is equicritical with f; x^4 - 2x is not
    assert equicritical(f, qq(0, 1, 0, 0, 1))
    assert not equicritical(f, qq(0, -2, 0, 0, 1))
    assert cvpoly(qq(0, -2, 0, 0, 1)).poly.coeff(0) == Fraction(27, 16)
    with pytest.raises(DegreeMismatch):
        equicritical(f, qq(0, 1, 1))


def test_cvpoly_affine_invariance():
    rng = random.Random(41)
    for _ in range(100):
        f = qq(*[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(4)], Fraction(rng.randint(1, 5)))
        a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        assert cvpoly(apply_affine(f, a, b)).poly == cvpoly(f).poly


def test_post_compose_root_transport():
    # cvpoly(c f + e)(y) = monic of cvpoly(f)((y - e)/c)
    rng = random.Random(43)
    for _ in range(50):
        f = qq(*[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(4)], Fraction(rng.randint(1, 5)))
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 2))
        e = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
        moved = cvpoly(post_compose(c, e, f)).poly
        inner = Poly(QQ, (-Fraction(e) / c, 1 / Fraction(c)))
        expected = cvpoly(f).poly.compose(inner).monic()
        assert moved == expected


def test_apply_affine_identity():
    f = qq(0, 0, 0, 0, 1)
    assert apply_affine(f, 1, 0) == f


def test_zero_scale_rejected():
    f = qq(0, -1, 0, 0, 1)
    with pytest.raises(ZeroScale):
        apply_affine(f, 0, 1)
    with pytest.raises(ZeroScale):
        post_compose(0, 1, f)


def test_affine_equivalent_witness_recomposes():
    f = qq(0, -1, 0, 0, 1)
    g = apply_affine(f, Fraction(2), Fraction(1))  # g = f(2x+1)
    # f = g(ax+b) with (a, b) = (1/2, -1/2): the witness recomposes exactly
    verdict = affine_equivalent(f, g)
    assert verdict.status == "Equivalent"
    a, b = verdict.witness
    assert (a.as_rational(), b.as_rational()) == (Fraction(1, 2), Fraction(-1, 2))
    assert apply_affine(g, a, b) == f
    # and the reversed call carries the reciprocal witness
    back = affine_equivalent(g, f)
    assert back.status == "Equivalent"
    a2, b2 = back.witness
    assert (a2.as_rational(), b2.as_rational()) == (Fraction(2), Fraction(1))


def test_affine_equivalent_negative_cases():
    f = qq(0, -1, 0, 0, 1)
    assert affine_equivalent(f, qq(0, -2, 0, 0, 1)).status == "Inequivalent"
    with pytest.raises(NotQuartic):
        affine_equivalent(qq(0, 1, 1), qq(0, 1, 1))


def test_affine_equivalent_omega_scalings():
    # x^4 - x is the unique fixed type: omega * p0 = p0(omega^2 x), so the
    # scaled copy IS equivalent; a generic quartic scaled by omega is not
    w = Q_OMEGA.named_element("omega")
    p0 = Poly(Q_OMEGA, (0, -1, 0, 0, 1))
    verdict = affine_equivalent(p0, p0 * w)
    assert verdict.status == "Equivalent"
    a, b = verdict.witness
    assert a == w * w and b.is_zero()
    g0 = Poly(Q_OMEGA, (Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 4), 0,
                        Fraction(-1, 48)))
    assert affine_equivalent(g0, g0 * w).status == "Inequivalent"


def test_affine_equivalent_rational_cases_over_number_field():
    # deg G >= 2 with rational coefficients still gets decided through its
    # rational roots; only genuinely irrational candidate sets are Undecided
    from eqcrit.fields import Q_SQRT3
    f = Poly(Q_SQRT3, (0, 0, 0, 0, 1))
    v = affine_equivalent(f, f)
    assert v.status == "Equivalent"
    g = Poly(Q_SQRT3, (0, 0, 0, 0, 9))  # witness would be 1/sqrt3
    v2 = affine_equivalent(f, g)
    assert v2.status == "Undecided" and v2.obstruction.degree == 4


def test_affine_equivalent_never_undecided_over_q():
    rng = random.Random(47)
    for _ in range(60):
        f = qq(*[Fraction(rng.randint(-6, 6)) for _ in range(4)],
               Fraction(rng.randint(1, 4)))
        g = qq(*[Fraction(rng.randint(-6, 6)) for _ in range(4)],
               Fraction(rng.randint(1, 4)))
        assert affine_equivalent(f, g).status in ("Equivalent", "Inequivalent")


def test_affine_equivalent_random_conjugates():
    rng = random.Random(53)
    for _ in range(40):
        f = qq(*[Fraction(rng.randint(-6, 6), rng.randint(1, 2))
                 for _ in range(4)], Fraction(rng.randint(1, 4)))
        a = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
        b = Fraction(rng.randint(-5, 5))
        g = apply_affine(f, a, b)
        # f = g(a'x+b') must be found (with the inverse map as witness)
        verdict = affine_equivalent(f, g)
        assert verdict.status == "Equivalent"
        wa, wb = verdict.witness
        assert apply_affine(g, wa, wb) == f


def test_affine_equivalent_even_quartics():
    # depressed G1 = 0: the candidates are the roots of a^4 - F4/G4, or of its
    # gcd with a^2 - F2/G2; an even quartic has both a and -a as witnesses,
    # and the least rational candidate is the one reported
    rng = random.Random(61)
    for k in range(60):
        c4 = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        c2 = Fraction(0) if k % 3 == 0 else Fraction(
            rng.choice([-6, -2, -1, 1, 3, 4]), rng.randint(1, 3))
        c0 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        f = qq(c0, 0, c2, 0, c4)
        alpha = Fraction(rng.choice([1, -1, 2, -2, Fraction(1, 3)]))
        g = apply_affine(f, alpha, Fraction(rng.randint(-5, 5), rng.randint(1, 2)))
        verdict = affine_equivalent(f, g)
        assert verdict.status == "Equivalent"
        a, b = verdict.witness
        assert apply_affine(g, a, b) == f
        assert a.as_rational() == -abs(1 / alpha)
        # F4 or F2 rescaled: no rational a solves both a^4 = F4/G4 and
        # a^2 = F2/G2 (F2 by 2 and F4 by 4 leave only a^2 = 2/alpha^2)
        rescaled = [qq(c0, 0, c2, 0, c4 * 2)]
        if c2:
            rescaled += [qq(c0, 0, c2 * 2, 0, c4), qq(c0, 0, c2 * 2, 0, c4 * 4)]
        for h in rescaled:
            assert affine_equivalent(h, g).status == "Inequivalent"
