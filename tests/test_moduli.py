import random
import time
from fractions import Fraction

import pytest
from sympy import QQ as SQQ
from sympy.polys.rings import ring

from eqcrit.critical import cvpoly, affine_equivalent, theta, \
    poly_from_critical_points
from eqcrit.errors import (EllipticJ, JMismatch, NoRationalFiberPoint,
                           NotDistinct)
from eqcrit.fields import PRESETS, Q_SQRT3, QQ
from eqcrit.moduli import (CURVE_J0, CURVE_J1728, INF, ShortWeierstrass,
                           _rational_root, beta4, cj_membership,
                           classify_critical_values, critical_fiber,
                           cubic_with_roots, curve_with_j,
                           fiber_beta4, fiber_polynomial, is_inf, j_of_cubic,
                           jcv_of_curve, lifts_from_cvpoly, pi3,
                           psi4, twist_scale, weierstrass_integral)
from eqcrit.poly import Poly, rational_roots, resultant_bivariate

X = Poly(QQ, (0, 1))
_, U = ring("u", SQQ)


def cubic_and_fiber(*ys):
    """The cubic with roots ys and its critical fiber, as the CLI builds them."""
    q = cubic_with_roots(*ys, QQ)
    return q, critical_fiber(q)


def rational_points(rng, n=1, size=10 ** 6):
    return [Fraction(rng.randint(-size, size), rng.randint(1, 1000))
            for _ in range(n)]


def test_j_of_cubic_examples():
    assert j_of_cubic(X * (X - 1) * (X + 1)) == 1728
    assert j_of_cubic(X ** 3 - 1) == 0
    assert is_inf(j_of_cubic((X - 1) ** 2 * (X + 2)))


def test_beta4_values():
    assert beta4(QQ.from_rational(0)) == 0
    assert beta4(QQ.from_rational(1536)) == 0
    assert is_inf(beta4(QQ.from_rational(1728)))
    assert is_inf(beta4(INF))


def test_pi3_psi4_values():
    assert pi3(QQ.from_rational(-3)) == 0
    assert pi3(QQ.from_rational(-27)) == 0
    assert is_inf(pi3(QQ.from_rational(0)))
    assert is_inf(pi3(INF))
    assert psi4(QQ.from_rational(1728)) == 0
    assert is_inf(psi4(INF))


@pytest.mark.parametrize("field", PRESETS.values(), ids=list(PRESETS))
def test_moduli_maps_poles_on_every_preset(field):
    assert is_inf(pi3(field.zero))
    assert is_inf(beta4(field.coerce(1728)))
    assert psi4(field.coerce(1728)) == 0
    assert pi3(field.coerce(-3)) == 0 and beta4(field.coerce(1536)) == 0


def test_beta4_factorization_random():
    rng = random.Random(61)
    for _ in range(100):
        j = QQ.from_rational(Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                      rng.randint(1, 10 ** 4)))
        assert beta4(j) == pi3(psi4(j))


def test_weierstrass_integral():
    assert weierstrass_integral(ShortWeierstrass.make(0, 0)) == \
        Poly(QQ, (0, 0, 0, 0, 3))
    assert weierstrass_integral(ShortWeierstrass.make(0, 1)) == \
        Poly(QQ, (0, 12, 0, 0, 3))
    # (A, B) = (-3t^3, -2t^3) integrates to the upstairs family member
    t = Fraction(5, 2)
    E = ShortWeierstrass.make(-3 * t ** 3, -2 * t ** 3)
    expected = Poly(QQ, (-9 * t ** 6, -24 * t ** 3, -18 * t ** 3, 0, 3))
    assert weierstrass_integral(E) == expected


def test_jcv_three_way_agreement():
    rng = random.Random(67)
    count = 0
    while count < 100:
        A = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        B = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        E = ShortWeierstrass.make(A, B)
        if B == 0 or E.discriminant.is_zero():
            continue
        count += 1
        closed = jcv_of_curve(E)
        via_cv = j_of_cubic(cvpoly(weierstrass_integral(E)).poly)
        via_maps = beta4(E.j)
        assert closed == via_cv == via_maps


def test_jcv_excluded_loci():
    assert jcv_of_curve(CURVE_J0) == 0
    assert is_inf(jcv_of_curve(CURVE_J1728))  # non-Morse integral
    singular = ShortWeierstrass.make(-3, 2)
    assert singular.discriminant.is_zero()
    assert is_inf(jcv_of_curve(singular))


def test_curve_with_j():
    E = curve_with_j(1536)
    assert (E.A.as_rational(), E.B.as_rational()) == (24, 16)
    rng = random.Random(71)
    for _ in range(100):
        j = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 100))
        if j in (0, 1728):
            continue
        assert curve_with_j(j).j == QQ.from_rational(j)
    for bad in (0, 1728):
        with pytest.raises(EllipticJ):
            curve_with_j(bad)


def test_fiber_over_zero_and_inf():
    fib = fiber_beta4(0)
    # forced by the fiber polynomial j (j-1536)^3: simple 0, triple 1536
    assert [(p.as_rational(), m) for p, m in fib.points] == [
        (Fraction(0), 1), (Fraction(1536), 3)]
    assert fib.accounted_multiplicity == 4
    fib_inf = fiber_beta4(INF)
    assert fib_inf.points[0][0].as_rational() == 1728
    assert fib_inf.points[0][1] == 1
    assert is_inf(fib_inf.points[1][0]) and fib_inf.points[1][1] == 3


def test_fiber_over_1728_double_irrational():
    fib = fiber_beta4(1728)
    assert fib.points == []  # rational sublist empty
    quad = Poly(QQ, (884736, -2304, 1))
    assert fib.polynomial == quad * quad
    s3 = Q_SQRT3.named_element("sqrt3")
    quad_s3 = Poly(Q_SQRT3, (884736, -2304, 1))
    assert quad_s3(s3 * 384 + 1152).is_zero()
    assert quad_s3(s3 * -384 + 1152).is_zero()


def test_fiber_degree_and_ramification_locus():
    rng = random.Random(73)
    for _ in range(25):
        v = Fraction(rng.randint(-10 ** 5, 10 ** 5), rng.randint(1, 50))
        fib = fiber_beta4(v)
        assert fib.polynomial.degree == 4
    # disc_j of the fiber polynomial, as a polynomial in v, vanishes exactly
    # on {0, 1728}
    V = Poly(QQ, (0, 1))
    c0 = V * (1728 << 18)
    c1 = Poly(QQ, (-3 * 1536 ** 2,)) - V * (1 << 18)
    c2 = Poly(QQ, (3 * 1536,))
    c3 = Poly(QQ, (-3 * 1536,))  # placeholder, fixed below
    # F(j) = j^4 - 4608 j^3 + 7077888 j^2 + (-3623878656 - 2^18 v) j + 2^18*1728 v
    F = [c0, Poly(QQ, (-3623878656,)) - V * (1 << 18),
         Poly(QQ, (7077888,)), Poly(QQ, (-4608,)), Poly(QQ, (1,))]
    dF = [F[1], F[2] * 2, F[3] * 3, F[4] * 4]
    disc = resultant_bivariate(dF, F)
    roots = rational_roots(disc)
    assert set(roots) == {Fraction(0), Fraction(1728)}
    # after clearing v^a (v-1728)^b the remainder is constant
    reduced = disc
    for r in roots:
        lin = Poly(QQ, (-r, 1))
        while True:
            from eqcrit.poly import divmod_poly
            q, rem = divmod_poly(reduced, lin)
            if rem.is_zero():
                reduced = q
            else:
                break
    assert reduced.degree == 0


def test_fiber_polynomial_matches_closed_expansion():
    v = Fraction(7, 3)
    F = fiber_polynomial(QQ.from_rational(v))
    j = X
    expected = j * (j - 1536) ** 3 - (j - 1728) * Fraction(v * (1 << 18))
    assert F == expected


def test_cj_membership():
    assert cj_membership(0) in (Fraction(-3), Fraction(-27))
    assert cj_membership(INF) == 0
    assert cj_membership(1) is None
    # v=1: confirm by exhaustive divisor enumeration on the quartic
    member = (X + 3) ** 3 * (X + 27) - X
    assert rational_roots(member) == []


def least_nonzero_witness(v: Fraction):
    """The least nonzero rational root of (u+3)^3 (u+27) - v u, from its
    linear factors over Q in sympy: a search independent of the fiber."""
    member = (U + 3) ** 3 * (U + 27) - SQQ(v.numerator, v.denominator) * U
    roots = [-f.coeff(1) / f.coeff(U) for f, _ in member.factor_list()[1]
             if f.degree() == 1]
    roots = [Fraction(int(r.numerator), int(r.denominator)) for r in roots if r]
    return min(roots) if roots else None


def test_cj_membership_matches_an_independent_search():
    rng = random.Random(97)
    special = [Fraction(0), Fraction(1), Fraction(1728)]
    generic = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
               for _ in range(150)]
    curves = []
    while len(curves) < 100:
        v = jcv_of_curve(ShortWeierstrass.make(*rational_points(rng, 2, 10 ** 3)))
        if not is_inf(v):
            curves.append(v.as_rational())
    expected = {v: least_nonzero_witness(v) for v in special + generic + curves}
    assert all(cj_membership(v) == u for v, u in expected.items())
    assert all(expected[v] is not None for v in curves)
    assert cj_membership(INF) == 0  # where the reference quartic degenerates


def test_cj_membership_pipeline_closure():
    # jcv of a rational curve with rational j always has a witness
    rng = random.Random(79)
    for _ in range(25):
        j = Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 20))
        if j in (0, 1728):
            continue
        E = curve_with_j(j)
        v = jcv_of_curve(E)
        if is_inf(v):
            continue
        u = cj_membership(v)
        assert u is not None
        assert pi3(QQ.from_rational(u)) == v


def test_classify_examples():
    res = classify_critical_values(cubic_and_fiber(0, 1, -1)[1])
    assert res.exists == "out-of-scope" and res.j == 1728
    with pytest.raises(NotDistinct):
        cubic_with_roots(1, 1, 2, QQ)


def test_classify_and_lift_roundtrip_theta_triples():
    rng = random.Random(83)
    done = 0
    while done < 12:
        pts = [Fraction(rng.randint(-8, 8), rng.randint(1, 3))
               for _ in range(3)]
        if len({p for p in pts}) < 3:
            continue
        ys = [y.as_rational() for y in theta(pts)]
        if len(set(ys)) < 3:
            continue
        res = classify_critical_values(cubic_and_fiber(*ys)[1])
        if not isinstance(res.exists, bool):
            continue  # elliptic j: characterization out of scope
        done += 1
        assert res.exists is True  # realized by the integral polynomial itself
        target = cvpoly(poly_from_critical_points(pts)).poly
        lifts = lifts_from_cvpoly(*cubic_and_fiber(*ys))
        for L in lifts:
            assert cvpoly(L).poly == target


def test_classify_false_means_no_lift():
    rng = random.Random(89)
    checked = 0
    while checked < 10:
        ys = [Fraction(rng.randint(-20, 20), rng.randint(1, 6))
              for _ in range(3)]
        if len(set(ys)) < 3:
            continue
        res = classify_critical_values(cubic_and_fiber(*ys)[1])
        if res.exists is not False:
            continue
        checked += 1
        with pytest.raises(NoRationalFiberPoint):
            lifts_from_cvpoly(*cubic_and_fiber(*ys))


def test_two_fiber_points_give_two_inequivalent_lifts():
    from eqcrit.family import f_t
    for t in (Fraction(3), Fraction(-1, 3)):
        q1 = cvpoly(f_t(t)).poly
        lifts = lifts_from_cvpoly(q1, critical_fiber(q1))
        assert len(lifts) == 2
        assert cvpoly(lifts[0]).poly == q1 == cvpoly(lifts[1]).poly
        assert affine_equivalent(lifts[0], lifts[1]).status == "Inequivalent"


def test_lift_self_verification_and_first():
    ys = [y.as_rational() for y in theta([1, -2, 3])]
    L = lifts_from_cvpoly(*cubic_and_fiber(*ys))[0]
    got = sorted(r for r in rational_roots(cvpoly(L).poly))
    assert got == sorted(ys)


def test_elliptic_target_best_effort():
    # v = 0 targets (cube-root transports): y^3 + 729/8 is reachable from
    # the designated j=0 curve with alpha = 1/2
    target = Poly(QQ, (Fraction(729, 8), 0, 0, 1))
    lifts = lifts_from_cvpoly(target, critical_fiber(target))
    assert lifts and all(cvpoly(L).poly == target for L in lifts)
    # the critical values of x^4 - x (j = 0 quadruple) are recovered through
    # the j0 = 1536 fiber point, giving a rational partner of x^4 - x
    p0 = Poly(QQ, (0, -1, 0, 0, 1))
    q1 = cvpoly(p0).poly
    lifts = lifts_from_cvpoly(q1, critical_fiber(q1))
    assert len(lifts) == 1
    partner = lifts[0]
    assert cvpoly(partner).poly == q1
    g0 = Poly(QQ, (Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 4), 0,
                   Fraction(-1, 48)))
    assert affine_equivalent(partner, g0).status == "Equivalent"
    assert affine_equivalent(partner, p0).status == "Inequivalent"


def test_rational_root_is_exact_for_large_inputs():
    t0 = time.time()
    m = 10 ** 30 + 1
    assert _rational_root(Fraction(m ** 3), 3) == m
    assert _rational_root(Fraction(-m ** 3, 8), 3) == Fraction(-m, 2)
    assert _rational_root(Fraction(m ** 3 + 1), 3) is None
    # beyond the float range: exact, not OverflowError
    assert _rational_root(Fraction(10 ** 400), 3) is None
    assert _rational_root(Fraction(10 ** 399), 3) == 10 ** 133
    assert _rational_root(Fraction(10 ** 400, 9), 2) == Fraction(10 ** 200, 3)
    assert _rational_root(Fraction(-4), 2) is None
    # the j = 0 transport needs that cube root: (10^30+1)(3x^4 + 12x)
    target = Poly(QQ, (729 * m ** 3, 0, 0, 1))
    lifts = lifts_from_cvpoly(target, critical_fiber(target))
    assert lifts and all(cvpoly(L).poly == target for L in lifts)
    assert Poly(QQ, (0, 12 * m, 0, 0, 3 * m)) in lifts
    assert time.time() - t0 < 10


def test_twist_scale():
    E = curve_with_j(1536)
    assert twist_scale(E, E) == 1
    u2 = Fraction(9, 4)  # u = 3/2
    twisted = ShortWeierstrass.make(E.A.as_rational() * u2 ** 2,
                                    E.B.as_rational() * u2 ** 3)
    assert twist_scale(E, twisted) == u2
    other = curve_with_j(100)
    with pytest.raises(JMismatch):
        twist_scale(E, other)
    with pytest.raises(EllipticJ):
        twist_scale(CURVE_J0, CURVE_J0)
