"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import random
import time
from fractions import Fraction

import pytest

from eqcrit.cli import main
from eqcrit.critical import (affine_equivalent, apply_affine, cvpoly,
                             poly_from_critical_points, theta)
from eqcrit.errors import NoPair, NoRationalFiberPoint
from eqcrit.family import (PairCase, f_t, gamma, j1, j2, jt, pair, x1, x2)
from eqcrit.fields import Q_OMEGA, Q_SQRT3, Q_ZETA12, QQ
from eqcrit.moduli import (INF, ShortWeierstrass, beta4,
                           classify_critical_values, critical_fiber,
                           cubic_with_roots, fiber_beta4, j_of_cubic,
                           jcv_of_curve, lifts_from_cvpoly, pi3, psi4,
                           weierstrass_integral)
from eqcrit.poly import (Poly, divmod_poly, rational_roots, resultant,
                         resultant_bivariate)
from eqcrit.weyl import fd_pair_check


def report(n, description, t0, budget):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {n} PASS - {description} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {n} exceeded its runtime budget"


def random_generic_t(rng):
    while True:
        t = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        if t not in (0, 1, -2):
            return t


def test_criterion_1_generic_family():
    t0 = time.time()
    rng = random.Random(0xA1)
    for _ in range(200):
        t = random_generic_t(rng)
        p = pair(t)
        assert p.case is PairCase.GENERIC
        assert p.verified == {"equicritical_exact": True, "inequivalent": True}
        assert cvpoly(p.f).poly == cvpoly(p.g).poly
    report(1, "200 random generic pairs: exact cvpoly equality, inequivalent",
           t0, 30)


def test_criterion_2_golden_t42(capsys):
    t0 = time.time()
    code = main(["pair", "--t", "42"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert [c[0] for c in doc["f"]["coeffs"]] == [
        "0", "-592704", "-444528", "0", "1"]
    g = [c[0] for c in doc["g"]["coeffs"]]
    assert g == ["-44982677376", "142974133344/11", "107230600008/11", "0",
                 "-307935007631307/234256"]
    reals = [v[0] for v in doc["display"]["critical_values"] if abs(v[1]) < 1e-6]
    assert any(abs(r - 197568.1975316542) < 1e-6 for r in reals)
    p = pair(Fraction(42))
    cv_f, cv_g = cvpoly(p.f).poly, cvpoly(p.g).poly
    assert cv_f == cv_g
    assert cv_f.coeff(2) == 98802571392 == 3 * 32934190464
    elapsed = time.time() - t0
    with capsys.disabled():
        report(2, "t=42 golden reproduction (strings, display value, cvpoly)",
               t0, 1)


def test_criterion_3_three_way_jcv():
    t0 = time.time()
    rng = random.Random(0xA3)
    done = 0
    while done < 100:
        A = Fraction(rng.randint(-60, 60), rng.randint(1, 8))
        B = Fraction(rng.randint(-60, 60), rng.randint(1, 8))
        E = ShortWeierstrass.make(A, B)
        if B == 0 or E.discriminant.is_zero():
            continue
        done += 1
        closed = jcv_of_curve(E)
        via_cvpoly = j_of_cubic(cvpoly(weierstrass_integral(E)).poly)
        via_beta4 = beta4(E.j)
        assert closed == via_cvpoly == via_beta4
    report(3, "100 random curves: closed formula = cvpoly route = beta4(j)",
           t0, 10)


def test_criterion_4_modular_identities():
    t0 = time.time()
    rng = random.Random(0xA4)
    for _ in range(100):
        j = QQ.from_rational(Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                      rng.randint(1, 999)))
        assert beta4(j) == pi3(psi4(j))
    for _ in range(100):
        t = random_generic_t(rng)
        v = jt(t)
        assert pi3(x1(t)) == v and pi3(x2(t)) == v
        assert beta4(j1(t)) == v and beta4(j2(t)) == v
        assert x2(t) == x1(gamma(t))
        assert gamma(gamma(t)) == QQ.coerce(t)
    report(4, "beta4 = pi3 o psi4, the x1/x2/j1/j2 parametrization "
              "identities, gamma involution", t0, 5)


def test_criterion_5_fiber_degree_and_ramification():
    t0 = time.time()
    rng = random.Random(0xA5)
    for v in [Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 50))
              for _ in range(30)]:
        fib = fiber_beta4(v)
        assert fib.polynomial.degree == 4
        assert fib.total_multiplicity == 4
    fib_inf = fiber_beta4(INF)
    assert fib_inf.accounted_multiplicity == 4
    # discriminant in v of the fiber polynomial vanishes exactly on {0, 1728}
    V = Poly(QQ, (0, 1))
    F = [V * (1728 << 18), Poly(QQ, (-3623878656,)) - V * (1 << 18),
         Poly(QQ, (7077888,)), Poly(QQ, (-4608,)), Poly(QQ, (1,))]
    dF = [F[1], F[2] * 2, F[3] * 3, F[4] * 4]
    disc = resultant_bivariate(dF, F)
    roots = rational_roots(disc)
    assert set(roots) == {Fraction(0), Fraction(1728)}
    reduced = disc
    for r in set(roots):
        while True:
            q, rem = divmod_poly(reduced, Poly(QQ, (-r, 1)))
            if not rem.is_zero():
                break
            reduced = q
    assert reduced.degree == 0
    # fiber over 0: the fiber polynomial j(j-1536)^3 forces {0 x1, 1536 x3}
    # (the simple point j = 0 carries the orbit of x^4 - x; the triple one
    # is j = 1536)
    fib0 = fiber_beta4(0)
    assert [(p.as_rational(), m) for p, m in fib0.points] == [
        (Fraction(0), 1), (Fraction(1536), 3)]
    # fiber over 1728: no rational points; exact square of the quadratic
    # with roots 1152 +- 384 sqrt3
    fib1728 = fiber_beta4(1728)
    assert fib1728.points == []
    quad = Poly(QQ, (884736, -2304, 1))
    assert fib1728.polynomial == quad * quad
    s3 = Q_SQRT3.named_element("sqrt3")
    quad_s3 = Poly(Q_SQRT3, (884736, -2304, 1))
    assert quad_s3(1152 + 384 * s3).is_zero()
    assert quad_s3(1152 - 384 * s3).is_zero()
    report(5, "beta4 fibers: degree 4, ramification exactly over {0, 1728}, "
              "special fibers exact", t0, 2)


def test_criterion_6_special_pairs():
    t0 = time.time()
    # c0 / c-2 over Q
    c0 = pair(Fraction(0))
    cm2 = pair(Fraction(-2))
    assert (cm2.f, cm2.g) == (c0.g, c0.f)
    # c1 / c-inf over Q with critical values {0, 0, 81/16}
    c1 = pair(Fraction(1))
    cinf = pair(INF)
    assert (cinf.f, cinf.g) == (c1.g, c1.f)
    assert rational_roots(cvpoly(c1.f).poly) == [0, 0, Fraction(81, 16)]
    # c_rho / c_rho_bar over Q(sqrt3), with the cvpoly(f_rho)(C) = 0 and
    # upsilon^2 assertions
    s3 = Q_SQRT3.named_element("sqrt3")
    for conj in (False, True):
        t = 1 - s3 if conj else 1 + s3
        p = pair(t, Q_SQRT3)
        C = (720 if conj else -720) * s3 - 1248
        cv = cvpoly(p.f).poly
        assert cv(C).is_zero()
        from eqcrit.poly import exact_div
        quad = exact_div(cv, Poly(Q_SQRT3, (-C, 1)))
        ups2 = 72 ** 2 * ((-362 if conj else 362) * s3 + 627)
        assert quad.compose(Poly(Q_SQRT3, (C, 1))) == Poly(Q_SQRT3, (-ups2, 0, 1))
    # c_-2omega over Q(omega)
    w = Q_OMEGA.named_element("omega")
    m2w = pair(-2 * w, Q_OMEGA)
    assert m2w.g == m2w.f * w
    # c_omega-rho family over Q(zeta12)
    wz = Q_ZETA12.named_element("omega")
    rz = Q_ZETA12.named_element("rho")
    rbz = Q_ZETA12.named_element("rho_bar")
    for t in (wz * rz, wz * wz * rz, wz * rbz, wz * wz * rbz):
        p = pair(t, Q_ZETA12)
        assert p.verified == {"equicritical_exact": True, "inequivalent": True}
    # every pair above was verified at construction (fail-closed); cusp:
    for tok in ("omega", "omega2"):
        with pytest.raises(NoPair):
            pair(Q_OMEGA.named_element(tok), Q_OMEGA)
    report(6, "special pairs over Q, Q(sqrt3), Q(omega), Q(zeta12); "
              "cusp t=omega gives NoPair", t0, 5)


def test_criterion_7_classification_roundtrip():
    t0 = time.time()
    rng = random.Random(0xA7)
    checked = 0
    exists_seen = 0
    none_seen = 0
    # theta-generated triples: realized by construction
    while exists_seen < 25:
        pts = [Fraction(rng.randint(-6, 6), rng.randint(1, 2))
               for _ in range(3)]
        ys = [y.as_rational() for y in theta(pts)]
        if len(set(ys)) < 3:
            continue
        q = cubic_with_roots(*ys, QQ)
        fib = critical_fiber(q)
        res = classify_critical_values(fib)
        if not isinstance(res.exists, bool):
            continue
        assert res.exists is True
        lifts = lifts_from_cvpoly(q, fib)
        target = cvpoly(poly_from_critical_points(pts)).poly
        for L in lifts:
            assert cvpoly(L).poly == target
        if len(lifts) >= 2:
            for i in range(len(lifts)):
                for k in range(i + 1, len(lifts)):
                    assert affine_equivalent(lifts[i], lifts[k]).status == \
                        "Inequivalent"
        exists_seen += 1
        checked += 1
    # synthetic triples: classify must agree with lift existence
    while checked < 50:
        ys = [Fraction(rng.randint(-12, 12), rng.randint(1, 4))
              for _ in range(3)]
        if len(set(ys)) < 3:
            continue
        q = cubic_with_roots(*ys, QQ)
        fib = critical_fiber(q)
        res = classify_critical_values(fib)
        if not isinstance(res.exists, bool):
            continue
        if res.exists:
            lifts = lifts_from_cvpoly(q, fib)
            target = Poly(QQ, (1,))
            for y in ys:
                target = target * Poly(QQ, (-y, 1))
            for L in lifts:
                assert cvpoly(L).poly == target
        else:
            none_seen += 1
            with pytest.raises(NoRationalFiberPoint):
                lifts_from_cvpoly(q, fib)
        checked += 1
    assert none_seen > 0
    # two rational fiber points -> two inequivalent lifts (the equicritical
    # pair recovered); exercised at the cvpoly level, where rational t makes
    # both fiber points j1(t), j2(t) rational
    for t in (Fraction(3), Fraction(-4), Fraction(7, 5), Fraction(-5, 3),
              Fraction(42)):
        q1 = cvpoly(f_t(t)).poly
        fib = fiber_beta4(j_of_cubic(q1))
        assert len([pt for pt, _ in fib.points]) == 2
        lifts = lifts_from_cvpoly(q1, fib)
        assert len(lifts) == 2
        assert cvpoly(lifts[0]).poly == q1 == cvpoly(lifts[1]).poly
        assert affine_equivalent(lifts[0], lifts[1]).status == "Inequivalent"
    report(7, f"50 classification round-trips ({exists_seen} realized, "
              f"{none_seen} refuted) + two-fiber-point pair recovery", t0, 30)


def test_criterion_8_weyl_sums():
    t0 = time.time()
    rng = random.Random(0xA8)
    for p in (5, 7, 11, 13, 101, 499):
        tol = 1e-7 if p == 499 else 1e-9
        done = 0
        while done < 20:
            t = rng.randint(-60, 60)
            if t in (1, -2) or t % p == 0 or (t - 1) % p == 0 \
                    or (3 * (t + 2)) % p == 0:
                continue
            a = rng.randint(1, p - 1)
            rep = fd_pair_check(t, p, a, tolerance=tol)
            assert abs(rep.direct_f - rep.reduced_f) < tol
            assert abs(rep.direct_g - rep.reduced_g) < tol
            assert rep.pair_difference < tol
            assert rep.exact_p2_multiset_equal
            if rep.crit_found_f == 3 and rep.crit_found_g == 3:
                assert rep.exact_multiset_equal
            done += 1
    report(8, "Weyl sums at p in {5,7,11,13,101,499}, 20 samples each: "
              "direct = reduced, W_F = W_G, multisets equal at full split",
           t0, 60)


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = random.Random(0xA9)
    # cvpoly affine covariance, 100 cases
    for _ in range(100):
        f = Poly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                      for _ in range(4)] + [Fraction(rng.randint(1, 6))])
        a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        assert cvpoly(apply_affine(f, a, b)).poly == cvpoly(f).poly
    # resultant multiplicativity, 100 cases
    def rand_poly():
        return Poly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 4))])
    done = 0
    while done < 100:
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        if p.is_zero() or q.is_zero() or r.is_zero():
            continue
        assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)
        done += 1
    # theta / integral consistency, 100 cases
    for _ in range(100):
        pts = [Fraction(rng.randint(-15, 15), rng.randint(1, 5))
               for _ in range(3)]
        f = poly_from_critical_points(pts)
        assert [f(p) for p in pts] == theta(pts)
    # named-element relations in Q(zeta12), plus 100 division round-trips
    z = Q_ZETA12.generator
    s3 = Q_ZETA12.named_element("sqrt3")
    i = Q_ZETA12.named_element("i")
    w = Q_ZETA12.named_element("omega")
    assert s3 == 2 * z - z ** 3 and s3 * s3 == 3
    assert i == z ** 3 and i * i == -1
    assert w == z ** 2 - 1 and w * w + w + 1 == 0
    for _ in range(100):
        a = Q_ZETA12.element([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                              for _ in range(4)])
        b = Q_ZETA12.element([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                              for _ in range(4)])
        if b.is_zero():
            continue
        assert (a * b) / b == a
    report(9, "property suites: cvpoly covariance, resultant "
              "multiplicativity, theta/integral link, zeta12 relations "
              "(100 cases each)", t0, 60)
