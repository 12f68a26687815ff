import random
from fractions import Fraction

import pytest

from eqcrit.critical import cvpoly, post_compose
from eqcrit.errors import FieldTooSmall, NoPair, PoleAtT
from eqcrit.family import (PairCase, classify_parameter,
                           f_t, g_t, gamma, j1, j2, jt, jt_fiber_parameters,
                           pair, pipeline_pair, sweep, x1, x2)
from eqcrit.fields import PRESETS, Q_OMEGA, Q_SQRT3, Q_ZETA12, QQ
from eqcrit.moduli import INF, ShortWeierstrass, beta4, is_inf, pi3
from eqcrit.poly import Poly


def random_t(rng, bound=1000):
    while True:
        t = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if t not in (0, 1, -2):
            return t


def test_f_t_values():
    assert f_t(Fraction(0)) == Poly(QQ, (0, 0, 0, 0, 1))
    assert f_t(Fraction(1)) == Poly(QQ, (0, -8, -6, 0, 1))
    assert f_t(Fraction(42)) == Poly(QQ, (0, -592704, -444528, 0, 1))


def test_g_t_42_golden():
    g = g_t(Fraction(42))
    assert g.coeff(4).as_rational() == Fraction(-307935007631307, 234256)
    assert g.coeff(2).as_rational() == Fraction(107230600008, 11)
    assert g.coeff(1).as_rational() == Fraction(142974133344, 11)
    assert g.coeff(0).as_rational() == Fraction(-44982677376)
    assert g.coeff(3).is_zero()


def test_g_t_poles():
    for t in (1, -2):
        with pytest.raises(PoleAtT):
            g_t(Fraction(t))


def test_g_t_constant_term_identity():
    rng = random.Random(101)
    for _ in range(50):
        t = random_t(rng, 60)
        lhs = t ** 4 * (t + 2) ** 2 - 12 * t ** 4 * (t ** 2 + t + 1) + 3 * t ** 6
        assert lhs == -8 * t ** 4 * (t ** 2 + t + 1)
        assert g_t(t).coeff(0) == lhs


def test_pipeline_matches_closed_form():
    rng = random.Random(103)
    for k in range(100):
        t = random_t(rng, 40 if k < 25 else 12)
        p = pipeline_pair(t)
        assert p.f == f_t(t) and p.g == g_t(t)
        assert p.verified == {"equicritical_exact": True, "inequivalent": True}


def test_pipeline_j_levels():
    # the two curves behind the pipeline have j-invariants j1(t), j2(t)
    rng = random.Random(107)
    for _ in range(25):
        t = random_t(rng, 30)
        E = ShortWeierstrass.make(-3 * t ** 3, -2 * t ** 3)
        s = (t + 2) / (t - 1)
        F = ShortWeierstrass.make(-3 * s ** 3, -2 * s ** 3)
        assert E.j == j1(t) == QQ.coerce(1728 * t ** 3 / (t ** 3 - 1))
        assert F.j == j2(t) == QQ.coerce(
            1728 + 192 * (t - 1) ** 3 / (t ** 2 + t + 1))


def test_lambda_mu_factorization():
    # g_t = (lambda_t o g^t)/3 + 3 t^6
    rng = random.Random(109)
    for _ in range(50):
        t = random_t(rng, 40)
        s = (t + 2) / (t - 1)
        g_up = Poly(QQ, (-9 * s ** 6, -24 * s ** 3, -18 * s ** 3, 0, 3))
        lam_scale = -(t ** 4 * (t - 1) ** 6 / (3 * (t + 2) ** 4))
        lam_shift = -36 * t ** 4 * (t ** 2 + t + 1)
        moved = post_compose(lam_scale, lam_shift, g_up)
        assert post_compose(Fraction(1, 3), 3 * t ** 6, moved) == g_t(t)


def test_pipeline_rejects_special_parameters():
    with pytest.raises(PoleAtT):
        pipeline_pair(Fraction(0))
    rho = Q_SQRT3.named_element("rho")
    from eqcrit.errors import ExcludedT
    with pytest.raises(ExcludedT):
        pipeline_pair(rho, Q_SQRT3)


def test_pair_c0_and_reverse():
    p = pair(Fraction(0))
    assert p.case is PairCase.T0
    assert p.f == Poly(QQ, (0, -1, 0, 0, 1))
    assert p.g.coeff(2).as_rational() == Fraction(-1, 4)
    rev = pair(Fraction(-2))
    assert rev.case is PairCase.TM2
    assert (rev.f, rev.g) == (p.g, p.f)


def test_pair_c1_and_infinity():
    p = pair(Fraction(1))
    assert p.case is PairCase.T1
    assert p.f == Poly(QQ, (0, 0, 9, 6, 1))
    assert p.g == Poly(QQ, (0, 0, 0, -6, -3))
    cv = cvpoly(p.f).poly
    assert cv == Poly(QQ, (0, 0, Fraction(-81, 16), 1)) * 1  # y^2 (y - 81/16)
    pinf = pair(INF)
    assert pinf.case is PairCase.T_INFINITY
    assert (pinf.f, pinf.g) == (p.g, p.f)


def test_pair_rho_and_upsilon_squared():
    rho = Q_SQRT3.named_element("rho")
    p = pair(rho, Q_SQRT3)
    assert p.case is PairCase.RHO
    C = -720 * Q_SQRT3.named_element("sqrt3") - 1248
    assert p.g == post_compose(-1, 2 * C, p.f)
    cv = cvpoly(p.f).poly
    assert cv(C).is_zero()
    # depressed quadratic factor is y^2 - upsilon^2, upsilon^2 = 72^2(362 sqrt3 + 627)
    s3 = Q_SQRT3.named_element("sqrt3")
    ups2 = 72 ** 2 * (362 * s3 + 627)
    from eqcrit.poly import exact_div
    quad = exact_div(cv, Poly(Q_SQRT3, (-C, 1)))
    assert quad.compose(Poly(Q_SQRT3, (C, 1))) == Poly(Q_SQRT3, (-ups2, 0, 1))


def test_pair_rho_bar_is_conjugate():
    p = pair(Q_SQRT3.named_element("rho_bar"), Q_SQRT3)
    assert p.case is PairCase.RHO_BAR
    s3 = Q_SQRT3.named_element("sqrt3")
    C_bar = 720 * s3 - 1248
    assert p.g == post_compose(-1, 2 * C_bar, p.f)


def test_pair_field_too_small():
    with pytest.raises(FieldTooSmall):
        pair(Q_SQRT3.named_element("rho"), QQ)
    with pytest.raises(FieldTooSmall):
        pair(Q_SQRT3.named_element("rho"), Q_OMEGA)


def test_pair_cusp_omega_no_pair():
    for name in ("omega", "omega2"):
        with pytest.raises(NoPair):
            pair(Q_OMEGA.named_element(name), Q_OMEGA)
        with pytest.raises(NoPair):
            pair(Q_ZETA12.named_element(name), Q_ZETA12)


def test_pair_m2omega():
    w = Q_OMEGA.named_element("omega")
    p = pair(-2 * w, Q_OMEGA)
    assert p.case is PairCase.M2_OMEGA
    assert p.g == p.f * w
    rev = pair(-2 * w * w, Q_OMEGA)
    assert rev.case is PairCase.M2_OMEGA2
    assert (rev.f, rev.g) == (p.g, p.f)


def test_pair_omega_rho_family():
    w = Q_ZETA12.named_element("omega")
    rho = Q_ZETA12.named_element("rho")
    rho_bar = Q_ZETA12.named_element("rho_bar")
    cases = {
        PairCase.OMEGA_RHO: w * rho,
        PairCase.OMEGA2_RHO: w * w * rho,
        PairCase.OMEGA_RHO_BAR: w * rho_bar,
        PairCase.OMEGA2_RHO_BAR: w * w * rho_bar,
    }
    built = {}
    for case, t in cases.items():
        p = pair(t, Q_ZETA12)
        assert p.case is case
        assert p.verified["equicritical_exact"] and p.verified["inequivalent"]
        built[case] = p
    # the bar cases are the reversed pairs
    assert (built[PairCase.OMEGA_RHO_BAR].f, built[PairCase.OMEGA_RHO_BAR].g) == \
        (built[PairCase.OMEGA_RHO].g, built[PairCase.OMEGA_RHO].f)
    assert (built[PairCase.OMEGA2_RHO_BAR].f, built[PairCase.OMEGA2_RHO_BAR].g) == \
        (built[PairCase.OMEGA2_RHO].g, built[PairCase.OMEGA2_RHO].f)


def test_value_transport_between_conjugate_members():
    # z -> iR z - iR Cbar + C carries the critical values of f_rho_bar onto
    # those of f_rho (without the +C recentring the value sets differ)
    fld = Q_ZETA12
    s3 = fld.named_element("sqrt3")
    i = fld.named_element("i")
    R = 362 + 209 * s3
    C = -720 * s3 - 1248
    C_bar = 720 * s3 - 1248
    f_rho = f_t(1 + s3, fld)
    f_rho_bar = f_t(1 - s3, fld)
    moved = post_compose(i * R, -(i * R) * C_bar + C, f_rho_bar)
    assert cvpoly(moved).poly == cvpoly(f_rho).poly


def test_generic_pair_over_sqrt3():
    s3 = Q_SQRT3.named_element("sqrt3")
    p = pair(2 + s3, Q_SQRT3)
    assert p.case is PairCase.GENERIC
    assert p.verified["equicritical_exact"]


def test_classify_parameter():
    assert classify_parameter(Fraction(7, 3)) is PairCase.GENERIC
    assert classify_parameter(INF) is PairCase.T_INFINITY
    w = Q_ZETA12.named_element("omega")
    rho = Q_ZETA12.named_element("rho")
    assert classify_parameter(w, Q_ZETA12) is PairCase.CUSP_OMEGA
    assert classify_parameter(w * rho, Q_ZETA12) is PairCase.OMEGA_RHO
    assert classify_parameter(rho, Q_ZETA12) is PairCase.RHO


def test_gamma_involution():
    rng = random.Random(113)
    for _ in range(50):
        t = random_t(rng, 200)
        g = gamma(t)
        assert gamma(g) == QQ.coerce(t)
    assert is_inf(gamma(Fraction(1)))
    assert gamma(INF) == 1


def test_map_identities_random():
    rng = random.Random(127)
    for _ in range(100):
        t = random_t(rng, 500)
        v_jt = jt(t)
        assert pi3(x1(t)) == v_jt
        assert pi3(x2(t)) == v_jt
        assert beta4(j1(t)) == v_jt
        assert beta4(j2(t)) == v_jt
        assert x2(t) == x1(gamma(t))


def test_jt_example():
    assert jt(Fraction(2)) == QQ.coerce(27 * Fraction(32, 7) ** 3)


def test_map_infinity_conventions():
    assert x1(INF) == 0
    assert is_inf(x2(INF))
    assert j1(INF) == 1728
    assert is_inf(j2(INF))
    assert is_inf(jt(INF))
    assert is_inf(jt(Fraction(1)))
    w = Q_OMEGA.named_element("omega")
    assert is_inf(jt(w, Q_OMEGA))
    assert is_inf(x2(w, Q_OMEGA))


# map -> (value at inf, its poles among t in {1, omega, omega2})
_MAP_POLES = {
    gamma: (1, {"1"}),
    x1: (0, {"1", "omega", "omega2"}),
    x2: (INF, {"omega", "omega2"}),
    j1: (1728, {"1", "omega", "omega2"}),
    j2: (INF, {"omega", "omega2"}),
    jt: (INF, {"1", "omega", "omega2"}),
}


@pytest.mark.parametrize("field", PRESETS.values(), ids=list(PRESETS))
def test_map_poles_on_every_preset(field):
    points = {"1": field.one}
    for name in ("omega", "omega2"):
        if field.has_named(name):
            points[name] = field.named_element(name)
    for fn, (at_inf, poles) in _MAP_POLES.items():
        value = fn(INF, field)
        assert value == at_inf, fn.__name__
        assert is_inf(value) or value.field == field
        for name, t in points.items():
            assert is_inf(fn(t, field)) == (name in poles), (fn.__name__, name)


def test_sweep_rows():
    rows = sweep(range(-3, 4), QQ)
    by_t = {int(r.t.as_rational()) if not is_inf(r.t) else None: r for r in rows}
    assert all(r.identities_ok for r in rows)
    assert by_t[0].case is PairCase.T0 and by_t[0].equicritical
    assert by_t[1].case is PairCase.T1 and by_t[1].inequivalent
    assert by_t[-2].case is PairCase.TM2
    assert by_t[3].case is PairCase.GENERIC and by_t[3].equicritical
    assert by_t[2].pair is not None


def test_sweep_flags_no_pair_rows():
    w = Q_OMEGA.named_element("omega")
    rows = sweep([w, -2 * w, Fraction(5)], Q_OMEGA)
    assert rows[0].note == "no-pair" and rows[0].pair is None
    assert rows[1].pair is not None and rows[1].case is PairCase.M2_OMEGA
    assert rows[2].case is PairCase.GENERIC


def test_jt_fiber_parameter_count():
    # the 12 preimage parameters collapse to 4 beta4-fiber points (x1 is
    # omega-invariant); all 4 live in a field containing omega, only the
    # gamma-pair over Q
    t = Fraction(5, 2)
    params_q = jt_fiber_parameters(t, QQ)
    assert len(params_q) == 4
    assert {str(x1(s, QQ)) for s in params_q} == {str(x1(t)), str(x1(gamma(t)))}
    params_w = jt_fiber_parameters(QQ.from_rational(t), Q_OMEGA)
    assert len(params_w) == 12
    for s in params_w:
        assert jt(s, Q_OMEGA) == jt(t)
    fiber_u = {x1(s, Q_OMEGA) for s in params_w if not is_inf(x1(s, Q_OMEGA))}
    fiber_u = {u for u in fiber_u}
    assert len(fiber_u) == 4
    # their psi4-preimages are exactly the beta4-fiber over j_t
    from eqcrit.moduli import fiber_polynomial
    F = fiber_polynomial(jt(t, Q_OMEGA), Q_OMEGA)
    for u in fiber_u:
        assert F(u * 64 + 1728).is_zero()
    q_rational = [u for u in fiber_u if u.is_rational()]
    assert len(q_rational) == 2


def test_acceptance_style_batch_small():
    rng = random.Random(131)
    for _ in range(20):
        t = random_t(rng)
        p = pair(t)
        assert p.verified["equicritical_exact"] and p.verified["inequivalent"]
