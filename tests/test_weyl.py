import cmath
import json
import math
import random
import time
import tracemalloc

import pytest

from eqcrit import weyl
from eqcrit.cli import main
from eqcrit.errors import (DegenerateLeadingCoefficient, NotCoprime, NotPrime,
                           PoleAtT, VerificationError)
from eqcrit.weyl import (FpPoly, crit_values_mod_p, critical_residues,
                         default_tolerance, fd_pair_check, is_prime,
                         scaled_integral_pair, weyl_direct, weyl_reduced)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(NotPrime):
        fd_pair_check(42, 15, 1)
    with pytest.raises(ValueError):
        weyl_direct(FpPoly.reduce([0, 1], 10007, 2), 1, 10007 + 2)


def test_weyl_direct_x4_p5():
    # f = x^4: only critical point 0, value 0 -> sum is e(0) = 1
    f2 = FpPoly.reduce([0, 0, 0, 0, 1], 5, 2)
    w = weyl_direct(f2, 1, 5)
    assert abs(w - 1.0) < 1e-9
    assert abs(weyl_reduced(f2, 1, 5) - 1.0) < 1e-9


def _weyl_oracle(coeffs, a, p):
    """(1/p) sum over x mod p^2 of e(a f(x)/p^2), term by term in Python."""
    q = p * p
    total = 0j
    for x in range(q):
        fx = 0
        for c in reversed(coeffs):
            fx = fx * x + c
        total += cmath.exp(2j * cmath.pi * (a * fx % q) / q)
    return total / p


def test_weyl_direct_matches_oracle_on_random_quartics():
    # p = 257: q = 66049 spans more than one block and ends in a partial
    # one; coefficients and a are left unreduced (negative or >= q)
    rng = random.Random(0x3E1)
    for p, count in ((5, 6), (7, 6), (13, 6), (257, 2)):
        q = p * p
        for _ in range(count):
            coeffs = [rng.randint(-3 * q, 3 * q) for _ in range(5)]
            a = rng.randint(1, p - 1) + p * rng.randint(-3 * p, 3 * p)
            w = weyl_direct(FpPoly(p, q, tuple(coeffs)), a, p)
            assert abs(w - _weyl_oracle(coeffs, a, p)) < 1e-9


# weyl_direct(F, a, p) and (G, a, p) for the scaled pair at t = 42, as
# float.hex of the real and imaginary parts: q = 25 is less than one slice,
# q = 66049 ends in a partial block, q = 1018081 spans 16 blocks.  The sums
# at p = 5 and 257 are rounding noise around 0, so any change to the terms
# or to their summation order shows.
_PINNED_DIRECT = {
    (5, 7): [("-0x1.0000000000000p-52", "-0x1.999999999999ap-56"),
             ("-0x1.ccccccccccccdp-53", "0x1.999999999999ap-56")],
    (257, 3): [("-0x1.201fe01fe01fep-46", "0x1.6e916e916e917p-51"),
               ("-0x1.1ae51ae51ae52p-46", "0x1.2ed12ed12ed13p-51")],
    (1009, 7): [("-0x1.f3b24c9547ae7p-1", "0x1.be45ab68debebp-3"),
                ("-0x1.f3b24c9547ae9p-1", "0x1.be45ab68debe7p-3")],
}


def test_weyl_direct_bits_are_pinned():
    pair = scaled_integral_pair(42)
    for (p, a), parts in _PINNED_DIRECT.items():
        for coeffs, (re, im) in zip(pair, parts):
            w = weyl_direct(FpPoly.reduce(coeffs, p, 2), a, p)
            assert w == complex(float.fromhex(re), float.fromhex(im))


def test_weyl_direct_memory_is_bounded():
    p = 1009
    F, _ = scaled_integral_pair(42)
    f = FpPoly.reduce(F, p, 2)
    tracemalloc.start()
    try:
        weyl_direct(f, 7, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_critical_residues_separate_values_equal_only_mod_p():
    # x^4 and x^4 + p share the critical point 0 and agree mod p there,
    # but not mod p^2; their Weyl sums differ accordingly (1 vs e(a/p))
    p, a = 7, 3
    f = FpPoly.reduce([0, 0, 0, 0, 1], p, 2)
    g = FpPoly.reduce([p, 0, 0, 0, 1], p, 2)
    assert crit_values_mod_p(FpPoly.reduce(f.coeffs, p, 1), p) == \
        crit_values_mod_p(FpPoly.reduce(g.coeffs, p, 1), p)
    assert critical_residues(f, a, p) == [0]
    assert critical_residues(g, a, p) == [a * p]
    assert abs(weyl_direct(f, a, p) - weyl_direct(g, a, p)) > 0.1


def test_weyl_no_critical_points_gives_zero():
    # find f whose derivative has no roots mod p
    p = 7
    for c in range(1, p):
        f = [0, c, 0, 0, 1]  # f' = 4x^3 + c
        fp = FpPoly.reduce(f, p, 1).derivative()
        if all(fp(v) != 0 for v in range(p)):
            break
    else:
        pytest.skip("no witness found")
    assert abs(weyl_direct(FpPoly.reduce(f, p, 2), 1, p)) < 1e-9
    assert abs(weyl_reduced(FpPoly.reduce(f, p, 2), 1, p)) < 1e-9


def test_weyl_coprime_guard():
    f = FpPoly.reduce([0, 1], 5, 2)
    with pytest.raises(NotCoprime):
        weyl_direct(f, 5, 5)
    with pytest.raises(NotCoprime):
        weyl_reduced(FpPoly.reduce([0, 1], 5, 2), 10, 5)


def test_weyl_direct_equals_reduced_x4_minus_x():
    for p in (5, 7, 11, 13):
        for a in (1, 2, 3):
            if math.gcd(a, p) != 1:
                continue
            d = weyl_direct(FpPoly.reduce([0, -1, 0, 0, 1], p, 2), a, p)
            r = weyl_reduced(FpPoly.reduce([0, -1, 0, 0, 1], p, 2), a, p)
            assert abs(d - r) < 1e-9


def test_weyl_translation_invariance():
    # |W| is invariant under x -> x + c mod p^2
    p, a = 11, 3
    rng = random.Random(3)
    base = [rng.randint(0, p * p - 1) for _ in range(4)] + [1]
    f = FpPoly.reduce(base, p, 2)
    w0 = abs(weyl_direct(f, a, p))
    for c in (1, 5, 60):
        shifted = [0] * 5
        # expand f(x+c) mod p^2
        coeffs = [0] * 5
        for i, ci in enumerate(base):
            for k in range(i + 1):
                coeffs[k] = (coeffs[k] + ci * math.comb(i, k) *
                             pow(c, i - k, p * p)) % (p * p)
        w1 = abs(weyl_direct(FpPoly.reduce(coeffs, p, 2), a, p))
        assert abs(w0 - w1) < 1e-9


def test_degenerate_leading_coefficient():
    p = 5
    f1 = FpPoly.reduce([1, 2, 0, 0, 5], p, 1)  # lc divisible by p
    f2 = FpPoly.reduce([1, 2, 0, 0, 5], p, 2)
    with pytest.raises(DegenerateLeadingCoefficient):
        weyl_reduced(f2, 1, p)
    with pytest.raises(DegenerateLeadingCoefficient):
        crit_values_mod_p(f1, p)


def test_crit_values_mod_p_examples():
    vals, found, deg = crit_values_mod_p(FpPoly.reduce([0, 0, 0, 0, 1], 5, 1), 5)
    assert vals == [0, 0, 0] and found == 3 and deg == 3
    # derivative with no roots mod p: empty multiset, count 0/3
    p = 7
    for c in range(1, p):
        f = FpPoly.reduce([0, c, 0, 0, 1], p, 1)
        if all(f.derivative()(v) != 0 for v in range(p)):
            vals0, found0, deg0 = crit_values_mod_p(f, p)
            assert vals0 == [] and found0 == 0 and deg0 == 3
            break
    else:
        pytest.fail("no rootless derivative found mod 7")
    # x^4 - x mod 7: cross-check against the cvpoly reduced mod 7
    vals7, found7, _ = crit_values_mod_p(FpPoly.reduce([0, -1, 0, 0, 1], 7, 1), 7)
    # cvpoly(x^4 - x) = y^3 + 27/256; mod 7: roots of y^3 + 27*256^{-1}
    c = 27 * pow(256, -1, 7) % 7
    cv_roots = sorted(v for v in range(7) if (v ** 3 + c) % 7 == 0)
    assert vals7 == cv_roots and found7 == len(cv_roots)


def test_scaled_integral_pair():
    F, G = scaled_integral_pair(42)
    assert F == [0, -592704 * 3 * 44 ** 4, -444528 * 3 * 44 ** 4, 0, 3 * 44 ** 4]
    t = 42
    assert G[4] == -t ** 4 * (t - 1) ** 6
    assert G[2] == 6 * t ** 4 * (t - 1) ** 3 * (t + 2) ** 3
    assert G[1] == 8 * t ** 4 * (t - 1) ** 3 * (t + 2) ** 3
    assert G[0] == -24 * t ** 4 * (t ** 2 + t + 1) * (t + 2) ** 4
    from fractions import Fraction
    from eqcrit.family import g_t
    g = g_t(Fraction(42))
    assert [c.as_rational() * 3 * 44 ** 4 for c in g.coeffs] == G
    with pytest.raises(PoleAtT):
        scaled_integral_pair(-2)


def test_fd_pair_check_t42_p101():
    report = fd_pair_check(42, 101, 7)
    assert report.exact_multiset_equal
    assert report.exact_p2_multiset_equal
    assert report.pair_difference < 1e-9
    assert report.within_tolerance
    assert report.guards["condition_p_ndiv_t(t-1)"]
    doc = report.to_json_dict()
    assert doc["p"] == 101 and doc["crit_rational"][0] == report.crit_found_f
    assert doc["exact_p2_multiset_equal"] is True


def test_fd_pair_check_fails_closed_on_the_p2_certificate(monkeypatch, capsys):
    # shift the first member's critical residues by p: still equal to the
    # second member's mod p, no longer mod p^2
    p = 101
    first = FpPoly.reduce(scaled_integral_pair(42)[0], p, 2)
    original = weyl.critical_residues

    def shifted(f, a, p):
        residues = original(f, a, p)
        return [(r + p) % (p * p) for r in residues] if f == first else residues

    monkeypatch.setattr(weyl, "critical_residues", shifted)
    with pytest.raises(VerificationError):
        fd_pair_check(42, p, 7)
    assert main(["weyl", "--t", "42", "--p", str(p), "--a", "7"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["error"]["type"] == "VerificationError"


def test_fd_pair_check_p2999_in_time():
    start = time.perf_counter()
    report = fd_pair_check(42, 2999, 5)
    assert time.perf_counter() - start < 5.0
    assert report.exact_p2_multiset_equal and report.within_tolerance


def test_fd_pair_check_guards():
    with pytest.raises(DegenerateLeadingCoefficient):
        fd_pair_check(5, 5, 1)  # p | t
    with pytest.raises(DegenerateLeadingCoefficient):
        fd_pair_check(6, 5, 1)  # p | t - 1
    # strengthened guard: p | 3(t+2) while p does not divide t(t-1)
    with pytest.raises(DegenerateLeadingCoefficient) as exc:
        fd_pair_check(3, 5, 1)
    assert "strengthened" in str(exc.value)
    with pytest.raises(PoleAtT):
        fd_pair_check(-2, 7, 1)
    with pytest.raises(NotPrime):
        fd_pair_check(42, 3, 1)  # p > 3 required


def test_fd_pair_check_t42_p11_degenerates():
    # 3(t+2) = 132 = 11*12: every coefficient of F = 3(t+2)^4 f_t is
    # divisible by 11^2, so F vanishes mod p^2 and W_F = p != W_G; the
    # leading-coefficient guard refuses instead of reporting a broken pair
    with pytest.raises(DegenerateLeadingCoefficient):
        fd_pair_check(42, 11, 2)
    F, _ = scaled_integral_pair(42)
    w = weyl_direct(FpPoly.reduce(F, 11, 2), 2, 11)
    assert abs(w - 11) < 1e-9


def test_default_tolerance():
    assert default_tolerance(499) == 1e-9
    assert default_tolerance(501) == 1e-7
