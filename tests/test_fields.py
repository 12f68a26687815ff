from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcrit.errors import FieldTooSmall, ZeroDivisor
from eqcrit.fields import PRESETS, Q_OMEGA, Q_SQRT3, Q_ZETA12, QQ, FieldSpec


def test_rational_inverse():
    x = QQ.from_rational(Fraction(2, 3))
    assert x.inverse() == Fraction(3, 2)


def test_sqrt3_inverse_is_alpha_over_3():
    a = Q_SQRT3.generator
    assert a.inverse() == a / 3
    assert a * (a / 3) == 1


def test_etale_zero_divisor():
    # Q[x]/(x^2 - x) is etale but not a field: alpha(alpha - 1) = 0
    A = FieldSpec((0, -1, 1))
    a = A.generator
    with pytest.raises(ZeroDivisor):
        a.inverse()


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        Q_SQRT3.zero.inverse()


def test_named_element_relations():
    s3 = Q_SQRT3.named_element("sqrt3")
    assert s3 * s3 == 3
    w = Q_OMEGA.named_element("omega")
    assert w * w + w + 1 == 0
    i = Q_ZETA12.named_element("i")
    assert i * i == -1


def test_zeta12_named_table():
    # sqrt3 = 2a - a^3, i = a^3, omega = a^2 - 1, reduced mod a^4 - a^2 + 1
    a = Q_ZETA12.generator
    assert Q_ZETA12.named_element("sqrt3") == a * 2 - a ** 3
    assert Q_ZETA12.named_element("i") == a ** 3
    assert Q_ZETA12.named_element("omega") == a ** 2 - 1
    assert Q_ZETA12.named_element("sqrt3") ** 2 == 3
    assert Q_ZETA12.named_element("omega2") == Q_ZETA12.named_element("omega") ** 2
    # rho is the documented sqrt3-combination
    s3 = Q_ZETA12.named_element("sqrt3")
    assert Q_ZETA12.named_element("rho") == 1 + s3


def test_field_too_small():
    with pytest.raises(FieldTooSmall):
        QQ.named_element("sqrt3")


def test_modulus_must_be_squarefree():
    # Q[x]/(x^2) and Q[x]/((x + 1)^2 (x - 2)) are not reduced algebras
    for modulus in ((0, 0, 1), (-2, -3, 0, 1)):
        with pytest.raises(ValueError, match="squarefree"):
            FieldSpec(modulus)
    for modulus in ((0, -1, 1), (-2, 0, 1), (5, 1)):
        assert FieldSpec(modulus).modulus == tuple(Fraction(c) for c in modulus)


def test_presets_modulus_squarefree():
    from eqcrit.poly import Poly, poly_gcd
    for field in PRESETS.values():
        m = Poly(QQ, [Fraction(c) for c in field.modulus])
        if m.degree == 1:
            continue
        assert poly_gcd(m, m.derivative()).degree == 0


small_fraction = st.fractions(
    min_value=-20, max_value=20, max_denominator=12)


@st.composite
def zeta12_elements(draw):
    return Q_ZETA12.element([draw(small_fraction) for _ in range(4)])


@given(zeta12_elements(), zeta12_elements())
@settings(max_examples=100, deadline=None)
def test_field_division_roundtrip(a, b):
    # (a*b)/b = a for nonzero b in a genuine field
    if b.is_zero():
        return
    assert (a * b) / b == a


@given(zeta12_elements(), zeta12_elements(), zeta12_elements())
@settings(max_examples=60, deadline=None)
def test_ring_axioms_spot(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a


def test_mixed_scalar_arithmetic():
    s3 = Q_SQRT3.named_element("sqrt3")
    assert 1 + s3 == Q_SQRT3.named_element("rho")
    assert (2 - s3) * (2 + s3) == 1
    assert Fraction(1, 2) * s3 * 2 == s3
    assert (3 / s3) == s3


def test_complex_embedding_display_only():
    s3 = Q_SQRT3.named_element("sqrt3")
    assert abs(s3.complex_embedding(3 ** 0.5) - 3 ** 0.5) < 1e-12
