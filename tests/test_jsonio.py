import random
from fractions import Fraction

from eqcrit.fields import Q_SQRT3, Q_ZETA12, QQ, FieldSpec
from eqcrit.jsonio import (dumps_canonical, elem_from_json, elem_to_json,
                           field_from_json, field_to_json, format_rational,
                           poly_from_json, poly_to_json, proj_to_json)
from eqcrit.moduli import INF
from eqcrit.poly import Poly


def test_rational_strings():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8, 2)) == "4"
    assert format_rational(Fraction(0)) == "0"
    assert Fraction(format_rational(Fraction(-3, 4))) == Fraction(-3, 4)
    assert Fraction(format_rational(17)) == 17


def test_elem_roundtrip():
    x = Q_ZETA12.element([Fraction(1, 2), -3, 0, Fraction(7, 5)])
    assert elem_from_json(Q_ZETA12, elem_to_json(x)) == x
    # compact scalar form accepted on input
    assert elem_from_json(Q_SQRT3, "5/3") == Q_SQRT3.from_rational(Fraction(5, 3))


def test_field_roundtrip_presets_and_custom():
    for f in (QQ, Q_SQRT3, Q_ZETA12):
        assert field_from_json(field_to_json(f)) == f
    custom = FieldSpec((-2, 0, 1))
    data = field_to_json(custom)
    assert data == {"modulus": ["-2", "0", "1"]}
    assert field_from_json(data) == custom


def test_poly_roundtrip_random():
    rng = random.Random(151)
    for field in (QQ, Q_SQRT3, Q_ZETA12):
        for _ in range(20):
            p = Poly(field, [
                field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(field.degree)])
                for _ in range(rng.randint(0, 5))])
            assert poly_from_json(poly_to_json(p)) == p


def test_proj_encoding():
    assert proj_to_json(INF) == "inf"
    assert proj_to_json(Fraction(-5, 3)) == "-5/3"
    assert proj_to_json(QQ.from_rational(7)) == "7"
    s3 = Q_SQRT3.named_element("sqrt3")
    assert proj_to_json(s3 + 1) == ["1", "1"]


def test_dumps_canonical_sorted_and_stable():
    a = dumps_canonical({"b": 1, "a": [2, {"z": 3, "y": 4}]})
    b = dumps_canonical({"a": [2, {"y": 4, "z": 3}], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
