import pytest

from poincarewave.halfint import HalfInt, half, unit_range


def test_from_value_ints_and_floats():
    assert HalfInt.from_value(2).twice == 4
    assert HalfInt.from_value(0.5).twice == 1
    assert HalfInt.from_value(-1.5).twice == -3
    assert HalfInt.from_value(HalfInt(3)) == HalfInt(3)


def test_from_value_strings():
    assert HalfInt.from_value("3/2") == half(3)
    assert HalfInt.from_value("-1/2") == half(-1)
    assert HalfInt.from_value("2/1") == half(4)
    assert HalfInt.from_value("2") == half(4)
    assert HalfInt.from_value("0.5") == half(1)


def test_from_value_rejects_non_half_integers():
    with pytest.raises(ValueError):
        HalfInt.from_value(0.3)
    with pytest.raises(ValueError):
        HalfInt.from_value("1/3")


@pytest.mark.parametrize("value", ["1/2/3", "1/x"])
def test_from_value_refuses_malformed_strings(value):
    with pytest.raises(ValueError) as e:
        HalfInt.from_value(value)
    assert str(e.value) == f"not a half-integer: {value!r}"


def test_arithmetic_is_exact():
    assert half(1) + half(1) == half(2)
    assert half(3) - half(4) == half(-1)
    assert -half(5) == half(-5)
    assert float(half(3)) == 1.5


def test_ordering_and_str():
    assert half(-1) < half(0) < half(1)
    assert str(half(3)) == "3/2"
    assert str(half(4)) == "2"
    assert str(half(-1)) == "-1/2"


def test_is_integer():
    assert half(4).is_integer
    assert not half(3).is_integer


def test_unit_range():
    ks = unit_range(half(-3), half(3))
    assert ks == [half(-3), half(-1), half(1), half(3)]
    assert unit_range(half(0), half(0)) == [half(0)]
    assert unit_range(half(2), half(0)) == []


def test_twice_must_be_int():
    with pytest.raises(TypeError):
        HalfInt(1.5)
