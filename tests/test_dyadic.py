from fractions import Fraction

import pytest

from rsbounds.dyadic import DyadicPoint

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=300, derandomize=True, database=None,
                    deadline=None)


@pytest.mark.parametrize('text, value', [
    ('2', Fraction(2)), ('10', Fraction(10)), ('0', Fraction(0)),
    ('10.', Fraction(2)), ('1.', Fraction(1)), ('1.011', Fraction(11, 8)),
    ('0.1', Fraction(1, 2)), ('25/16', Fraction(25, 16)),
    ('6/4', Fraction(3, 2)), ('0/8', Fraction(0)), (' 11/8 ', Fraction(11, 8)),
])
def test_parse_grammar(text, value):
    assert DyadicPoint.parse(text).fraction == value


@pytest.mark.parametrize('text', [
    '', '.', '.1', '1.2', '2.', '-1', '+1', '1/3', '1/0', '1/-2', '3/6x',
    'abc', '1e3', '0x10', '1_0', '1.0.1', '1/2/2',
])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        DyadicPoint.parse(text)


dyadics = st.builds(DyadicPoint, st.integers(0, 1 << 70), st.integers(0, 70))


@PROPERTY
@given(dyadics)
def test_parse_binary_round_trip(x):
    assert DyadicPoint.parse(x.to_binary()) == x


@PROPERTY
@given(st.integers(0, 1 << 70), st.integers(0, 70))
def test_parse_fraction(u, k):
    assert DyadicPoint.parse(f"{u}/{2 ** k}") == DyadicPoint(u, k)


@PROPERTY
@given(st.integers(0, 1 << 70))
def test_parse_decimal_integer(n):
    assert DyadicPoint.parse(str(n)) == DyadicPoint(n, 0)
