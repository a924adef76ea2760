from fractions import Fraction

import pytest

from rsbounds.dyadic import DyadicPoint, lowest_terms

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


def _halved(u: int, v: int, k: int) -> tuple[int, int, int]:
    """Halve u and v while both are even and the scale is positive."""
    while k > 0 and u % 2 == 0 and v % 2 == 0:
        u, v, k = u // 2, v // 2, k - 1
    return u, v, k


def test_lowest_terms_is_the_halving_loop():
    """The bit form gives what repeated halving gives, for k <= 8 and every
    u, v < 4 * 2^k, and DyadicPoint's canonical form is its v = 0 case."""
    for k in range(9):
        for u in range(4 << k):
            for v in range(4 << k):
                assert lowest_terms(u, v, k) == _halved(u, v, k), (u, v, k)
            x = DyadicPoint(u, k)
            assert (x.u, 0, x.k) == _halved(u, 0, k)


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
