"""The exact square and radius test in integers against its Fraction form.

certify1d._sqrt_sum_cmp gives the sign of sqrt(t) - sqrt(q) - sqrt(beta) by
integer cross-multiplication; _sqrt_sum_le is its test >= 0, and the
small-k claims use its strict test > 0.  The oracles below are the same
tests in Fraction arithmetic, as the decisions were first written."""

import math
from fractions import Fraction

import pytest

from rsbounds import certify2d
from rsbounds.certify1d import _sqrt_sum_cmp, _sqrt_sum_le
from rsbounds.certify2d import (DyadicSquare, _f2_target_min, _g_target_min,
                                certify_f2, certify_square_g)


def sqrt_sum_le_fraction(q: Fraction, beta: Fraction, t: Fraction) -> bool:
    """Exact test of sqrt(q) + sqrt(beta) <= sqrt(t) for rationals >= 0."""
    if q + beta > t:
        return False
    rest = t - q - beta
    return 4 * q * beta <= rest * rest


def sqrt_sum_lt_fraction(q: Fraction, beta: Fraction, t: Fraction) -> bool:
    """Exact test of sqrt(q) + sqrt(beta) < sqrt(t) for rationals >= 0."""
    return q + beta < t and 4 * q * beta < (t - q - beta) ** 2


def _agree(q, beta, t) -> bool:
    """The test <= and its strict form, each against its oracle."""
    got = _sqrt_sum_le(q, beta, t)
    exact = Fraction(q), Fraction(beta), Fraction(t)
    assert got == sqrt_sum_le_fraction(*exact), (q, beta, t)
    assert (_sqrt_sum_cmp(q, beta, t) > 0) == sqrt_sum_lt_fraction(*exact), (
        q, beta, t)
    return got


@pytest.mark.parametrize('q, beta, t, holds', [
    (1, 1, 4, True),
    (1, 1, Fraction(4) - Fraction(1, 1 << 60), False),
    (2, 2, 8, True),                              # sqrt 2 + sqrt 2 = sqrt 8
    (2, 2, Fraction(8) - Fraction(1, 1 << 60), False),
    (Fraction(9, 4), Fraction(1, 4), 4, True),    # 3/2 + 1/2 = 2
    (Fraction(9, 4), Fraction(1, 4) + Fraction(1, 3 ** 40), 4, False),
    (0, 0, 0, True),
    (0, 0, Fraction(-1, 1 << 60), False),         # a negative target
    (Fraction(2, 3), 0, Fraction(2, 3), True),
    (Fraction(2, 3), 0, Fraction(2, 3) - Fraction(1, 7 ** 30), False),
    # a float is read exactly: 0.1 is a little above 1/10
    (0.1, 0, Fraction(1, 10), False),
    (0.1, 0, Fraction(0.1), True),
    (0.25, 0.25, 1.0, True),
    # a square's test: corner 6.25 at k = 10, 5/2 + 3/32 = 83/32
    (6.25, Fraction(9, 1 << 10), Fraction(83 ** 2, 1 << 10), True),
    (6.25, Fraction(9, 1 << 10),
     Fraction(83 ** 2, 1 << 10) - Fraction(1, 1 << 60), False),
])
def test_sqrt_sum_le_boundary_cases(q, beta, t, holds):
    assert _agree(q, beta, t) is holds


@pytest.mark.parametrize('q, beta, t, le, lt', [
    # sqrt 49 + 1 = sqrt 64: <= holds, < fails
    (49.0, 1, 64, True, False),
    (math.nextafter(49.0, 0.0), 1, 64, True, True),
    (math.nextafter(49.0, math.inf), 1, 64, False, False),
    (0, 0, 0, True, False),
    (0, 0, Fraction(1, 1 << 60), True, True),
])
def test_sqrt_sum_strict_boundary_cases(q, beta, t, le, lt):
    assert _agree(q, beta, t) is le
    assert (_sqrt_sum_cmp(q, beta, t) > 0) is lt


def test_sqrt_sum_le_agrees_with_fraction_oracle():
    """Both forms, <= and <, against their Fraction oracles."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # Non-negative rationals with dyadic, odd and large denominators,
    # zeros, ints, and floats over the whole range.
    rationals = st.one_of(
        st.just(0), st.integers(0, 1 << 70),
        st.fractions(min_value=0, max_denominator=10 ** 6),
        st.builds(lambda u, k: Fraction(u, 1 << k),
                  st.integers(0, 1 << 64), st.integers(0, 80)),
        st.floats(min_value=0, allow_nan=False, allow_infinity=False))
    # (x + y)^2 + delta with q = x^2, beta = y^2: on or next to the boundary.
    roots = st.fractions(min_value=0, max_value=10 ** 4,
                         max_denominator=1 << 40)
    deltas = st.sampled_from([Fraction(0), Fraction(1, 1 << 60),
                              -Fraction(1, 1 << 60), Fraction(1, 3 ** 50),
                              -Fraction(1, 3 ** 50)])

    @settings(max_examples=400, derandomize=True, database=None,
              deadline=None)
    @given(rationals, rationals, st.one_of(rationals, rationals.map(
        lambda x: -Fraction(x))))
    def random_triples(q, beta, t):
        _agree(q, beta, t)

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(roots, roots, deltas, st.booleans())
    def near_the_boundary(x, y, delta, as_float):
        q = float(x * x) if as_float else x * x
        _agree(q, y * y, (x + y) ** 2 + delta)

    random_triples()
    near_the_boundary()


def test_target_minima_match_fraction_forms():
    for k in range(8):
        for r in range(0, 4 << k, max(1, (1 << k) // 4)):
            for s in range(0, 4 << k, max(1, (1 << k) // 3)):
                sq = DyadicSquare(r, s, k)
                assert _g_target_min(sq) == min(10 * (sq.x0 + sq.y0),
                                                Fraction(40))
                assert _f2_target_min(sq) == 10 * (sq.y0 - sq.x1)


def test_trees_are_the_same_under_the_fraction_oracle(monkeypatch):
    """The whole certify-g tree, every field of every record, is the same
    when each square is decided, and its target built, in Fractions; so is
    a certify-f2 tree."""
    def tree_json():
        tree = certify_square_g(DyadicSquare(1, 2, 0), 1 << 13, max_scale=4)
        assert tree.certified and tree.bad and tree.subdivided
        f2_tree, ok = certify_f2(1 << 14, max_scale=4)
        assert f2_tree.certified and f2_tree.subdivided
        return tree.to_json(), f2_tree.to_json()

    fast = tree_json()
    monkeypatch.setattr(
        certify2d, '_certified', lambda corner_hi, k, t_min:
        sqrt_sum_le_fraction(Fraction(corner_hi), Fraction(9, 1 << k), t_min))
    monkeypatch.setattr(
        certify2d, '_g_target_min',
        lambda child: min(10 * (child.x0 + child.y0), Fraction(40)))
    monkeypatch.setattr(certify2d, '_f2_target_min',
                        lambda child: 10 * (child.y0 - child.x1))
    assert tree_json() == fast
