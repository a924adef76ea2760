"""Properties of the greedy tiling: block_decompose at offsets below 2^90
and lengths below 2^13; and of the even/odd split of a range."""

import numpy as np
import pytest

from rsbounds.sequence import (Segment, block_decompose, coeff_range,
                               even_odd_split)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(0, (1 << 90) - 1), st.integers(0, (1 << 13) - 1))
def test_blocks_tile_maximally(m, length):
    n = m + length
    blocks = block_decompose(Segment(m, n))
    assert len(blocks) <= 2 * length.bit_length()
    o = m
    for b in blocks:
        assert b.offset == o                      # contiguous, ascending
        assert b.offset % b.length == 0           # aligned
        # maximal: the block of twice the size is unaligned or overruns n
        assert b.offset % (2 * b.length) or b.offset + 2 * b.length > n
        o += b.length
    assert o == n


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.integers(0, 1 << 12),
                 st.integers((1 << 40) - (1 << 12), (1 << 40) + (1 << 12))),
       st.integers(0, 700))
def test_even_odd_split_interleaves_the_halves(m, length):
    """The doubling rule a_{2s} = a_s, a_{2s+1} = (-1)^s a_s, read on the
    signs: [m, n) is A's signs at its even indices interleaved with
    (-1)^s times B's at its odd ones, at odd and even m alike."""
    seg = Segment(m, m + length)
    A, B = even_odd_split(seg)
    assert A.length + B.length == length
    signs = np.empty(length, dtype=np.int64)
    signs[m % 2::2] = coeff_range(A)
    s = np.arange(B.m, B.n, dtype=np.int64)
    signs[1 - m % 2::2] = np.where(s % 2, -1, 1) * coeff_range(B)
    np.testing.assert_array_equal(coeff_range(seg), signs)
