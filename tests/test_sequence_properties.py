"""Properties of the greedy tiling: block_decompose at offsets below 2^90
and lengths below 2^13."""

import pytest

from rsbounds.sequence import Segment, block_decompose

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
