"""Properties of the exact z = +-1 sums: segment_sum_pm1 against direct sums
of the signs, at offsets below 2^63 and lengths below 2^12."""

import numpy as np
import pytest

from rsbounds.evaluate import segment_sum_pm1
from rsbounds.sequence import Segment, coeff_range

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(0, (1 << 63) - 1), st.integers(0, (1 << 12) - 1))
def test_segment_sum_pm1_matches_direct_sums(m, length):
    a = coeff_range(Segment(m, m + length)).astype(np.int64)
    # (-1)^(m + i) without forming m + i, which may pass 2^63
    alternating = (1 - 2 * (m & 1)) * np.where(np.arange(length) % 2, -1, 1)
    assert segment_sum_pm1(Segment(m, m + length)) == (
        int(a.sum()), int((a * alternating).sum()))
