import time

import numpy as np
import numpy.testing as npt
import pytest

from rsbounds.evaluate import segment_sum_pm1
from rsbounds.sequence import (DEFAULT_MAX_RANGE, CapacityError, Segment,
                               block_decompose, coeff, coeff_range)


def coeff_range_oracle(n: int) -> np.ndarray:
    """First n signs built purely from the defining recurrence."""
    out = np.empty(max(n, 1), dtype=np.int8)
    out[0] = 1
    for i in range(1, n):
        half = i >> 1
        if i & 1:
            out[i] = out[half] * (1 if half % 2 == 0 else -1)
        else:
            out[i] = out[half]
    return out[:n]


def test_coeff_examples():
    assert coeff(0) == 1
    # binary 11 has one adjacent pair; recurrence: a_3 = (-1)^1 a_1 = -1
    assert coeff(3) == -1
    # binary 1011 has exactly one adjacent pair
    assert coeff(11) == -1


def test_coeff_matches_recurrence_oracle():
    n = 1 << 20
    oracle = coeff_range_oracle(n)
    fast = coeff_range(Segment(0, n))
    npt.assert_array_equal(fast, oracle)


def test_coeff_range_examples():
    assert list(coeff_range(Segment(0, 8))) == [1, 1, 1, -1, 1, 1, -1, 1]
    assert list(coeff_range(Segment(2, 3))) == [1]
    assert coeff_range(Segment(0, 0)).size == 0


def test_coeff_range_offsets_match_scalar():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(0, 1 << 40))
        vals = coeff_range(Segment(m, m + 17))
        assert all(int(vals[i]) == coeff(m + i) for i in range(17))


def test_coeff_range_capacity():
    with pytest.raises(CapacityError):
        coeff_range(Segment(0, DEFAULT_MAX_RANGE + 1))
    # indices are uint64: the last one that fits is 2^64 - 1
    top = coeff_range(Segment((1 << 64) - 4, 1 << 64))
    assert list(top) == [coeff((1 << 64) - 4 + i) for i in range(4)]
    with pytest.raises(CapacityError):
        coeff_range(Segment(1 << 64, (1 << 64) + 4))


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(5, 4)
    with pytest.raises(ValueError):
        Segment(-1, 4)


def test_block_decompose_examples():
    b, = block_decompose(Segment(0, 4))
    assert (b.offset, b.t, b.kind, b.sign) == (0, 2, 'P', 1)
    b, = block_decompose(Segment(4, 8))
    assert (b.offset, b.t, b.kind, b.sign) == (4, 2, 'Q', 1)
    b, = block_decompose(Segment(3, 4))
    assert b.offset == 3 and b.t == 0 and b.sign * 1 == coeff(3) == -1


def test_blocks_reconstruct_coefficients():
    """The blocks concatenate to the segment's signs, and each is its sign
    times P_t, the signs over [0, 2^t), or Q_t, those over [2^t, 2^{t+1})."""
    rng = np.random.default_rng(5)
    segs = [Segment(0, 0), Segment(0, 1), Segment(0, 4), Segment(4, 8),
            Segment(3, 4), Segment(7, 11), Segment(5, 77)]
    segs += [Segment(int(m), int(m) + int(l))
             for m, l in zip(rng.integers(0, 4096, 25),
                             rng.integers(0, 2048, 25))]
    for seg in segs:
        parts = []
        for b in block_decompose(seg):
            start = 0 if b.kind == 'P' else b.length
            base = coeff_range(Segment(start, start + b.length))
            parts.append(b.sign * base)
        got = np.concatenate(parts) if parts else np.zeros(0, np.int8)
        npt.assert_array_equal(got, coeff_range(seg))


def test_blocks_are_aligned():
    for seg in [Segment(13, 1000), Segment(129, 1000), Segment(1, 2)]:
        for b in block_decompose(seg):
            assert b.offset % (1 << b.t) == 0
            assert b.kind == ('P' if (b.offset >> b.t) % 2 == 0 else 'Q')


def test_pq_coeffs_doubling():
    """The identity _pq runs, on the signs: P_{t+1} = P_t | Q_t and
    Q_{t+1} = P_t | -Q_t, where P_t and Q_t are the signs over [0, 2^t)
    and [2^t, 2^{t+1})."""
    for t in range(13):
        p = coeff_range(Segment(0, 1 << t))
        q = coeff_range(Segment(1 << t, 2 << t))
        npt.assert_array_equal(coeff_range(Segment(0, 2 << t)),
                               np.concatenate([p, q]))
        npt.assert_array_equal(coeff_range(Segment(2 << t, 4 << t)),
                               np.concatenate([p, -q]))


def test_partial_sums_match_cumsum():
    n = 4096
    a = coeff_range(Segment(0, n)).astype(np.int64)
    s = np.cumsum(a)
    t = np.cumsum(a * np.where(np.arange(n) % 2, -1, 1))
    for i in range(1, n + 1):
        assert segment_sum_pm1(Segment(0, i)) == (int(s[i - 1]),
                                                  int(t[i - 1]))


def test_segment_sums_need_no_cache():
    """Thousands of large offsets, then fresh 48-bit ends: each sum is
    O(log n) integer work, with nothing kept between calls."""
    start = time.perf_counter()
    for i in range(2000):
        m = (1 << 62) + 7919 * i * i
        segment_sum_pm1(Segment(m, m + 1000 + i))
    for i in range(20):
        n = (1 << 47) + 104729 * i + 1
        segment_sum_pm1(Segment(n // 3, n))
    assert time.perf_counter() - start < 5.0


def test_segment_sums():
    # critical pair k=1: the tail [7, 11) evaluates to 4 at z=1, 0 at z=-1
    assert segment_sum_pm1(Segment(7, 11)) == (4, 0)
    assert segment_sum_pm1(Segment(0, 11)) == (7, 1)
