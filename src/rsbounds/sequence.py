"""Rudin-Shapiro sign sequence and block structure of coefficient ranges.

The sequence a_0, a_1, ... with a_n in {-1, +1} is defined by a_0 = 1,
a_{2n} = a_n, a_{2n+1} = (-1)^n a_n.  Equivalently a_n = (-1)^c where c is
the number of adjacent '11' pairs in the binary expansion of n.  The second
form is used for production (O(1) per term, constant memory); the test
suite checks it against the recurrence.

block_decompose tiles any range greedily by signed, aligned P_t/Q_t blocks;
the evaluate module sums them at a point, in floating point at a root of
unity or in exact integers at z = +-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest coefficient vector we will materialize (elements, not bytes).
DEFAULT_MAX_RANGE = 1 << 26


class CapacityError(ValueError):
    """Requested range exceeds the configured memory limit."""


@dataclass(frozen=True, slots=True)
class Segment:
    """Half-open index range [m, n) denoting the partial sum with terms
    a_m z^m ... a_{n-1} z^{n-1}.  m = 0 gives the plain prefix of length n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < self.m:
            raise ValueError(f"invalid segment [{self.m}, {self.n})")

    @property
    def length(self) -> int:
        return self.n - self.m


def even_odd_split(seg: Segment) -> tuple[Segment, Segment]:
    """The ranges A = [ceil(m/2), ceil(n/2)) and B = [floor(m/2),
    floor(n/2)) with P(z) = A(z^2) + z B(-z^2) for P over [m, n): by the
    doubling rule the even index 2s of [m, n) carries a_s, s in A, and the
    odd index 2s + 1 carries (-1)^s a_s, s in B."""
    A, B = even_odd_pairs(seg.m, seg.n)
    return Segment(*A), Segment(*B)


def even_odd_pairs(m: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ranges of even_odd_split(Segment(m, n)) as (start, end) pairs,
    which hash faster than Segments."""
    return ((m + 1) // 2, (n + 1) // 2), (m // 2, n // 2)


def coeff(n: int) -> int:
    """Sign a_n, computed from the '11'-pair parity of binary(n)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return 1 - 2 * ((n & (n >> 1)).bit_count() & 1)


def check_range(seg: Segment) -> None:
    """Refuse, with CapacityError, a range longer than DEFAULT_MAX_RANGE or
    with an index past 2^64 - 1: the limits of every grid evaluation."""
    if seg.length > DEFAULT_MAX_RANGE:
        raise CapacityError(f"range of {seg.length} coefficients exceeds "
                            f"limit {DEFAULT_MAX_RANGE}")
    if seg.n > 1 << 64:
        raise CapacityError(f"index {seg.n - 1} exceeds the limit 2^64 - 1")


def coeff_range(seg: Segment) -> np.ndarray:
    """Signs (a_m, ..., a_{n-1}) as an int8 vector; indices below 2^64."""
    check_range(seg)
    if seg.length == 0:
        return np.zeros(0, dtype=np.int8)
    idx = np.arange(seg.m, seg.n, dtype=np.uint64)
    pairs = np.bitwise_count(idx & (idx >> np.uint64(1)))
    return np.where(pairs & np.uint64(1), -1, 1).astype(np.int8)


@dataclass(frozen=True)
class Block:
    """One aligned block: sign * z^offset * P_t(z) (kind 'P') or
    sign * z^offset * Q_t(z) (kind 'Q'), occupying [offset, offset + 2^t)."""

    offset: int
    t: int
    kind: str   # 'P' | 'Q'
    sign: int

    @property
    def length(self) -> int:
        return 1 << self.t


def block_decompose(seg: Segment) -> tuple[Block, ...]:
    """Greedy tiling of [m, n) by aligned P/Q blocks, in ascending order.

    From o = m, each step takes the largest aligned block that fits,
    t = min(v2(o), floor(log2(n - o))), so there are at most
    2 * bit_length(n - m) blocks.  The block at index j = o / 2^t of scale
    t covers [j 2^t, (j+1) 2^t) and equals a_j z^{j 2^t} P_t(z) for even j
    and a_j z^{j 2^t} Q_t(z) for odd j.
    """
    blocks = []
    o = seg.m
    while o < seg.n:
        t = (seg.n - o).bit_length() - 1
        if o:
            t = min(t, (o & -o).bit_length() - 1)
        j = o >> t
        blocks.append(Block(o, t, 'Q' if j & 1 else 'P', coeff(j)))
        o += 1 << t
    return tuple(blocks)
