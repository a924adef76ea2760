"""Rudin-Shapiro sign sequence and block structure of coefficient ranges.

The sequence a_0, a_1, ... with a_n in {-1, +1} is defined by a_0 = 1,
a_{2n} = a_n, a_{2n+1} = (-1)^n a_n.  Equivalently a_n = (-1)^c where c is
the number of adjacent '11' pairs in the binary expansion of n.  The second
form is used for production (O(1) per term, constant memory); the recurrence
serves as the test oracle.

block_decompose splits any range into signed, shifted P_t/Q_t blocks; the
evaluate module sums them, at z = +-1 in exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest coefficient vector we will materialize (elements, not bytes).
DEFAULT_MAX_RANGE = 1 << 26


class CapacityError(ValueError):
    """Requested range exceeds the configured memory limit."""


@dataclass(frozen=True)
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


def coeff(n: int) -> int:
    """Sign a_n, computed from the '11'-pair parity of binary(n)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return 1 - 2 * ((n & (n >> 1)).bit_count() & 1)


def coeff_range(seg: Segment) -> np.ndarray:
    """Signs (a_m, ..., a_{n-1}) as an int8 vector; indices below 2^64."""
    if seg.length > DEFAULT_MAX_RANGE:
        raise CapacityError(f"range of {seg.length} coefficients exceeds "
                            f"limit {DEFAULT_MAX_RANGE}")
    if seg.n > 1 << 64:
        raise CapacityError(f"index {seg.n - 1} exceeds the limit 2^64 - 1")
    if seg.length == 0:
        return np.zeros(0, dtype=np.int8)
    idx = np.arange(seg.m, seg.n, dtype=np.uint64)
    pairs = np.bitwise_count(idx & (idx >> np.uint64(1)))
    return np.where(pairs & np.uint64(1), -1, 1).astype(np.int8)


def coeff_range_oracle(n: int) -> np.ndarray:
    """First n signs built purely from the defining recurrence (test oracle)."""
    out = np.empty(max(n, 1), dtype=np.int8)
    out[0] = 1
    for i in range(1, n):
        half = i >> 1
        if i & 1:
            out[i] = out[half] * (1 if half % 2 == 0 else -1)
        else:
            out[i] = out[half]
    return out[:n]


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


@dataclass(frozen=True)
class BlockDecomposition:
    segment: Segment
    blocks: tuple[Block, ...]

    def total_length(self) -> int:
        return sum(b.length for b in self.blocks)


def _peel(offset: int, length: int, ascending: bool) -> list[Block]:
    """Tile [offset, offset + length) (ascending) or [offset - length, offset)
    with blocks whose lengths are the binary digits of `length`, largest first
    adjacent to `offset`'s coarse side."""
    blocks = []
    o = offset
    for t in range(length.bit_length() - 1, -1, -1):
        if not (length >> t) & 1:
            continue
        if ascending:
            blocks.append(_make_block(o, t))
            o += 1 << t
        else:
            o -= 1 << t
            blocks.append(_make_block(o, t))
    if not ascending:
        blocks.reverse()
    return blocks


def _make_block(offset: int, t: int) -> Block:
    idx = offset >> t
    kind = 'P' if idx % 2 == 0 else 'Q'
    return Block(offset=offset, t=t, kind=kind, sign=coeff(idx))


def block_decompose(seg: Segment) -> BlockDecomposition:
    """Greedy decomposition of [m, n) into aligned P/Q blocks.

    Splits at the multiple of the largest power of two lying in [m, n], then
    peels binary block lengths off both sides.  The block at index j of scale
    t covers [j 2^t, (j+1) 2^t) and equals a_j z^{j 2^t} P_t(z) for even j and
    a_j z^{j 2^t} Q_t(z) for odd j.
    """
    m, n = seg.m, seg.n
    if m == n:
        return BlockDecomposition(seg, ())
    if m == 0:
        split = 0
    else:
        k = 0
        while True:
            step = 1 << (k + 1)
            if -(-m // step) * step <= n:
                k += 1
            else:
                break
        split = -(-m // (1 << k)) * (1 << k)
    blocks = _peel(split, split - m, ascending=False)
    blocks += _peel(split, n - split, ascending=True)
    return BlockDecomposition(seg, tuple(blocks))


def pq_coeffs(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors of P_t and Q_t (int8, length 2^t), by the paired
    doubling recursion P' = P | Q, Q' = P | -Q."""
    p = np.array([1], dtype=np.int8)
    q = np.array([1], dtype=np.int8)
    for _ in range(t):
        p, q = np.concatenate([p, q]), np.concatenate([p, -q])
    return p, q


def block_coefficients(block: Block) -> np.ndarray:
    if block.length > DEFAULT_MAX_RANGE:
        raise CapacityError("block too long to materialize")
    p, q = pq_coeffs(block.t)
    base = p if block.kind == 'P' else q
    return (block.sign * base).astype(np.int8)


def reconstruct_coefficients(dec: BlockDecomposition) -> np.ndarray:
    """Concatenate per-block coefficients; must equal coeff_range exactly."""
    if dec.segment.length > DEFAULT_MAX_RANGE:
        raise CapacityError("segment too long to materialize")
    parts = [block_coefficients(b) for b in dec.blocks]
    if not parts:
        return np.zeros(0, dtype=np.int8)
    return np.concatenate(parts)
