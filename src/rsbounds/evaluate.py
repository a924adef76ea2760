"""Evaluation of Rudin-Shapiro partial sums: single points, moduli on the
grid of N-th roots of unity through a real FFT (half_spectrum), and the
paired P_t/Q_t recursion.

One core evaluates a segment at a single point by the P/Q recursion over
the blocks of block_decompose, in whatever numbers the powers z^e come in:
eval_point_root feeds it exact phases mod N, and segment_sum_pm1 the
integers 1 and (-1)^e, which gives the exact values at z = 1 and z = -1 in
O(log n) integer operations.  eval_point reads a floating-point z as the
nearest root of unity of order 2^53 and goes through eval_point_root.
eval_PQ is the recursion's pass alone, on the same root of order 2^53,
with every z^{2^t} taken at its exactly reduced phase.

Floating-point error model: a length-L segment evaluated through an FFT of
size N carries an absolute per-value error of at most

    eps_fp(L, N) = C_FFT * L * log2(N) * u,        u = 2^-53.

C_FFT = 8 is validated against 50-digit reference evaluation of
half_spectrum, up to the production sizes N = 2^24 and L = 4096 (see
tests); the observed FFT error is far smaller.  All enclosures widen by
slack derived from this bound.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable

import numpy as np

from .sequence import (DEFAULT_MAX_RANGE, CapacityError, Segment,
                       block_decompose, coeff_range)

UNIT_ROUNDOFF = 2.0 ** -53
C_FFT = 8.0
_PHASE_ORDER = 1 << 53      # a float z is read as a root of this order
_AXES = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))

_UNIT_TOL = 1e-12


class DomainError(ValueError):
    """Evaluation point is not on the unit circle (within tolerance)."""


def eps_fp(length: int, N: int) -> float:
    """Per-value absolute error bound for grid evaluation."""
    if length <= 0:
        return 0.0
    return C_FFT * length * math.log2(N) * UNIT_ROUNDOFF


def eps_direct(length: int) -> float:
    """Per-value absolute error bound of eval_roots for a segment of the
    given length, on any power-of-two grid.

    Each phase exp(2 pi i k / N) is taken at |k| <= N/2 with k exact, so its
    argument errs by at most pi (2u + u^2) (the rounding of 2 pi / N and of
    the product), and cos and sin by at most one ulp each: the computed
    phase is within 8u of the true one.  The coefficients are +-1, so the
    products are exact.  Pairwise summation passes each of the L terms of
    modulus <= 1 + 8u through h = ceil(log2 L) additions and errs by at
    most gamma_h L (1 + 8u) (Higham's bound on each component, combined by
    Minkowski's inequality), which is below sqrt(2) h L u.  The bound is at
    most eps_fp(L, N) for every N >= 4 L.
    """
    if length <= 0:
        return 0.0
    h = (length - 1).bit_length()
    return length * (math.sqrt(2.0) * h + 8.0) * UNIT_ROUNDOFF


def abs_sq_slack(length: int, N: int) -> float:
    """Error bound for |P(z_j)|^2 given the per-value bound eps_fp."""
    e = eps_fp(length, N)
    return 2.0 * length * e + e * e


def _phase_index(z: complex) -> int:
    """The index j of the root exp(2 pi i j / 2^53) nearest to the
    unimodular z."""
    if not abs(abs(z) - 1.0) <= _UNIT_TOL:     # NaN fails too
        raise DomainError(f"|z| = {abs(z)!r} is not 1 within {_UNIT_TOL}")
    return round(cmath.phase(z) / (2.0 * math.pi) * _PHASE_ORDER)


def eval_point(seg: Segment, z: complex) -> complex:
    """P over [m, n) at a single unimodular point, read as the nearest root
    of unity of order 2^53 and evaluated there by eval_point_root.

    Rounding the phase moves the point by at most 2^-54 of a turn (pi u
    radians), the order of the float's own phase uncertainty.  Every power
    z^e is then taken at an exactly reduced phase, so the value stays
    finite and of modulus at most about n - m at any offset.  Against P at
    z's own phase it errs by at most 10 n u max(1, |P|), where n is the
    end of the segment.
    """
    return eval_point_root(seg, _phase_index(z), _PHASE_ORDER)


def eval_point_root(seg: Segment, j: int, N: int) -> complex:
    """P over [m, n) at z = exp(2*pi*i*j/N), every power z^e taken at the
    exactly reduced index e j mod N; suitable for offsets of any size."""
    if N <= 0:
        raise ValueError("N must be positive")
    return _eval(seg, lambda e: _root(e * j, N))


def segment_sum_pm1(seg: Segment) -> tuple[int, int]:
    """Exact integers (P(1), P(-1)) for the partial sum over [m, n): the
    block recursion with powers 1 and (-1)^e, O(log n) integer operations."""
    return _eval(seg, lambda e: 1), _eval(seg, lambda e: 1 - 2 * (e & 1))


def _root(k: int, N: int) -> complex:
    """exp(2 pi i k / N), with k reduced in exact integer arithmetic to
    |k| <= N/2 as in eval_roots: within 8u for a power-of-two N, and exact
    on the axes, so that z = +-1 and +-i give exact sums."""
    k %= N
    if 4 * k % N == 0:
        return _AXES[4 * k // N]
    if 2 * k > N:
        k -= N
    theta = k * (2.0 * math.pi / N)
    return complex(math.cos(theta), math.sin(theta))


def eval_roots(seg: Segment, js: np.ndarray, N: int) -> np.ndarray:
    """sum_t a_{m+t} z_j^t at z_j = exp(2 pi i j / N) for every j in js.

    This is P_seg(z_j) without the twist z_j^m, so only moduli are
    meaningful, as for half_spectrum.  Phase indices j t mod N are reduced
    in exact integer arithmetic, the products with the +-1 coefficients are
    exact, and each row is summed by pairwise halving (zero-padded to a
    power of two), so each value errs by at most eps_direct(L) whatever the
    offset.  Work and memory are len(js) * L.
    """
    if N < 4 or N & (N - 1):
        raise ValueError(f"grid size {N} is not a power of two >= 4")
    js = np.asarray(js, dtype=np.int64) % N
    k = np.multiply.outer(js, np.arange(seg.length, dtype=np.int64)) % N
    k[2 * k > N] -= N
    theta = k * (2.0 * math.pi / N)
    a = coeff_range(seg).astype(np.float64)
    terms = np.zeros((len(js), 1 << (seg.length - 1).bit_length()), complex)
    terms[:, :seg.length] = np.cos(theta) * a + 1j * (np.sin(theta) * a)
    while terms.shape[1] > 1:
        half = terms.shape[1] // 2
        terms = terms[:, :half] + terms[:, half:]
    return terms[:, 0]


def _eval(seg: Segment, power: Callable[[int], complex]) -> complex:
    """P over [m, n) at z, where power(e) returns z^e, in the numbers power
    returns (complex, or int for z = +-1).

    One pass of the recursion gives P_t and Q_t up to the largest block of
    block_decompose(seg); the blocks are then summed as
    sign * power(offset) * (P_t or Q_t).
    """
    blocks = block_decompose(seg)
    top = max((b.t for b in blocks), default=0)
    pq = _pq([power(1 << t) for t in range(top)])
    total = 0 * power(0)            # zero in power's numbers, if no blocks
    for b in blocks:
        p, q = pq[b.t]
        total += b.sign * power(b.offset) * (p if b.kind == 'P' else q)
    return total


def _pq(ws: list) -> list[tuple]:
    """[(P_t(z), Q_t(z)) for t = 0 .. len(ws)] by P_{t+1} = P_t + w_t Q_t,
    Q_{t+1} = P_t - w_t Q_t, where ws[t] = z^{2^t}: complex numbers, or
    numpy arrays for many z at once."""
    pq = [(1, 1)]
    for w in ws:
        p, q = pq[-1]
        wq = w * q
        pq.append((p + wq, p - wq))
    return pq


def half_spectrum(seg: Segment, N: int) -> np.ndarray:
    """conj(P_seg(z_j)) * conj(twist) for j = 0 .. N/2, via a real FFT.

    Only moduli are meaningful to callers (the twist z_j^m is dropped):
    |out[j]| = |P_seg(z_j)|, and by the real-coefficient conjugate symmetry
    |P_seg(z_{N-j})| = |P_seg(z_j)|, so the half spectrum determines all
    moduli on the grid.  The antipode satisfies |P_seg(-z_j)| = |out[N/2-j]|.
    """
    if N < 4 or N & (N - 1):
        raise ValueError(f"grid size {N} is not a power of two >= 4")
    if N > DEFAULT_MAX_RANGE:
        raise CapacityError(f"grid size {N} exceeds limit {DEFAULT_MAX_RANGE}")
    if seg.length > N:
        raise ValueError(f"segment length {seg.length} exceeds grid size {N}")
    padded = np.zeros(N, dtype=np.float64)
    if seg.length:
        padded[:seg.length] = coeff_range(seg)
    return np.fft.rfft(padded)


def eval_PQ(t: int, z: complex) -> tuple[complex, complex]:
    """(P_t(z), Q_t(z)) by the recursion pass of _eval, with z read as in
    eval_point and each z^{2^s} taken at the exactly reduced phase
    2^s j mod 2^53: each is within 8u, whatever t (no squaring chain).

    Equivalent to the normalized 2x2 matrix-product form used for the unit
    3-sphere sampler, rescaled by 2^{(t+1)/2}.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    j = _phase_index(z)
    return _pq([_root(j << s, _PHASE_ORDER) for s in range(t)])[t]
