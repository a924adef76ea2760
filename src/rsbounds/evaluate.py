"""Evaluation of Rudin-Shapiro partial sums: single points, values on the
grid of N-th roots of unity by one radix-2 step from the segment's halves
(radix2_step), and the paired P_t/Q_t recursion.

One core evaluates a segment at a single point by the P/Q recursion over
the blocks of block_decompose, in whatever numbers the powers z^e come in:
eval_point_root feeds it exact phases mod N, and segment_sum_pm1 the
integers 1 and (-1)^e, which gives the exact values at z = 1 and z = -1 in
O(log n) integer operations.  eval_point reads a floating-point z as the
nearest root of unity of order 2^53 and goes through eval_point_root.
eval_PQ is the recursion's pass alone, on the same root of order 2^53,
with every z^{2^t} taken at its exactly reduced phase.

Floating-point error model: a length-L segment evaluated on the grid of
size N carries an absolute per-value error of at most

    eps_fp(L, N) = 8 L log2(N) u,        u = 2^-53,

derived, not validated.  radix2_step builds the half spectrum of a
segment [m, n) on N from those of its halves [ceil(m/2), ceil(n/2)) and
[floor(m/2), floor(n/2)) on N/2, one butterfly per value, with a sign and
a conjugate set by m mod 4; inputs within eps_fp on N/2 give values within
eps_radix2(L, N) <= eps_fp(L, N).  Applied recursively from the segments
of length at most 1, whose values are exact, it gives every value within
eps_fp by induction, with no FFT (norms.segment_spectra, the one builder
of grid values).  The step is elementwise, so its callers take any of
its butterflies: a whole level, a window, so that no level of a
recursion need be held whole, or those that the points of a refined arc
read (norms.segment_points).  All enclosures widen by slack derived from
this bound.  half_spectrum, a real FFT, is the tests' independent reference;
no command reads it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterator

import numpy as np

from .sequence import (DEFAULT_MAX_RANGE, CapacityError, Segment,
                       block_decompose, coeff_range)

UNIT_ROUNDOFF = 2.0 ** -53
_PHASE_ORDER = 1 << 53      # a float z is read as a root of this order
_AXES = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))

_UNIT_TOL = 1e-12


class DomainError(ValueError):
    """Evaluation point is not on the unit circle (within tolerance)."""


def eps_fp(length: int, N: int) -> float:
    """Per-value absolute error bound 8 L log2(N) u of a segment's values
    on the N-grid built by the radix-2 recursion: exact for L <= 1, and
    each step within eps_radix2(L, N) <= eps_fp(L, N) of the true values
    when its inputs are within eps_fp on N/2 (eps_radix2)."""
    if length <= 0:
        return 0.0
    return 8.0 * length * math.log2(N) * UNIT_ROUNDOFF


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
    |k| <= N/2: within 8u for a power-of-two N (_twiddles_at), and exact
    on the axes, so that z = +-1 and +-i give exact sums."""
    k %= N
    if 4 * k % N == 0:
        return _AXES[4 * k // N]
    if 2 * k > N:
        k -= N
    theta = k * (2.0 * math.pi / N)
    return complex(math.cos(theta), math.sin(theta))


def _eval(seg: Segment, power: Callable[[int], complex]) -> complex:
    """P over [m, n) at z, where power(e) returns z^e, in the numbers power
    returns (complex, or int for z = +-1).

    One pass of the recursion gives P_t and Q_t up to the largest block of
    block_decompose(seg); the blocks are then summed as
    sign * power(offset) * (P_t or Q_t).
    """
    blocks = block_decompose(seg)
    top = max((b.t for b in blocks), default=0)
    pq = list(_pq(power(1 << t) for t in range(top)))
    total = 0 * power(0)            # zero in power's numbers, if no blocks
    for b in blocks:
        p, q = pq[b.t]
        total += b.sign * power(b.offset) * (p if b.kind == 'P' else q)
    return total


def _pq(ws) -> Iterator[tuple]:
    """Yield (P_t(z), Q_t(z)) for t = 0 .. len(ws) by P_{t+1} = P_t + w_t Q_t,
    Q_{t+1} = P_t - w_t Q_t, where w_t = z^{2^t} comes from the iterable
    ws: complex numbers, or numpy arrays for many z at once.  Each w_t is
    read only when its step runs, so a caller that keeps the last pair
    holds one pair and one w_t at a time."""
    p = q = 1
    yield p, q
    for w in ws:
        wq = w * q
        p, q = p + wq, p - wq
        yield p, q


def half_spectrum(seg: Segment, N: int) -> np.ndarray:
    """conj(P_seg(z_j)) * conj(twist) for j = 0 .. N/2, via a real FFT:
    the tests' independent reference for the radix-2 recursion, whose
    error it does not share.  No command reads it.

    Only moduli are meaningful to callers (the twist z_j^m is dropped):
    |out[j]| = |P_seg(z_j)|, and by the real-coefficient conjugate symmetry
    |P_seg(z_{N-j})| = |P_seg(z_j)|, so the half spectrum determines all
    moduli on the grid.  The antipode satisfies |P_seg(-z_j)| = |out[N/2-j]|.
    """
    if N < 2 or N & (N - 1):
        raise ValueError(f"grid size {N} is not a power of two >= 2")
    if N > DEFAULT_MAX_RANGE:
        raise CapacityError(f"grid size {N} exceeds limit {DEFAULT_MAX_RANGE}")
    if seg.length > N:
        raise ValueError(f"segment length {seg.length} exceeds grid size {N}")
    # pocketfft zero-pads to n itself: no N-float buffer of our own, and
    # the same values, bit for bit, as an explicitly padded input.
    return np.fft.rfft(coeff_range(seg), n=N)


_CHUNK = 1 << 14    # butterflies per pass of radix2_step


def radix2_step(RA: np.ndarray, RB: np.ndarray, z: np.ndarray, m: int,
                low: np.ndarray, high: np.ndarray) -> None:
    """Butterflies of the half spectrum on the M-grid of a segment [m, n)
    from the half spectra (half_spectrum) of its halves A = [ceil(m/2),
    ceil(n/2)) and B = [floor(m/2), floor(n/2)) on the M/2-grid, written
    into the caller's arrays ``low`` and ``high``.

    With P~(z) = z^-m P(z) and likewise A~, B~ (the untwisted values
    half_spectrum gives), the doubling rule P(z) = A(w) + z B(-w), w = z^2
    (norms), reads, with sigma = (-1)^floor(m/2),

        m even:  P~(z) = A~(w) + sigma z B~(-w),
        m odd:   P~(z) = z A~(w) + sigma B~(-w).

    With z_k = exp(2 pi i k / M) and q = M/4, butterfly k (0 <= k <= q)
    reads RA[k], RB[q - k] = B~(-w_k) (the conjugate symmetry of the
    M/2-grid) and z_k (twiddles), and writes

        R[k] = X + Y,    R[M/2 - k] = conj(X - Y),

    X = RA[k] and Y = sigma conj(z_k RB[q - k]) for m even, and
    X = sigma conj(RB[q - k]) and Y = conj(z_k) RA[k] for m odd: the
    values conj P~(z_k) and P~(-z_k) that half_spectrum of the segment
    gives.  The step is elementwise: element i of ``RA``, ``RB`` and ``z``
    holds RA[k], RB[q - k] and z_k of one butterfly k, in any order, and
    its R[k] and R[M/2 - k] go to element i of ``low`` and ``high``, which
    may be views of one whole R.  At k = q both are R[q]; the butterflies
    run over chunks, each writing low before high, so a whole R gets
    high's value.  No temporary spans the grid, and the products of
    numpy's complex loops do not depend on the strides of their inputs, so
    a butterfly's values do not depend on the others taken with it.  The
    error bound is eps_radix2.
    """
    w = len(RA)
    if not len(RB) == len(z) == len(low) == len(high) == w:
        raise ValueError(f"half spectra, twiddles and outputs of lengths "
                         f"{len(RA)}, {len(RB)}, {len(z)}, {len(low)}, "
                         f"{len(high)} differ")
    for i0 in range(0, w, _CHUNK):
        i1 = min(i0 + _CHUNK, w)
        zk, rb = z[i0:i1], RB[i0:i1]
        if m & 1:
            x = np.conjugate(rb)
            y = np.conjugate(zk) * RA[i0:i1]
            signed = x
        else:
            x = RA[i0:i1]
            y = zk * rb
            np.conjugate(y, out=y)
            signed = y
        if m & 2:                              # sigma = -1
            np.negative(signed, out=signed)
        lo, hi = low[i0:i1], high[i0:i1]
        np.add(x, y, out=lo)
        np.subtract(x, y, out=hi)
        np.conjugate(hi, out=hi)


def _twiddles_at(k: np.ndarray, M: int) -> np.ndarray:
    """z_k = exp(2 pi i k / M) at an integer array k of any shape,
    0 <= k <= M/2, each at its exact index, so a value depends on k and M
    alone.  For a power of two M each is within 8u of the true root: the
    argument k (2 pi / M) errs by at most pi (2u + u^2), the rounding of
    2 pi (the division by M is exact) and of the product, and cos and sin
    add at most one ulp each (the math library's, taken as faithful), so
    |z~ - z| <= 2 pi u + sqrt(2) u + O(u^2) < 8u.  eps_radix2 rests on
    this bound, and _root takes its phases alike."""
    theta = k * (2.0 * math.pi / M)
    z = np.empty(theta.shape, dtype=complex)
    z.real = np.cos(theta)
    z.imag = np.sin(theta)
    return z


KEPT_TWIDDLES = 1 << 16     # twiddles keeps the tables of grids up to this
_kept_tables: dict = {}     # M -> twiddles(M), M a power of two


def twiddles(M: int, k=slice(None)) -> np.ndarray:
    """z_k = exp(2 pi i k / M) at the butterflies k of the M-grid, M >= 4:
    a slice of 0 .. M/4, by default the whole table (read-only), or an
    index array (_twiddles_at), with z_{M/4} exactly i.  A value depends
    on k and M alone, so a window or a gathered point is the table's, bit
    for bit, and the table of M/2^j is that of M at the stride 2^j: the
    index k 2^j times 2 pi / M rounds as k times 2 pi / (M / 2^j).  The
    tables of the power-of-two grids up to KEPT_TWIDDLES are built at the
    first slice asked and kept, 512 KiB for all of them: the objectives on
    small grids ask for the same ones call after call.  Otherwise only the
    twiddles asked for are computed, so a caller that takes its
    butterflies a window at a time holds no table of the grid, and
    gathered points build none."""
    q = M // 4
    z = _kept_tables.get(M)
    if z is None:
        kept = (M <= KEPT_TWIDDLES and not M & (M - 1)
                and isinstance(k, slice))
        ks = slice(None) if kept else k
        if isinstance(ks, slice):
            ks = np.arange(*ks.indices(q + 1))
        z = _twiddles_at(ks, M)
        z[ks == q] = 1j
        z.flags.writeable = False
        if not kept:
            return z
        _kept_tables[M] = z
    return z[k]


def eps_radix2(length: int, M: int) -> float:
    """Per-value absolute error bound of radix2_step for a segment of the
    given length L on the M-grid, given inputs within eps_fp of their
    halves on M/2.

    Whatever the parity of m, one half enters untwiddled and has length
    a = ceil(L/2), and the other is multiplied by a twiddle (z_k, or its
    conjugate for m odd) and has length b = floor(L/2): for m even A has
    ceil(n/2) - m/2 = ceil(L/2) terms and B floor(L/2), for m odd B has
    floor(n/2) - (m - 1)/2 = ceil(L/2) and A floor(L/2).  The sign sigma
    and the conjugates are exact.  Write e_A = eps_fp(a, M/2) and
    e_B = eps_fp(b, M/2); the true moduli are at most a and b.  The
    twiddle errs by at most 8u (_twiddles_at), so the twiddled value is
    within e_B + 8u (b + e_B) before the product, and the complex product
    adds at most sqrt(2) gamma_2 (1 + 8u)(b + e_B), gamma_2 = 2u / (1 - 2u)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Lemma 3.5).
    That bounds the twiddled term's error e_t.  The sum or difference
    rounds each component to within u of its modulus, at most
    L + e_A + e_t.  To first order the bound is

        e_A + e_B + (8 + 2 sqrt(2)) u b + u L,

    and e_A + e_B = 8 u L (log2 M - 1) = eps_fp(L, M) - 8 u L, while
    (8 + 2 sqrt(2)) u b + u L <= 6.5 u L; the remaining 1.5 u L holds the
    second-order terms, so eps_radix2(L, M) <= eps_fp(L, M) (see tests),
    and abs_sq_slack bounds |R|^2 from their error.

    So the bound carries through the recursion that builds a segment's
    half spectrum this way, down to segments of length at most 1, whose
    values a_m and 0 are exact: if each step's inputs are within eps_fp
    on M/2, its values are within eps_radix2(L, M) <= eps_fp(L, M), the
    premise of the next step up.  The tests check that inequality at every
    step the sweeps, Montgomery's grid check, dense and certify-f2 take.
    """
    u = UNIT_ROUNDOFF
    a, b = (length + 1) // 2, length // 2
    e_b = eps_fp(b, M // 2)
    e_t = e_b + (8 * u + math.sqrt(2.0) * 2 * u / (1 - 2 * u)
                 * (1 + 8 * u)) * (b + e_b)
    e = eps_fp(a, M // 2) + e_t
    return e + u * (length + e)


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
    for pq in _pq(_root(j << s, _PHASE_ORDER) for s in range(t)):
        pass
    return pq
