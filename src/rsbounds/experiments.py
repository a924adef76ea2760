"""Empirical reproduction of the extremal tail family, its limiting ratios,
and the constrained root sampling on the unit 3-sphere.

The critical pair m_k = (5 4^k + 1)/3, n_k = (8 4^k + 1)/3 spans 4^k terms.
The tail V_k, the partial sum over [m_k, n_k), is a Segment like any other
and is evaluated by the P/Q block recursion of the evaluate module, at
exact phases for roots of unity.  It satisfies the one-step recursion

    V_{k+1}(z) = (1 + z) V_k(z^4) + (z^2 - z^3) V_k(-z^4)
                 + z^{m_{k+1}} + z^{n_{k+1}}

with V_0(z) = z^2, an identity that the acceptance suite (criterion 9)
checks against direct coefficient summation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .evaluate import _pq, eval_point, eval_point_root, segment_sum_pm1
from .norms import Enclosure, L_norm_sq, oversampled_grid, sup_norm_sq
from .sequence import DEFAULT_MAX_RANGE, CapacityError, Segment, coeff
# Unused here, kept because certbench/spans.py traces it through this module.
from .sequence import coeff_range


def critical_pair(k: int) -> tuple[int, int]:
    if k < 0:
        raise ValueError("k must be non-negative")
    return (5 * 4 ** k + 1) // 3, (8 * 4 ** k + 1) // 3


@dataclass(frozen=True)
class ExtremalPair:
    """Exact critical index pair; n - m = 4^k."""

    k: int

    @property
    def m(self) -> int:
        return critical_pair(self.k)[0]

    @property
    def n(self) -> int:
        return critical_pair(self.k)[1]

    @property
    def segment(self) -> Segment:
        return Segment(self.m, self.n)

    def check_invariants(self) -> bool:
        m, n = self.m, self.n
        ok = 3 * m == 5 * 4 ** self.k + 1 and 3 * n == 8 * 4 ** self.k + 1
        ok = ok and n - m == 4 ** self.k
        if self.k > 0:
            pm, pn = critical_pair(self.k - 1)
            ok = ok and m == 4 * pm - 1 and n == 4 * pn - 1
        return ok and coeff(m) == 1 and coeff(n) == -1


def extremal_values(k: int) -> tuple[int, int]:
    """Exact (V_k(1), V_k(-1)) by integer summation; asserts the closed
    forms 3 * 2^k - 2 and -2^k + 2."""
    if not 0 <= k <= 20:
        raise ValueError("supported range is 0 <= k <= 20")
    pair = ExtremalPair(k)
    at_one, at_minus_one = segment_sum_pm1(pair.segment)
    if at_one != 3 * 2 ** k - 2 or at_minus_one != -(2 ** k) + 2:
        raise AssertionError(
            f"extremal values ({at_one}, {at_minus_one}) disagree with the "
            f"closed forms at k={k}")
    return at_one, at_minus_one


# tail_point and tail_point_root are kept because certbench/spans.py traces
# them through this module.
def tail_point(k: int, z: complex) -> complex:
    """V_k(z) at a unimodular float z, by eval_point."""
    return eval_point(ExtremalPair(k).segment, z)


def tail_point_root(k: int, j: int, N: int) -> complex:
    """V_k at z = exp(2*pi*i*j/N) with exact phases, by eval_point_root."""
    return eval_point_root(ExtremalPair(k).segment, j, N)


@dataclass(frozen=True)
class MontgomeryReport:
    k: int
    point_ratio: float            # |V_k(exp(3 pi i/4))|^2 / 4^k
    exceeds_nine: bool
    grid_sup_ratio: float | None  # sup-norm-squared enclosure hi / 4^k
    grid_sup_ratio_lo: float | None
    N: int | None
    limit: float = 5.0 + 7.0 / math.sqrt(2.0)


def montgomery_counterexample(k: int, N: int | None = None
                              ) -> MontgomeryReport:
    """Ratio of the squared tail at exp(3*pi*i/4) to its length, plus the
    grid sup-norm ratio when the segment fits the requested grid."""
    if not 0 <= k <= 40:
        raise ValueError("supported range is 0 <= k <= 40")
    # exp(3 pi i / 4) is the N = 8, j = 3 grid root: exact phases.
    val = eval_point_root(ExtremalPair(k).segment, 3, 8)
    point_ratio = abs(val) ** 2 / 4 ** k
    grid_hi = grid_lo = None
    if N is not None:
        length = 4 ** k
        if length > 1 << 24 or N < 4 * length:
            raise ValueError(
                f"grid sup for k={k} needs N >= {4 * length} and "
                f"length <= {1 << 24}")
        enc = sup_norm_sq(ExtremalPair(k).segment, N)
        grid_hi = enc.hi / 4 ** k
        grid_lo = enc.lo / 4 ** k
    return MontgomeryReport(k=k, point_ratio=point_ratio,
                            exceeds_nine=point_ratio > 9.0,
                            grid_sup_ratio=grid_hi, grid_sup_ratio_lo=grid_lo,
                            N=N)


def L_ratio_lower(k: int) -> tuple[float, float]:
    """(lower bound on the squared L-norm of the critical tail divided by
    4^k, closed-form floor 10 - 16 2^-k + 8 4^-k).

    The bound is (V_k(1)^2 + V_k(-1)^2) / 4^k from the exact integers of
    segment_sum_pm1, and equals the floor: V_k(+-1) = 3 2^k - 2, -2^k + 2.
    """
    at_one, at_minus_one = segment_sum_pm1(ExtremalPair(k).segment)
    lo = float(at_one * at_one + at_minus_one * at_minus_one)
    floor = 10.0 - 16.0 * 2.0 ** -k + 8.0 * 4.0 ** -k
    return lo / 4 ** k, floor


@dataclass(frozen=True)
class DenseLimitRow:
    k: int
    ratio: Enclosure      # sup-norm enclosure of the doubled range / 2^{k/2}
    target: Enclosure     # L-norm enclosure of the base range


def dense_limit_empirical(m: int, n: int, k_max: int) -> list[DenseLimitRow]:
    """Ratios r_k = sup-norm of the 2^k-fold index-doubled range over
    2^{k/2}, against the L-norm target of the base range.

    r_k <= target holds for every k (the sup-norm is dominated by the
    L-norm, which scales exactly); the approach to the target is empirical.
    """
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    # 16x oversampling keeps the off-grid correction below 2 percent.
    if n - m > (DEFAULT_MAX_RANGE >> 4) >> k_max:
        raise CapacityError(f"k_max = {k_max}: the 16x grid of the doubled "
                            f"range exceeds the limit {DEFAULT_MAX_RANGE}")
    target = L_norm_sq(Segment(m, n),
                       oversampled_grid(n - m, DEFAULT_MAX_RANGE, 16)).sqrt()
    rows = []
    for k in range(k_max + 1):
        mm, nn = m << k, n << k
        N = oversampled_grid(nn - mm, DEFAULT_MAX_RANGE, 16)
        enc = sup_norm_sq(Segment(mm, nn), N).sqrt().scale(2.0 ** (-k / 2.0))
        rows.append(DenseLimitRow(k=k, ratio=enc, target=target))
    return rows


@dataclass(frozen=True)
class SphereSampleReport:
    k: int
    count: int
    min_distance: float
    parseval_max_err: float


def sphere_sampler(k: int, z: complex, target: tuple[complex, complex],
                   count: int, seed: int = 0) -> SphereSampleReport:
    """Sample distinct solutions w of w^{2^k} = z uniformly at random, map
    each through the normalized pair (P_k(w), Q_k(w)) / 2^{(k+1)/2} on the
    unit 3-sphere, and report the minimum chordal distance to the target
    direction.  All roots go through one array pass of the P/Q recursion,
    w^{2^t} = exp(i (theta + 2 pi (j mod 2^{k-t})) / 2^{k-t}) for the pick
    j, reduced exactly in int64 (so k <= 62).

    Empirical density probe only: the report never hard-fails, matching the
    positive-probability nature of the limit statement it illustrates.
    """
    if not 0 <= k <= 62:
        raise ValueError(f"k must be in 0..62, got {k}")
    if count < 1:
        raise ValueError("count must be positive")
    if count > 1 << k:
        raise ValueError(f"at most 2^{k} distinct roots exist")
    picks = np.random.default_rng(seed).choice(1 << k, size=count,
                                               replace=False)
    theta = cmath.phase(z)
    ws = [np.exp(1j * ((theta + 2.0 * math.pi * (picks % (1 << r)))
                       * 2.0 ** -r))
          for r in range(k, 0, -1)]
    p, q = _pq(ws)[k]
    scale = 2.0 ** (-(k + 1) / 2.0)
    ph, qh = p * scale, q * scale
    alpha, beta = target
    parseval_err = np.max(np.abs(np.abs(ph) ** 2 + np.abs(qh) ** 2 - 1.0))
    dist = np.sqrt(np.abs(ph - alpha) ** 2 + np.abs(qh - beta) ** 2)
    return SphereSampleReport(k=k, count=count,
                              min_distance=float(np.min(dist)),
                              parseval_max_err=float(parseval_err))


def random_sphere_target(rng: np.random.Generator) -> tuple[complex, complex]:
    """Uniform direction on the unit 3-sphere in C^2."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return complex(v[0], v[1]), complex(v[2], v[3])
