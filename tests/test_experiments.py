import cmath
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rsbounds
from rsbounds.evaluate import eval_PQ
from rsbounds.experiments import (ExtremalPair, L_ratio_lower, critical_pair,
                                  dense_limit_empirical, extremal_values,
                                  montgomery_counterexample,
                                  random_sphere_target, sphere_sampler,
                                  tail_point, tail_point_root)
from rsbounds.norms import sup_norm_sq
from rsbounds.sequence import CapacityError, Segment, coeff_range
from conftest import eval_roots


def test_critical_pair_invariants():
    for k in range(21):
        assert ExtremalPair(k).check_invariants()


def test_extremal_values_examples():
    assert extremal_values(0) == (1, 1)
    assert extremal_values(1) == (4, 0)
    assert extremal_values(5) == (94, -30)


def test_extremal_values_match_direct_summation():
    for k in range(8):
        m, n = critical_pair(k)
        a = coeff_range(Segment(m, n)).astype(np.int64)
        signs = np.where(np.arange(m, n) % 2, -1, 1)
        assert extremal_values(k) == (int(a.sum()), int((a * signs).sum()))


def test_tail_recursion_matches_direct_eval():
    """Against eval_roots, the pairwise direct sum, times the twist z^m;
    one point per call keeps its memory at one row of up to 4^10 terms."""
    rng = np.random.default_rng(7)
    N = 1 << 20
    for k in range(0, 11):
        m, n = critical_pair(k)
        for _ in range(10):
            j = int(rng.integers(0, N))
            via_recursion = tail_point_root(k, j, N)
            direct = (eval_roots(Segment(m, n), [j], N)[0]
                      * cmath.exp(2j * cmath.pi * (m * j % N) / N))
            assert abs(via_recursion - direct) <= 1e-8 * max(1.0, abs(direct))


def test_tail_point_generic_matches_root_form():
    rng = np.random.default_rng(11)
    for k in range(0, 9):
        j = int(rng.integers(0, 1 << 16))
        z = cmath.exp(2j * cmath.pi * j / (1 << 16))
        a = tail_point(k, z)
        b = tail_point_root(k, j, 1 << 16)
        assert abs(a - b) < 1e-7 * max(1.0, abs(b))


def test_tail_rejects_negative_k():
    for k in (-1, -2, -3, -10):
        with pytest.raises(ValueError, match="non-negative"):
            tail_point(k, 1j)
        with pytest.raises(ValueError, match="non-negative"):
            tail_point_root(k, 3, 8)


def test_montgomery_point_examples():
    assert montgomery_counterexample(0).point_ratio == pytest.approx(1.0)
    rep = montgomery_counterexample(10)
    assert rep.exceeds_nine and rep.point_ratio > 9.0
    # independent oracle at k=10: the pairwise direct sum of eval_roots
    m, n = critical_pair(10)
    direct = eval_roots(Segment(m, n), [3], 8)[0]
    assert rep.point_ratio == pytest.approx(abs(direct) ** 2 / 4 ** 10,
                                            rel=1e-9)


def test_montgomery_convergence_rate():
    limit = 5.0 + 7.0 / math.sqrt(2.0)
    fitted = 0.0
    # from k = 32 on the indices pass 2^64: no coefficient vector exists
    for k in range(4, 41):
        ratio = montgomery_counterexample(k).point_ratio
        fitted = max(fitted, abs(ratio - limit) * 2.0 ** k)
    assert fitted < 60.0          # |ratio(k) - limit| <= C' 2^-k


def test_montgomery_grid_ratio(no_fft):
    """The grid check is the decision sup |V_k|^2 <= 9 4^k under the cap:
    at the sweep's caps 2^16 .. 2^22 it is refuted on its first grid,
    8 4^k = 2^(2k+3), with lo above 9 4^k and no lower than the lo of
    the full enclosure at the cap (k <= 8; k = 9 would build the 2^22 grid)."""
    for k in (6, 7, 8, 9):
        cap = 1 << max(16, 2 * k + 4)
        rep = montgomery_counterexample(k, N=cap)
        assert rep.N == 1 << (2 * k + 3), (k, rep.N)
        assert rep.grid_sup_ratio_lo > 9.0
        if k <= 8:
            full = sup_norm_sq(ExtremalPair(k).segment, cap)
            assert rep.grid_sup_ratio_lo >= full.lo / 4 ** k, k
    with pytest.raises(ValueError):
        montgomery_counterexample(6, N=1 << 10)


def test_montgomery_grid_check_peak_memory(no_fft):
    """The decision at the 2^22 cap settles on the 2^21 grid, whose
    spectrum the radix-2 recursion builds whole only up to the level
    2^15, and above it a window of butterflies of each level at a time,
    folding the top's power into its maximum: at most 6 MiB traced.  It
    traced 4.3 MiB; 11.0 MiB with the levels up to 2^18 held whole, the
    levels 2^19 and 2^20 rebuilt per top chunk and the twiddle table of
    2^20 held; 29.3 MiB with every level held whole; and 64 MiB for the
    full 2^22 enclosure by one FFT with its own padded buffer.  k = 10 on
    the 2^24 cap settles on 2^23 within 8 MiB, so the peak grows with
    the number of levels, not with the grid: it traced 4.8 MiB, and
    41.0 MiB with the levels up to N/8 held whole."""
    montgomery_counterexample(9)            # imports and caches first
    for k, cap, bound in ((9, 1 << 22, 6 << 20), (10, 1 << 24, 8 << 20)):
        tracemalloc.start()
        try:
            rep = montgomery_counterexample(k, N=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.N == 1 << (2 * k + 3) and rep.grid_sup_ratio_lo > 9.0
        assert peak <= bound, (k, peak)


@pytest.mark.skipif(not os.path.exists('/proc/self/status'),
                    reason='reads VmHWM from procfs')
def test_montgomery_grid_check_peak_rss_in_a_fresh_interpreter():
    """The same decision raises a fresh interpreter's peak RSS by at most
    8 MB over its own after the imports: the 2^21 grid is built by the
    radix-2 recursion, streamed above the level 2^15, not by a pocketfft
    transform, whose own buffers tracemalloc does not see.  The rise read
    4.9 MB, 12.5 MB with the levels up to 2^18 held whole, 30 MB with
    every level held whole, and 53 MB with one rfft on 2^21, on Linux
    x86_64 (glibc 2.36) with CPython 3.11.7 and numpy 2.4.6; the
    allocator and numpy's version move it.  The peak is VmHWM, that of
    the interpreter's own memory map, so the test needs procfs: a
    spawned process's ru_maxrss starts at its parent's peak on Linux."""
    src = os.path.dirname(os.path.dirname(rsbounds.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get('PYTHONPATH')])))
    code = r'''
import re
from rsbounds.experiments import montgomery_counterexample

def peak():
    status = open('/proc/self/status').read()
    return int(re.search(r'VmHWM:\s*(\d+) kB', status)[1])

montgomery_counterexample(9)
before = peak()
rep = montgomery_counterexample(9, N=1 << 22)
print(rep.N, rep.grid_sup_ratio_lo, (peak() - before) / 1024)
'''
    out = subprocess.run([sys.executable, '-c', code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    N, lo, rise_mb = int(out[0]), float(out[1]), float(out[2])
    assert N == 1 << 21 and lo > 9.0
    assert rise_mb <= 8.0, rise_mb


def test_L_ratio_lower_examples():
    lo, floor = L_ratio_lower(1)
    assert 4.0 <= lo <= 10.0 and floor == pytest.approx(4.0)
    lo, floor = L_ratio_lower(5)
    assert floor == pytest.approx(10.0 - 16.0 / 32 + 8.0 / 1024)
    assert floor - 1e-12 <= lo <= 10.0


def test_L_ratio_never_exceeds_ten():
    """lo is the exact +-1 ratio, which is the closed-form floor."""
    for k in range(21):
        lo, floor = L_ratio_lower(k)
        at_one, at_minus_one = extremal_values(k)
        assert (at_one, at_minus_one) == (3 * 2 ** k - 2, -(2 ** k) + 2)
        assert lo == (at_one ** 2 + at_minus_one ** 2) / 4 ** k
        assert floor - 1e-12 <= lo <= 10.0


def test_dense_limit_rows():
    rows = dense_limit_empirical(0, 1, 6)
    target = rows[0].target
    assert target.contains(math.sqrt(2.0))
    for r in rows:
        assert r.ratio.lo <= target.hi + target.width + 1e-9
    rows = dense_limit_empirical(0, 2, 4)
    assert rows[0].target.contains(2.0)
    with pytest.raises(ValueError):
        dense_limit_empirical(3, 3, 2)
    with pytest.raises(ValueError):
        dense_limit_empirical(0, 1, -1)
    # the 16x grid of 2^23 terms is past the grid limit: refused before work
    with pytest.raises(CapacityError):
        dense_limit_empirical(0, 1, 23)
    with pytest.raises(CapacityError):
        dense_limit_empirical(0, 1, 1 << 70)


def test_dense_limit_trend_toward_target():
    rows = dense_limit_empirical(5, 8, 10)
    target = rows[0].target
    # empirical approach from below: the late ratios are much closer
    assert rows[10].ratio.lo > 0.95 * target.lo
    assert rows[10].ratio.lo > rows[0].ratio.lo


def test_sphere_sampler_seed_vector():
    rep = sphere_sampler(0, 1 + 0j, (2 ** -0.5, 2 ** -0.5), 1, seed=3)
    assert rep.min_distance < 1e-12
    assert rep.parseval_max_err < 1e-9


def test_sphere_sampler_parseval_and_determinism():
    rng = np.random.default_rng(42)
    target = random_sphere_target(rng)
    a = sphere_sampler(10, 1j, target, 256, seed=5)
    b = sphere_sampler(10, 1j, target, 256, seed=5)
    assert a == b
    assert a.parseval_max_err < 1e-9
    # the array pass against eval_PQ, root by root, on the same picks
    picks = np.random.default_rng(5).choice(1 << 10, size=256, replace=False)
    want = math.inf
    for j in picks:
        p, q = eval_PQ(10, cmath.exp(1j * (math.pi / 2 + 2 * math.pi * j)
                                     / (1 << 10)))
        want = min(want, math.hypot(abs(p * 2.0 ** -5.5 - target[0]),
                                    abs(q * 2.0 ** -5.5 - target[1])))
    assert abs(a.min_distance - want) <= 1e-12
    for k in (24, 40):      # past where a squaring chain loses 1e-9
        rep = sphere_sampler(k, 1j, target, 256, seed=5)
        assert rep.parseval_max_err <= 1e-12, k
    assert sphere_sampler(62, 1j, target, 16, seed=5).count == 16
    for k, count in ((2, 5), (63, 1), (-1, 1)):
        with pytest.raises(ValueError):
            sphere_sampler(k, 1 + 0j, target, count, seed=0)


def test_sphere_sampler_holds_one_power_at_a_time():
    """At k = 40 with 2^14 roots one complex array is 0.25 MB; the pass
    keeps one power w^{2^t} and one (P_t, Q_t) pair alive, so the traced
    peak stays under 4 MB (31 MB when every power and pair was kept).  On
    the seeded cases its outputs equal, bit for bit, those of a pass that
    builds every power first."""
    target = random_sphere_target(np.random.default_rng(42))
    tracemalloc.start()
    try:
        sphere_sampler(40, 1j, target, 1 << 14, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    for k, count in ((10, 256), (24, 256), (40, 256), (62, 16)):
        picks = np.random.default_rng(5).choice(1 << k, size=count,
                                                replace=False)
        ws = [np.exp(1j * ((math.pi / 2 + 2.0 * math.pi * (picks % (1 << r)))
                           * 2.0 ** -r))
              for r in range(k, 0, -1)]
        p = q = 1
        for w in ws:
            wq = w * q
            p, q = p + wq, p - wq
        ph, qh = p * 2.0 ** (-(k + 1) / 2.0), q * 2.0 ** (-(k + 1) / 2.0)
        dist = np.sqrt(np.abs(ph - target[0]) ** 2
                       + np.abs(qh - target[1]) ** 2)
        err = np.max(np.abs(np.abs(ph) ** 2 + np.abs(qh) ** 2 - 1.0))
        rep = sphere_sampler(k, 1j, target, count, seed=5)
        assert (rep.min_distance, rep.parseval_max_err) == (
            float(np.min(dist)), float(err)), k


def test_sphere_sampler_density_report():
    # soft, report-only: deeper recursions tend to approach any target
    rng = np.random.default_rng(1)
    target = random_sphere_target(rng)
    dists = [sphere_sampler(k, 1 + 0j, target, 1 << min(k, 9),
                            seed=9).min_distance
             for k in (4, 8, 12)]
    print(f"sphere sampler min distances (k=4,8,12): {dists}")
