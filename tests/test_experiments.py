import cmath
import math

import numpy as np
import pytest

from rsbounds.evaluate import eval_PQ, eval_roots
from rsbounds.experiments import (ExtremalPair, L_ratio_lower, critical_pair,
                                  dense_limit_empirical, extremal_values,
                                  montgomery_counterexample,
                                  random_sphere_target, sphere_sampler,
                                  tail_point, tail_point_root)
from rsbounds.sequence import CapacityError, Segment, coeff_range


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


def test_montgomery_grid_ratio():
    rep = montgomery_counterexample(6, N=1 << 16)
    assert rep.grid_sup_ratio_lo is not None
    assert rep.grid_sup_ratio_lo > 9.0
    with pytest.raises(ValueError):
        montgomery_counterexample(6, N=1 << 10)


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


def test_sphere_sampler_density_report():
    # soft, report-only: deeper recursions tend to approach any target
    rng = np.random.default_rng(1)
    target = random_sphere_target(rng)
    dists = [sphere_sampler(k, 1 + 0j, target, 1 << min(k, 9),
                            seed=9).min_distance
             for k in (4, 8, 12)]
    print(f"sphere sampler min distances (k=4,8,12): {dists}")
