import cmath
import math

import numpy as np
import pytest

from rsbounds.evaluate import (UNIT_ROUNDOFF, DomainError, eps_direct, eps_fp,
                               eval_point, eval_point_root, eval_PQ,
                               eval_roots, half_spectrum)
from rsbounds.sequence import CapacityError, Segment, coeff_range


def grid_point(j, N):
    return cmath.exp(2j * cmath.pi * j / N)


def untwisted(seg, j, N):
    """conj(P_seg(z_j)) * z_j^m, the value half_spectrum returns at j."""
    return (eval_point_root(seg, j, N).conjugate()
            * grid_point((seg.m * j) % N, N))


def test_eval_point_examples():
    assert eval_point(Segment(0, 3), 1 + 0j) == pytest.approx(3)
    assert eval_point(Segment(0, 11), 1 + 0j) == pytest.approx(7)
    assert eval_point(Segment(7, 11), -1 + 0j) == pytest.approx(0)


def test_eval_point_rejects_off_circle():
    with pytest.raises(DomainError):
        eval_point(Segment(0, 4), 1.001 + 0j)


def test_eval_point_magnitude_bound():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(0, 500))
        n = m + int(rng.integers(0, 300))
        z = grid_point(int(rng.integers(0, 997)), 997)
        assert abs(eval_point(Segment(m, n), z)) <= (n - m) + 1e-9


def test_eval_point_bounded_at_large_offsets():
    """z is read as a root of unity of order 2^53, so powers past 2^53 stay
    unimodular: the 10-term segment keeps |P| <= 10 at any offset."""
    for b in (56, 64, 80):
        v = eval_point(Segment(2 ** b - 6, 2 ** b + 4), 0.6 + 0.8j)
        assert cmath.isfinite(v) and abs(v) <= 10, (b, v)


def test_eval_point_error_model_against_mpmath():
    """eval_point errs by at most 10 n u max(1, |P|) from P at z's own
    phase, n the end of the segment, at offsets below 2^46; verified
    against 60-digit reference sums."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(61)
    with mp.workdps(60):
        for _ in range(40):
            m = int(rng.integers(0, 1 << int(rng.integers(1, 46))))
            seg = Segment(m, m + int(rng.integers(1, 2000)))
            z = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            w = mp.expj(mp.arg(mp.mpc(z.real, z.imag)))
            acc = mp.mpc(0)
            for c in reversed([int(c) for c in coeff_range(seg)]):
                acc = acc * w + c
            want = complex(acc * w ** m)
            err = abs(eval_point(seg, z) - want)
            bound = 10 * seg.n * UNIT_ROUNDOFF * max(1.0, abs(want))
            assert err <= bound, (seg, z, err, bound)


def test_eval_grid_examples():
    spec = half_spectrum(Segment(0, 1), 8)
    np.testing.assert_allclose(spec, np.ones(5), atol=1e-12)
    spec = half_spectrum(Segment(0, 2), 4)       # conj(1 + z_j)
    np.testing.assert_allclose(spec, [2, 1 - 1j, 0], atol=1e-12)
    spec = half_spectrum(Segment(0, 4), 8)
    assert spec[0] == pytest.approx(2)


def test_eval_grid_preconditions():
    with pytest.raises(ValueError):
        half_spectrum(Segment(0, 4), 6)          # not a power of two
    with pytest.raises(ValueError):
        half_spectrum(Segment(0, 16), 8)         # segment longer than grid
    with pytest.raises(CapacityError):
        half_spectrum(Segment(0, 4), 1 << 27)    # beyond the grid limit


def test_eval_grid_matches_eval_point():
    rng = np.random.default_rng(17)
    for m, n, N in [(0, 37, 256), (11, 64, 128), (1000, 1500, 2048)]:
        seg = Segment(m, n)
        spec = half_spectrum(seg, N)
        tol = eps_fp(seg.length, N)
        for j in map(int, rng.integers(0, N // 2 + 1, 64)):
            direct = untwisted(seg, j, N)
            assert abs(spec[j] - direct) <= tol + 1e-12 * abs(direct)
            # the mirror point z_{N-j} has the same modulus
            mirror = abs(eval_point_root(seg, N - j, N))
            assert abs(abs(spec[j]) - mirror) <= tol + 1e-12 * mirror


def test_eval_grid_offset_twist_is_exact_indexing():
    # huge offset: the twist must come out of index arithmetic, not powers
    m = (1 << 40) + 3
    seg = Segment(m, m + 5)
    N = 64
    spec = half_spectrum(seg, N)
    for j in (1, 13, 32):
        assert abs(spec[j] - untwisted(seg, j, N)) < 1e-9
    assert abs(abs(spec[64 - 40]) - abs(eval_point_root(seg, 40, N))) < 1e-9


def test_half_spectrum_consistent_with_grid():
    seg = Segment(5, 77)
    N = 256
    spec = half_spectrum(seg, N)
    for j in range(N // 2 + 1):
        assert abs(abs(spec[j]) - abs(eval_point_root(seg, j, N))) < 1e-10
        # antipode: |P(-z_j)| = |spec[N/2 - j]|
        antipode = eval_point_root(seg, j + N // 2, N)
        assert abs(abs(spec[N // 2 - j]) - abs(antipode)) < 1e-10


def test_eval_point_error_grows_with_offset():
    """eval_point's documented loss: relative error up to about 10 n u for
    a segment ending at n, from the phase of the floating-point z; checked
    against exact phases at offsets 2^20 .. 2^44 (the L^2 u term covers
    the inner sum at small offsets)."""
    rng = np.random.default_rng(43)
    N = 1 << 24
    for log2m in range(20, 45, 2):
        for L in (int(rng.integers(1, 3000)), int(rng.integers(20000, 40000))):
            m = int(rng.integers(1 << log2m, 1 << (log2m + 1)))
            seg = Segment(m, m + L)
            j = int(rng.integers(0, N))
            exact = eval_point_root(seg, j, N)
            err = abs(eval_point(seg, grid_point(j, N)) - exact)
            bound = 16 * UNIT_ROUNDOFF * (seg.n * abs(exact) + L * L)
            assert err <= bound, (m, L, j, err, bound)


def test_eval_roots_matches_eval_point_root():
    rng = np.random.default_rng(47)
    for _ in range(20):
        m = int(rng.integers(0, 1 << 40))
        seg = Segment(m, m + int(rng.integers(0, 130)))
        N = 1 << int(rng.integers(2, 25))
        js = rng.integers(-N, 2 * N, 5)
        vals = eval_roots(seg, js, N)
        for j, v in zip(js, vals):
            root = eval_point_root(seg, int(j), N)
            want = root * grid_point((-seg.m * int(j)) % N, N)   # untwisted
            assert abs(v - want) <= 1e-12 * max(seg.length, 1), (m, N, j)
    with pytest.raises(ValueError):
        eval_roots(Segment(0, 4), [1], 12)


def test_eval_pq_examples():
    assert eval_PQ(0, 1j) == (1, 1)
    p, q = eval_PQ(1, 1 + 0j)
    assert (p, q) == (2, 0)
    p, q = eval_PQ(2, 1 + 0j)
    assert (p, q) == (2, 2)


def test_eval_pq_matches_prefix():
    """P_t is the sum over [0, 2^t) and Q_t the untwisted sum over
    [2^t, 2^{t+1}), both taken by eval_roots, the pairwise direct sum."""
    rng = np.random.default_rng(23)
    N = 1 << 16
    for t in range(0, 11):
        j = int(rng.integers(0, N))
        p, q = eval_PQ(t, grid_point(j, N))
        want_p = eval_roots(Segment(0, 1 << t), [j], N)[0]
        want_q = eval_roots(Segment(1 << t, 2 << t), [j], N)[0]
        assert abs(p - want_p) < 1e-9 * max(1.0, abs(want_p))
        assert abs(q - want_q) < 1e-9 * max(1.0, abs(want_q))


def test_parseval_pairs():
    """Each z^{2^s} is taken at an exact phase, so the error does not
    double with t as on a squaring chain (1e-4 at t = 40)."""
    rng = np.random.default_rng(29)
    for t in range(49):
        for _ in range(50):
            z = grid_point(int(rng.integers(0, 1 << 20)), 1 << 20)
            p, q = eval_PQ(t, z)
            total = abs(p) ** 2 + abs(q) ** 2
            assert total == pytest.approx(2.0 ** (t + 1), rel=1e-12), t


def test_splitting_identity():
    rng = np.random.default_rng(31)
    for t in range(17):
        z = grid_point(int(rng.integers(0, 1 << 20)), 1 << 20)
        lhs, _ = eval_PQ(t + 1, z)
        p2, _ = eval_PQ(t, z * z)
        pm2, _ = eval_PQ(t, -z * z)
        rhs = p2 + z * pm2
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_reversal_identity():
    rng = np.random.default_rng(37)
    for t in range(17):
        z = grid_point(int(rng.integers(1, 1 << 20)), 1 << 20)
        p, q = eval_PQ(t, z)
        pm, _ = eval_PQ(t, -1 / z)
        rhs = (-1) ** t * z ** ((1 << t) - 1) * pm
        assert abs(q - rhs) < 1e-9 * max(1.0, abs(q))


def test_block_route_matches_direct():
    """The block route against eval_roots, the independent pairwise direct
    sum, on segments of 2^14 terms and more, at offsets up to 2^40."""
    rng = np.random.default_rng(59)
    for m, L in [(37, 1 << 14), (0, (1 << 14) + 4100),
                 (int(rng.integers(0, 1 << 40)), 40000)]:
        seg = Segment(m, m + L)
        N = 1 << int(rng.integers(17, 25))
        js = rng.integers(0, N, 3)
        for j, direct in zip(map(int, js), eval_roots(seg, js, N)):
            want = direct * grid_point((m * j) % N, N)        # twisted
            got = eval_point_root(seg, j, N)
            assert abs(got - want) <= 2 * eps_direct(L), (m, L, N, j)
            err = abs(eval_point(seg, grid_point(j, N)) - want)
            assert err <= 16 * UNIT_ROUNDOFF * (seg.n * abs(want) + L * L)


def test_fft_error_model_against_mpmath():
    """The eps_fp bound must dominate the true error of half_spectrum by a
    wide margin, on desk sizes and on the production sizes of the
    certificates (N = 2^16 .. 2^24, L up to 4096, each case's argmax
    included); verified against 50-digit reference evaluation."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(41)
    cases = [(int(rng.integers(16, 220)), 1 << int(rng.integers(8, 12)), 6)
             for _ in range(12)]
    for log2N in range(16, 25, 2):
        cases += [(4096, 1 << log2N, 1),
                  (int(rng.integers(16, 4096)), 1 << log2N, 1)]
    worst = 0.0
    with mp.workdps(50):
        for n, N, draws in cases:
            m = int(rng.integers(0, 1000))
            seg = Segment(m, m + n)
            spec = half_spectrum(seg, N)
            coeffs = [int(c) for c in coeff_range(seg)]
            js = [int(np.argmax(np.abs(spec)))]
            js += map(int, rng.integers(0, N // 2 + 1, draws))
            for j in js:
                w = mp.expj(-2 * mp.pi * j / N)     # spec[j] is untwisted
                acc = mp.mpc(0)
                for c in reversed(coeffs):
                    acc = acc * w + c
                err = abs(complex(acc) - spec[j])
                bound = eps_fp(n, N)
                assert err <= bound, (n, N, j, err, bound)
                worst = max(worst, err / bound)
    assert worst < 0.25      # generous cushion in the declared constant


def test_direct_error_model_against_mpmath():
    """eps_direct must dominate the true error of eval_roots, the arc
    evaluator behind the coarse-to-fine sup enclosures, and of the block
    route of eval_point_root, at the production sizes (L up to 4096,
    offsets up to 2^40, N = 2^16 .. 2^24, each case's argmax included);
    verified against 50-digit reference sums.  It never exceeds eps_fp on
    the grids enclosures allow (N >= 4 L), so direct values fit the slack."""
    for L in [*range(1, 4097), *(2 ** h + d for h in range(12, 27)
                                 for d in (-1, 0, 1))]:
        N = 1 << (4 * L - 1).bit_length()
        assert eps_direct(L) <= eps_fp(L, N), L
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(53)
    worst = 0.0
    with mp.workdps(50):
        for log2N in range(16, 25):
            N = 1 << log2N
            for n in (4096 if log2N % 2 else 128,
                      int(2.0 ** rng.uniform(0.0, 12.0))):
                m = int(rng.integers(0, 1 << 40))
                seg = Segment(m, m + n)
                argmax = int(np.argmax(np.abs(half_spectrum(seg, N))))
                js = [argmax, *map(int, rng.integers(0, N, 3))]
                coeffs = [int(c) for c in coeff_range(seg)]
                for j, got in zip(js, eval_roots(seg, js, N)):
                    w = mp.expj(2 * mp.pi * j / N)
                    acc = mp.mpc(0)
                    for c in reversed(coeffs):
                        acc = acc * w + c
                    # eval_point_root's value carries the twist z_j^m
                    twisted = acc * mp.expj(2 * mp.pi * (m * j % N) / N)
                    bound = eps_direct(n)
                    for err in (abs(complex(acc) - got),
                                abs(complex(twisted)
                                    - eval_point_root(seg, j, N))):
                        assert err <= bound, (n, N, j, err, bound)
                        worst = max(worst, err / bound)
    assert worst < 0.25
