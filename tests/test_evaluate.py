import cmath
import math

import numpy as np
import pytest

from rsbounds.evaluate import (UNIT_ROUNDOFF, DomainError, abs_sq_slack,
                               eps_fp, eps_radix2, eval_point,
                               eval_point_root, eval_PQ, half_spectrum,
                               radix2_step, twiddles)
from rsbounds import norms
from rsbounds.norms import segment_spectra
from rsbounds.sequence import (CapacityError, Segment, coeff_range,
                               even_odd_pairs, even_odd_split)
from conftest import eps_direct, eval_roots, stored_spectrum


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


def test_half_spectrum_is_the_padded_rfft_bit_for_bit():
    """half_spectrum lets pocketfft zero-pad (rfft's n) instead of filling
    an N-float buffer: the same bits as the rfft of the explicitly padded
    float input, for every length 0 .. 300 that fits, at even and odd
    offsets up to 2^40, on N = 2 .. 2^14."""
    for N in (1 << e for e in range(1, 15)):
        for m in (0, 1, (1 << 40) - 1, 1 << 40):
            for L in range(min(N, 300) + 1):
                seg = Segment(m, m + L)
                padded = np.zeros(N)
                padded[:L] = coeff_range(seg)
                assert (half_spectrum(seg, N).tobytes()
                        == np.fft.rfft(padded).tobytes()), (seg, N)


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
    """eps_direct must dominate the true error of eval_roots, the tests'
    pairwise-sum oracle, and of the block route of eval_point_root, at the
    production sizes (L up to 4096, offsets up to 2^40, N = 2^16 .. 2^24,
    each case's argmax included); verified against 50-digit reference
    sums."""
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


def test_radix2_step_error_bound_fits_eps_fp():
    """The derived bound of the radix-2 step never exceeds eps_fp on any
    grid M >= 4 n up to 2^24, so every slack holds for split values."""
    for n in range(1, (1 << 13) + 1):
        M = 1 << (4 * n - 1).bit_length()
        while M <= 1 << 24:
            assert eps_radix2(n, M) <= eps_fp(n, M), (n, M)
            M *= 2


def _whole_step(RA, RB, z, m=0):
    """R of the whole radix-2 step on M = 4 (len(RA) - 1), written as
    norms._segment_values writes it: low into R[:q + 1] and high into
    R[::-1][:q + 1], so that R[q] is high's."""
    q = len(RA) - 1
    R = np.empty(2 * q + 1, dtype=complex)
    radix2_step(RA, RB[::-1], z, m, R[:q + 1], R[::-1][:q + 1])
    return R


def test_radix2_step_preconditions():
    """Inputs, twiddles or outputs of mismatched lengths are refused."""
    R, z = half_spectrum(Segment(0, 8), 32), twiddles(32)
    low, high = np.empty((2, 9), dtype=complex)
    for RA, RB, zz, lo, hi in ((R[:9], R[:8], z, low, high),
                               (R[:8], R[:9], z, low, high),
                               (R[:9], R[:9], twiddles(64), low, high),
                               (R[:9], R[:9], twiddles(16), low, high),
                               (R[:9], R[:9], z, low[:8], high),
                               (R[:9], R[:9], z, low, high[1:])):
        with pytest.raises(ValueError):
            radix2_step(RA, RB, zz, 0, lo, hi)
    assert z[0] == 1 and z[-1] == 1j and not z.flags.writeable
    # M = 4: the prefixes 1 and 2, whose values sit on the axes alone.
    for n in (1, 2):
        halves = (half_spectrum(Segment(0, h), 2) for h in ((n + 1) // 2,
                                                            n // 2))
        assert np.array_equal(_whole_step(*halves, twiddles(4)),
                              half_spectrum(Segment(0, n), 4))


def _prefix_step(RA, RB, z):
    """The radix-2 step as it was for prefixes alone: one pass over the
    whole grid, no chunks."""
    q = len(RA) - 1
    t = z * RB[::-1]
    np.conjugate(t, out=t)
    R = np.empty(2 * q + 1, dtype=complex)
    np.add(RA, t, out=R[:q + 1])
    top = R[q:][::-1]
    np.subtract(RA, t, out=top)
    np.conjugate(top, out=top)
    return R


def test_radix2_step_at_m0_is_the_prefix_step_byte_for_byte():
    """At m = 0 the segment step is the prefix step byte for byte, on
    grids M = 4 .. 2^18 (up to 8 chunks).  The table of M/2^j is
    that of M at the stride 2^j, byte for byte, up to M = 2^21, and a
    window of twiddles, kept grid or not, is the table's slice, z_{M/4}
    exactly i, and gathered twiddles are the table's at their indices."""
    rng = np.random.default_rng(89)
    for log2q in range(17):
        q = 1 << log2q
        RA, RB = (rng.normal(size=(q + 1, 2)) @ [1, 1j] for _ in range(2))
        z = twiddles(4 * q)
        want = _prefix_step(RA, RB, z)
        assert _whole_step(RA, RB, z).tobytes() == want.tobytes(), q
    top = twiddles(1 << 21)
    for j in range(20):
        assert top[::1 << j].tobytes() == twiddles(1 << (21 - j)).tobytes()
    for M in (1 << 12, 1 << 21):
        q = M // 4
        for a, b in ((0, q + 1), (q, q + 1), (5, 9000), (q - 7000, q + 1)):
            assert (twiddles(M, slice(a, b)).tobytes()
                    == twiddles(M)[a:b].tobytes()), (M, a, b)
        assert twiddles(M, slice(q, q + 1))[0] == 1j
        ks = np.array([0, 3, q // 2, q - 1, q])
        assert twiddles(M, ks).tobytes() == twiddles(M)[ks].tobytes(), M


def test_radix2_step_windows_are_the_whole_step_byte_for_byte():
    """A window of butterflies k0 .. k1 - 1, or butterflies gathered at
    an index array (k = 0, q/2 and q among them, increasing or not), with
    the twiddles of those k, written into the rows (low, high) of one
    array, gives R[k] and R[M/2 - k] of the whole step byte for byte, at
    every m mod 4, for windows inside a chunk, across chunks and at the
    ends; at k = q, where X + Y and conj(X - Y) differ for these random
    inputs, R[q] is high's.  Twiddles of another length are refused."""
    rng = np.random.default_rng(31)
    for q in (1, 2, 8, 1 << 15):
        M = 4 * q
        RA, RB = (rng.normal(size=(q + 1, 2)) @ [1, 1j] for _ in range(2))
        windows = {(0, q + 1), (0, 1), (q, q + 1), (q // 2, q + 1)}
        for _ in range(4):
            k0 = int(rng.integers(0, q + 1))
            windows.add((k0, int(rng.integers(k0 + 1, q + 2))))
        gathered = [np.array(sorted({0, q // 2, q, *map(int, rng.integers(
            0, q + 1, size))})) for size in (0, 3, 40)]
        z = twiddles(M)
        for m in range(4):
            R = _whole_step(RA, RB, z, m)
            for k0, k1 in windows:
                low, high = rows = np.empty((2, k1 - k0), dtype=complex)
                radix2_step(RA[k0:k1], RB[::-1][k0:k1], z[k0:k1], m, *rows)
                k = min(k1, q)                  # R[q] is high's
                assert low[:k - k0].tobytes() == R[k0:k].tobytes()
                assert high.tobytes() == R[::-1][k0:k1].tobytes()
            for ks in gathered + [g[::-1] for g in gathered]:
                low, high = rows = np.empty((2, len(ks)), dtype=complex)
                radix2_step(RA[ks], RB[q - ks], twiddles(M, ks), m, *rows)
                inner = ks < q
                assert (low[inner].tobytes()
                        == R[ks[inner]].tobytes()), (q, m, ks)
                assert high.tobytes() == R[M // 2 - ks].tobytes()
    z = twiddles(32)
    for w, zw in ((10, np.ones(9)), (2, np.ones(3)), (2, z[1:4])):
        with pytest.raises(ValueError):
            radix2_step(RA[:w], RB[:w], zw, 0, *np.empty((2, w), complex))


def test_segment_spectra_match_half_spectrum():
    """Seeded property of the segment recursion (norms.segment_spectra,
    radix2_step on every level): on 300 segments, m even and odd with both
    signs of sigma = (-1)^floor(m/2), offsets up to 2^40, lengths up to 300
    on grids 4 L to 16 L, every power |R|^2 is within abs_sq_slack(L, N)
    of that of half_spectrum, the slack the objectives give it.  A flipped
    sigma fails it."""
    rng = np.random.default_rng(83)
    for i in range(300):
        m = int(rng.integers(0, 1 << 40)) & ~3 | i % 4   # m mod 4 = i mod 4
        L = int(rng.integers(1, 301))
        N = 1 << int(rng.integers((4 * L - 1).bit_length(),
                                  (16 * L - 1).bit_length() + 1))
        seg = Segment(m, m + L)
        P = segment_spectra([seg], N)
        err = np.max(np.abs(P - np.abs(half_spectrum(seg, N)) ** 2))
        assert err <= abs_sq_slack(L, N), (m, L, N, err)


def _held_objective(segs, N):
    """F of segment_spectra by the recursion with every level held whole:
    each level one whole radix-2 step per segment, with its own grid's
    twiddle table, and F the sum of the tops' np.abs(R) ** 2, reversed at
    odd positions."""
    levels = [dict.fromkeys((seg.m, seg.n) for seg in segs)]
    while any(n - m > 1 for m, n in levels[-1]):
        levels.append(dict.fromkeys(half for m, n in levels[-1] if n - m > 1
                                    for half in even_odd_pairs(m, n)))
    values = {}
    for depth in reversed(range(len(levels))):
        M = N >> depth
        z = twiddles(max(M, 4))
        values = {(m, n): norms._exact((m, n), M // 2 + 1)
                  if n - m <= 1 else
                  _whole_step(*(values[h] for h in even_odd_pairs(m, n)),
                              z, m)
                  for m, n in levels[depth]}
    powers = [np.abs(values[seg.m, seg.n]) ** 2 for seg in segs]
    return sum(a[::-1] if i % 2 else a for i, a in enumerate(powers))


def test_streamed_top_levels_equal_the_held_recursion_byte_for_byte():
    """segment_spectra streams the top and every level above 4 _WINDOW
    = 2^15 a window of butterflies at a time; its F, and its folded
    maximum, are those of the recursion that holds every level whole,
    bit for bit.  Seeded: grids 2^17 to 2^21 (4 to 64 windows of the top),
    one segment and the halves [A, B] of an L objective, with m mod 4
    through all four cases for each; and segments of length 1 to 3, whose
    exact values fill the streamed levels."""
    rng = np.random.default_rng(29)
    cases = []
    for i, log_N in enumerate(range(17, 22)):
        N = 1 << log_N
        for kind in range(2):
            L = int(rng.integers(N // 16, N // 4 + 1))
            m = int(rng.integers(0, 1 << 40)) & ~3 | (i + 2 * kind) % 4
            segs = ([Segment(m, m + L)] if kind == 0
                    else list(even_odd_split(Segment(m, m + 2 * L))))
            cases.append((segs, N))
    cases += [([Segment(m, m + L)], 1 << 18) for m in (5, 6) for L in (1, 3)]
    cases.append((list(even_odd_split(Segment(7, 10))), 1 << 18))
    for segs, N in cases:
        F = segment_spectra(segs, N)
        want = _held_objective(segs, N)
        assert F.tobytes() == want.tobytes(), (segs, N)
        peak = segment_spectra(segs, N, peak=True)
        assert type(peak) is float and peak == np.max(want), (segs, N)


def test_streamed_butterflies_are_built_once(monkeypatch):
    """Each streamed butterfly is built once: in every segment_spectra
    call of Montgomery's k = 9 decision on the 2^22 cap and of
    dense(5, 8, 12), the windows of each segment on each streamed level
    of grid M have widths that add up to M/4 + 1, and every level above
    4 _WINDOW streams.  Streaming a level's windows per top chunk, as the
    top alone once streamed, built the level N/2 twice and N/4 four
    times."""
    from collections import Counter
    from rsbounds.experiments import (dense_limit_empirical,
                                      montgomery_counterexample)

    calls, widths = [], Counter()
    spectra, window = norms.segment_spectra, norms._window

    def count_call(*args, **kwargs):
        calls.append(args[1])
        return spectra(*args, **kwargs)

    def count_window(mn, halves, M, below, z, a, b, *rest):
        widths[len(calls), M, mn] += b - a
        return window(mn, halves, M, below, z, a, b, *rest)

    monkeypatch.setattr(norms, 'segment_spectra', count_call)
    monkeypatch.setattr(norms, '_window', count_window)
    rep = montgomery_counterexample(9, N=1 << 22)
    assert rep.N == 1 << 21 and rep.grid_sup_ratio_lo > 9.0
    dense_limit_empirical(5, 8, 12)
    assert widths
    assert all(w == M // 4 + 1 for (_, M, _), w in widths.items())
    for i, N in enumerate(calls, 1):
        grids = {M for j, M, _ in widths if j == i}
        assert grids == {N >> d for d in range(N.bit_length())
                         if N >> d > 4 * norms._WINDOW or not d}, (i, N)
    assert max(calls) == 1 << 21


def test_segment_spectra_input_contract():
    """segment_spectra refuses what half_spectrum refuses, with the same
    errors: a grid above DEFAULT_MAX_RANGE and an index past 2^64 - 1
    raise CapacityError, a grid that is not a power of two ValueError.  A
    segment ending at 2^64 is accepted, its last index 2^64 - 1."""
    for seg, N in ((Segment(0, 4), 1 << 27),
                   (Segment((1 << 64) - 4, (1 << 64) + 1), 64)):
        for build in (half_spectrum, lambda s, N: segment_spectra([s], N)):
            with pytest.raises(CapacityError):
                build(seg, N)
    with pytest.raises(ValueError, match='not a power of two'):
        segment_spectra([Segment(0, 4)], 24)
    seg = Segment((1 << 64) - 5, 1 << 64)
    P = segment_spectra([seg], 64)
    assert (np.max(np.abs(P - np.abs(half_spectrum(seg, 64)) ** 2))
            <= abs_sq_slack(5, 64))


def test_radix2_error_model_against_mpmath():
    """eps_radix2 must dominate the true error of the values that the
    radix-2 recursion of norms.segment_spectra stores from the exact
    prefixes 0 and 1, by a wide margin, at the sweeps' production sizes
    (prefixes up to 6400, the top of the small-k midrange, grids up to
    2^16, each case's argmax included); verified against 50-digit
    reference evaluation."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(29)
    cases = [(int(rng.integers(1, 220)), 1 << int(rng.integers(10, 13)), 4)
             for _ in range(6)]
    cases += [(6400, 1 << 15, 1), (6400, 1 << 16, 1),
              (int(rng.integers(1000, 6400)), 1 << 16, 1),
              (int(rng.integers(1000, 4096)), 1 << 14, 1)]
    worst = 0.0
    with mp.workdps(50):
        for n, M, draws in cases:
            spec, _ = stored_spectrum(n, M)
            coeffs = [int(c) for c in coeff_range(Segment(0, n))]
            js = [int(np.argmax(np.abs(spec)))]
            js += map(int, rng.integers(0, M // 2 + 1, draws))
            for j in js:
                w = mp.expj(-2 * mp.pi * j / M)     # spec[j] is conj P(z_j)
                acc = mp.mpc(0)
                for c in reversed(coeffs):
                    acc = acc * w + c
                err = abs(complex(acc) - spec[j])
                bound = eps_radix2(n, M)
                assert err <= bound, (n, M, j, err, bound)
                worst = max(worst, err / bound)
    assert worst < 0.25
