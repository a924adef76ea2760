import math
import weakref
from collections import Counter

import numpy as np
import pytest

from rsbounds import norms
from rsbounds.dyadic import DyadicPoint
from rsbounds.certify2d import certify_f2
from rsbounds.evaluate import abs_sq_slack, eps_fp, eps_radix2, half_spectrum
from rsbounds.experiments import (dense_limit_empirical,
                                  montgomery_counterexample)
from rsbounds.norms import (Enclosure, L_norm_sq, decision, f2_dyadic,
                            f_dyadic, g_dyadic, g_int, sup_norm_sq)
from rsbounds.sequence import Segment, coeff_range, even_odd_split


def brute_max_abs_sq(seg: Segment, N: int) -> float:
    """Independent dense-grid oracle: direct full FFT, forward convention."""
    padded = np.zeros(N, dtype=complex)
    padded[:seg.length] = coeff_range(seg)
    vals = np.fft.fft(padded)          # P at conj grid points: same moduli
    return float(np.max(np.abs(vals) ** 2))


def brute_L_sq(seg: Segment, N: int) -> float:
    padded = np.zeros(N, dtype=complex)
    padded[:seg.length] = coeff_range(seg)
    f = np.abs(np.fft.fft(padded)) ** 2
    return float(np.max(f + np.roll(f, N // 2)))


def full_grid_enclosure(seg: Segment, N: int, paired: bool, split=True):
    """Oracle: the enclosure from the maximum over the whole N-grid, by one
    FFT, and its slack s.  The paired objective takes the degree and slack
    of the even/odd split that L_norm_sq encloses it by: degree
    2 max(|A|, |B|) - 2 in z, slack 2 (abs_sq_slack(|A|, N/2) +
    abs_sq_slack(|B|, N/2)); with split=False, those of the z-objective:
    degree L - 1, slack 2 abs_sq_slack(L, N)."""
    F = np.abs(half_spectrum(seg, N)) ** 2
    M = float(np.max(F + F[::-1] if paired else F))
    D, s = seg.length - 1, abs_sq_slack(seg.length, N)
    if paired and split:
        a, b = (seg.n + 1) // 2 - (seg.m + 1) // 2, seg.n // 2 - seg.m // 2
        D = 2 * max(a, b) - 2
        s = 2.0 * (abs_sq_slack(a, N // 2) + abs_sq_slack(b, N // 2))
    elif paired:
        s *= 2.0
    delta = 0.5 * max(D, 0) ** 2 * (math.pi / N) ** 2
    return Enclosure(max(M - s, 0.0), (M + s) / (1.0 - delta)), s


def full_grid_g(r: int, s: int, N: int, split=True):
    """Oracle: the g enclosure from the maximum over the whole N-grid, by
    one FFT per prefix and the alpha-free reduction, and its slack s.  It
    takes the degree and slack of the even/odd split that g_int encloses
    g by: with half lengths a, b of the prefix r and c, d of the prefix s,
    degree 2 max(spread(a, d), spread(c, b)) in z and slack twice the four
    abs_sq_slack(., N/2) plus 2 (a e_d + d e_a + e_a e_d + c e_b + b e_c +
    e_b e_c), e_x = eps_fp(x, N/2); with split=False, those of the
    z-objective: degree r + s and slack 2 (abs_sq_slack(r, N) +
    abs_sq_slack(s, N)) + 2 (s e_r + r e_s + e_r e_s)."""
    Rr = half_spectrum(Segment(0, r), N)
    Rs = half_spectrum(Segment(0, s), N)
    Fr, Fs = np.abs(Rr) ** 2, np.abs(Rs) ** 2
    G = Fr + Fr[::-1] + Fs + Fs[::-1]
    G += 2.0 * np.abs(np.conj(Rs) * Rr[::-1] - Rs[::-1] * np.conj(Rr))
    if split:
        a, b, c, d = (r + 1) // 2, r // 2, (s + 1) // 2, s // 2
        spread = lambda p, q: p + q - 2 if p and q else max(p, q) - 1
        D = 2 * max(spread(a, d), spread(c, b))
        ea, eb, ec, ed = (eps_fp(x, N // 2) for x in (a, b, c, d))
        slack = sum(abs_sq_slack(x, N // 2) for x in (a, b, c, d))
        slack += 2.0 * (a * ed + d * ea + ea * ed + c * eb + b * ec + eb * ec)
        slack *= 2.0
    else:
        er, es = eps_fp(r, N), eps_fp(s, N)
        D = r + s
        slack = 2.0 * (abs_sq_slack(r, N) + abs_sq_slack(s, N))
        slack += 2.0 * (s * er + r * es + er * es)
    M = float(np.max(G))
    delta = 0.5 * D ** 2 * (math.pi / N) ** 2
    return Enclosure(max(M - slack, 0.0), (M + slack) / (1.0 - delta)), slack


def whole_cap_enclosure(segs, N, degree, slack, cross=None, half=False):
    """The enclosure from the maximum over the whole cap grid that
    norms.segment_spectra folds (peak=True), on the grid of F (the w-grid
    with ``half``, the objective then twice F's), with no store."""
    sh = 1 if half else 0
    top = norms.segment_spectra(segs, N >> sh, True, cross)
    enc = norms._enclose_grid_sup(top, degree, N >> sh, slack(N >> sh))
    return enc.scale(1 << sh)


@pytest.fixture
def point_calls(monkeypatch):
    """Record (js, N) of every refined level's points in norms, gathered
    by segment_points, N the grid they lie on (for the L and g objectives
    the w-grid)."""
    calls = []
    real = norms.segment_points

    def spy(segs, js, N, *rest):
        calls.append((np.array(js), N))
        return real(segs, js, N, *rest)

    monkeypatch.setattr(norms, 'segment_points', spy)
    return calls


@pytest.fixture
def spectrum_grids(monkeypatch):
    """Record the grid of every whole-grid spectrum built in norms, the top
    grid of a segment_spectra call or the grid of an FFT (for the L and g
    objectives the w-grid, half the level's z-grid)."""
    grids = []
    fft, recursion = norms.half_spectrum, norms.segment_spectra
    monkeypatch.setattr(norms, 'half_spectrum',
                        lambda seg, N: grids.append(N) or fft(seg, N))
    monkeypatch.setattr(norms, 'segment_spectra', lambda segs, N, *peak: (
        grids.append(N) or recursion(segs, N, *peak)))
    return grids


@pytest.fixture
def recursion_steps(monkeypatch):
    """Record (L, M) of every radix2_step that segment_spectra takes: each
    segment of length L >= 2 on a level of grid M, built whole
    (_segment_values) or a window at a time (_window)."""
    steps = []
    for name in ('_segment_values', '_window'):
        def spy(mn, halves, M, *rest, real=getattr(norms, name)):
            if halves:
                steps.append((mn[1] - mn[0], M))
            return real(mn, halves, M, *rest)
        monkeypatch.setattr(norms, name, spy)
    return steps


@pytest.fixture
def level_grids(monkeypatch):
    """Record the grid of every level's values in norms, whole or at
    gathered points (for the L and g objectives the w-grid, half the
    level's z-grid)."""
    grids = []
    spectral, points = norms.segment_spectra, norms.segment_points
    monkeypatch.setattr(norms, 'segment_spectra', lambda segs, N, *rest: (
        grids.append(N) or spectral(segs, N, *rest)))
    monkeypatch.setattr(norms, 'segment_points', lambda segs, js, N, *rest: (
        grids.append(N) or points(segs, js, N, *rest)))
    return grids


def test_decision_settles_on_the_first_level_that_decides(level_grids):
    """Seeded property of the decision engine on the sup, L and g
    objectives (g with and without shared spectra, which give the same
    results, and with r = 0 or s = 0 in every fourth g case), deciding
    v < T for thresholds T at the cap oracle's hi times 1 + eps.  The
    returned enclosure agrees within the slack with the full-grid oracle
    on its own grid; True means the cap oracle's lo is below T, False that
    its hi reaches T; None comes back only at the cap; the decision is
    asked once per level visited, last on the returned grid's enclosure.
    Every g decision, on the axes too, starts at
    oversampled_grid(r + s, N), on its half the w-grid."""
    rng = np.random.default_rng(67)
    verdicts, early = Counter(), 0
    for i in range(48):
        kind = ('sup', 'L', 'g')[i % 3]
        N = 1 << int(rng.integers(12, 19))
        if kind == 'g':
            r, s = (int(t) for t in rng.integers(1, 200, 2))
            if i % 4 == 1:             # a corner on an axis
                r, s = (0, s) if i % 8 == 5 else (r, 0)
            store = {} if i % 2 else None
            oracle = lambda M: full_grid_g(r, s, M)
            run = lambda d: g_int(r, s, N, d, store)
        else:
            m, L = int(rng.integers(0, 1 << 40)), int(rng.integers(3, 300))
            seg, paired = Segment(m, m + L), kind == 'L'
            oracle = lambda M: full_grid_enclosure(seg, M, paired)
            run = lambda d: (L_norm_sq if paired else sup_norm_sq)(seg, N, d)
        cap, _ = oracle(N)
        for eps in (-1e-2, -1e-7, 0.0, 1e-7, 1e-2):
            T = cap.hi * (1.0 + eps)
            asked = []
            below = decision(lambda v: v < T)
            level_grids.clear()
            got = run(lambda enc: asked.append(enc) or below(enc))
            want, slack = oracle(got.N)
            assert abs(got.lo - want.lo) <= slack, (kind, i, eps)
            assert abs(got.hi - want.hi) <= slack, (kind, i, eps)
            if got.verdict is True:
                assert cap.lo < T
            elif got.verdict is False:
                assert cap.hi >= T
            else:
                assert got.N == N
            assert len(asked) == len(level_grids) and asked[-1] == got
            # got.N is the z-grid; L and g are taken on its half.
            assert level_grids[-1] * (1 if kind == 'sup' else 2) == got.N
            if kind == 'g':
                assert level_grids[0] == norms.oversampled_grid(r + s, N) // 2
                # The memo is a cache: the other setting decides alike.
                other = g_int(r, s, N, below,
                              {} if store is None else None)
                assert ((other.lo, other.hi, other.N, other.verdict)
                        == (got.lo, got.hi, got.N, got.verdict)), (i, eps)
            verdicts[got.verdict] += 1
            early += got.N < N
    assert min(verdicts[v] for v in (True, False, None)) >= 10, verdicts
    assert early >= 60


def test_segment_recursion_bound_fits_eps_fp_at_every_step(recursion_steps):
    """The induction behind the values of segment_spectra, at every step
    that Montgomery's grid check (k <= 7, at the sweep's caps),
    dense_limit_empirical(5, 8, 12) and certify_f2 at 2^14 take: segments
    of length at most 1 are exact, and a step whose inputs err by at most
    eps_fp on M/2 errs by at most eps_radix2(L, M), which must not exceed
    eps_fp(L, M)."""
    runs = [lambda: [montgomery_counterexample(k, N=1 << max(16, 2 * k + 4))
                     for k in range(8)],
            lambda: dense_limit_empirical(5, 8, 12),
            lambda: certify_f2(1 << 14)]
    for run in runs:
        taken = len(recursion_steps)
        run()
        assert len(recursion_steps) > taken
    # dense's top: [5 2^12, 8 2^12) on 16 times its length.
    assert max(M for _, M in recursion_steps) == 1 << 18
    for L, M in set(recursion_steps):
        assert eps_radix2(L, M) <= eps_fp(L, M), (L, M)


def test_coarse_to_fine_matches_full_grid(point_calls):
    """Seeded property: on 300 segments (offsets up to 2^40, L log-uniform
    up to N / 128, N from 2^10 to 2^24; one in twenty above 2^20 to keep
    the oracle's FFTs cheap) both enclosures agree with the full-grid
    oracle within the slack s, and each equals the enclosure of the whole
    cap grid's maximum bit for bit: the refined points are that grid's
    values.  Nine in ten of the objectives that are not constant take the
    coarse-to-fine path, not the fallback."""
    rng = np.random.default_rng(59)
    refined = refinable = 0
    for i in range(300):
        N = 1 << int(rng.integers(21, 25) if i % 20 == 0
                     else rng.integers(10, 21))
        L = int(2.0 ** rng.uniform(0.0, math.log2(N // 128)))
        m = int(rng.integers(0, 1 << 40))
        seg, paired = Segment(m, m + L), bool(i % 2)
        before = len(point_calls)
        enc = (L_norm_sq if paired else sup_norm_sq)(seg, N)
        refined += len(point_calls) > before
        refinable += L > (2 if paired else 1)
        want, s = full_grid_enclosure(seg, N, paired)
        assert abs(enc.lo - want.lo) <= s, (m, L, N, paired)
        assert abs(enc.hi - want.hi) <= s, (m, L, N, paired)
        if paired:
            A, B = even_odd_split(seg)
            cap = whole_cap_enclosure(
                [A, B], N, max(A.length, B.length) - 1,
                lambda M: (abs_sq_slack(A.length, M)
                           + abs_sq_slack(B.length, M)), half=True)
        else:
            cap = whole_cap_enclosure([seg], N, L - 1,
                                      lambda M: abs_sq_slack(L, M))
        assert (enc.lo, enc.hi) == (cap.lo, cap.hi), (m, L, N, paired)
    assert refined >= 0.9 * refinable


def test_g_coarse_to_fine_matches_full_grid(point_calls):
    """Seeded property for the g objective: (r, s) up to 1000, half of the
    cases with r or s above 120, on grids 2 to 64 times above
    oversampled_grid(r + s), agree with the full-grid oracle within the
    slack, and equal the enclosure of the whole cap grid's maximum bit for
    bit.  The objective is flat near its maxima, so a case can exceed the
    point-work cap and take a grid whole; most refine."""
    rng = np.random.default_rng(61)
    refined = 0
    for i in range(40):
        top = 1000 if i % 2 else 120
        r, s = (int(t) for t in rng.integers(1, top + 1, 2))
        N = norms.oversampled_grid(r + s, 1 << 30) << int(rng.integers(1, 7))
        N = min(N, 1 << 22)
        before = len(point_calls)
        enc = g_int(r, s, N)
        refined += len(point_calls) > before
        want, slack = full_grid_g(r, s, N)
        assert abs(enc.lo - want.lo) <= slack, (r, s, N)
        assert abs(enc.hi - want.hi) <= slack, (r, s, N)
        halves = even_odd_split(Segment(0, r)) + even_odd_split(Segment(0, s))
        a, b, c, d = (h.length for h in halves)

        def g_slack(M):
            ea, eb, ec, ed = (eps_fp(x, M) for x in (a, b, c, d))
            return (sum(abs_sq_slack(x, M) for x in (a, b, c, d))
                    + 2.0 * (a * ed + d * ea + ea * ed
                             + c * eb + b * ec + eb * ec))

        D = max(norms._spread(a, d), norms._spread(c, b))
        cap = whole_cap_enclosure(list(halves), N, D, g_slack,
                                  norms._g_half_cross, half=True)
        assert (enc.lo, enc.hi) == (cap.lo, cap.hi), (r, s, N)
    assert refined >= 25


def test_constant_objective_stops_at_level_0(point_calls, spectrum_grids):
    """L <= 2 paired (|P(z)|^2 + |P(-z)|^2 = 2L, of degree 0 in w = z^2)
    and L = 1 unpaired are constant, so their N-grid maximum is their
    level-0 maximum: no spectrum above the level-0 grid (its half, the
    w-grid, for the paired objective) and no refined points, and the
    enclosure is the full grid's within s.  Lengths 0 to 2, odd offsets,
    and the grid N = 4, whose w-grid has 2 points, need no special case."""
    cases = [(Segment(0, 1), True), (Segment(0, 2), True),
             (Segment(1 << 40, (1 << 40) + 2), True), (Segment(7, 8), False),
             (Segment(5, 5), True), (Segment(3, 4), True),
             (Segment(3, 5), True)]
    for seg, paired in cases:
        for N in (4, 1 << 12, 1 << 20):
            if N < 4 * seg.length:
                continue
            spectrum_grids.clear()
            enc = (L_norm_sq if paired else sup_norm_sq)(seg, N)
            want, s = full_grid_enclosure(seg, N, paired)
            level0 = norms.oversampled_grid(seg.length, N)
            assert max(spectrum_grids) == (level0 // 2 if paired else level0)
            assert abs(enc.lo - want.lo) <= s and abs(enc.hi - want.hi) <= s
            assert enc.contains(2.0 * seg.length if paired else 1.0)
            assert enc.N == N
    assert not point_calls


def test_sup_norm_refines_folded_arcs(point_calls):
    """sup_norm_sq with N far above 64 L on the sharp prefix n = 43, whose
    maximum |P(1)|^2 = (sqrt(6n - 2) - 1)^2 = 225 sits at the fold point
    j = 0: the result is the full-grid enclosure, and every refined level
    gathers distinct indices folded into [0, p/2], p the grid they lie on
    (for the L and g objectives the w-grid)."""
    N = 1 << 22
    seg = Segment(0, 43)
    enc = sup_norm_sq(seg, N)
    want, s = full_grid_enclosure(seg, N, False)
    assert abs(enc.lo - want.lo) <= s and abs(enc.hi - want.hi) <= s
    assert enc.contains(225.0) and enc.width < 1e-6
    assert point_calls and point_calls[-1][1] == N
    L_norm_sq(Segment(0, 91), N)
    L_norm_sq(Segment(3, 60), N)
    g_int(43, 21, N)
    for js, grid in point_calls:
        assert js.min() >= 0 and 2 * js.max() <= grid
        assert len(np.unique(js)) == len(js)


def test_long_segment_gathers_its_points_on_the_cap(point_calls,
                                                    spectrum_grids, no_fft):
    """A point costs O(log L) butterflies, so a long segment refines
    instead of building the cap whole: L_norm_sq(Segment(7, 32775), 2^22)
    builds no whole w-grid above its level-0 grid 2^20 and gathers its
    points on the w-grid 2^21, with the lo and hi of the whole cap."""
    enc = L_norm_sq(Segment(7, 32775), 1 << 22)
    assert max(spectrum_grids) == 1 << 20
    assert point_calls and point_calls[-1][1] == 1 << 21
    assert (enc.lo, enc.hi) == (70782.49567676263, 70803.81901074387)


def test_split_L_against_full_z_grid():
    """Seeded property of the even/odd split against the z-grid oracle of
    the L objective (degree L - 1 and slack 2 abs_sq_slack(L, N), from one
    FFT over the whole N-grid): on the grid the split enclosure returns,
    its grid maximum, lo plus its own slack, agrees with the oracle's
    within the oracle's slack, and its hi is never larger.  Lengths 1, 2
    and 3, even and odd lengths up to 600 at offsets up to 2^40, grids
    from 4 to 2^16, every third case a decision."""
    rng = np.random.default_rng(73)
    ranges = [(0, 1), (6, 7), (5, 7), (0, 2), (0, 3), (1, 4), (0, 11)]
    for _ in range(45):
        m = int(rng.integers(0, 1 << 40))
        ranges.append((m, m + int(rng.integers(4, 600))))
    decided = 0
    for i, (m, n) in enumerate(ranges):
        seg = Segment(m, n)
        N = 1 << int(rng.integers((4 * seg.length - 1).bit_length(), 17))
        decide = None
        if i % 3 == 2:
            T = full_grid_enclosure(seg, N, True, split=False)[0].hi
            decide = decision(lambda v: v < T * (1.0 + 1e-3))
        enc = L_norm_sq(seg, N, decide)
        decided += enc.N < N
        want, s_z = full_grid_enclosure(seg, enc.N, True, split=False)
        _, s = full_grid_enclosure(seg, enc.N, True)
        assert abs((enc.lo + s) - (want.lo + s_z)) <= s_z, (m, n, N)
        assert enc.hi <= want.hi, (m, n, N)
    assert decided >= 3


def test_split_g_against_full_z_grid():
    """Seeded property of g's even/odd split against the z-grid oracle
    (degree r + s and the z-form slack, from one FFT per prefix over the
    whole N-grid): on the grid the split enclosure returns, its grid
    maximum, lo plus its own slack, agrees with the oracle's within the
    oracle's slack, and its hi is never larger.  r and s take 1, 2, odd
    and even values up to 300, on grids from 4 (r + s) to 2^18, every
    third case a decision."""
    rng = np.random.default_rng(79)
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 5), (5, 1), (1, 6),
             (2, 7), (3, 3), (4, 9)]
    pairs += [tuple(int(t) for t in rng.integers(1, 301, 2))
              for _ in range(40)]
    decided = 0
    for i, (r, s) in enumerate(pairs):
        N = 1 << int(rng.integers((4 * (r + s) - 1).bit_length(), 19))
        decide = None
        if i % 3 == 2:
            T = full_grid_g(r, s, N, split=False)[0].hi
            decide = decision(lambda v: v < T * (1.0 + 1e-3))
        enc = g_int(r, s, N, decide)
        decided += enc.N < N
        want, slack_z = full_grid_g(r, s, enc.N, split=False)
        _, slack = full_grid_g(r, s, enc.N)
        assert abs((enc.lo + slack) - (want.lo + slack_z)) <= slack_z, (r, s)
        assert enc.hi <= want.hi, (r, s, N)
    assert decided >= 3


def test_g_degree_bounds_family_frequencies(monkeypatch):
    """The degree g_int passes to the engine is at least the highest
    frequency in w of the family members |a + e^{-i phi} conj(d)|^2 and
    |c - e^{-i phi} conj(b)|^2, built from the signs of the halves, for
    every 1 <= r, s <= 40.  At (1, 5), where the half B_1 is empty, that
    frequency is 2, one above max(|A_r| + |B_s|, |A_s| + |B_r|) - 2."""
    degrees = []

    def spy(segs, N, degree, *rest, **kw):
        degrees.append(degree)
        return Enclosure(0.0, 0.0)

    monkeypatch.setattr(norms, '_grid_sup', spy)

    def top_frequency(x: np.ndarray, y: np.ndarray) -> int:
        # x + e^{-i phi} conj(y(-w)): y's w^t enters at frequency -t.
        q = len(y)
        f = np.zeros(len(x) + max(q - 1, 0), complex)
        f[max(q - 1, 0):] += x
        if q:
            f[:q] += np.exp(-0.7j) * (y * (-1.0) ** np.arange(q))[::-1]
        power = np.convolve(f, np.conj(f[::-1]))
        return int(np.flatnonzero(np.abs(power) > 1e-9).max()) - (len(f) - 1)

    halves = lambda n: [coeff_range(h).astype(float)
                        for h in even_odd_split(Segment(0, n))]
    top = {}
    for r in range(1, 41):
        for s in range(1, 41):
            (a, b), (c, d) = halves(r), halves(s)
            top[r, s] = max(top_frequency(a, d), top_frequency(c, -b))
            g_int(r, s, 1 << 10)
            assert degrees[-1] >= top[r, s], (r, s)
    assert top[1, 5] == 2


def test_enclosure_basics():
    e = Enclosure(1.0, 2.0)
    assert e.width == 1.0 and e.contains(1.5) and not e.contains(2.5)
    with pytest.raises(ValueError):
        Enclosure(2.0, 1.0)


def test_sup_norm_examples():
    assert sup_norm_sq(Segment(0, 1), 8).contains(1.0)
    e = sup_norm_sq(Segment(0, 2), 64)
    assert e.contains(4.0)
    e = sup_norm_sq(Segment(0, 3), 1 << 12)
    assert e.contains(9.0) and e.width < 1e-4
    # oracle agreement on a denser grid
    assert abs(brute_max_abs_sq(Segment(0, 3), 1 << 14) - 9.0) < 1e-6


def test_sup_norm_encloses_oracle():
    rng = np.random.default_rng(101)
    for _ in range(15):
        m = int(rng.integers(0, 300))
        n = m + int(rng.integers(1, 200))
        seg = Segment(m, n)
        N = 1 << 12
        enc = sup_norm_sq(seg, N)
        dense = brute_max_abs_sq(seg, 1 << 14)
        assert enc.lo <= dense <= enc.hi * (1 + 1e-12)


def test_L_norm_examples():
    assert L_norm_sq(Segment(0, 1), 8).contains(2.0)
    for t in range(8):
        assert L_norm_sq(Segment(0, 1 << t), 1 << 12).contains(2.0 ** (t + 1))
    e = L_norm_sq(Segment(0, 11), 1 << 16)
    assert e.contains(50.0) and e.width < 1e-3
    assert abs(brute_L_sq(Segment(0, 11), 1 << 16) - 50.0) < 1e-6


def test_norm_preconditions():
    with pytest.raises(ValueError):
        sup_norm_sq(Segment(0, 100), 128)      # N below 4x length


def test_grid_contract_is_checked_before_any_fft(monkeypatch):
    """A cap that is not a power of two, or a power of two below 4 times
    the objective's length in z, is refused before any spectrum is built,
    by FFT or by the recursion, with and
    without a decision, by an error that names the grid given.  A cap
    such as 1000 must not reach the level loop: there the step
    min(4, N // N_l) is 1 at N_l = 512, so the loop would never end."""
    monkeypatch.setattr(norms, 'half_spectrum',
                        lambda seg, N: pytest.fail(f'FFT on grid {N}'))
    monkeypatch.setattr(norms, 'segment_spectra', lambda segs, N, *_:
                        pytest.fail(f'spectra of {segs} on grid {N}'))
    table = [(lambda N, d: sup_norm_sq(Segment(0, 10), N, d), 10),
             (lambda N, d: L_norm_sq(Segment(0, 10), N, d), 10),
             (lambda N, d: g_int(5, 7, N, d), 7)]
    for run, length in table:
        below = 1 << ((4 * length - 1).bit_length() - 1)   # 32 and 16
        for N in (1000, 3 << 10, below):
            for decide in (None, lambda enc: None):
                with pytest.raises(ValueError, match=f'^grid size {N} is '
                                   'not a power of two >= 4 '):
                    run(N, decide)
    with pytest.raises(ValueError, match='^grid size 1024 '):
        montgomery_counterexample(6, N=1 << 10)


def test_grid_too_small_for_the_degree_is_refused_up_front(monkeypatch):
    """g_int(40, 64, 256) passes N >= 4 max(r, s), but its degree 50 in w
    needs a w-grid above 50 pi > 128: it is refused before any FFT, and
    the error names the grid the caller gave.  Every (r, s) either raises
    so or is enclosed; the next grid encloses them all."""
    ffts = []

    def spy(seg, N):
        ffts.append(N)
        return half_spectrum(seg, N)

    monkeypatch.setattr(norms, 'half_spectrum', spy)
    for decide in (None, decision(lambda v: True)):
        with pytest.raises(ValueError, match=r'^grid size 256 too small '
                           r'for trigonometric degree 50 in w = z\^2$'):
            g_int(40, 64, 256, decide)
    assert not ffts
    refused = 0
    for r in range(1, 65, 3):
        for s in range(1, 65, 3):
            ffts.clear()
            try:
                g_int(r, s, 256)
            except ValueError as exc:
                assert not ffts and str(exc).startswith('grid size 256 ')
                refused += 1
                assert g_int(r, s, 512).hi > 0
    assert refused


def test_f_dyadic_table_values():
    N = 1 << 20
    for binary, expect in [('1.1', 5.0), ('1.011', 6.25), ('1.0111', 6.625),
                           ('10.', 4.0), ('1.01101', 6.491173),
                           ('1.011011', 6.955324)]:
        enc = f_dyadic(DyadicPoint.parse(binary), N)
        assert abs(0.5 * (enc.lo + enc.hi) - expect) < 2e-6, binary


def test_f_doubling():
    N = 1 << 16
    for u, k in [(3, 1), (11, 3), (7, 2)]:
        a = f_dyadic(DyadicPoint(u, k), N)
        b = f_dyadic(DyadicPoint(2 * u, k), N)   # same point scaled by 2
        assert abs(b.lo - 2 * a.lo) <= 2 * (a.width + b.width) + 1e-9


def test_f2_examples():
    N = 1 << 14
    assert f2_dyadic(DyadicPoint(1, 0), DyadicPoint(1, 0), N).hi == 0.0
    y = DyadicPoint(3, 1)
    a = f2_dyadic(DyadicPoint(0, 0), y, N)
    b = f_dyadic(y, N)
    assert a.lo == b.lo and a.hi == b.hi
    assert f2_dyadic(DyadicPoint(2, 0), DyadicPoint(3, 0), N).contains(2.0)
    with pytest.raises(ValueError):
        f2_dyadic(DyadicPoint(3, 0), DyadicPoint(2, 0), N)


def test_g_examples():
    assert g_int(0, 0, 64) == Enclosure(0.0, 0.0)
    e = g_int(1, 2, 1 << 16)
    assert e.contains(10.0) and e.width < 1e-6
    a, b = g_int(1, 2, 1 << 12), g_int(2, 1, 1 << 12)
    assert a.lo <= b.hi and b.lo <= a.hi
    e = g_dyadic(DyadicPoint(1, 1), DyadicPoint(1, 0), 1 << 16)
    assert e.contains(5.0) and e.width < 1e-6


def test_g_zero_first_argument_equals_f():
    N = 1 << 14
    for y in (3, 7, 12):
        b = L_norm_sq(Segment(0, y), N)
        for a in (g_int(0, y, N), g_int(y, 0, N)):
            assert (a.lo, a.hi, a.N) == (b.lo, b.hi, b.N)


def test_g_against_direct_alpha_free_formula():
    """Independent oracle: evaluate the alpha-free objective on the full
    grid with plain complex arithmetic."""
    N = 1 << 10
    rng = np.random.default_rng(7)
    z = np.exp(2j * np.pi * np.arange(N) / N)
    for _ in range(8):
        r, s = int(rng.integers(0, 40)), int(rng.integers(1, 40))
        pr = np.polyval(coeff_range(Segment(0, r)).astype(float)[::-1], z) if r else np.zeros(N)
        ps = np.polyval(coeff_range(Segment(0, s)).astype(float)[::-1], z)
        prm = np.roll(pr, -(N // 2))
        psm = np.roll(ps, -(N // 2))
        obj = (np.abs(pr) ** 2 + np.abs(prm) ** 2 + np.abs(ps) ** 2
               + np.abs(psm) ** 2 + 2 * np.abs(ps * prm - psm * pr))
        direct = float(np.max(obj))
        enc = g_int(r, s, N if N >= 4 * max(r, s) else 1 << 12)
        assert enc.lo - 1e-7 <= direct <= enc.hi + 1e-7, (r, s)


def test_g_cross_term_regression():
    # conjugate structure of the cross term: frozen from the sup of the
    # alpha-parameterized definition on a dense (alpha, z) grid
    e = g_int(6, 15, 1 << 14)
    assert e.contains(88.4741854499635) and e.width < 1e-3


def test_g_dominates_boundary_tails():
    # g must dominate the squared L-norm of every tail it models:
    # [2^k - r, 2^k + s) with r, s <= 2^{k-1}
    from rsbounds.norms import L_norm_sq
    rng = np.random.default_rng(31)
    for _ in range(10):
        k = int(rng.integers(3, 7))
        r = int(rng.integers(0, (1 << (k - 1)) + 1))
        s = int(rng.integers(0, (1 << (k - 1)) + 1))
        tail = L_norm_sq(Segment((1 << k) - r, (1 << k) + s), 1 << 13)
        gv = g_int(r, s, 1 << 13)
        assert tail.lo <= gv.hi + 1e-9, (k, r, s)


def test_g_doubling_and_symmetry():
    rng = np.random.default_rng(13)
    N = 1 << 13
    for _ in range(10):
        r, s = int(rng.integers(0, 64)), int(rng.integers(0, 64))
        a, b = g_int(r, s, N), g_int(s, r, N)
        assert a.lo <= b.hi and b.lo <= a.hi
        d = g_int(2 * r, 2 * s, N)
        assert d.lo <= 2 * a.hi + 1e-9 and 2 * a.lo - 1e-9 <= d.hi


def test_domination_of_f2_by_g():
    # f(2-x, 2+y) <= g(x, y) on sampled dyadic x, y in [0, 1]
    N = 1 << 14
    rng = np.random.default_rng(19)
    for _ in range(12):
        xu, yu = int(rng.integers(0, 17)), int(rng.integers(0, 17))
        x, y = DyadicPoint(xu, 4), DyadicPoint(yu, 4)
        lhs = f2_dyadic(DyadicPoint(32 - xu, 4), DyadicPoint(32 + yu, 4), N)
        rhs = g_dyadic(x, y, N)
        assert lhs.lo <= rhs.hi + 1e-9, (xu, yu)


def test_monotone_refinement():
    # in the resolution-limited regime the enclosure tightens with N
    for seg in [Segment(0, 91), Segment(13, 400)]:
        widths = [L_norm_sq(seg, 1 << b).width for b in (11, 12, 13, 14)]
        assert all(w2 <= w1 for w1, w2 in zip(widths, widths[1:])), widths


def test_sqrt_continuity_constant():
    # |sqrt f(y) - sqrt f(x)| <= 4 sqrt(y - x) on sampled dyadic pairs
    N = 1 << 16
    rng = np.random.default_rng(23)
    for _ in range(15):
        xu = int(rng.integers(8, 64))
        yu = xu + int(rng.integers(0, 16))
        fx = f_dyadic(DyadicPoint(xu, 4), N)
        fy = f_dyadic(DyadicPoint(yu, 4), N)
        gap = math.sqrt((yu - xu) / 16.0)
        diff_hi = max(math.sqrt(fy.hi) - math.sqrt(fx.lo),
                      math.sqrt(fx.hi) - math.sqrt(fy.lo), 0.0)
        assert diff_hi <= 4.0 * gap + 1e-6


def test_one_term_segments_read_from_a_store_as_without_one():
    """A store squares the values of a segment of length at most 1 like
    any other top: sup |a_3|^2 = 1 for a_3 = -1, where reading the base
    values as their own power gave the objective -1 and an empty
    enclosure.  The L objective of [6, 8) has the one-term half [3, 4)."""
    for norm, seg in ((sup_norm_sq, Segment(3, 4)),
                      (L_norm_sq, Segment(6, 8))):
        want = norm(seg, 64)
        got = norm(seg, 64, store={})
        assert (got.lo, got.hi, got.N) == (want.lo, want.hi, want.N), seg


def test_g_objective_is_the_same_with_a_store_and_without():
    """g's cross term is read with a store and without one alike: on 48
    seeded corners (r, s < 3000) on the w-grids 2^14 .. 2^18,
    segment_spectra of the four halves with _g_half_cross gives the same F
    and peak, bit for bit, with store={} (every level held whole) and
    with None (the top, and every level above 2^15, streamed a window at
    a time).  g_int with no store gives the lo, hi, N and verdict of a
    fresh store, with and without a decision, one that certifies and one
    that refutes, on the cap 2^20 and on seeded corners.  A store-less
    call that dropped the cross term fails both."""
    rng = np.random.default_rng(97)
    for i in range(48):
        N = 1 << (14 + i % 5)
        r, s = (int(t) for t in rng.integers(0, 3000, 2))
        halves = [*even_odd_split(Segment(0, r)),
                  *even_odd_split(Segment(0, s))]
        for peak in (False, True):
            got = norms.segment_spectra(halves, N, peak, norms._g_half_cross)
            want = norms.segment_spectra(halves, N, peak,
                                         norms._g_half_cross, {})
            if peak:
                assert type(got) is float and got == want, (r, s, N)
            else:
                assert got.tobytes() == want.tobytes(), (r, s, N)
    corners = [(683, 1365, 1 << 20), (0, 7, 1 << 12), (9, 0, 1 << 12)]
    corners += [(*map(int, rng.integers(0, 3000, 2)), 1 << 16)
                for _ in range(4)]
    for r, s, N in corners:
        for decide in (None, decision(lambda v: v <= 10 * (r + s)),
                       decision(lambda v: v <= 2 * (r + s))):
            got, want = g_int(r, s, N, decide), g_int(r, s, N, decide, {})
            assert ((got.lo, got.hi, got.N, got.verdict)
                    == (want.lo, want.hi, want.N, want.verdict)), (r, s, N)


def test_half_prefix_spectra_square_nothing(monkeypatch, no_fft):
    """A store entry reads only R of its half prefixes, so the sweep
    squares only the spectra that a caller reads: no FFT is taken, every
    _power input is an R that _segment_values built, by one radix-2 step
    or as the exact values of a segment of length at most 1, and each is
    squared at most once.
    brute_onedim's report is the one it gave when the store squared every
    FFT.  brute_onedim reads each top once, so the power
    memo is checked on certify-g at 2^16, whose corners re-read their
    tops from one store: each (grid, segment) entry is squared at most
    as often as it is built.  A store that squared a top on every read
    fails it."""
    from rsbounds.certify2d import certify_g_full
    from rsbounds.certify1d import brute_onedim

    steps, powered = [], []
    build, power = norms._segment_values, norms._power
    monkeypatch.setattr(norms, '_segment_values', lambda *a:
                        steps.append(build(*a)) or steps[-1])
    monkeypatch.setattr(norms, '_power', lambda R:
                        powered.append(R) or power(R))
    report = brute_onedim(256, 1 << 12)
    assert powered and len(steps) > len(powered)
    made = {id(S) for S in steps}
    assert all(id(R) in made for R in powered)
    assert len({id(R) for R in powered}) == len(powered)
    assert (report.worst_n, report.failures, report.unsettled) \
        == (171, [], [11, 43, 171])
    assert report.worst_ratio == pytest.approx(1.000000000000628, rel=1e-12)

    built, squared, keys = Counter(), Counter(), {}

    def built_values(mn, halves, M, *rest):
        R = build(mn, halves, M, *rest)
        built[M, mn] += 1
        keys[id(R)] = weakref.ref(R), (M, mn)
        return R

    def square(R):
        ref, key = keys[id(R)]
        assert ref() is R
        squared[key] += 1
        return power(R)

    monkeypatch.setattr(norms, '_segment_values', built_values)
    monkeypatch.setattr(norms, '_power', square)
    assert certify_g_full(1 << 16).corner_evals == 1753
    assert squared and all(n <= built[key] for key, n in squared.items())
