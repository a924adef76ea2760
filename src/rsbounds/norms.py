"""Rigorous enclosures of squared sup-norms, squared L-norms, and the
derived functions f(x), f(x, y), g(r, s) on unit-circle grids.

Off-grid gap.  For a non-negative trigonometric polynomial F of degree D
sampled at the N-th roots of unity (N > pi*D), the stationary-point argument
with Bernstein's inequality gives

    sup F <= M / (1 - D^2 pi^2 / (2 N^2)),    M = grid maximum:

at the maximizer t* the nearest grid point t_j has |t_j - t*| <= pi/N, and
F(t_j) >= F(t*) - (1/2)(pi/N)^2 sup|F''| >= F(t*)(1 - (1/2) D^2 (pi/N)^2).

The half grid.  The doubling rule a_{2s} = a_s, a_{2s+1} = (-1)^s a_s
splits P over [m, n) into its even and odd terms:

    P(z) = A(w) + z B(-w),    w = z^2,

with A = P over [ceil(m/2), ceil(n/2)) and B = P over [floor(m/2),
floor(n/2)) (the even index 2s lies in [m, n) iff s lies in A's range, the
odd index 2s + 1 iff s lies in B's).  Then P(-z) = A(w) - z B(-w).  The
z_j of the N-grid square to the w_j of the N/2-grid, so an objective that
is a function of w is enclosed from its maximum on the N/2-grid.  Each grid
value of a half X errs by at most eps_fp(|X|, N/2).

The L objective.  On the circle the cross terms cancel:

    |P(z)|^2 + |P(-z)|^2 = 2 (|A(w)|^2 + |B(-w)|^2).

G(w) = |A(w)|^2 + |B(-w)|^2 is a non-negative trigonometric polynomial in
w of degree max(|A|, |B|) - 1 <= (L - 1)/2, so the off-grid and Szego
steps below hold for it as they stand, on the w-grid; D pi / N is the same
or smaller than for the z-objective of degree L - 1.  G's values carry the
slack abs_sq_slack(|A|, N/2) + abs_sq_slack(|B|, N/2), half or less of the
z-objective's 2 abs_sq_slack(L, N).

A segment from its halves.  With the untwisted values P~(z) = z^-m P(z)
that a half spectrum holds, the split reads P~(z) = A~(w) + sigma z B~(-w)
for m even and z A~(w) + sigma B~(-w) for m odd, sigma = (-1)^floor(m/2).
So the N-grid values conj P~(z_j) and P~(-z_j) follow from the N/2-grid
values of A and B by one butterfly with the twiddle z_j
(evaluate.radix2_step), and theirs from their own halves on N/4, down to
segments of length at most 1, whose values a_m and 0 are exact.  By
induction each value errs by at most eps_radix2(L, N) <= eps_fp(L, N), so
every slack below holds for it unchanged, with no FFT and no validated
constant.  segment_spectra is the one builder of every grid spectrum:
one walk down the levels, then up, building each level from the one
below, and it returns the objective F, or F's maximum alone.  It
streams the levels above 2^15 a window of butterflies at a time, or
holds every level whole in a store, a dict that is its memo, which
sup_norm_sq, L_norm_sq and g_int read when given one: the sweeps of
certify1d and the corners of certify-g read prefixes, whose halves
consecutive n share on every grid.  Either way F, cross term included,
is formed by one function (_objective), and segment_points takes the
same walk and the same butterflies, each only where a point of F needs
it, so its values are segment_spectra's bit for bit.

The g objective.  Write a = A_r(w), b = B_r(-w) for the halves of the
prefix r and c = A_s(w), d = B_s(-w) for those of the prefix s.  Then
P_s(z) P_r(-z) - P_s(-z) P_r(z) = 2 z (a d - c b), so g's objective is
2 H(w) with

    H = |a|^2 + |b|^2 + |c|^2 + |d|^2 + 2 |a d - c b|.

H is the sup over phases phi of the family of non-negative trigonometric
polynomials |a + e^{-i phi} conj(d)|^2 + |c - e^{-i phi} conj(b)|^2.  Each
member is dominated pointwise by H, so H's grid maximum bounds every
member, and the off-grid and Szego steps hold for H through the member
that attains it.  The member's degree in w is
max(spread(|A_r|, |B_s|), spread(|A_s|, |B_r|)): |x + e^{-i phi} conj(y)|^2
has degree p + q - 2 for halves x, y of lengths p, q > 0 (the frequencies
of x run over 0 .. p - 1, those of conj(y) over 1 - q .. 0), and
max(p, q) - 1 if either is empty, as B_1 is.  The halves' values come
from the recursion, so each errs by at most e_x = eps_fp(|x|, N/2), and
H's values carry the slack of the four |x|^2 plus 2 (|A_r| e_d +
|B_s| e_a + e_a e_d + |A_s| e_b + |B_r| e_c + e_b e_c), the first-order
error of the cross term.

Coarse to fine.  sup_norm_sq, L_norm_sq and g_int need M, the maximum
over the N-grid, not the other N - 1 values.  One routine (_grid_sup)
takes F on a whole coarse grid and refines only the arcs that can hold
the N-grid maximum, at their points alone (segment_points).  Szego's
inequality, F'^2 <= D^2 F (U - F) for any U >= sup F, bounds how far F
can fall near the maximum; for g it holds through the family member that
attains g, as above.  The points' values are the N-grid's, bit for bit,
so the result is the enclosure the full N-grid gives.  A caller that
needs only a decision on the sup (is F <= T?) passes it, and the routine
stops at the first grid level whose enclosure settles it.

Floating-point slack from evaluate.eps_fp widens every enclosure on both
sides.  No directed rounding is attempted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dyadic import DyadicPoint
# half_spectrum is kept here only for _prefix_half_spectrum and for
# certbench/spans.py, which traces it through this module by name.
from .evaluate import (abs_sq_slack, eps_fp, half_spectrum, radix2_step,
                       twiddles)
from .sequence import (DEFAULT_MAX_RANGE, CapacityError, Segment, check_range,
                       coeff, even_odd_pairs, even_odd_split)


@dataclass(frozen=True)
class Enclosure:
    """Interval [lo, hi] guaranteed to contain the true quantity.  From a
    grid maximum it records the grid N, and the verdict of the decision
    asked on it: True (holds), False (refuted) or None (unsettled)."""

    lo: float
    hi: float
    N: int | None = field(default=None, compare=False)
    verdict: bool | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def scale(self, factor: float) -> "Enclosure":
        """[lo, hi] times factor >= 0, refused where a nonzero endpoint
        would underflow the normal floats and lose what it encloses."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        if any(x and abs(x * factor) < sys.float_info.min
               for x in (self.lo, self.hi)):
            raise ValueError(f"scaling [{self.lo!r}, {self.hi!r}] by "
                             f"{factor!r} underflows the float range")
        return Enclosure(self.lo * factor, self.hi * factor, self.N,
                         self.verdict)

    def sqrt(self) -> "Enclosure":
        return Enclosure(math.sqrt(max(self.lo, 0.0)), math.sqrt(max(self.hi, 0.0)))


def _off_grid_delta(degree: int, N: int) -> float:
    """The relative off-grid correction D^2 pi^2 / (2 N^2) on the N-grid
    (0 if D <= 0)."""
    return 0.5 * degree * degree * (math.pi / N) ** 2 if degree > 0 else 0.0


def _enclose_grid_sup(M: float, degree: int, N: int, slack: float) -> Enclosure:
    """[M - s, (M + s) / (1 - delta)] from the N-grid maximum M, with
    delta = _off_grid_delta(D, N)."""
    delta = _off_grid_delta(degree, N)
    if delta >= 0.5:
        raise ValueError(
            f"grid size {N} too small for trigonometric degree {degree}")
    return Enclosure(max(M - slack, 0.0), (M + slack) / (1.0 - delta), N)


def oversampled_grid(n: int, cap: int, over: int = 64) -> int:
    """Smallest power of two N >= over * n, at least 64, at most cap."""
    return min(cap, 1 << (max(over * n, 64) - 1).bit_length())


def decision(holds):
    """The decision of a test ``holds(value)`` that, once failed, fails for
    every larger value: True when the enclosure's hi passes, False when its
    lo fails, None (refine) otherwise."""
    return lambda enc: (True if holds(enc.hi)
                        else None if holds(enc.lo) else False)


def _sqrt_sum_cmp(q: float | Fraction, beta: float | Fraction,
                  t: float | Fraction) -> int:
    """Sign of sqrt(t) - sqrt(q) - sqrt(beta) for rationals q, beta >= 0
    (ints, floats or Fractions), in integers: no gcd, no new Fraction.

    Squaring twice gives sqrt(q) + sqrt(beta) <= sqrt(t) iff R' = t - q -
    beta >= 0 and 4 q beta <= R'^2.  Write q = a/b, beta = c/d and t = e/f
    (each argument's as_integer_ratio(), positive denominators);
    multiplying R' by b d f and the second inequality by (b d f)^2 > 0
    keeps both directions, so the test is

        R = e b d - (a d + c b) f >= 0    and    4 a c b d f^2 <= R^2,

    and it is strict when R >= 0 and 4 a c b d f^2 < R^2.
    """
    a, b = q.as_integer_ratio()
    c, d = beta.as_integer_ratio()
    e, f = t.as_integer_ratio()
    rest = e * b * d - (a * d + c * b) * f
    gap = rest * rest - 4 * a * c * b * d * f * f
    return -1 if rest < 0 else (gap > 0) - (gap < 0)


def _sqrt_sum_le(q: float | Fraction, beta: float | Fraction,
                 t: float | Fraction) -> bool:
    """Exact test of sqrt(q) + sqrt(beta) <= sqrt(t)."""
    return _sqrt_sum_cmp(q, beta, t) >= 0


_WINDOW = 1 << 13    # butterflies per streamed window of segment_spectra


def segment_spectra(segs: list[Segment], N: int, peak: bool = False,
                    cross=None, store: dict | None = None):
    """F at x_j, j = 0 .. N/2: the sum over the segments of |R|^2 at x_j
    for those at even positions and at -x_j for those at odd positions,
    plus cross(v) of their values v, R[j] = conj P~(x_j) or R[N/2 - j] =
    P~(-x_j) by the same positions, R the segment's half spectrum on the
    N-grid (the values half_spectrum gives), built by the radix-2
    recursion with no FFT; with ``peak``, F's maximum alone, as a float.

    One walk runs down the levels (_walk_down).  Each level is then
    built from the one below by _segment_values: the exact values a_m, or
    0, of a segment of length at most 1, and one evaluate.radix2_step from
    its halves for a longer one.  A level holds few segments (the ends of
    those on level j lie within one of m / 2^j and n / 2^j), so a segment
    costs O(N) butterflies.  By induction from the exact base each value
    is within eps_radix2(L, N) <= eps_fp(L, N) (evaluate), so every slack
    holds for it, and abs_sq_slack(L, N) for its power.

    The ``store`` is a dict, the memo of every level: {grid: {(m, n):
    [R, |R|^2 or None]}}, the power squared when a call first reads the
    entry at its top, and kept.  With one, every level is held whole, top
    included: g's corners share their tops, which streamed would be
    rebuilt window by window for every corner.  Its callers read prefixes
    [0, n), whose halves are prefixes too, so consecutive n share their
    halves on every grid.  The entries bound themselves: a segment that
    ends at j, added to a grid, drops the entries there that end below
    j - 1.  A sweep of rising prefixes never reads those again, and any
    other order only recomputes what it misses.  Entries are read-only,
    and a caller gets the same values, bit for bit, with a fresh store as
    with a shared one or none.

    Without a store only the levels of grid at most 4 _WINDOW are held
    whole, each freed once the one above it is built, and the top and
    every level above them stream, a window of butterflies at a time
    (_window).  Butterfly k of a level reads R_A[k] and R_B[q - k] of the
    level below, q = M/4 of its grid M: the low and the high values of
    the butterfly k below for k <= q/2, else the high and the low values
    of the butterfly q - k.  So the window of the butterflies a .. b - 1
    of a level is read by two windows of the level above, q its M/4: the
    same butterflies, and their mirror, q - k for those k below q/2.  The
    walk runs depth first from windows of _WINDOW butterflies of the
    deepest streamed level, each window followed by the two that read
    it: each streamed butterfly is built once, and one window of each
    level is held, so at N = 2^21 the level 2^15 and a window of each of
    the six above it.  The top's rows are squared (_power), and F is
    written, or with ``peak`` folded into its maximum, a window at a
    time.  Either top forms F by _objective.  The values are those of the
    whole steps, bit for bit, and so are their powers and F: np.abs takes
    a window's rows contiguous, as it takes a whole R.

    Every level reads twiddles(M) bit for bit: a level held whole the
    table of its grid (kept up to KEPT_TWIDDLES), a streamed window the
    twiddles of its butterflies alone, computed once for the level's
    segments.  So no table of a streamed grid is held, and the store
    holds none.  Grids above DEFAULT_MAX_RANGE and indices past 2^64 - 1
    are refused with CapacityError, as half_spectrum and coeff_range
    refuse them.
    """
    tops = [(seg.m, seg.n) for seg in segs]
    walk = _walk_down(segs, N, {} if store is None else store)
    # Without a store the top streams, and so does every level above
    # 4 _WINDOW; the levels from `held` down are built whole.
    held = 0 if store is not None else next(
        (d for d in range(1, len(walk)) if N >> d <= 4 * _WINDOW),
        len(walk))
    # Every level's values are entries [R, |R|^2 or None], a store's own
    # or new ones; each level is let go of once the one above it is built.
    values: dict = {}
    for _ in range(len(walk) - held):        # up from the bottom
        M, level, known = walk.pop()
        if level:
            z = twiddles(max(M, 4))
            # Without a store, the drop rule runs on this call's own memo.
            memo = {} if store is None else store.setdefault(M, {})
            for mn, halves in level.items():
                R = _segment_values(mn, halves, M, values, z)
                known[mn] = memo[mn] = [R, None]
                last = mn[1] - 1
                for key in [key for key in memo if key[1] < last]:
                    del memo[key]
        values = known
    if store is not None:
        entries = [values[mn] for mn in tops]
        for entry in entries:
            if entry[1] is None:
                entry[1] = _power(entry[0])
        # |w|^2 as reversed |v|^2: np.abs of a reversed view may round
        # apart.
        F = _objective([[x[::-1] if i % 2 else x for x in entry]
                        for i, entry in enumerate(entries)], cross)
        return float(F.max()) if peak else F
    F = None if peak else np.empty(N // 2 + 1)
    best = -math.inf
    # The streamed levels, depth first from windows of _WINDOW
    # butterflies of the deepest: a window [a, b) of a level is read by
    # the window [a, b) of the level above and by its mirror (_window),
    # so each is built once, and rows holds one window of each level.
    q = N >> (held + 1)
    cuts = [*range(0, max(q, 1), _WINDOW), q + 1]
    todo = [(held - 1, a, b, False) for a, b in zip(cuts, cuts[1:])]
    rows = [None] * held + [values]
    while todo:
        depth, a, b, mirrored = todo.pop()
        M, level, _ = walk[depth]
        z = twiddles(max(M, 4), slice(a, b))
        rows[depth] = None                 # the last window here is done
        rows[depth] = {mn: _window(mn, halves, M, rows[depth + 1], z, a, b,
                                   mirrored)
                       for mn, halves in level.items()}
        if depth:
            # The mirror: the butterflies M/2 - k, k = a .. b - 1, above
            # M/4, the middle butterfly of the level above.
            c, w = M // 2 + 1 - a, min(b, M // 4) - a
            todo.append((depth - 1, a, b, False))
            if w > 0:
                todo.append((depth - 1, c - w, c, True))
            continue
        # Odd positions swap the rows, low for high: -x_k is x_{N/2 - k}.
        top = _objective([[x[::-1] if i % 2 else x
                           for x in (rows[0][mn], _power(rows[0][mn]))]
                          for i, mn in enumerate(tops)], cross)
        if peak:
            best = max(best, np.max(top))
        else:
            F[a:b], F[::-1][a:b] = top
    return float(best) if peak else F


def _objective(tops: list, cross) -> np.ndarray:
    """F from the segments' (values v, powers |v|^2), in order, each read
    at its position's points: the powers summed, plus cross of the v."""
    F = tops[0][1]
    for _, power in tops[1:]:
        F = F + power                      # not in place: a stored power
    return F + cross([v for v, _ in tops]) if cross else F


def _walk_down(segs: list[Segment], N: int, entries: dict) -> list:
    """The walk down of segment_spectra and segment_points: the segments
    on the grid M, keyed by their pairs (m, n), are the halves
    (even_odd_pairs) of those on 2M that the store's ``entries`` lack,
    from ``segs`` on N down to a level with none of length 2 or more.  A
    level is (M, {(m, n): its halves, or None} of the segments to build,
    {(m, n): entry} of those in the store)."""
    if N > DEFAULT_MAX_RANGE:
        raise CapacityError(f"grid size {N} exceeds limit {DEFAULT_MAX_RANGE}")
    if N < 2 or N & (N - 1):
        raise ValueError(f"grid size {N} is not a power of two >= 2")
    walk, keys, M = [], [(seg.m, seg.n) for seg in segs], N
    while keys:
        memo = entries.get(M, {})
        known, level, below = {}, {}, []
        for mn in keys:
            entry = memo.get(mn)
            if entry is not None:
                known[mn] = entry
            elif mn not in level:
                halves = level[mn] = (even_odd_pairs(*mn)
                                      if mn[1] - mn[0] > 1 else None)
                below += halves or ()
        walk.append((M, level, known))
        if below and M < 4:
            raise ValueError(f"grid size {N} is too small for a segment of "
                             f"length {max(seg.length for seg in segs)}")
        keys, M = below, M // 2
    if walk[0][1]:          # what the store holds was checked when built
        for seg in segs:
            check_range(seg)
    return walk


def segment_points(segs: list[Segment], js: np.ndarray, N: int, cross=None,
                   store: dict | None = None) -> np.ndarray:
    """F of segment_spectra at x_j for each j of js, indices in 0 .. N/2,
    bit for bit: the same walk and butterflies, each taken only where a
    point reads it, and F formed alike (_objective).  The top reads R[j]
    or R[N/2 - j], and butterfly k of a level reads its halves at k and
    M/4 - k on their grid M/2, both at one butterfly (segment_spectra):
    so on the level of grid M the point j lies at the butterfly
    min(r, M/2 - r), r = j mod M/2, and it costs O(log L) butterflies in
    all."""
    walk = _walk_down(segs, N, {} if store is None else store)
    h = np.array([[M // 2] for M, _, _ in walk])   # M >= 2 (_walk_down)
    r = js % h
    ks = np.minimum(r, h - r)           # each level's butterflies
    # Their twiddles, z_k on N >> d that of N at k 2^d (twiddles), at once.
    zs = twiddles(max(N, 4), ks << np.arange(len(walk))[:, None])
    i = np.concatenate((js[None], ks[:-1]))
    t, w, i2 = np.arange(len(js)), len(js), 2 * i
    # The indices that the level above reads, A at i and B at h - i: in
    # a whole R (a store's), and in the rows (low, high) of ks, high at
    # the middle, where a whole R holds high's value (radix2_step).
    hi, pa, pb = h - i, t + w * (i2 >= h), t + w * (i2 <= h)
    exact = (0 * t,) * 2        # one exact value, read everywhere
    values: dict = {}       # (m, n): (values, the indices read in them)
    for d in reversed(range(len(walk))):
        M, level, known = walk[d]
        below, packed = values, (pa[d], pb[d])
        values = {mn: (e[0], (i[d], hi[d])) for mn, e in known.items()}
        for mn, halves in level.items():
            if halves is None:
                values[mn] = _exact(mn, 1), exact
                continue
            (RA, ia), (RB, ib) = below[halves[0]], below[halves[1]]
            out = np.empty((2, w), dtype=complex)
            radix2_step(RA[ia[0]], RB[ib[1]], zs[d], mn[0], *out)
            values[mn] = out.ravel(), packed
    v = [values[seg.m, seg.n] for seg in segs]
    v = [x[idx[k % 2]] for k, (x, idx) in enumerate(v)]
    return _objective([(x, np.square(np.abs(x))) for x in v], cross)


def _exact(mn: tuple[int, int], shape) -> np.ndarray:
    """An array of the given shape filled with the value of a segment
    [m, n) of length at most 1, a_m or 0 if empty: exact on every grid."""
    m, n = mn
    return np.full(shape, coeff(m) if n > m else 0, dtype=complex)


def _segment_values(mn: tuple[int, int], halves, M: int, below: dict,
                    z) -> np.ndarray:
    """The half spectrum R of the segment [m, n) on the M-grid: exact for
    a segment of length at most 1 (``halves`` None), else one radix2_step
    from the values of its ``halves``, entries [R, ...] in ``below``, with
    the twiddle table z, into the views R[:q + 1] and R[::-1][:q + 1],
    q = M/4, so that R[q] is written last, as high."""
    if halves is None:
        return _exact(mn, M // 2 + 1)
    q, (A, B) = M // 4, halves
    R = np.empty(2 * q + 1, dtype=complex)
    radix2_step(below[A][0], below[B][0][::-1], z, mn[0], R[:q + 1],
                R[::-1][:q + 1])
    return R


def _window(mn: tuple[int, int], halves, M: int, below: dict, z, a: int,
            b: int, mirrored: bool) -> np.ndarray:
    """The rows (low, high) of the butterflies k = a .. b - 1 of the
    segment [m, n) on the M-grid, R[k] and R[M/2 - k], with z their
    twiddles; R[q], q = M/4, in both where the window ends there.
    ``below`` holds the values of its halves: entries [R, ...] of whole
    half spectra, or (low, high) windows of the butterflies a .. b - 1
    below, or, ``mirrored``, windows whose first b - a butterflies are
    q - b + 1 .. q - a, in reverse."""
    if halves is None:
        return _exact(mn, (2, b - a))
    q, w = M // 4, b - a

    def at(X):                 # (R_X[k], R_X[q - k]) for k = a .. b - 1
        x = below[X]
        if isinstance(x, list):                   # a held level's entry
            return x[0][a:b], x[0][q - a::-1][:w]
        return (x[1][w - 1::-1], x[0][w - 1::-1]) if mirrored else x

    A, B = halves
    out = np.empty((2, w), dtype=complex)
    radix2_step(at(A)[0], at(B)[1], z, mn[0], *out)
    if b == q + 1:                             # R[q], written last as high
        out[0, -1] = out[1, -1]
    return out


def _power(R) -> np.ndarray:
    """|R|^2 of a spectrum R, or of a window's rows (low, high),
    np.abs(R) ** 2 squared in place."""
    P = np.abs(R)
    return np.square(P, out=P)


def _grid_sup(segs: list[Segment], N: int, degree: int, slack, cross=None,
              decide=None, store=None, half: bool = False):
    """Enclosure of the sup of F, of degree D = ``degree``, from its
    maximum over the N-grid, whose values err by at most slack(N).  F is
    the sum of |P(x)|^2 over the segments at even positions in ``segs``
    and of |P(-x)|^2 over those at odd positions, plus cross(v) of the
    list of the segments' untwisted values v, conj P(x_j) or P(-x_j) by
    the same positions.  segment_spectra builds every whole level's
    values, read from and kept in ``store`` if given.

    With ``half``, F is a function of w = z^2 and the objective is 2F
    (the L and g objectives, see the module docstring).  The level grids
    N_l, the cap N and the recorded Enclosure.N below are those of z, and
    F, D, the slack, h and the index fold are taken on the N_l/2-grid of w,
    which the N_l-grid of z covers twice.  N must be a power of two at
    least 4 L, L the length in z: the segment's, or with ``half`` the
    largest |A| + |B| over its pairs of halves (max(r, s) for g); and the
    grid of F must lie above pi D.  Any other N is refused before any
    spectrum is built.

    F is even, so indices are folded into [0, p/2], p the grid of F.
    Level 0 takes F on the whole grid N_0 = oversampled_grid(n, N), n the
    total length of the segments.  F of degree 0 is constant, so its N-grid
    maximum is its level-0 one.  Otherwise each step from N_l to
    N_{l+1} = min(4 N_l, N) keeps the evaluated points j with

        F_j + s >= lo - D h sqrt(lo (U - lo)) - (D h)^2 U / 2,

    where [lo, U] = [max_l - s, (max_l + s) / (1 - delta_l)] is the level's
    enclosure, s = slack(N_l) and h = pi / N_l, and takes F only at the
    N_{l+1}-points c j + i, |i| <= c/2, around each kept j (segment_points,
    c = N_{l+1} / N_l).  Szego's inequality for F - U/2 gives
    F'^2 <= D^2 F (U - F), and x - D h sqrt(x (U - x)) increases with x for
    x >= U/2; so a Taylor step from the argmax of any finer grid, or from
    the maximizer, to its nearest level-l point shows that point is kept
    while lo >= U/2.  For g the step is taken on the family member that
    attains F there: a non-negative trigonometric polynomial of degree
    <= D, below F <= U everywhere.  By induction each level holds its
    grid's argmax, and the point nearest the maximizer, which makes
    [lo, U] an enclosure on every level.  The points' values are the
    N_{l+1}-grid's, bit for bit, so s holds for them.  The next level is
    taken whole, when lo < U/2, when its points would cost more than the
    N_0 spectrum (points times 4 bit_length(n), a point's butterflies,
    above the N_0 grid), or when its grid is no larger than N_0.  A whole
    level read only through its maximum, the cap and every level whose
    next level is no larger than N_0, asks segment_spectra for the maximum
    alone, which folds it window by window and builds no array of the
    grid.

    Without ``decide`` the result is the N-grid enclosure.  With it, the
    monotone decision ``decide(enc)`` (True: holds, False: refuted, None:
    refine) is asked once per level, and the result is the enclosure, with
    its verdict, of the first level that settles it, or of N.  A decision
    on the sup or the L objective of one segment starts instead at the
    smallest power of two >= 8 n (at least 64), below N_0, where most
    settle; the levels up to N_0 are then whole grids, as on their own
    caps.  A decision on g, whose prefix spectra a run's corners share,
    starts at N_0, on the axes as elsewhere.  The start depends on the
    objective alone, so ``store`` never changes the grids, and its values
    are those of a call without it, bit for bit (segment_spectra).
    """
    n = sum(seg.length for seg in segs)
    L = max(A.length + B.length
            for A, B in zip(segs[::2], segs[1::2])) if half else n
    if N < 4 * max(L, 1) or N & (N - 1):
        raise ValueError(f"grid size {N} is not a power of two >= "
                         f"4 * max(length {L}, 1)")
    sh = 1 if half else 0                  # the grid of F is the z-grid >> sh
    if _off_grid_delta(degree, N >> sh) >= 0.5:
        # Coarser levels are at least 8 n (4 n in w), above pi D for every
        # objective here (D < n, and D < n/2 in w).
        raise ValueError(f"grid size {N} too small for trigonometric degree "
                         f"{degree}" + (" in w = z^2" if half else ""))
    N0 = oversampled_grid(n, N) >> sh
    N_l = oversampled_grid(n, N, 8) >> sh if decide and not cross else N0
    N >>= sh

    def values(N_l):
        # The maximum alone where no pruning reads F: at the cap, and where
        # the next level is taken whole.
        return segment_spectra(segs, N_l, not degree or N_l == N
                               or min(4 * N_l, N) <= N0, cross, store)

    F = values(N_l)
    N_l = N_l if degree > 0 else N         # degree 0: constant
    js = None                              # level 0: j = 0 .. N_l/2
    while True:
        s = slack(N_l)
        top = F if type(F) is float else float(F.max())
        enc = _enclose_grid_sup(top, degree, N_l, s)
        lo, U = enc.lo, enc.hi
        enc = enc.scale(1 << sh)           # the objective is 2F with half
        enc = Enclosure(enc.lo, enc.hi, N_l << sh, decide and decide(enc))
        if enc.verdict is not None or N_l == N:
            return enc
        Dh, c = degree * math.pi / N_l, min(4, N // N_l)
        N_l *= c
        if 2.0 * lo >= U and N_l > N0:
            keep = F + s >= (lo - Dh * math.sqrt(lo * (U - lo))
                             - 0.5 * Dh * Dh * U)
            kept = np.flatnonzero(keep) if js is None else js[keep]
            js = np.add.outer(c * kept, np.arange(-(c // 2), c // 2 + 1)) % N_l
            # A set, not np.unique: numpy's sort code adds 1.6 MB to peak RSS.
            js = set(np.minimum(js, N_l - js).ravel().tolist())
            js = np.array(sorted(js))
            if len(js) * 4 * n.bit_length() <= N0:
                F = segment_points(segs, js, N_l, cross, store)
                continue
        js, F = None, values(N_l)


def sup_norm_sq(seg: Segment, N: int, decide=None,
                store: dict | None = None) -> Enclosure:
    """Enclosure of the squared sup-norm of the segment on the unit circle,
    settling ``decide`` if given (see _grid_sup).  Its spectra are read
    from and kept in ``store``, if given (segment_spectra)."""
    return _grid_sup([seg], N, seg.length - 1,
                     lambda M: abs_sq_slack(seg.length, M), decide=decide,
                     store=store)


def L_norm_sq(seg: Segment, N: int, decide=None,
              store: dict | None = None) -> Enclosure:
    """Enclosure of sup over the circle of |P(z)|^2 + |P(-z)|^2, settling
    ``decide`` if given (see _grid_sup): twice that of |A(w)|^2 + |B(-w)|^2
    for the halves A and B of the even/odd split (module docstring), on
    the half grid.  The halves' spectra are read from and kept in
    ``store``, if given (segment_spectra); the halves of a prefix are
    prefixes too.
    """
    A, B = even_odd_split(seg)
    return _grid_sup(
        [A, B], N, max(A.length, B.length) - 1,
        lambda M: abs_sq_slack(A.length, M) + abs_sq_slack(B.length, M),
        decide=decide, store=store, half=True)


def _scaled(decide, factor: float):
    """``decide``, if given, asked on the enclosure scaled by ``factor``."""
    return decide and (lambda enc: decide(enc.scale(factor)))


def f_dyadic(x: DyadicPoint, N: int) -> Enclosure:
    """Enclosure of f(x) = f(0, x) = 2^{-k} * (squared L-norm of the
    prefix 2^k x), taken at the canonical (minimal) scale k."""
    return f2_dyadic(DyadicPoint(0, 0), x, N)


def f2_dyadic(x: DyadicPoint, y: DyadicPoint, N: int,
              decide=None) -> Enclosure:
    """Enclosure of f(x, y), the squared L-norm of the scaled range [x, y),
    settling ``decide`` on f(x, y) if given."""
    if x.fraction > y.fraction:
        raise ValueError(f"need x <= y, got {x} > {y}")
    k = max(x.k, y.k)
    seg = Segment(x.scaled_numerator(k), y.scaled_numerator(k))
    return L_norm_sq(seg, N, _scaled(decide, 0.5 ** k)).scale(0.5 ** k)


# Called by nothing in rsbounds: certbench/spans.py traces this name
# (norms.prefix_lookup) and raises if it is gone.
def _prefix_half_spectrum(n: int, N: int, spectra: dict) -> np.ndarray:
    """Half spectrum R of the length-n prefix on the N-grid, memoized in
    the dict ``spectra`` under (n, N)."""
    key = (n, N)
    R = spectra.get(key)
    if R is None:
        R = spectra[key] = half_spectrum(Segment(0, n), N)
    return R


def g_int(r: int, s: int, N: int, decide=None,
          store: dict | None = None) -> Enclosure:
    """Enclosure of g(r, s) through the alpha-free objective

        |P_{<r}(z)|^2 + |P_{<r}(-z)|^2 + |P_{<s}(z)|^2 + |P_{<s}(-z)|^2
            + 2 |P_{<s}(z) P_{<r}(-z) - P_{<s}(-z) P_{<r}(z)|,

    twice H(w) of the halves of the prefixes r and s (module docstring),
    maximized over the half grid, settling ``decide`` if given (see
    _grid_sup).  The halves' spectra, which are prefix spectra, are
    read from and kept in ``store``, if given (segment_spectra); a
    caller that encloses many corners passes one store to share them,
    and gets the same enclosures as with a fresh one or none.  An empty
    prefix adds exact zeros, so g(0, s) is the L objective.
    """
    if r < 0 or s < 0:
        raise ValueError("g_int needs non-negative integer arguments")
    halves = even_odd_split(Segment(0, r)) + even_odd_split(Segment(0, s))
    a, b, c, d = (h.length for h in halves)

    def slack(M: int) -> float:
        ea, eb, ec, ed = (eps_fp(x, M) for x in (a, b, c, d))
        return (sum(abs_sq_slack(x, M) for x in (a, b, c, d))
                + 2.0 * (a * ed + d * ea + ea * ed
                         + c * eb + b * ec + eb * ec))

    return _grid_sup(list(halves), N, max(_spread(a, d), _spread(c, b)),
                     slack, _g_half_cross, decide, store, half=True)


def _spread(p: int, q: int) -> int:
    """Degree of |x + e^{-i phi} conj(y)|^2 for halves x, y of lengths p, q."""
    return p + q - 2 if p and q else max(p, q) - 1


def _g_half_cross(v: list) -> np.ndarray:
    """2 |a d - c b| from the values [conj a, b, conj c, d] of the halves."""
    return 2.0 * np.abs(np.conj(v[0]) * v[3] - np.conj(v[2]) * v[1])


def g_dyadic(x: DyadicPoint, y: DyadicPoint, N: int, decide=None,
             store: dict | None = None) -> Enclosure:
    """Enclosure of g(x, y) = 2^{-k} g(2^k x, 2^k y) at the common minimal
    scale k, settling ``decide`` on g(x, y) if given; ``store`` is passed
    on to g_int."""
    k = max(x.k, y.k)
    return g_int(x.scaled_numerator(k), y.scaled_numerator(k), N,
                 _scaled(decide, 0.5 ** k), store).scale(0.5 ** k)
