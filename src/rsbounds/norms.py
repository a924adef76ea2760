"""Rigorous enclosures of squared sup-norms, squared L-norms, and the
derived functions f(x), f(x, y), g(r, s) on unit-circle grids.

Off-grid gap.  For a non-negative trigonometric polynomial F of degree D
sampled at the N-th roots of unity (N > pi*D), the stationary-point argument
with Bernstein's inequality gives

    sup F <= M / (1 - D^2 pi^2 / (2 N^2)),    M = grid maximum:

at the maximizer t* the nearest grid point t_j has |t_j - t*| <= pi/N, and
F(t_j) >= F(t*) - (1/2)(pi/N)^2 sup|F''| >= F(t*)(1 - (1/2) D^2 (pi/N)^2).

The same bound covers the g objective, which is a supremum of the family of
non-negative trigonometric polynomials A(t) + 2 Re(e^{i phi} H(e^{it})) of
degree <= r + s over phases phi; each family member is dominated pointwise
by the objective, so the grid maximum of the objective bounds every member.

Coarse to fine.  sup_norm_sq, L_norm_sq and g_int need M, the maximum
over the N-grid, not the other N - 1 values.  One routine (_grid_sup)
takes F on a coarse grid by FFT and refines only the arcs that can hold
the N-grid maximum, by direct evaluation at exact phases.  Szego's
inequality, F'^2 <= D^2 F (U - F) for any U >= sup F, bounds how far F can
fall near the maximum; for g it holds through the family member that
attains g, as above.  The result is the enclosure the full N-grid gives.
A caller that needs only a decision on the sup (is F <= T?) passes it, and
the routine stops at the first grid level whose enclosure settles it.

Floating-point slack from evaluate.eps_fp widens every enclosure on both
sides; direct values err by at most evaluate.eps_direct <= eps_fp.  No
directed rounding is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicPoint
from .evaluate import abs_sq_slack, eps_fp, eval_roots, half_spectrum
from .sequence import Segment


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
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Enclosure(self.lo * factor, self.hi * factor, self.N,
                         self.verdict)

    def sqrt(self) -> "Enclosure":
        return Enclosure(math.sqrt(max(self.lo, 0.0)), math.sqrt(max(self.hi, 0.0)))


def _enclose_grid_sup(M: float, degree: int, N: int, slack: float) -> Enclosure:
    """[M - s, (M + s) / (1 - delta)] from the N-grid maximum M, with the
    relative off-grid correction delta = D^2 pi^2 / (2 N^2) (0 if D <= 0)."""
    delta = 0.5 * degree * degree * (math.pi / N) ** 2 if degree > 0 else 0.0
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


def _spectral_values(segs: list[Segment], N: int, paired: bool, cross,
                     spectra: dict | None) -> np.ndarray:
    """F at z_j, j = 0 .. N/2, from one real FFT R per segment (memoized in
    ``spectra`` if given): v = R[j] and w = R[N/2 - j]."""
    v = [half_spectrum(seg, N) if spectra is None
         else _prefix_half_spectrum(seg.n, N, spectra) for seg in segs]
    # |w|^2 as reversed |v|^2: np.abs of a reversed view may round apart.
    A = [np.abs(R) ** 2 for R in v]
    F = A[0] + A[0][::-1] if paired else A[0]
    for a in A[1:]:
        F += a + a[::-1] if paired else a
    if cross:
        F += cross(v, [R[::-1] for R in v])
    return F


def _direct_values(segs: list[Segment], js: np.ndarray, N: int, paired: bool,
                   cross) -> np.ndarray:
    """F at z_j for each j in js, by direct evaluation."""
    v = [np.conj(eval_roots(seg, js, N)) for seg in segs]
    w = [eval_roots(seg, js + N // 2, N) for seg in segs] if paired else []
    F = sum(np.abs(x) ** 2 for x in v + w)
    return F + cross(v, w) if cross else F


def _grid_sup(segs: list[Segment], N: int, degree: int, paired: bool,
              slack, cross=None, decide=None, spectra=None):
    """Enclosure of the sup of F, of degree D = ``degree``, from its
    maximum over the N-grid, whose values err by at most slack(N).  F is
    the sum over the segments of |P(z)|^2 (+ |P(-z)|^2 if paired), plus
    cross(v, w) of the lists of their untwisted v = conj P(z_j) and
    w = P(-z_j).  ``spectra``, if given, memoizes the spectra of prefixes
    (see _prefix_half_spectrum); only g_int passes it.

    F is even, and of period pi if paired, so indices are folded into
    [0, p/2] with p = N (or N/2).  Level 0 takes F on the whole grid
    N_0 = oversampled_grid(n, N), n the total length of the segments.  A
    paired F has only even frequencies, so of degree < 2 (as |P|^2 of
    degree 0) it is constant and its N-grid maximum is its level-0 one.
    Otherwise each step from N_l to N_{l+1} = min(4 N_l, N) keeps the
    evaluated points j with

        F_j + s >= lo - D h sqrt(lo (U - lo)) - (D h)^2 U / 2,

    where [lo, U] = [max_l - s, (max_l + s) / (1 - delta_l)] is the level's
    enclosure, s = slack(N_l) and h = pi / N_l, and evaluates directly the
    N_{l+1}-points c j + i, |i| <= c/2, around each kept j
    (c = N_{l+1} / N_l).  Szego's inequality for F - U/2 gives
    F'^2 <= D^2 F (U - F), and x - D h sqrt(x (U - x)) increases with x for
    x >= U/2; so a Taylor step from the argmax of any finer grid, or from
    the maximizer, to its nearest level-l point shows that point is kept
    while lo >= U/2.  For g the step is taken on the family member that attains
    F there: a non-negative trigonometric polynomial of degree <= D, below
    F <= U everywhere.  By induction each level holds its grid's argmax,
    and the point nearest the maximizer, which makes [lo, U] an enclosure
    on every level.  Direct values err by at most eps_direct(L) <=
    eps_fp(L, N_l) (N_l >= 4 L), so s holds for them.  The next level is
    taken whole, by FFT, when lo < U/2, when it would cost more direct
    work than the N_0 FFT (rows * points * n > N_0), or when its grid is
    no larger than N_0.

    Without ``decide`` the result is the N-grid enclosure.  With it, the
    monotone decision ``decide(enc)`` (True: holds, False: refuted, None:
    refine) is asked once per level, and the result is the enclosure, with
    its verdict, of the first level that settles it, or of N.  A decision
    on one segment starts instead at the smallest power of two >= 8 n (at
    least 64), below N_0, where most settle; the levels up to N_0 are then
    whole grids, as on their own caps.  A decision on g, whose two prefix
    spectra a run's corners share, starts at N_0.  The start depends on
    the objective alone, so ``spectra`` never changes the result.
    """
    n, L = sum(seg.length for seg in segs), max(seg.length for seg in segs)
    if N < 4 * L:
        raise ValueError(f"grid size {N} below 4 * segment length {L}")
    N0 = oversampled_grid(n, N)
    N_l = oversampled_grid(n, N, 8) if decide and len(segs) == 1 else N0
    F = _spectral_values(segs, N_l, paired, cross, spectra)
    rows = 2 if paired else 1
    N_l = N_l if degree >= rows else N     # degree < rows: constant
    js = None                              # level 0: j = 0 .. N_l/2
    while True:
        s = slack(N_l)
        enc = _enclose_grid_sup(float(np.max(F)), degree, N_l, s)
        if decide:
            enc = Enclosure(enc.lo, enc.hi, N_l, decide(enc))
        if enc.verdict is not None or N_l == N:
            return enc
        lo, U = enc.lo, enc.hi
        Dh, c = degree * math.pi / N_l, min(4, N // N_l)
        N_l *= c
        if 2.0 * lo >= U and N_l > N0:
            keep = F + s >= (lo - Dh * math.sqrt(lo * (U - lo))
                             - 0.5 * Dh * Dh * U)
            kept = np.flatnonzero(keep) if js is None else js[keep]
            p = N_l // 2 if paired else N_l
            js = np.add.outer(c * kept, np.arange(-(c // 2), c // 2 + 1)) % p
            # A set, not np.unique: numpy's sort code adds 1.6 MB to peak RSS.
            js = np.array(sorted(set(np.minimum(js, p - js).ravel().tolist())))
            if rows * len(js) * n <= N0:
                F = _direct_values(segs, js, N_l, paired, cross)
                continue
        js, F = None, _spectral_values(segs, N_l, paired, cross, spectra)


def sup_norm_sq(seg: Segment, N: int, decide=None) -> Enclosure:
    """Enclosure of the squared sup-norm of the segment on the unit circle,
    settling ``decide`` if given (see _grid_sup)."""
    return _grid_sup([seg], N, seg.length - 1, False,
                     lambda M: abs_sq_slack(seg.length, M), None, decide)


def L_norm_sq(seg: Segment, N: int, decide=None) -> Enclosure:
    """Enclosure of sup over the circle of |P(z)|^2 + |P(-z)|^2, settling
    ``decide`` if given (see _grid_sup)."""
    return _grid_sup([seg], N, seg.length - 1, True,
                     lambda M: 2.0 * abs_sq_slack(seg.length, M), None,
                     decide)


def _scaled(decide, factor: float):
    """``decide``, if given, asked on the enclosure scaled by ``factor``."""
    return decide and (lambda enc: decide(enc.scale(factor)))


def f_dyadic(x: DyadicPoint, N: int) -> Enclosure:
    """Enclosure of f(x) = 2^{-k} * (squared L-norm of the prefix 2^k x),
    taken at the canonical (minimal) scale k."""
    return L_norm_sq(Segment(0, x.u), N).scale(0.5 ** x.k)


def f2_dyadic(x: DyadicPoint, y: DyadicPoint, N: int,
              decide=None) -> Enclosure:
    """Enclosure of f(x, y), the squared L-norm of the scaled range [x, y),
    settling ``decide`` on f(x, y) if given."""
    if x.fraction > y.fraction:
        raise ValueError(f"need x <= y, got {x} > {y}")
    k = max(x.k, y.k)
    seg = Segment(x.scaled_numerator(k), y.scaled_numerator(k))
    return L_norm_sq(seg, N, _scaled(decide, 0.5 ** k)).scale(0.5 ** k)


def _prefix_half_spectrum(n: int, N: int, spectra: dict) -> np.ndarray:
    """Half spectrum of the length-n prefix on the N-grid, memoized in the
    caller's dict ``spectra`` under (n, N).  Entries are read-only."""
    key = (n, N)
    val = spectra.get(key)
    if val is None:
        val = spectra[key] = half_spectrum(Segment(0, n), N)
    return val


def g_int(r: int, s: int, N: int, decide=None,
          spectra: dict | None = None) -> Enclosure:
    """Enclosure of g(r, s) through the alpha-free objective

        |P_{<r}(z)|^2 + |P_{<r}(-z)|^2 + |P_{<s}(z)|^2 + |P_{<s}(-z)|^2
            + 2 |P_{<s}(z) P_{<r}(-z) - P_{<s}(-z) P_{<r}(z)|

    maximized over the N-grid with antipodal index pairing, settling
    ``decide`` if given (see _grid_sup).  Prefix spectra are memoized in
    ``spectra`` if given; a caller that encloses many corners passes one
    dict to share them, and gets the same enclosures as without it.
    """
    if r < 0 or s < 0:
        raise ValueError("g_int needs non-negative integer arguments")
    if r == 0 or s == 0:
        # One factor is the empty sum: the objective collapses to the
        # squared L-norm of the other prefix.
        return L_norm_sq(Segment(0, max(r, s)), N, decide)

    def slack(M: int) -> float:
        er, es = eps_fp(r, M), eps_fp(s, M)
        return (2.0 * (abs_sq_slack(r, M) + abs_sq_slack(s, M))
                + 2.0 * (s * er + r * es + er * es))

    return _grid_sup([Segment(0, r), Segment(0, s)], N, r + s, True, slack,
                     _g_cross, decide, spectra)


def _g_cross(v: list, w: list) -> np.ndarray:
    """2 |P_s(z) P_r(-z) - P_s(-z) P_r(z)| from the values of prefixes r, s."""
    (vr, vs), (wr, ws) = v, w
    return 2.0 * np.abs(np.conj(vs) * wr - ws * np.conj(vr))


def g_dyadic(x: DyadicPoint, y: DyadicPoint, N: int, decide=None,
             spectra: dict | None = None) -> Enclosure:
    """Enclosure of g(x, y) = 2^{-k} g(2^k x, 2^k y) at the common minimal
    scale k, settling ``decide`` on g(x, y) if given; ``spectra`` is passed
    on to g_int."""
    k = max(x.k, y.k)
    return g_int(x.scaled_numerator(k), y.scaled_numerator(k), N,
                 _scaled(decide, 0.5 ** k), spectra).scale(0.5 ** k)
