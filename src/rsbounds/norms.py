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

Coarse to fine.  sup_norm_sq and L_norm_sq need M, the maximum over the
N-grid, but not the other N - 1 values.  F is taken on a grid of about 64 L
points by one FFT, and only the arcs that can hold the N-grid maximum are
refined, four times finer per level, by direct evaluation at exact phases
(_coarse_to_fine).  Szego's inequality, F'^2 <= D^2 F (U - F) for any
U >= sup F, bounds how far F can fall within one grid step of the maximum;
that is what lets the other arcs be dropped.  The result is the enclosure
the full N-grid gives.

Floating-point slack from evaluate.eps_fp widens every enclosure on both
sides; direct values err by at most evaluate.eps_direct, which is used only
where it does not exceed eps_fp.  No directed rounding is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicPoint
from .evaluate import (abs_sq_slack, eps_direct, eps_fp, eval_roots,
                       half_spectrum)
from .sequence import Segment

DEFAULT_GRID_LOG2 = 20       # desk-scale default
FULL_GRID_LOG2 = 24          # full-fidelity reproduction grid


@dataclass(frozen=True)
class Enclosure:
    """Interval [lo, hi] guaranteed to contain the true quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def scale(self, factor: float) -> "Enclosure":
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Enclosure(self.lo * factor, self.hi * factor)

    def sqrt(self) -> "Enclosure":
        return Enclosure(math.sqrt(max(self.lo, 0.0)), math.sqrt(max(self.hi, 0.0)))


def _grid_gap(degree: int, N: int) -> float:
    """Relative off-grid correction delta = D^2 pi^2 / (2 N^2)."""
    if degree <= 0:
        return 0.0
    delta = 0.5 * degree * degree * (math.pi / N) ** 2
    if delta >= 0.5:
        raise ValueError(
            f"grid size {N} too small for trigonometric degree {degree}")
    return delta


def _enclose_grid_sup(M: float, degree: int, N: int, slack: float) -> Enclosure:
    delta = _grid_gap(degree, N)
    lo = max(M - slack, 0.0)
    hi = (M + slack) / (1.0 - delta)
    return Enclosure(lo, hi)


def _require_resolution(length: int, N: int) -> None:
    if N < 4 * length:
        raise ValueError(f"grid size {N} below 4 * segment length {length}")


def oversampled_grid(n: int, cap: int) -> int:
    """Smallest power of two N >= 64 * n, at least 64, at most cap."""
    return min(cap, 1 << (max(64 * n, 64) - 1).bit_length())


def _spectrum_objective(seg: Segment, N: int, paired: bool) -> np.ndarray:
    """F at z_j, j = 0 .. N/2, from one real FFT."""
    F = np.abs(half_spectrum(seg, N)) ** 2
    return F + F[::-1] if paired else F


def _direct_objective(seg: Segment, js: np.ndarray, N: int,
                      paired: bool) -> np.ndarray:
    """F at z_j for each j in js, by direct evaluation."""
    F = np.abs(eval_roots(seg, js, N)) ** 2
    if paired:
        F += np.abs(eval_roots(seg, js + N // 2, N)) ** 2
    return F


def _coarse_to_fine(seg: Segment, N: int, paired: bool,
                    slack: float) -> np.ndarray | None:
    """Values of F on a set of N-grid points that holds the N-grid argmax,
    or None where the full N-grid is needed.

    F is even, and of period pi if paired, so indices are folded into
    [0, p/2] with p = N (or N/2).  Level 0 takes F on the whole grid
    N_0 = oversampled_grid(L, N) from one FFT.  Each step from N_l to
    N_{l+1} = min(4 N_l, N) keeps the evaluated points j with

        F_j + s >= lo - D h sqrt(lo (U - lo)) - (D h)^2 U / 2,

    where lo = max_l - s, U = (max_l + s) / (1 - delta_l) and h = pi / N_l,
    and evaluates directly the N_{l+1}-points c j + i, |i| <= c/2, around
    each kept j (c = N_{l+1} / N_l).  Szego's inequality for F - U/2 gives
    F'^2 <= D^2 F (U - F), and x - D h sqrt(x (U - x)) increases with x for
    x >= U/2; so a Taylor step from the N-grid argmax, or from the
    maximizer, to its nearest level-l point shows that point is kept while
    lo >= U/2.  By
    induction the last level holds the N-grid argmax, and each level the
    point nearest the maximizer, which makes U an upper bound.  Direct
    values err by at most eps_direct(L), which must not exceed eps_fp(L, N)
    so that the slack s holds for them.  None is returned when it does,
    when lo < U/2, or when a level would cost more direct work than the
    level-0 FFT (rows * L > N_0).
    """
    L, D = seg.length, seg.length - 1
    N0 = oversampled_grid(L, N)
    if N0 == N or eps_direct(L) > eps_fp(L, N):
        return None
    F = _spectrum_objective(seg, N0, paired)
    js = np.arange(len(F))
    rows = 2 if paired else 1
    N_l = N0
    while N_l < N:
        top = float(np.max(F))
        lo = top - slack
        U = (top + slack) / (1.0 - _grid_gap(D, N_l))
        if 2.0 * lo < U:
            return None
        Dh = D * math.pi / N_l
        kept = js[F + slack >= lo - Dh * math.sqrt(lo * (U - lo))
                  - 0.5 * Dh * Dh * U]
        c = min(4, N // N_l)
        N_l *= c
        p = N_l // 2 if paired else N_l
        js = np.add.outer(c * kept, np.arange(-(c // 2), c // 2 + 1)) % p
        # A set, not np.unique: numpy's sort code adds 1.6 MB to peak RSS.
        js = np.array(sorted(set(np.minimum(js, p - js).ravel().tolist())))
        if rows * len(js) * L > N0:
            return None
        F = _direct_objective(seg, js, N_l, paired)
    return F


def _grid_sup(seg: Segment, N: int, paired: bool) -> Enclosure:
    """Enclosure of the sup of |P|^2, or of |P(z)|^2 + |P(-z)|^2 if paired,
    from its maximum over the N-grid (see _coarse_to_fine)."""
    if seg.length == 0:
        return Enclosure(0.0, 0.0)
    _require_resolution(seg.length, N)
    slack = (2.0 if paired else 1.0) * abs_sq_slack(seg.length, N)
    F = _coarse_to_fine(seg, N, paired, slack)
    if F is None:
        F = _spectrum_objective(seg, N, paired)
    return _enclose_grid_sup(float(np.max(F)), seg.length - 1, N, slack)


def sup_norm_sq(seg: Segment, N: int) -> Enclosure:
    """Enclosure of the squared sup-norm of the segment on the unit circle."""
    return _grid_sup(seg, N, paired=False)


def L_norm_sq(seg: Segment, N: int) -> Enclosure:
    """Enclosure of sup over the circle of |P(z)|^2 + |P(-z)|^2."""
    return _grid_sup(seg, N, paired=True)


def f_dyadic(x: DyadicPoint, N: int) -> Enclosure:
    """Enclosure of f(x) = 2^{-k} * (squared L-norm of the prefix 2^k x),
    taken at the canonical (minimal) scale k."""
    if x.u == 0:
        return Enclosure(0.0, 0.0)
    return L_norm_sq(Segment(0, x.u), N).scale(0.5 ** x.k)


def f2_dyadic(x: DyadicPoint, y: DyadicPoint, N: int) -> Enclosure:
    """Enclosure of f(x, y), the squared L-norm of the scaled range [x, y)."""
    if x.fraction > y.fraction:
        raise ValueError(f"need x <= y, got {x} > {y}")
    k = max(x.k, y.k)
    m = x.scaled_numerator(k)
    n = y.scaled_numerator(k)
    if m == n:
        return Enclosure(0.0, 0.0)
    return L_norm_sq(Segment(m, n), N).scale(0.5 ** k)


def _prefix_half_spectrum(n: int, N: int, spectra: dict) -> np.ndarray:
    """Half spectrum of the length-n prefix on the N-grid, memoized in the
    caller's dict ``spectra`` under (n, N).  Entries are read-only."""
    key = (n, N)
    val = spectra.get(key)
    if val is None:
        val = spectra[key] = half_spectrum(Segment(0, n), N)
    return val


def g_int(r: int, s: int, N: int, spectra: dict | None = None) -> Enclosure:
    """Enclosure of g(r, s) through the alpha-free objective

        |P_{<r}(z)|^2 + |P_{<r}(-z)|^2 + |P_{<s}(z)|^2 + |P_{<s}(-z)|^2
            + 2 |P_{<s}(z) P_{<r}(-z) - P_{<s}(-z) P_{<r}(z)|

    maximized over the N-grid with antipodal index pairing.  Prefix spectra
    are looked up in ``spectra`` (a fresh dict if None); a caller that
    encloses many corners passes one dict to share them.
    """
    if r < 0 or s < 0:
        raise ValueError("g_int needs non-negative integer arguments")
    if r == 0 and s == 0:
        return Enclosure(0.0, 0.0)
    if r == 0 or s == 0:
        # One factor is the empty sum: the objective collapses to the
        # squared L-norm of the other prefix.
        return L_norm_sq(Segment(0, max(r, s)), N)
    _require_resolution(max(r, s), N)
    if spectra is None:
        spectra = {}
    Rr = _prefix_half_spectrum(r, N, spectra)
    Rs = _prefix_half_spectrum(s, N, spectra)
    # half_spectrum[j] = conj(P(z_j)); antipode P(-z_j) = conj(spec[N/2-j]).
    Fr = np.abs(Rr) ** 2
    Fs = np.abs(Rs) ** 2
    G = Fr + Fr[::-1]
    G += Fs + Fs[::-1]
    # P_s(z_j) = conj(Rs[j]) and P_r(-z_j) = Rr[N/2 - j], so the cross
    # term P_s(z) P_r(-z) - P_s(-z) P_r(z) mixes conjugated and
    # reversed spectra; its modulus is j <-> N/2 - j symmetric.
    H = np.conj(Rs) * Rr[::-1] - Rs[::-1] * np.conj(Rr)
    G += 2.0 * np.abs(H)
    M = float(np.max(G))
    er, es = eps_fp(r, N), eps_fp(s, N)
    slack = 2.0 * (abs_sq_slack(r, N) + abs_sq_slack(s, N))
    slack += 2.0 * (s * er + r * es + er * es)
    return _enclose_grid_sup(M, r + s, N, slack)


def g_dyadic(x: DyadicPoint, y: DyadicPoint, N: int,
             spectra: dict | None = None) -> Enclosure:
    """Enclosure of g(x, y) = 2^{-k} g(2^k x, 2^k y) at the common minimal
    scale k; ``spectra`` is passed on to g_int."""
    k = max(x.k, y.k)
    return g_int(x.scaled_numerator(k), y.scaled_numerator(k), N,
                 spectra).scale(0.5 ** k)
