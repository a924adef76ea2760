"""Certified interval coverage for the one-dimensional bound on f(x), plus
the direct small-scale norm checks and the sweep of the sqrt(6n-2) - 1
sup-norm bound.

Certification rule.  At a dyadic center x = u / 2^k with upper enclosure
f_hi of f(x) and target T, the continuity estimate at dyadic anchors gives

    f(y) <= (sqrt(f(x)) + sqrt(f(|y - x|)))^2     for |y - x| <= 2^{-k-1},

and f(d) is bounded by scaling the piecewise envelope

    B0(v) = 6v on [1, 4/3],  8 on [4/3, 25/16],  9 on [25/16, 2]

into the octave containing d: B(d) = 2^{-t} B0(2^t d) with 2^t d in [1, 2],
taking the smaller value where two octaves meet.  B is nondecreasing, so the
certified radius is the largest r <= 2^{-k-1} with

    sqrt(f_hi) + sqrt(B(r)) <= sqrt(T - margin).

All comparisons are carried out in exact rational arithmetic: with rational
q and beta, sqrt(q) + sqrt(beta) <= sqrt(T') iff q + beta <= T' and
4 q beta <= (T' - q - beta)^2.  The binding constraint records which piece
of B0 (or the half-step cap) limited the radius.

Sup-norm sweep.  brute_onedim decides sup |P_{<n}|^2 <= (sqrt(6n-2) - 1)^2
(1 + 1e-6) for each n by one decision on the norms engine, so the grid
grows only for the n that need it.  An n the grid cap leaves undecided is
reported as unsettled and checked on the cap grid alone.  Only sharpness
points n = (2 4^k + 1)/3 stay unsettled: the bound is attained there, so
no finite grid certifies it exactly, and the tolerance takes a grid of
about 2200 n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .dyadic import DyadicPoint
from .evaluate import abs_sq_slack, segment_sum_pm1
from .norms import Enclosure, L_norm_sq, decision, f_dyadic, sup_norm_sq
from .sequence import Segment

BINDING_LINEAR = 'case-6x'
BINDING_EIGHT = 'case-8'
BINDING_NINE = 'case-9'
BINDING_HALFSTEP = 'half-step'

# Margin policy: every certified inequality must hold with slack at least
# MARGIN_FACTOR times the enclosure width of the f value used.
MARGIN_FACTOR = 2.0

# Dyadic refinement of the case-6x radius (absolute resolution 2^-_RADIUS_BITS).
_RADIUS_BITS = 48


@dataclass(frozen=True)
class CertRecord1D:
    center: DyadicPoint
    k: int
    f_lo: float
    f_hi: float
    target: float
    radius: Fraction
    binding: str
    status: str          # 'certified' | 'failed'

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        x = self.center.fraction
        return (x - self.radius, x + self.radius)

    def to_dict(self) -> dict:
        lo, hi = self.interval
        return {
            'center_binary': self.center.to_binary(),
            'center': float(self.center),
            'k': self.k,
            'f_lo': self.f_lo,
            'f_hi': self.f_hi,
            'target': self.target,
            'radius': float(self.radius),
            'interval': [float(lo), float(hi)],
            'interval_exact': [[lo.numerator, lo.denominator],
                               [hi.numerator, hi.denominator]],
            'binding': self.binding,
            'status': self.status,
        }


@dataclass
class CoverageReport:
    interval: tuple[Fraction, Fraction]
    target: float
    records: list[CertRecord1D]
    covered: bool
    gap_at: Fraction | None = None

    def to_dict(self) -> dict:
        a, b = self.interval
        return {
            'interval': [float(a), float(b)],
            'interval_exact': [[a.numerator, a.denominator],
                               [b.numerator, b.denominator]],
            'target': self.target,
            'covered': self.covered,
            'gap_at': None if self.gap_at is None else float(self.gap_at),
            'records': [r.to_dict() for r in self.records],
        }


def _sqrt_sum_le(q: Fraction, beta: Fraction, t: Fraction) -> bool:
    """Exact test of sqrt(q) + sqrt(beta) <= sqrt(t) for rationals >= 0."""
    if q + beta > t:
        return False
    rest = t - q - beta
    return 4 * q * beta <= rest * rest


def envelope_at(d: Fraction) -> Fraction:
    """Scaled piecewise envelope B(d) for 0 < d <= 1, minimal across the two
    octave representations at dyadic boundary points."""
    if d <= 0 or d > 1:
        raise ValueError("envelope is defined on (0, 1]")
    t = 0
    while d < Fraction(1, 1 << t):
        t += 1
    # Now 2^-t <= d <= 2^{1-t}; v = 2^t d in [1, 2].
    v = d * (1 << t)
    if v <= Fraction(4, 3):
        val = 6 * d
    elif v <= Fraction(25, 16):
        val = Fraction(8, 1 << t)
    else:
        val = Fraction(9, 1 << t)
    if v == 1:
        # The same point is the top of the octave below, whose 9-piece
        # gives the smaller (still valid) bound.
        val = min(val, Fraction(9, 2 << t))
    return val


def max_radius(center: DyadicPoint, target: float, N: int) -> CertRecord1D:
    """Largest certified radius around a dyadic center for f <= target."""
    enc = f_dyadic(center, N)
    k = center.k
    q = Fraction(enc.hi)
    t_eff = Fraction(target) - Fraction(MARGIN_FACTOR * enc.width)

    def ok(beta: Fraction) -> bool:
        return _sqrt_sum_le(q, beta, t_eff)

    def record(radius: Fraction, binding: str, status: str) -> CertRecord1D:
        return CertRecord1D(center=center, k=k, f_lo=enc.lo, f_hi=enc.hi,
                            target=target, radius=radius, binding=binding,
                            status=status)

    if not ok(Fraction(0)):
        return record(Fraction(0), '', 'failed')

    half = Fraction(1, 1 << (k + 1))
    if ok(envelope_at(half)):
        return record(half, BINDING_HALFSTEP, 'certified')

    for t in range(k + 2, k + 2 + 64):
        if ok(Fraction(9, 1 << t)):
            # Whole octave [2^-t, 2^{1-t}] admissible; capped by its 9-piece.
            return record(Fraction(2, 1 << t), BINDING_NINE, 'certified')
        if ok(Fraction(8, 1 << t)):
            return record(Fraction(25, 16 << t), BINDING_EIGHT, 'certified')
        if ok(Fraction(6, 1 << t)):
            # Invert the 6x piece: largest dyadic r in [2^-t, 4/3 2^-t)
            # with 6r admissible, at resolution 2^-_RADIUS_BITS.
            shift = _RADIUS_BITS - t
            lo_num = 1 << shift                       # r = 2^-t works
            hi_num = (4 << shift) // 3                # 4/3 2^-t fails
            while hi_num - lo_num > 1:
                mid = (lo_num + hi_num) // 2
                if ok(6 * Fraction(mid, 1 << _RADIUS_BITS)):
                    lo_num = mid
                else:
                    hi_num = mid
            return record(Fraction(lo_num, 1 << _RADIUS_BITS),
                          BINDING_LINEAR, 'certified')
    return record(Fraction(0), '', 'failed')


def certify_cover(interval: tuple[Fraction, Fraction], target: float,
                  centers: list[DyadicPoint], N: int) -> CoverageReport:
    """Certify f <= target on [a, b] by the union of certified intervals
    around the given centers; the coverage sweep is exact rational."""
    if not math.isfinite(target):
        raise ValueError(f"target {target!r} is not a finite number")
    a, b = Fraction(interval[0]), Fraction(interval[1])
    if a > b:
        raise ValueError(f"empty interval [{a}, {b}]")
    records = [max_radius(c, target, N) for c in centers]
    spans = sorted((r.interval for r in records if r.status == 'certified'),
                   key=lambda iv: iv[0])
    reach = a
    gap = None
    for lo, hi in spans:
        if lo > reach:
            break
        reach = max(reach, hi)
        if reach >= b:
            break
    covered = reach >= b
    if not covered:
        gap = reach
    return CoverageReport(interval=(a, b), target=target, records=records,
                          covered=covered, gap_at=gap)


def load_centers(source) -> list[DyadicPoint]:
    """Center list from a plain-text table, one binary dyadic string per
    line; '#' starts a comment."""
    points = []
    for raw in source:
        line = raw.split('#', 1)[0].strip()
        if line:
            points.append(DyadicPoint.from_binary(line))
    return points


def builtin_centers(table: int | str) -> list[DyadicPoint]:
    """Centers of the packaged anchor table 1 or 2 (also given as '1' or
    '2', the suffix of the CLI's builtin:1 and builtin:2)."""
    if str(table) not in ('1', '2'):
        raise ValueError(f"no built-in table {table!r}: use builtin:1 or "
                         "builtin:2")
    name = f"table{table}_centers.txt"
    text = resources.files('rsbounds.data').joinpath(name).read_text()
    return load_centers(text.splitlines())


@dataclass(frozen=True)
class SmallRangeRecord:
    """One (k, n) pair of the direct small-scale norm check.

    ok_L is the strict squared-L-norm comparison from the stated claim;
    ok_sup is the sup-norm bound that the surrounding induction actually
    needs.  It follows from ok_L (sup |P|^2 <= L), so sup_enc is None
    where ok_L holds; elsewhere it is a non-refutation grid check (the
    bound holds with equality at sharpness points, witnessed exactly by
    value_at_one).
    """

    k: int
    n: int
    bound: float
    L_enc: Enclosure
    sup_enc: Enclosure | None
    value_at_one: int
    ok_L: bool
    ok_sup: bool

    @property
    def ok(self) -> bool:
        return self.ok_L or self.ok_sup


_REFINE_CAP = 1 << 22


def check_smallk_L(kind: str) -> tuple[list[SmallRangeRecord], bool]:
    """Direct norm checks below the scales where the generic estimates take
    over.

    kind 'midrange': k <= 12, 11/8 2^k <= n <= 25/16 2^k, claimed strict
    bound 2^{(k+3)/2} - 1 on the L-norm.  kind 'upper': k <= 6,
    25/16 2^k <= n <= 2^{k+1}, claimed strict bound sqrt(6n-2) - 1.

    Each pair makes one decision on the L-norm on the norms engine, with
    grid cap _REFINE_CAP: it refines until the enclosure settles the test
    or the cap is reached.  The strict L comparison settles when hi clears
    or lo refutes the bound.  Where it certifies, so does the sup-norm
    bound: sup |P(z)|^2 <= sup (|P(z)|^2 + |P(-z)|^2) <= hi < bound^2.
    Only the other pairs make a sup-norm decision, a non-refutation check
    (ok unless lo exceeds the bound): the bound is attained with equality
    at the sharpness points, so no finite enclosure can certify it
    strictly there.  Both results are reported for every pair.
    """
    if kind == 'midrange':
        pairs = [(k, n) for k in range(13)
                 for n in range(math.ceil(11 * (1 << k) / 8),
                                math.floor(25 * (1 << k) / 16) + 1)]
        bound_of = lambda k, n: 2.0 ** ((k + 3) / 2) - 1.0
    elif kind == 'upper':
        pairs = [(k, n) for k in range(7)
                 for n in range(math.ceil(25 * (1 << k) / 16), (1 << (k + 1)) + 1)]
        bound_of = lambda k, n: math.sqrt(6 * n - 2) - 1.0
    else:
        raise ValueError(f"unknown kind {kind!r}")

    records = []
    for k, n in pairs:
        bound = bound_of(k, n)
        bound_sq = bound * bound
        seg = Segment(0, n)
        L = L_norm_sq(seg, _REFINE_CAP, decision(lambda v: v < bound_sq))
        ok_L = L.verdict is True
        sup = None if ok_L else sup_norm_sq(
            seg, _REFINE_CAP, decision(lambda v: v <= bound_sq))
        at_one, _ = segment_sum_pm1(seg)
        records.append(SmallRangeRecord(
            k=k, n=n, bound=bound, L_enc=L, sup_enc=sup, value_at_one=at_one,
            ok_L=ok_L, ok_sup=ok_L or sup.verdict is not False))
    return records, all(r.ok for r in records)


@dataclass
class BruteForceReport:
    n_max: int
    N: int
    worst_ratio: float
    worst_n: int
    failures: list[int] = field(default_factory=list)
    unsettled: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def brute_onedim(n_max: int, N: int) -> BruteForceReport:
    """Sweep the sqrt(6n-2) - 1 sup-norm bound for every 1 <= n <= n_max.

    Each n makes one decision on the norms engine, with grid cap N: is
    sup |P_{<n}|^2 <= T_n = (sqrt((6n-2)(1 + 1e-6)) - 1)^2?  The engine
    refines until the enclosure certifies it (hi <= T_n, off the grid
    too), refutes it (lo > T_n) or reaches N.  The n that N leaves
    undecided are reported in ``unsettled``; they fail when the cap-grid
    maximum plus its floating-point slack, lo + 2 s, exceeds T_n, which
    is the grid-only non-refutation test.  Only sharpness points
    n = (2 4^k + 1)/3 stay unsettled on a large enough N: the bound is
    attained there at z = 1, so no finite grid certifies it exactly, and
    hi <= T_n needs the off-grid correction below the 1e-6 tolerance,
    which takes N above about 2200 n.

    The worst ratio is (sqrt(M + s) + 1)^2 / (6n - 2), with M + s = lo + 2 s
    on the grid that decided n.  It reaches 1 at the sharpness points,
    which every grid contains, and stays below 1 elsewhere.
    """
    if N < max(4, 4 * n_max) or N & (N - 1):
        raise ValueError(f"grid size {N} is not a power of two >= "
                         f"4 * n_max = {4 * n_max}")
    worst, worst_n = 0.0, 0
    failures, unsettled = [], []
    for n in range(1, n_max + 1):
        bound_sq = (math.sqrt((6 * n - 2) * (1.0 + 1e-6)) - 1.0) ** 2
        enc = sup_norm_sq(Segment(0, n), N,
                          decision(lambda v: v <= bound_sq))
        upper = enc.lo + 2.0 * abs_sq_slack(n, enc.N)
        ratio = (math.sqrt(upper) + 1.0) ** 2 / (6 * n - 2)
        if ratio > worst:
            worst, worst_n = ratio, n
        if enc.verdict is None:
            unsettled.append(n)
        if enc.verdict is False or (enc.verdict is None and upper > bound_sq):
            failures.append(n)
    return BruteForceReport(n_max=n_max, N=N, worst_ratio=worst,
                            worst_n=worst_n, failures=failures,
                            unsettled=unsettled)

