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

Each test is exact, in integer arithmetic (norms._sqrt_sum_le).  B is
probed octave by octave from t = k + 2, whose 9-piece B(2^{-k-1}) =
9 / 2^{k+2} is the half-step cap; the 6x piece is inverted by bisection at
resolution 2^-48, or 2^-t in an octave t > 48.  The binding constraint
records which piece of B0 (or the half-step cap) limited the radius.  If
no octave down to t = k + 65 admits a radius but f_hi alone passes, the
center itself is certified, with radius 0 and binding 'center'.

Sup-norm sweep.  brute_onedim decides sqrt(sup |P_{<n}|^2) + 1 <=
sqrt((6n-2)(1 + 10^-6)) for each n by one decision on the norms engine,
so the grid grows only for the n that need it.  The prefix n is read from
its half prefixes on half the grid, and theirs from their own halves, by
the radix-2 recursion down to the exact prefixes 0 and 1
(norms.segment_spectra, memoized in one store, a dict): no FFT,
and an error bound derived end to end.
An n the grid cap leaves undecided is reported as unsettled and checked
on the cap grid alone.
Only sharpness points n = (2 4^k + 1)/3 stay unsettled: the bound is
attained there, so no finite grid certifies it exactly, and the
tolerance takes a grid of about 2200 n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .dyadic import DyadicPoint
from .evaluate import abs_sq_slack, segment_sum_pm1
from .norms import (Enclosure, L_norm_sq, _sqrt_sum_cmp, _sqrt_sum_le,
                    decision, f_dyadic, sup_norm_sq)
from .sequence import Segment

BINDING_LINEAR = 'case-6x'
BINDING_EIGHT = 'case-8'
BINDING_NINE = 'case-9'
BINDING_HALFSTEP = 'half-step'
BINDING_CENTER = 'center'

# Margin policy: every certified inequality must hold with slack at least
# MARGIN_FACTOR times the enclosure width of the f value used.
MARGIN_FACTOR = 2.0

# Dyadic refinement of the case-6x radius: absolute resolution
# 2^-_RADIUS_BITS, or 2^-t in an octave t below it.
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


def max_radius(center: DyadicPoint, target: float, N: int) -> CertRecord1D:
    """Largest certified radius around a dyadic center for f <= target."""
    enc = f_dyadic(center, N)
    k = center.k
    t_eff = Fraction(target) - Fraction(MARGIN_FACTOR * enc.width)

    def ok(beta: Fraction) -> bool:
        return _sqrt_sum_le(enc.hi, beta, t_eff)

    def record(radius: Fraction, binding: str, status: str) -> CertRecord1D:
        return CertRecord1D(center=center, k=k, f_lo=enc.lo, f_hi=enc.hi,
                            target=target, radius=radius, binding=binding,
                            status=status)

    if not ok(Fraction(0)):
        return record(Fraction(0), '', 'failed')

    for t in range(k + 2, k + 2 + 64):
        if ok(Fraction(9, 1 << t)):
            # Whole octave [2^-t, 2^{1-t}] admissible; capped by its
            # 9-piece, which at t = k + 2 is B at the half step 2^{-k-1}.
            return record(Fraction(2, 1 << t), BINDING_HALFSTEP
                          if t == k + 2 else BINDING_NINE, 'certified')
        if ok(Fraction(8, 1 << t)):
            return record(Fraction(25, 16 << t), BINDING_EIGHT, 'certified')
        if ok(Fraction(6, 1 << t)):
            # Invert the 6x piece: largest r = lo_num / 2^bits in
            # [2^-t, 4/3 2^-t) with 6r admissible.
            bits = max(_RADIUS_BITS, t)
            lo_num = 1 << (bits - t)                  # r = 2^-t works
            hi_num = (4 << (bits - t)) // 3           # 4/3 2^-t fails
            while hi_num - lo_num > 1:
                mid = (lo_num + hi_num) // 2
                if ok(Fraction(6 * mid, 1 << bits)):
                    lo_num = mid
                else:
                    hi_num = mid
            return record(Fraction(lo_num, 1 << bits),
                          BINDING_LINEAR, 'certified')
    # ok(0) holds: the point interval of the center is certified.
    return record(Fraction(0), BINDING_CENTER, 'certified')


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
    # [a, reach] is covered once a span contains a, and a span that
    # contains reach extends it; so a point is covered only by a span
    # that contains it.
    reach, covered = a, False
    for lo, hi in spans:
        if lo > reach or covered:
            break
        if hi >= reach:
            reach, covered = hi, hi >= b
    return CoverageReport(interval=(a, b), target=target, records=records,
                          covered=covered, gap_at=None if covered else reach)


def load_centers(table: str) -> list[DyadicPoint]:
    """Centers of a table named as on the command line: 'builtin:1' or
    'builtin:2', a packaged anchor table, or the path of a plain-text
    table.  Each line holds one point in DyadicPoint.parse's grammar,
    the command line's; '#' starts a comment."""
    if table.startswith('builtin:'):
        n = table[len('builtin:'):]
        if n not in ('1', '2'):
            raise ValueError(f"no built-in table {n!r}: use builtin:1 or "
                             "builtin:2")
        name = f"table{n}_centers.txt"
        text = resources.files('rsbounds.data').joinpath(name).read_text()
    else:
        with open(table) as fh:
            text = fh.read()
    lines = (raw.split('#', 1)[0].strip() for raw in text.splitlines())
    return [DyadicPoint.parse(line) for line in lines if line]


@dataclass(frozen=True)
class SmallRangeRecord:
    """One (k, n) pair of the direct small-scale norm check.

    ok_L is the strict L-norm comparison from the stated claim; ok_sup,
    the pair's verdict, is the sup-norm bound that the induction needs.
    It follows from ok_L (sup |P|^2 <= L), so sup_enc is None where ok_L
    holds; elsewhere it is a non-refutation grid check (the bound holds
    with equality at sharpness points, witnessed exactly by
    value_at_one, the integer P(1), which is None exactly where sup_enc
    is).  bound, a float, is for reporting only.
    """

    k: int
    n: int
    bound: float
    L_enc: Enclosure
    sup_enc: Enclosure | None
    value_at_one: int | None
    ok_L: bool
    ok_sup: bool


_REFINE_CAP = 1 << 22


def check_smallk_L(kind: str) -> tuple[list[SmallRangeRecord], bool]:
    """Direct norm checks below the scales where the generic estimates take
    over.

    kind 'midrange': k <= 12, 11/8 2^k <= n <= 25/16 2^k, t = 2^{k+3}.
    kind 'upper': k <= 6, 25/16 2^k <= n <= 2^{k+1}, t = 6n - 2.  The
    claimed strict L bound is sqrt(hi) + 1 < sqrt(t), the sup bound
    sqrt(v) + 1 <= sqrt(t), both decided exactly (_sqrt_sum_cmp).

    Each pair makes one decision on the L-norm on the norms engine, with
    grid cap _REFINE_CAP: it refines until the enclosure settles the test
    or the cap is reached.  The L objective of the prefix n is read from
    its half prefixes ceil(n/2) and floor(n/2), each an entry of one
    store, the dict memo of norms.segment_spectra: built by the radix-2
    recursion (evaluate.radix2_step) from the exact prefixes 0 and 1,
    with no FFT, within the same slack.  Consecutive n share
    entries, and the store drops those that no later pair reads.  The
    strict L comparison settles when hi clears or lo refutes the bound.
    Where it certifies, so does the sup-norm bound: sup |P(z)|^2 <=
    sup (|P(z)|^2 + |P(-z)|^2) <= hi.
    Only the other pairs make a sup-norm decision, a non-refutation check
    (ok unless lo exceeds the bound): the bound is attained with equality
    at the sharpness points, so no finite enclosure can certify it
    strictly there.  These read no store: norms.segment_spectra builds
    their spectra by the same recursion, streamed above the grid 2^15.
    Both results are reported for every pair.
    """
    if kind == 'midrange':
        pairs = [(k, n, 1 << (k + 3)) for k in range(13)
                 for n in range(math.ceil(11 * (1 << k) / 8),
                                math.floor(25 * (1 << k) / 16) + 1)]
    elif kind == 'upper':
        pairs = [(k, n, 6 * n - 2) for k in range(7)
                 for n in range(math.ceil(25 * (1 << k) / 16), (1 << (k + 1)) + 1)]
    else:
        raise ValueError(f"unknown kind {kind!r}")

    records, store = [], {}
    for k, n, t in pairs:
        seg = Segment(0, n)
        L = L_norm_sq(seg, _REFINE_CAP,
                      decision(lambda v: _sqrt_sum_cmp(v, 1, t) > 0),
                      store=store)
        ok_L = L.verdict is True
        sup = at_one = None
        if not ok_L:
            sup = sup_norm_sq(seg, _REFINE_CAP,
                              decision(lambda v: _sqrt_sum_le(v, 1, t)))
            at_one, _ = segment_sum_pm1(seg)
        records.append(SmallRangeRecord(
            k=k, n=n, bound=math.sqrt(t) - 1.0, L_enc=L, sup_enc=sup,
            value_at_one=at_one, ok_L=ok_L,
            ok_sup=ok_L or sup.verdict is not False))
    return records, all(r.ok_sup for r in records)


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
    sqrt(sup |P_{<n}|^2) + 1 <= sqrt(t_n), t_n = (6n-2)(1 + 10^-6) an
    exact rational?  The engine refines until the enclosure certifies it
    (hi passes, off the grid too), refutes it (lo fails) or reaches N,
    each by the exact test _sqrt_sum_le.  The n that N leaves undecided
    are reported in ``unsettled``; they fail when the cap-grid maximum
    plus its floating-point slack, lo + 2 s, fails the same test, which
    is the grid-only non-refutation test.  Only sharpness points
    n = (2 4^k + 1)/3 stay unsettled on a large enough N: the bound is
    attained there at z = 1, so no finite grid certifies it exactly, and
    hi passing needs the off-grid correction below the 10^-6 tolerance,
    which takes N above about 2200 n.

    The objective is read from entries of one store, the dict memo of
    norms.segment_spectra: the values of the prefix n on a grid come
    from those of its half prefixes ceil(n/2) and floor(n/2) on half that
    grid by evaluate.radix2_step, and theirs likewise, down to the exact
    prefixes 0 and 1.  No FFT is taken, and every value is within
    the same slack by induction (evaluate.eps_radix2).  The n are
    visited depth first in the tree of halves, each h followed by its
    children 2h - 1 and 2h, whose common half ceil(n/2) it is: a child
    reads h's entries on half its grids while the store still holds
    them, so each (prefix, grid) pair is built about once (2,097 steps
    for 2,078 pairs at n_max = 2048 on 2^15, against 3,952 in rising
    order).  On each grid the prefixes still come in rising order, but
    for the few halves that a decision refining past its first grid
    rebuilds, so the store's drop rule bounds it as in a rising sweep.
    The report lists n in rising order.

    The worst ratio is (sqrt(M + s) + 1)^2 / (6n - 2), with M + s = lo + 2 s
    on the grid that decided n.  It reaches 1 at the sharpness points,
    which every grid contains, and stays below 1 elsewhere.
    """
    if N < max(4, 4 * n_max) or N & (N - 1):
        raise ValueError(f"grid size {N} is not a power of two >= "
                         f"4 * n_max = {4 * n_max}")

    def holds(n: int):
        t_n = Fraction((6 * n - 2) * 1000001, 1000000)
        return lambda v: _sqrt_sum_le(v, 1, t_n)

    store, decided, stack = {}, {}, [1] if n_max else []
    while stack:
        n = stack.pop()
        stack += [c for c in (2 * n, 2 * n - 1) if n < c <= n_max]
        decided[n] = sup_norm_sq(Segment(0, n), N, decision(holds(n)),
                                 store=store)
    worst, worst_n = 0.0, 0
    failures, unsettled = [], []
    for n, enc in sorted(decided.items()):
        upper = enc.lo + 2.0 * abs_sq_slack(n, enc.N)
        ratio = (math.sqrt(upper) + 1.0) ** 2 / (6 * n - 2)
        if ratio > worst:
            worst, worst_n = ratio, n
        if enc.verdict is None:
            unsettled.append(n)
        if enc.verdict is False or (enc.verdict is None
                                    and not holds(n)(upper)):
            failures.append(n)
    return BruteForceReport(n_max=n_max, N=N, worst_ratio=worst,
                            worst_n=worst_n, failures=failures,
                            unsettled=unsettled)

