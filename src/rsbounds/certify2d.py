"""Recursive dyadic-square certification of the two-variable bounds:
g(x, y) <= min(10(x+y), 40) on [0, 4]^2 and f(x, y) <= 10(y - x) on the
reduced parameter region, by corner evaluation plus the continuity bound.

A square of side 2^-k at scale k is split into its four children; each child
is certified from the adjacent parent corner (x, y) (so 2^k x and 2^k y are
integers and every child point is within 2^{-k-1} per axis) via

    sqrt(value_hi(x, y)) + 3 * 2^{-k/2} <= sqrt(target_min(child)),

where target_min is the exact rational infimum of the target over the child,
built as one Fraction from integers at the child's scale k (10 (r + s)
capped at 40 * 2^k for g, 10 (s - r - 1) for f2, over 2^k).  The test is
exact (norms._sqrt_sum_le): it reads corner_hi, 9 / 2^k and target_min
as integer ratios and cross-multiplies.
Children that fail are subdivided; at side 2^-max_scale they are marked bad.

Each child is one decision on its corner's objective, settled by the
norms engine (norms._grid_sup) with the grid as cap: it returns the
enclosure of the first grid level whose hi certifies the child or whose lo
fails the test, or of the cap.  A failing lo refutes the child on every
grid: lo <= true value <= hi on each level and the test is monotone in the
value, so the cap grid's hi could not certify it either.  The corner's last
enclosure is memoized and judged first for its next child, which refines
only if that leaves the child unsettled below the cap.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from fractions import Fraction

from .dyadic import DyadicPoint, lowest_terms
from .jsonfmt import dumps
from .norms import _sqrt_sum_le, decision, f2_dyadic, g_dyadic

STATUS_CERTIFIED = 'certified'
STATUS_BAD = 'bad'
STATUS_SUBDIVIDED = 'subdivided'

DEFAULT_MAX_SCALE = 6


@dataclass(frozen=True, slots=True)
class DyadicSquare:
    """[r/2^k, (r+1)/2^k] x [s/2^k, (s+1)/2^k]."""

    r: int
    s: int
    k: int

    def __post_init__(self):
        if self.k < 0 or self.r < 0 or self.s < 0:
            raise ValueError("dyadic square requires non-negative r, s, k")

    @property
    def x0(self) -> Fraction:
        return Fraction(self.r, 1 << self.k)

    @property
    def x1(self) -> Fraction:
        return Fraction(self.r + 1, 1 << self.k)

    @property
    def y0(self) -> Fraction:
        return Fraction(self.s, 1 << self.k)

    @property
    def y1(self) -> Fraction:
        return Fraction(self.s + 1, 1 << self.k)

    @property
    def side(self) -> Fraction:
        return Fraction(1, 1 << self.k)

    @property
    def parent_corner(self) -> tuple[int, int, int]:
        """The corner of the parent square (k >= 1) adjacent to this one,
        (cx, cy, k - 1) for the point (cx, cy) / 2^{k-1}."""
        return (self.r + 1) >> 1, (self.s + 1) >> 1, self.k - 1

    def children(self) -> list["DyadicSquare"]:
        """The four scale-(k+1) children."""
        return [DyadicSquare(2 * self.r + dr, 2 * self.s + ds, self.k + 1)
                for dr in (0, 1) for ds in (0, 1)]

    def contained_in(self, x0, y0, x1, y1) -> bool:
        return (self.x0 >= x0 and self.x1 <= x1
                and self.y0 >= y0 and self.y1 <= y1)


@dataclass(frozen=True, slots=True)
class SquareRecord:
    square: DyadicSquare
    status: str
    corner_hi: float | None = None
    target_min: Fraction | None = None
    N: int | None = None   # grid of the enclosure that decided the square

    @property
    def corner(self) -> tuple[Fraction, Fraction] | None:
        """The parent corner that decided the square; None if subdivided."""
        if self.corner_hi is not None:
            cx, cy, k = self.square.parent_corner
            return Fraction(cx, 1 << k), Fraction(cy, 1 << k)

    def to_dict(self) -> dict:
        sq = self.square
        d = {'k': sq.k, 'r': sq.r, 's': sq.s, 'status': self.status}
        if self.corner_hi is not None:
            # The corner's floats: int / int rounds as float(Fraction) does.
            cx, cy, k = sq.parent_corner
            d['corner'] = [cx / (1 << k), cy / (1 << k)]
            d['corner_hi'] = self.corner_hi
            d['target_min'] = float(self.target_min)
            d['N'] = self.N
        return d


@dataclass
class CertTree:
    roots: list[DyadicSquare]
    N: int   # grid cap; each record carries the grid that decided it
    max_scale: int
    kind: str
    records: list[SquareRecord] = field(default_factory=list)
    corner_evals: int = 0

    def by_status(self, status: str) -> list[SquareRecord]:
        return [r for r in self.records if r.status == status]

    @property
    def bad(self) -> list[SquareRecord]:
        return self.by_status(STATUS_BAD)

    @property
    def certified(self) -> list[SquareRecord]:
        return self.by_status(STATUS_CERTIFIED)

    @property
    def subdivided(self) -> list[SquareRecord]:
        return self.by_status(STATUS_SUBDIVIDED)

    def area_accounting(self) -> tuple[Fraction, Fraction]:
        """(covered leaf area, root area): equal when the tree is complete."""
        leaf = sum((r.square.side ** 2 for r in self.records
                    if r.status in (STATUS_CERTIFIED, STATUS_BAD)),
                   Fraction(0))
        root = sum((sq.side ** 2 for sq in self.roots), Fraction(0))
        return leaf, root

    def canonical(self) -> None:
        self.records.sort(key=lambda r: (r.square.k, r.square.r, r.square.s))

    def to_dict(self) -> dict:
        """The tree's document.  Its ``records`` is a one-shot ``map`` of
        SquareRecord.to_dict over the canonical records: each record's dict
        is made as it is written (jsonfmt writes a map as a list), and the
        map is empty after one pass."""
        self.canonical()
        return {
            'kind': self.kind,
            'N': self.N,
            'max_scale': self.max_scale,
            'roots': [[sq.r, sq.s, sq.k] for sq in self.roots],
            'summary': {
                'certified': len(self.certified),
                'subdivided': len(self.subdivided),
                'bad': len(self.bad),
                'corner_evals': self.corner_evals,
            },
            'records': map(SquareRecord.to_dict, self.records),
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def to_csv(self) -> str:
        """Square outcomes, one row per square: k, r, s, status."""
        self.canonical()
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(['k', 'r', 's', 'status'])
        for rec in self.records:
            w.writerow([rec.square.k, rec.square.r, rec.square.s, rec.status])
        return buf.getvalue()


def _certified(corner_hi: float, k: int, t_min: Fraction) -> bool:
    """Exact test of sqrt(corner_hi) + 3 * 2^{-k/2} <= sqrt(t_min)."""
    return _sqrt_sum_le(corner_hi, _nine_over(k), t_min)


@functools.lru_cache(maxsize=None)
def _nine_over(k: int) -> Fraction:
    """9 / 2^k, built once per scale."""
    return Fraction(9, 1 << k)


def _run(roots: list[DyadicSquare], enclose, target_min_fn, N: int,
         max_scale: int, kind: str) -> CertTree:
    """Level-synchronous subdivision.  ``enclose(x, y, N, decide)`` encloses
    the objective at the dyadic corner (x, y), settling ``decide`` with grid
    cap N (see norms._grid_sup)."""
    tree = CertTree(roots=list(roots), N=N, max_scale=max_scale, kind=kind)
    settled = {}   # corner in lowest terms -> its last enclosure
    frontier = sorted(roots, key=lambda sq: (sq.k, sq.r, sq.s))
    while frontier:
        next_frontier = []
        for sq in frontier:
            tree.records.append(SquareRecord(sq, STATUS_SUBDIVIDED))
            for child in sq.children():
                cx, cy, k = child.parent_corner
                key = lowest_terms(cx, cy, k)
                t_min = target_min_fn(child)
                decide = decision(lambda v: _certified(v, k, t_min))
                enc = settled.get(key)
                verdict = None if enc is None else decide(enc)
                if verdict is None and (enc is None or enc.N < N):
                    x, y = DyadicPoint(cx, k), DyadicPoint(cy, k)
                    enc = settled[key] = enclose(x, y, N, decide)
                    verdict = enc.verdict
                if verdict or child.k >= max_scale:
                    tree.records.append(SquareRecord(
                        child, STATUS_CERTIFIED if verdict else STATUS_BAD,
                        enc.hi, t_min, enc.N))
                else:
                    next_frontier.append(child)
        frontier = next_frontier
    tree.corner_evals = len(settled)
    tree.canonical()
    return tree


def _g_target_min(child: DyadicSquare) -> Fraction:
    """Infimum of min(10(x+y), 40) over the child (at its lower-left corner),
    10 (r + s) / 2^k capped at 40."""
    return Fraction(min(10 * (child.r + child.s), 40 << child.k), 1 << child.k)


def _run_g(roots: list[DyadicSquare], N: int, max_scale: int) -> CertTree:
    # One store of prefix spectra for every corner of the run.
    return _run(roots, functools.partial(g_dyadic, store={}),
                _g_target_min, N, max_scale, kind='g-bound')


def certify_square_g(sq: DyadicSquare, N: int,
                     max_scale: int = DEFAULT_MAX_SCALE) -> CertTree:
    """Certify g(x, y) <= min(10(x+y), 40) on one dyadic square in [0, 4]^2;
    N is the grid cap."""
    if not sq.contained_in(0, 0, 4, 4):
        raise ValueError(f"square {sq} not contained in [0, 4]^2")
    return _run_g([sq], N, max_scale)


def certify_g_full(N: int, max_scale: int = DEFAULT_MAX_SCALE) -> CertTree:
    """Certify the g bound over the whole of [0, 4]^2 (16 unit roots)."""
    return _run_g([DyadicSquare(r, s, 0) for r in range(4) for s in range(4)],
                  N, max_scale)


def square_interior_meets_B(sq: DyadicSquare) -> bool:
    """Exact test: does the open square meet the interior of the region
    B = ([0,2] x [0,4]) minus ([0,1] x [0,2]) minus ([0,2] x [0,1])?"""
    x0, x1 = max(sq.x0, Fraction(0)), min(sq.x1, Fraction(2))
    y0, y1 = max(sq.y0, Fraction(0)), min(sq.y1, Fraction(4))
    if x0 >= x1 or y0 >= y1:
        return False
    # Some open point must avoid both removed boxes: need y > 1 available,
    # and either x > 1 or y > 2 available.
    return y1 > 1 and (x1 > 1 or y1 > 2)


RED_REGION = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(3))
# (x0, y0, x1, y1) of the analytically handled region [1, 3/2] x [2, 3].


def check_exclusion_region(tree: CertTree) -> tuple[bool, list[SquareRecord]]:
    """Every bad square meeting the interior of B must lie (as a closed set)
    inside the analytically handled region [1, 3/2] x [2, 3]."""
    x0, y0, x1, y1 = RED_REGION
    violations = [rec for rec in tree.bad
                  if square_interior_meets_B(rec.square)
                  and not rec.square.contained_in(x0, y0, x1, y1)]
    return not violations, violations


F2_ROOTS = [(0, 2), (0, 3), (1, 3)]
# Unit squares of ([0,2] x [2,4]) minus the analytic region [1,2] x [2,3].


def _f2_target_min(child: DyadicSquare) -> Fraction:
    """Infimum of 10(y - x) over the child (at its lower-right corner),
    10 (s - r - 1) / 2^k."""
    return Fraction(10 * (child.s - child.r - 1), 1 << child.k)


def certify_f2(N: int, max_scale: int = DEFAULT_MAX_SCALE
               ) -> tuple[CertTree, bool]:
    """Certify f(x, y) <= 10(y - x) on ([0,2] x [2,4]) minus [1,2] x [2,3];
    N is the grid cap.

    The analytic region is excluded at the root level (region boundaries are
    integers), so the run is sound iff no bad squares remain at all.
    """
    roots = [DyadicSquare(r, s, 0) for r, s in F2_ROOTS]
    tree = _run(roots, f2_dyadic, _f2_target_min, N, max_scale,
                kind='f2-bound')
    return tree, not tree.bad

