"""Properties of the prefix-spectrum store: the sup and L enclosures of a
prefix read from its split entries decide alike, on the same grids, as
those taken from whole-prefix FFTs, for prefixes n <= 1024 on every grid
the engine accepts."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rsbounds.certify1d import _sqrt_sum_cmp
from rsbounds.evaluate import eps_fp, eps_radix2, half_spectrum
from rsbounds.norms import PrefixSpectra, L_norm_sq, decision, sup_norm_sq
from rsbounds.sequence import Segment

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=80, derandomize=True, database=None,
                    deadline=None)


def _close(a, b):
    """Endpoints within 1e-14 relative; the grid and verdict equal."""
    return ((a.N, a.verdict) == (b.N, b.verdict)
            and all(math.isclose(x, y, rel_tol=1e-14, abs_tol=0.0)
                    for x, y in ((a.lo, b.lo), (a.hi, b.hi))))


@SETTINGS
@given(st.integers(0, 1024), st.integers(0, 4), st.sampled_from(
    [None, 'sweep', 'strict', 'scaled']))
@example(171, 0, 'sweep')        # sharp: attained at z = 1, unsettled
@example(683, 1, 'strict')
@example(1, 0, None)             # the engine's least grid, 4
@example(0, 0, 'scaled')
@example(3, 0, 'strict')
def test_store_decides_as_whole_prefix_ffts(n, extra, kind):
    """sup_norm_sq and L_norm_sq of the prefix n, with a store that
    already served the prefix n - 1 and without one: the same verdict and
    grid N, lo and hi within 1e-14 relative, on every grid the engine
    accepts, from its least, 4 max(n, 1), up.  The decisions are the
    sweep's (sqrt(v) + 1 <= sqrt((6n - 2)(1 + 10^-6))), the small-k strict
    claim at t = 6n - 2, and v <= 4.5 n; None asks for the cap grid."""
    N = 1 << (4 * max(n, 1) - 1).bit_length() << extra
    t = 6 * n - 2
    decide = {
        None: None,
        'sweep': decision(lambda v: _sqrt_sum_cmp(
            v, 1, Fraction(t * 1000001, 1000000)) >= 0),
        'strict': decision(lambda v: _sqrt_sum_cmp(v, 1, t) > 0),
        'scaled': decision(lambda v: v <= 4.5 * n),
    }[kind]
    store, visits = PrefixSpectra(), set()
    entry = store._split_entry
    store._split_entry = lambda j, M: visits.add((j, M)) or entry(j, M)
    for norm in (sup_norm_sq, L_norm_sq):
        if n > 0:
            norm(Segment(0, n - 1), N, decide, store=store)
        got = norm(Segment(0, n), N, decide, store=store)
        want = norm(Segment(0, n), N, decide)
        assert _close(got, want), (norm.__name__, got, want)
    # The induction behind the split values' slack, at every step taken:
    # inputs within eps_fp on M/2 give values within eps_radix2 <= eps_fp.
    for j, M in visits:
        assert j <= 1 or eps_radix2(j, M) <= eps_fp(j, M), (j, M)


@SETTINGS
@given(st.integers(0, 1024), st.integers(0, 4))
def test_split_entry_matches_whole_prefix_fft(n, extra):
    """A split entry and its power are half_spectrum of the whole prefix,
    and its square modulus, within 2 eps_fp; those of the prefixes 0 and
    1, the recursion's base, equal them exactly."""
    M = max(4, 1 << (4 * n - 1).bit_length()) << extra
    R, power = PrefixSpectra().split(n, M)
    want = half_spectrum(Segment(0, n), M)
    assert R.shape == want.shape
    assert np.max(np.abs(R - want)) <= (2 * eps_fp(n, M) if n > 1 else 0.0)
    assert np.array_equal(power, np.abs(R) ** 2)
