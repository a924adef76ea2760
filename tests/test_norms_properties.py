"""Properties of the prefix-spectrum store: the sup and L enclosures of a
prefix read from its store entries decide alike, on the same grids and
to the last bit, as those built without a store, for prefixes n <= 1024
on every grid the engine accepts up to 2^16, and for three longer ones up
to 2^20."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import rsbounds.norms as norms
from rsbounds.certify1d import _sqrt_sum_cmp
from rsbounds.evaluate import eps_fp, eps_radix2, half_spectrum
from rsbounds.norms import L_norm_sq, decision, sup_norm_sq
from rsbounds.sequence import Segment
from conftest import stored_spectrum

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=80, derandomize=True, database=None,
                    deadline=None)


def _key(enc):
    return enc.lo, enc.hi, enc.N, enc.verdict


def _above_kept_tables(test):
    """Explicit cases of ``test`` on the caps 2^17 to 2^20, above the
    grids whose twiddle tables evaluate.twiddles keeps: the prefixes 683
    (sharp), 1000 and 2047, with the cap grid's enclosure and with the
    sweep's decision.  Their whole levels reach 2^19 in z and 2^18 in w."""
    for n, least in ((683, 12), (1000, 12), (2047, 13)):
        for log_N in range(17, 21):
            for kind in (None, 'sweep'):
                test = example(n, log_N - least, kind)(test)
    return test


@SETTINGS
@given(st.integers(0, 1024), st.integers(0, 4), st.sampled_from(
    [None, 'sweep', 'strict', 'scaled']))
@example(171, 0, 'sweep')        # sharp: attained at z = 1, unsettled
@example(683, 1, 'strict')
@example(1, 0, None)             # the engine's least grid, 4
@example(0, 0, 'scaled')
@example(3, 0, 'strict')
@_above_kept_tables
def test_store_decides_as_whole_prefix_ffts(n, extra, kind):
    """sup_norm_sq and L_norm_sq of the prefix n, with a store that
    already served the prefix n - 1 and without one: the same lo, hi, grid
    N and verdict, bit for bit, on every grid the engine accepts, from its
    least, 4 max(n, 1), up.  A store holds every level whole and reads
    the tables of large grids as a call without one does, so the values
    are the same.  The decisions are the sweep's (sqrt(v) + 1 <=
    sqrt((6n - 2)(1 + 10^-6))), the small-k strict claim at t = 6n - 2,
    and v <= 4.5 n; None asks for the cap grid."""
    N = 1 << (4 * max(n, 1) - 1).bit_length() << extra
    t = 6 * n - 2
    decide = {
        None: None,
        'sweep': decision(lambda v: _sqrt_sum_cmp(
            v, 1, Fraction(t * 1000001, 1000000)) >= 0),
        'strict': decision(lambda v: _sqrt_sum_cmp(v, 1, t) > 0),
        'scaled': decision(lambda v: v <= 4.5 * n),
    }[kind]
    store, steps = {}, set()
    build = norms._segment_values
    with mock.patch.object(norms, '_segment_values',
                           lambda mn, halves, M, *rest: steps.add((mn, M))
                           or build(mn, halves, M, *rest)):
        for norm in (sup_norm_sq, L_norm_sq):
            if n > 0:
                norm(Segment(0, n - 1), N, decide, store=store)
            got = norm(Segment(0, n), N, decide, store=store)
            want = norm(Segment(0, n), N, decide)
            assert _key(got) == _key(want), (norm.__name__, got, want)
    # The induction behind the stored values' slack, at every step taken:
    # inputs within eps_fp on M/2 give values within eps_radix2 <= eps_fp.
    for (_, j), M in steps:
        assert j <= 1 or eps_radix2(j, M) <= eps_fp(j, M), (j, M)


@SETTINGS
@given(st.integers(0, 1024), st.integers(0, 4))
def test_split_entry_matches_whole_prefix_fft(n, extra):
    """A store entry and its power are half_spectrum of the whole prefix,
    and its square modulus, within 2 eps_fp; those of the prefixes 0 and
    1, the recursion's base, equal them exactly."""
    M = max(4, 1 << (4 * n - 1).bit_length()) << extra
    R, power = stored_spectrum(n, M)
    want = half_spectrum(Segment(0, n), M)
    assert R.shape == want.shape
    assert np.max(np.abs(R - want)) <= (2 * eps_fp(n, M) if n > 1 else 0.0)
    assert np.array_equal(power, np.abs(R) ** 2)
