import pytest

import rsbounds.norms as norms
from rsbounds.evaluate import eps_fp, eps_radix2
from rsbounds.sequence import Segment


@pytest.fixture
def no_fft(monkeypatch):
    """norms.half_spectrum, the only FFT that norms could take, fails the
    test if called."""
    monkeypatch.setattr(norms, 'half_spectrum', lambda seg, N: pytest.fail(
        f'FFT of {seg} on grid {N}'))


@pytest.fixture
def whole_steps(monkeypatch):
    """Record the segment (m, n) and grid M of every whole level's values
    that the recursion of norms.segment_spectra builds (_segment_values),
    and the bytes of the store after each call that reads one."""
    steps, held = [], []
    build, spectra = norms._segment_values, norms.segment_spectra
    monkeypatch.setattr(norms, '_segment_values',
                        lambda mn, halves, M, *rest: steps.append((mn, M))
                        or build(mn, halves, M, *rest))

    def spy(segs, N, peak=False, cross=None, store=None):
        F = spectra(segs, N, peak, cross, store)
        if store is not None:
            held.append(store.nbytes)
        return F

    monkeypatch.setattr(norms, 'segment_spectra', spy)
    return steps, held


def assert_steps_within_eps_fp(steps):
    """The induction behind the recursion's slack, at every ((m, n), M)
    it built: segments of length at most 1 are exact, and a step whose
    inputs err by at most eps_fp on M/2 errs by at most eps_radix2(L, M),
    L = n - m, which must not exceed eps_fp(L, M)."""
    assert steps
    for (m, n), M in set(steps):
        L = n - m
        assert L <= 1 or eps_radix2(L, M) <= eps_fp(L, M), ((m, n), M)


def stored_spectrum(n: int, M: int):
    """The store entry (R, |R|^2) of the prefix n on the M-grid, built by
    segment_spectra with a fresh store."""
    store = norms.PrefixSpectra()
    F = norms.segment_spectra([Segment(0, n)], M, store=store)
    R, power = store._entries[M][0, n]
    assert F is power
    return R, power
