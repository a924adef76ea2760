import pytest

import rsbounds.norms as norms
from rsbounds.evaluate import eps_fp, eps_radix2


@pytest.fixture
def no_fft(monkeypatch):
    """norms.half_spectrum, the only FFT that norms could take, fails the
    test if called."""
    monkeypatch.setattr(norms, 'half_spectrum', lambda seg, N: pytest.fail(
        f'FFT of {seg} on grid {N}'))


@pytest.fixture
def split_visits(monkeypatch):
    """Record every (prefix, grid) that the split recursion of
    norms.PrefixSpectra visits, and the store's bytes after each split
    entry a caller reads."""
    visits, held = [], []
    entry, split = norms.PrefixSpectra._split_entry, norms.PrefixSpectra.split
    monkeypatch.setattr(norms.PrefixSpectra, '_split_entry',
                        lambda store, n, N: visits.append((n, N))
                        or entry(store, n, N))
    monkeypatch.setattr(norms.PrefixSpectra, 'split', lambda store, n, N: (
        split(store, n, N), held.append(store.nbytes))[0])
    return visits, held


def assert_split_bound_holds(visits):
    """The induction behind the split values' slack, at every (j, M) the
    recursion visited: the prefixes 0 and 1 are exact, and a step whose
    inputs err by at most eps_fp on M/2 errs by at most eps_radix2(j, M),
    which must not exceed eps_fp(j, M)."""
    assert visits
    for j, M in set(visits):
        assert j <= 1 or eps_radix2(j, M) <= eps_fp(j, M), (j, M)
