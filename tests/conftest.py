import math

import numpy as np
import pytest

import rsbounds.norms as norms
from rsbounds.evaluate import UNIT_ROUNDOFF, eps_fp, eps_radix2
from rsbounds.sequence import Segment, coeff_range


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
            held.append(store_bytes(store))
        return F

    monkeypatch.setattr(norms, 'segment_spectra', spy)
    return steps, held


def store_bytes(store: dict) -> int:
    """Bytes of the arrays a segment_spectra store holds, each counted
    once."""
    arrays = [a for memo in store.values() for entry in memo.values()
              for a in entry if a is not None]
    return sum({id(a): a.nbytes for a in arrays}.values())


def assert_steps_within_eps_fp(steps):
    """The induction behind the recursion's slack, at every ((m, n), M)
    it built: segments of length at most 1 are exact, and a step whose
    inputs err by at most eps_fp on M/2 errs by at most eps_radix2(L, M),
    L = n - m, which must not exceed eps_fp(L, M)."""
    assert steps
    for (m, n), M in set(steps):
        L = n - m
        assert L <= 1 or eps_radix2(L, M) <= eps_fp(L, M), ((m, n), M)


def eval_roots(seg: Segment, js, N: int) -> np.ndarray:
    """The tests' pairwise-sum oracle: sum_t a_{m+t} z_j^t at
    z_j = exp(2 pi i j / N) for every j in js.

    This is P_seg(z_j) without the twist z_j^m, so only moduli are
    meaningful, as for half_spectrum.  Phase indices j t mod N are reduced
    in exact integer arithmetic, the products with the +-1 coefficients are
    exact, and each row is summed by pairwise halving (zero-padded to a
    power of two), so each value errs by at most eps_direct(L) whatever the
    offset.  Work and memory are len(js) * L.
    """
    if N < 4 or N & (N - 1):
        raise ValueError(f"grid size {N} is not a power of two >= 4")
    js = np.asarray(js, dtype=np.int64) % N
    k = np.multiply.outer(js, np.arange(seg.length, dtype=np.int64)) % N
    k[2 * k > N] -= N
    theta = k * (2.0 * math.pi / N)
    a = coeff_range(seg).astype(np.float64)
    terms = np.zeros((len(js), 1 << (seg.length - 1).bit_length()), complex)
    terms[:, :seg.length] = np.cos(theta) * a + 1j * (np.sin(theta) * a)
    while terms.shape[1] > 1:
        half = terms.shape[1] // 2
        terms = terms[:, :half] + terms[:, half:]
    return terms[:, 0]


def eps_direct(length: int) -> float:
    """Per-value absolute error bound of eval_roots for a segment of the
    given length, on any power-of-two grid.

    Each phase is taken at |k| <= N/2 with k exact, so it is within 8u of
    the true one (evaluate._twiddles_at).  The coefficients are +-1, so the
    products are exact.  Pairwise summation passes each of the L terms of
    modulus <= 1 + 8u through h = ceil(log2 L) additions and errs by at
    most gamma_h L (1 + 8u) (Higham's bound on each component, combined by
    Minkowski's inequality), which is below sqrt(2) h L u.
    """
    if length <= 0:
        return 0.0
    h = (length - 1).bit_length()
    return length * (math.sqrt(2.0) * h + 8.0) * UNIT_ROUNDOFF


def stored_spectrum(n: int, M: int):
    """The store entry (R, |R|^2) of the prefix n on the M-grid, built by
    segment_spectra with a fresh store."""
    store = {}
    F = norms.segment_spectra([Segment(0, n)], M, store=store)
    R, power = store[M][0, n]
    assert F is power
    return R, power
