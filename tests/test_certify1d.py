import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import assert_steps_within_eps_fp
from rsbounds.certify1d import (BINDING_CENTER, BINDING_EIGHT,
                                BINDING_HALFSTEP, BINDING_LINEAR, BINDING_NINE,
                                brute_onedim, certify_cover, check_smallk_L,
                                load_centers, max_radius)
from rsbounds.dyadic import DyadicPoint
from rsbounds.evaluate import abs_sq_slack, half_spectrum, segment_sum_pm1
from rsbounds.norms import f_dyadic
from rsbounds.sequence import Segment

N = 1 << 20

# Printed anchor tables: (binary center, f value, interval, binding).
# The interval columns reproduce exactly at generation targets 7.93 / 9.0;
# the certified coverage targets are 7.92 / 9.0 (see test_acceptance).
TABLE1 = [
    ('1.011',    6.250000, (1.358355, 1.391645), BINDING_LINEAR),
    ('1.01101',  6.491173, (1.390625, 1.421875), BINDING_HALFSTEP),
    ('1.011011', 6.955324, (1.415772, 1.427978), BINDING_EIGHT),
    ('1.0111',   6.625000, (1.427730, 1.447270), BINDING_LINEAR),
    ('1.1',      5.000000, (1.437500, 1.562500), BINDING_NINE),
]
TABLE1_REPRO_TARGET = 7.93
TABLE2 = [
    ('1.101',   5.971801, (1.562500, 1.687500), BINDING_HALFSTEP),
    ('1.1011',  7.090947, (1.668559, 1.706441), BINDING_LINEAR),
    ('1.10111', 7.284252, (1.703125, 1.734375), BINDING_HALFSTEP),
    ('1.11',    6.500000, (1.716177, 1.783823), BINDING_LINEAR),
    ('1.1101',  6.239011, (1.781250, 1.843750), BINDING_HALFSTEP),
    ('10.',     4.000000, (1.833334, 2.166666), BINDING_LINEAR),
]
TABLE2_TARGET = 9.0


def envelope_at(d: Fraction) -> Fraction:
    """The tests' oracle for the scaled piecewise envelope B(d) of the
    certify1d docstring, 0 < d <= 1, minimal across the two octave
    representations at dyadic boundary points: max_radius probes B octave
    by octave, and its radii are checked against this closed form."""
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


def test_envelope_values():
    assert envelope_at(Fraction(1)) == Fraction(9, 2)
    assert envelope_at(Fraction(1, 4)) == Fraction(9, 8)
    assert envelope_at(Fraction(5, 4) / 4) == Fraction(6 * 5, 16)
    assert envelope_at(Fraction(3, 2) / 4) == Fraction(8, 4)
    assert envelope_at(Fraction(15, 8) / 4) == Fraction(9, 4)
    with pytest.raises(ValueError):
        envelope_at(Fraction(3, 2))


def test_envelope_nondecreasing():
    prev = Fraction(0)
    for num in range(1, 513):
        val = envelope_at(Fraction(num, 512))
        assert val >= prev
        prev = val


@pytest.mark.parametrize("binary,fval,interval,binding", TABLE1)
def test_max_radius_table1(binary, fval, interval, binding):
    rec = max_radius(DyadicPoint.parse(binary), TABLE1_REPRO_TARGET, N)
    assert rec.status == 'certified'
    assert rec.binding == binding
    assert rec.f_hi == pytest.approx(fval, abs=2e-6)
    lo, hi = rec.interval
    assert float(lo) == pytest.approx(interval[0], abs=1e-5)
    assert float(hi) == pytest.approx(interval[1], abs=1e-5)


@pytest.mark.parametrize("binary,fval,interval,binding", TABLE2)
def test_max_radius_table2(binary, fval, interval, binding):
    rec = max_radius(DyadicPoint.parse(binary), TABLE2_TARGET, N)
    assert rec.status == 'certified'
    assert rec.binding == binding
    assert rec.f_hi == pytest.approx(fval, abs=2e-6)
    lo, hi = rec.interval
    assert float(lo) == pytest.approx(interval[0], abs=1e-5)
    assert float(hi) == pytest.approx(interval[1], abs=1e-5)


def test_max_radius_specific_examples():
    rec = max_radius(DyadicPoint.parse('1.1'), 7.92, N)
    assert rec.radius == Fraction(1, 16) and rec.binding == BINDING_NINE
    rec = max_radius(DyadicPoint.parse('1.01101'), 7.92, N)
    assert rec.radius == Fraction(1, 64) and rec.binding == BINDING_HALFSTEP
    rec = max_radius(DyadicPoint.parse('1.011'), 7.92, N)
    assert rec.binding == BINDING_LINEAR


def test_max_radius_fails_when_target_below_f():
    rec = max_radius(DyadicPoint.parse('1.011011'), 6.0, N)
    assert rec.status == 'failed' and rec.radius == 0


def test_radius_within_half_step():
    for binary, *_ in TABLE1 + TABLE2:
        c = DyadicPoint.parse(binary)
        rec = max_radius(c, 9.0, N)
        assert rec.radius <= Fraction(1, 1 << (c.k + 1))


def test_certified_records_survive_grid_doubling():
    """Recompute the certified inequality at double resolution."""
    from rsbounds.certify1d import MARGIN_FACTOR, _sqrt_sum_le

    for binary, *_ in TABLE1[:3]:
        c = DyadicPoint.parse(binary)
        rec = max_radius(c, 7.92, N)
        assert rec.status == 'certified'
        enc2 = f_dyadic(c, 2 * N)
        t_eff = (Fraction(rec.target)
                 - Fraction(MARGIN_FACTOR * enc2.width))
        if rec.radius > 0:
            assert _sqrt_sum_le(Fraction(enc2.hi), envelope_at(rec.radius),
                                t_eff)


def _octave(r: Fraction) -> int:
    """The t with 2^-t <= r < 2^{1-t}."""
    t = 0
    while r < Fraction(1, 1 << t):
        t += 1
    return t


@pytest.mark.parametrize('binary,target,slack', [
    ('1.011', 7.92, None), ('1.0111', 7.92, None), ('1.1011', 9.0, None),
    ('10.', 9.0, None), ('1.011', None, 1e-4), ('1.011', None, 1e-7),
    ('10.', None, 1e-8), ('1.1011', None, 3e-7), ('1.11', None, 3e-9),
])
def test_case_6x_radius_is_maximal(binary, target, slack):
    """A case-6x radius r is the largest at resolution 2^-bits, bits =
    max(48, t) for its octave t: r passes the exact test and r + 2^-bits
    fails it, at the table targets (t <= 48) and at targets a slack above
    f_hi + 2 width.  A slack below 1e-6 binds the 6x piece below the
    2^-48 resolution (near 2^-54 at 1.011)."""
    from rsbounds.certify1d import MARGIN_FACTOR, _sqrt_sum_le

    c = DyadicPoint.parse(binary)
    if slack is not None:
        enc = f_dyadic(c, N)
        target = enc.hi + 2.0 * enc.width + slack
    rec = max_radius(c, target, N)
    assert rec.status == 'certified' and rec.binding == BINDING_LINEAR
    t = _octave(rec.radius)
    assert (t > 48) == (slack is not None and slack < 1e-6)
    step = Fraction(1, 1 << max(48, t))
    assert rec.radius % step == 0
    t_eff = Fraction(target) - Fraction(MARGIN_FACTOR * (rec.f_hi - rec.f_lo))
    assert _sqrt_sum_le(rec.f_hi, envelope_at(rec.radius), t_eff)
    assert not _sqrt_sum_le(rec.f_hi, envelope_at(rec.radius + step), t_eff)


@pytest.mark.parametrize('binary,slack', [('1.011', 1e-11), ('10.', 1e-9)])
def test_center_alone_is_certified_below_every_octave(binary, slack):
    """A target so close to f_hi + 2 width that no octave down to
    t = k + 65 admits a radius still certifies the center: a radius-0
    record with binding 'center', which covers the point interval of the
    center (11/8 and 2 here); the same search answered 'failed'."""
    from rsbounds.certify1d import MARGIN_FACTOR, _sqrt_sum_le

    c = DyadicPoint.parse(binary)
    enc = f_dyadic(c, N)
    target = enc.hi + 2.0 * enc.width + slack
    rec = max_radius(c, target, N)
    assert (rec.status, rec.radius, rec.binding) \
        == ('certified', 0, BINDING_CENTER)
    t_eff = Fraction(target) - Fraction(MARGIN_FACTOR * enc.width)
    assert _sqrt_sum_le(rec.f_hi, 0, t_eff)
    # The last octave's 6x piece at its foot 2^-(k + 65) fails.
    assert not _sqrt_sum_le(rec.f_hi, Fraction(6, 1 << (c.k + 65)), t_eff)
    p = c.fraction
    rep = certify_cover((p, p), target, [c], N)
    assert rep.covered and rep.gap_at is None


def test_certify_cover_tables():
    rep = certify_cover((Fraction(11, 8), Fraction(25, 16)), 7.92,
                        load_centers('builtin:1'), N)
    assert rep.covered and all(r.status == 'certified' for r in rep.records)
    rep = certify_cover((Fraction(25, 16), Fraction(2)), 9.0,
                        load_centers('builtin:2'), N)
    assert rep.covered


def test_certify_cover_failure_reports_gap():
    rep = certify_cover((Fraction(11, 8), Fraction(25, 16)), 6.0,
                        load_centers('builtin:1'), N)
    assert not rep.covered
    assert rep.gap_at is not None
    # f(1.421875) = 6.955 > 6 forces at least one failed record
    assert any(r.status == 'failed' for r in rep.records)


def test_certify_cover_point_needs_a_record_that_contains_it():
    """A point interval is covered only by a certified record around a
    center that contains it: f(3/2) = 5 fails every anchor at 0.5, and
    an empty table covers nothing, while 11/8 lies inside a record
    certified at 7.92."""
    p = Fraction(3, 2)
    for centers in (load_centers('builtin:1'), []):
        rep = certify_cover((p, p), 0.5, centers, 1 << 16)
        assert not rep.covered and rep.gap_at == p
    assert all(r.status == 'failed' for r in rep.records)
    p = Fraction(11, 8)
    rep = certify_cover((p, p), 7.92, load_centers('builtin:1'), 1 << 16)
    assert rep.covered and rep.gap_at is None


def test_certify_cover_rejects_bad_target_and_interval():
    for target in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            certify_cover((Fraction(11, 8), Fraction(25, 16)), target,
                          load_centers('builtin:1'), N)
    with pytest.raises(ValueError):
        certify_cover((Fraction(2), Fraction(1)), 9.0, load_centers('builtin:2'), N)


def test_coverage_json_roundtrip():
    rep = certify_cover((Fraction(11, 8), Fraction(25, 16)), 7.92,
                        load_centers('builtin:1'), N)
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc['covered'] is True
    assert len(doc['records']) == 5


def test_load_centers_from_text(tmp_path):
    p = tmp_path / 'centers.txt'
    p.write_text("# comment\n1.011\n\n1.1  # trailing\n")
    pts = load_centers(str(p))
    assert [float(x) for x in pts] == [1.375, 1.5]


@pytest.fixture(scope='module')
def smallk_records():
    return {kind: check_smallk_L(kind)[0] for kind in ('midrange', 'upper')}


def test_check_smallk_midrange_known_boundary_pairs(smallk_records):
    records = smallk_records['midrange']
    assert all(r.ok_sup for r in records)
    failures = {(r.k, r.n) for r in records if not r.ok_L}
    # exactly the two sharpness points sit on the range boundary and
    # exceed the strict L bound; the sup-norm bound holds with equality
    assert failures == {(1, 3), (3, 11)}
    for r in records:
        if not r.ok_L:
            assert r.ok_sup
            bound = r.bound
            assert r.value_at_one == round(bound)   # equality witness at z=1
        else:
            assert r.value_at_one is None and r.sup_enc is None


def test_check_smallk_upper_all_strict():
    records, ok = check_smallk_L('upper')
    assert ok and all(r.ok_L for r in records)
    k1 = [r for r in records if r.k == 1]
    assert [r.n for r in k1] == [4]
    assert math.sqrt(k1[0].L_enc.hi) < math.sqrt(22) - 1


def test_check_smallk_strict_claim_is_exact(monkeypatch):
    """The strict L claim at (k, n) = (2, 6) is sqrt(hi) + 1 < sqrt(32),
    i.e. hi < 33 - 8 sqrt(2) = 21.686291501015239...: an enclosure with
    lo = hi = 21.68629150101524, a float just above that, refutes it,
    although it lies below the float 21.686291501015244 of
    (2^{5/2} - 1)^2.  The sup fallback then decides the pair."""
    import rsbounds.certify1d as c1
    from rsbounds.norms import Enclosure

    v = 21.68629150101524
    assert (33 - Fraction(v)) ** 2 < 128           # v > 33 - 8 sqrt(2)
    assert v < (2.0 ** 2.5 - 1.0) ** 2

    def stub(seg, N, decide, real=c1.L_norm_sq, **memo):
        if seg != Segment(0, 6):
            return real(seg, N, decide, **memo)
        enc = Enclosure(v, v, N)
        return Enclosure(v, v, N, decide(enc))
    monkeypatch.setattr(c1, 'L_norm_sq', stub)
    records, ok = check_smallk_L('midrange')
    (r,) = [r for r in records if (r.k, r.n) == (2, 6)]
    assert r.L_enc.verdict is False and not r.ok_L
    assert r.sup_enc is not None and r.ok_sup and ok


def test_check_smallk_one_decision_per_norm_and_pair(monkeypatch, no_fft,
                                                     whole_steps):
    """Each pair makes exactly one L_norm_sq call, at the grid cap and
    with a decision: the grid policy lives in norms.  Only the two pairs
    whose L decision fails, (1, 3) and (3, 11), make a sup_norm_sq
    decision; they read no store, so theirs are the only spectra that
    segment_spectra builds without one, and no FFT is taken at all.  The
    L objective of the prefix n is read from its half prefixes ceil(n/2)
    and floor(n/2) on the half grid, entries of one store, built by the
    radix-2 recursion down to the exact prefixes 0 and 1, within eps_fp
    at every step.  The store bounds itself to under 3 MiB."""
    import rsbounds.certify1d as c1
    import rsbounds.norms as norms

    calls = []
    for name in ('L_norm_sq', 'sup_norm_sq'):
        def spy(seg, N, decide=None, real=getattr(c1, name), name=name,
                **memo):
            calls.append((name, seg, N, decide is not None))
            return real(seg, N, decide, **memo)
        monkeypatch.setattr(c1, name, spy)
    built, real = [], norms.segment_spectra

    def spectra(segs, N, peak=False, cross=None, store=None):
        if store is None:
            built.extend(segs)
        return real(segs, N, peak, cross, store)

    monkeypatch.setattr(norms, 'segment_spectra', spectra)
    steps, held = whole_steps
    for kind, sup_ns in (('midrange', (3, 11)), ('upper', ())):
        calls.clear()
        built.clear()
        held.clear()
        records, ok = check_smallk_L(kind)
        assert ok, kind
        assert Counter(calls) == Counter(
            [('L_norm_sq', Segment(0, r.n), c1._REFINE_CAP, True)
             for r in records]
            + [('sup_norm_sq', Segment(0, n), c1._REFINE_CAP, True)
               for n in sup_ns])
        assert set(built) == {Segment(0, n) for n in sup_ns}
        assert len(held) >= len(records) and max(held) <= 3 << 20
    assert_steps_within_eps_fp(steps)


def test_brute_onedim_takes_no_fft(no_fft, whole_steps):
    """The sweep reads each n's sup objective from a store entry, built by
    the radix-2 recursion from the exact prefixes 0 and 1: the
    benchmark's sweep settles as with FFTs and takes none, every step of
    the recursion is within eps_fp, and its store stays under 2.5 MiB.
    Visited depth first, it builds each (prefix, grid) pair about once:
    2,097 whole steps for 2,078 pairs (3,952 in rising order), besides
    the steps that gather the refined points (segment_points)."""
    report = brute_onedim(2048, 1 << 15)
    assert report.ok and report.unsettled == [43, 171, 683]
    steps, held = whole_steps
    assert len(held) >= 2048 and max(held) <= 5 << 19
    whole = [(mn, M) for mn, M in steps if mn[1] - mn[0] > 1]
    assert len(whole) <= 1.02 * len(set(whole))
    assert_steps_within_eps_fp(steps)


def test_check_smallk_L_bound_implies_sup_bound(smallk_records):
    """A pair whose L decision certifies skips its sup decision, since
    sup |P|^2 <= L: a fresh sup decision at the cap certifies it too, on
    every 'upper' pair and a seeded sample of 200 certified 'midrange'
    pairs.  The two pairs whose L decision fails record the enclosure of
    a fresh sup decision, unsettled at the cap."""
    from rsbounds.certify1d import _REFINE_CAP
    from rsbounds.norms import decision, sup_norm_sq

    certified = [r for r in smallk_records['midrange'] if r.ok_L]
    sample = random.Random(6).sample(certified, 200)
    for r in smallk_records['upper'] + sample:
        assert r.ok_L and r.ok_sup and r.sup_enc is None, (r.k, r.n)
        bound_sq = r.bound * r.bound
        sup = sup_norm_sq(Segment(0, r.n), _REFINE_CAP,
                          decision(lambda v: v <= bound_sq * (1.0 + 1e-12)))
        assert sup.verdict is True, (r.k, r.n)
    failing = [r for r in smallk_records['midrange'] if not r.ok_L]
    assert [(r.k, r.n) for r in failing] == [(1, 3), (3, 11)]
    for r in failing:
        bound_sq = r.bound * r.bound
        sup = sup_norm_sq(Segment(0, r.n), _REFINE_CAP,
                          decision(lambda v: v <= bound_sq * (1.0 + 1e-12)))
        got = r.sup_enc
        assert ((got.lo, got.hi, got.N, got.verdict)
                == (sup.lo, sup.hi, _REFINE_CAP, None)), (r.k, r.n)
        assert got.contains(bound_sq)   # attained at z = 1


def test_check_smallk_midrange_k0_vacuous(smallk_records):
    assert not [r for r in smallk_records['midrange'] if r.k == 0]


def _grid_sweep(n_max, N):
    """The grid-only sweep: each n fails when its N-grid maximum plus the
    floating-point slack gives a ratio above 1 + 1e-6.  Returns the
    failures and the worst ratio with its n."""
    failures, worst, worst_n = [], 0.0, 0
    for n in range(1, n_max + 1):
        R = half_spectrum(Segment(0, n), N)
        M = float(np.max(np.abs(R) ** 2)) + abs_sq_slack(n, N)
        ratio = (math.sqrt(M) + 1.0) ** 2 / (6 * n - 2)
        if ratio > worst:
            worst, worst_n = ratio, n
        if ratio > 1.0 + 1e-6:
            failures.append(n)
    return failures, worst, worst_n


SHARP = {(2 * 4 ** k + 1) // 3 for k in range(12)}


def test_brute_onedim_small():
    rep = brute_onedim(128, 1 << 12)
    assert rep.ok
    assert rep.worst_ratio <= 1.0 + 1e-6
    # ratio reaches 1 at the sharpness points 1, 3, 11, 43
    assert rep.worst_ratio > 1.0 - 1e-9
    assert rep.worst_n in (1, 3, 11, 43)


def test_brute_onedim_matches_grid_sweep():
    """No n that the grid-only sweep passes fails on the engine, and the
    worst ratio and its n agree."""
    n_max, N = 512, 1 << 14
    failures, worst, worst_n = _grid_sweep(n_max, N)
    rep = brute_onedim(n_max, N)
    assert not set(rep.failures) - set(failures)
    assert rep.worst_n == worst_n
    assert abs(rep.worst_ratio - worst) <= 1e-12


@pytest.mark.parametrize('n_max, log2_N', [(128, 12), (2048, 15)])
def test_brute_onedim_leaves_only_sharp_n_unsettled(n_max, log2_N):
    rep = brute_onedim(n_max, 1 << log2_N)
    assert rep.unsettled and set(rep.unsettled) <= SHARP
    assert rep.ok


@pytest.mark.parametrize('n_max, N', [(64, 128), (64, 255), (64, 384), (1, 2)])
def test_brute_onedim_needs_a_power_of_two_grid(n_max, N):
    with pytest.raises(ValueError):
        brute_onedim(n_max, N)


def test_sharpness_witnesses_exact():
    for k in range(0, 11):
        n = (2 * 4 ** k + 1) // 3
        at_one, _ = segment_sum_pm1(Segment(0, n))
        assert at_one == 2 ** (k + 1) - 1
        assert 6 * n - 2 == 4 ** (k + 1)
