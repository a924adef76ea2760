import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import rsbounds
from conftest import assert_steps_within_eps_fp
from rsbounds.certify2d import (CertTree, DyadicSquare, SquareRecord,
                                STATUS_BAD, _certified, _g_target_min,
                                certify_f2, certify_g_full, certify_square_g,
                                check_exclusion_region,
                                square_interior_meets_B)
from rsbounds.dyadic import DyadicPoint, lowest_terms
from rsbounds.norms import f2_dyadic, g_dyadic, g_int
from rsbounds.sequence import Segment, coeff_range


def test_square_geometry():
    sq = DyadicSquare(5, 12, 3)
    assert sq.x0 == Fraction(5, 8) and sq.x1 == Fraction(6, 8)
    assert sq.side == Fraction(1, 8)
    kids = sq.children()
    assert len(kids) == 4
    assert kids[0] == DyadicSquare(10, 24, 4)
    assert kids[0].parent_corner == (5, 12, 3)
    assert kids[3] == DyadicSquare(11, 25, 4)
    assert kids[3].parent_corner == (6, 13, 3)
    with pytest.raises(ValueError):
        DyadicSquare(-1, 0, 0)


def test_children_satisfy_corner_distance():
    sq = DyadicSquare(3, 2, 2)
    for child in sq.children():
        cx, cy, k = child.parent_corner
        assert k == sq.k
        x = Fraction(cx, 1 << k)
        y = Fraction(cy, 1 << k)
        half = Fraction(1, 1 << (sq.k + 1))
        assert max(abs(child.x0 - x), abs(child.x1 - x)) <= half
        assert max(abs(child.y0 - y), abs(child.y1 - y)) <= half


def test_certify_square_g_outside_domain():
    with pytest.raises(ValueError):
        certify_square_g(DyadicSquare(4, 0, 0), 1 << 12)


def test_near_origin_corner_forces_subdivision():
    # g(0, 1) = 2 and sqrt(2) + 3 > sqrt(10): the child of [0,1]x[1,2]
    # adjacent to (0, 1) cannot certify at scale 0
    tree = certify_square_g(DyadicSquare(0, 1, 0), 1 << 12, max_scale=2)
    child = [r for r in tree.records
             if r.square == DyadicSquare(0, 2, 1)]
    assert child and child[0].status == 'subdivided'
    assert g_dyadic(DyadicPoint(0, 0), DyadicPoint(1, 0), 1 << 12).contains(2.0)


def test_single_square_regression_3_3(no_fft):
    # frozen from the first validated run at this resolution, and taken
    # with no FFT: g's halves are built by the radix-2 recursion
    tree = certify_square_g(DyadicSquare(3, 3, 0), 1 << 14, max_scale=3)
    counts = (len(tree.certified), len(tree.subdivided), len(tree.bad))
    assert counts == (7, 20, 54)
    leaf, root = tree.area_accounting()
    assert leaf == root == 1


def test_f2_certifies_clean_at_moderate_grid():
    tree, ok = certify_f2(1 << 16, max_scale=6)
    assert ok and not tree.bad
    leaf, root = tree.area_accounting()
    assert leaf == root == 3


def test_f2_corner_values():
    N = 1 << 14
    assert f2_dyadic(DyadicPoint(0, 0), DyadicPoint(4, 0), N).contains(8.0)
    assert f2_dyadic(DyadicPoint(2, 0), DyadicPoint(2, 0), N).hi == 0.0


def test_determinism_across_runs():
    a = certify_square_g(DyadicSquare(1, 2, 0), 1 << 13, max_scale=4)
    b = certify_square_g(DyadicSquare(1, 2, 0), 1 << 13, max_scale=4)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()
    assert json.loads(a.to_json()) == a.to_dict()


def _decided_children(tree: CertTree):
    """(record, corner, t_min) for every non-root square, with the parent
    corner that decided it, at the parent's scale."""
    for rec in tree.records:
        sq = rec.square
        if sq.k == 0:
            continue
        x = DyadicPoint((sq.r + 1) >> 1, sq.k - 1)
        y = DyadicPoint((sq.s + 1) >> 1, sq.k - 1)
        yield rec, (x, y), _g_target_min(sq)


def test_escalation_loses_no_square_the_cap_certifies():
    cap = 1 << 13
    tree = certify_square_g(DyadicSquare(1, 2, 0), cap, max_scale=4)
    assert tree.N == cap and tree.bad and tree.subdivided
    seen = 0
    for rec, (x, y), t_min in _decided_children(tree):
        if rec.status == 'certified':
            continue
        seen += 1
        assert not _certified(g_dyadic(x, y, cap).hi, rec.square.k - 1, t_min)
    assert seen == len(tree.bad) + len(tree.subdivided) - 1


def test_certified_records_recertify_at_their_grid():
    cap = 1 << 13
    tree = certify_square_g(DyadicSquare(1, 2, 0), cap, max_scale=4)
    decided = [rec for rec in tree.records if rec.status != 'subdivided']
    assert decided and all(rec.N is not None for rec in decided)
    for rec in decided:
        assert rec.N & (rec.N - 1) == 0 and 64 <= rec.N <= cap
        assert rec.to_dict()['N'] == rec.N
    for rec, (x, y), t_min in _decided_children(tree):
        if rec.status == 'certified':
            hi = g_dyadic(x, y, rec.N).hi
            assert hi == rec.corner_hi
            assert _certified(hi, rec.square.k - 1, t_min)


def test_f2_records_reenclose_at_their_grid():
    """Each decided f2 record's corner_hi is what f2_dyadic gives with the
    record's N as cap, although its decision started at 8 n: the levels up
    to 64 n are taken whole, as on their own caps."""
    tree, ok = certify_f2(1 << 16, max_scale=6)
    decided = [rec for rec in tree.records if rec.corner is not None]
    assert ok and len(decided) == 234
    for rec in decided:
        x, y = (DyadicPoint.from_fraction(c) for c in rec.corner)
        assert f2_dyadic(x, y, rec.N).hi == rec.corner_hi, rec


def test_g_int_shared_spectra_match_fresh(no_fft):
    store = {}
    for r, s in [(5, 9), (9, 5), (9, 9), (12, 5), (0, 7)]:
        for N in (1 << 10, 1 << 12):
            assert g_int(r, s, N, store=store) \
                == g_int(r, s, N, store={}) == g_int(r, s, N)
    # g_int(9, 9, 2^12) takes level 0 on oversampled_grid(18) = 2^11, from
    # the spectra of the halves 5 and 4 of the prefix 9 on its w-grid 2^10,
    # which it reads as entries of the store, which holds no other kind
    # and no twiddle table.
    store = {}
    g_int(9, 9, 1 << 12, store=store)
    assert {(0, 5), (0, 4)} <= set(store[1 << 10])
    assert all(len(entry) == 2 and entry[0].shape == (M // 2 + 1,)
               for M, memo in store.items() for entry in memo.values())


def test_certify_g_split_steps_are_within_eps_fp(no_fft, whole_steps):
    """certify-g over [0, 4]^2 at the benchmark grid 2^16 takes no FFT,
    and every step of the recursion that builds its halves is within
    eps_fp: eps_radix2 <= eps_fp at every (prefix, grid) it visits.  The
    run's one store bounds itself to under 3 MiB (2.7 MiB read)."""
    tree = certify_g_full(1 << 16)
    assert check_exclusion_region(tree)[0]
    steps, held = whole_steps
    assert max(held) <= 3 << 20
    assert_steps_within_eps_fp(steps)


def test_certified_squares_survive_grid_doubling():
    tree = certify_square_g(DyadicSquare(1, 2, 0), 1 << 13, max_scale=4)
    sample = tree.certified[::7][:12]
    for rec in sample:
        x = DyadicPoint.from_fraction(rec.corner[0])
        y = DyadicPoint.from_fraction(rec.corner[1])
        hi2 = g_dyadic(x, y, 1 << 14).hi
        assert _certified(hi2, rec.square.k - 1, rec.target_min)


def test_g_to_scale_10_keeps_its_summary():
    """certify-g over [0, 4]^2 to scale 10 at the default cap 2^20 keeps
    this summary and passes the exclusion check, so a change to the g
    enclosure that moves a deep square fails here."""
    tree = certify_g_full(1 << 20, max_scale=10)
    assert (len(tree.bad), len(tree.certified), len(tree.subdivided),
            tree.corner_evals) == (331, 8679, 2998, 3757)
    assert check_exclusion_region(tree)[0]


@pytest.mark.skipif(not os.path.exists('/proc/self/status'),
                    reason='reads VmHWM from procfs')
def test_g_to_scale_10_peak_rss_in_a_fresh_interpreter():
    """certify-g to scale 10 at the default cap 2^20 raises a fresh
    interpreter's peak RSS by at most 75 MB over its own after the
    imports, and traces at most 53 MiB in another.  The rise read 56 MB,
    and 100 MB when g read one rfft per half prefix and kept every one,
    on Linux x86_64 (glibc 2.36) with CPython 3.11.7 and numpy 2.4.6;
    the allocator and numpy's version move it, and it read 54.8 or
    56.5 MB for the same code in two machine states.  The traced peak
    does not drift so: it read 51.4 MiB, and 50.9 MiB when every level
    above 2^16 read the twiddle table of N/2 at its stride.  The peak is
    VmHWM, that of the interpreter's own memory map, so the test needs
    procfs."""
    src = os.path.dirname(os.path.dirname(rsbounds.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get('PYTHONPATH')])))
    code = r'''
import re, sys, tracemalloc
from rsbounds.certify2d import certify_g_full

def peak():
    status = open('/proc/self/status').read()
    return int(re.search(r'VmHWM:\s*(\d+) kB', status)[1])

certify_g_full(1 << 10, max_scale=2)
traced = sys.argv[1] == 'traced'
if traced:
    tracemalloc.start()
before = peak()
tree = certify_g_full(1 << 20, max_scale=10)
print(len(tree.bad), tracemalloc.get_traced_memory()[1] / 2 ** 20 if traced
      else (peak() - before) / 1024)
'''
    for mode, bound in (('rss', 75.0), ('traced', 53.0)):
        out = subprocess.run([sys.executable, '-c', code, mode], env=env,
                             check=True, capture_output=True,
                             text=True).stdout.split()
        bad, reading = int(out[0]), float(out[1])
        assert bad == 331
        assert reading <= bound, (mode, reading)


def test_g_at_the_benchmark_grid_keeps_its_corner_count():
    """certify-g over [0, 4]^2 at the grid 2^16 encloses g at 1753 distinct
    corners, as at scale 10 it does at 3757."""
    assert certify_g_full(1 << 16).corner_evals == 1753


def test_corner_key_is_the_dyadic_pair():
    """For k <= 8 and every corner (cx, cy) / 2^k with cx, cy < 4 * 2^k,
    the integer key gives back the pair (DyadicPoint(cx, k),
    DyadicPoint(cy, k)), and the pair gives back the key, at the pair's
    joint minimal scale: so two corners get equal keys exactly when their
    pairs are equal, at any two scales."""
    pairs = [[(p.u, p.k) for p in map(DyadicPoint, range(4 << k),
                                        [k] * (4 << k))]
             for k in range(9)]
    for k in range(9):
        for cx in range(4 << k):
            ux, kx = x = pairs[k][cx]
            for cy in range(4 << k):
                uy, ky = y = pairs[k][cy]
                a, b, j = lowest_terms(cx, cy, k)
                m = max(kx, ky)
                assert (pairs[j][a], pairs[j][b], a, b, j) == (
                    x, y, ux << m - kx, uy << m - ky, m)


def test_square_interior_meets_B():
    # inside B proper
    assert square_interior_meets_B(DyadicSquare(80, 160, 6))
    # deep inside the lower notch
    assert not square_interior_meets_B(DyadicSquare(10, 10, 6))
    # inside [0,1] x [0,2] notch
    assert not square_interior_meets_B(DyadicSquare(0, 100, 6))
    # x beyond 2: outside B
    assert not square_interior_meets_B(DyadicSquare(160, 100, 6))
    # the strip x in (1, 2), y in (1, 2) belongs to B
    assert square_interior_meets_B(DyadicSquare(70, 70, 6))


def _tree_with_bad(square: DyadicSquare) -> CertTree:
    tree = CertTree(roots=[DyadicSquare(0, 0, 0)], N=1 << 12, max_scale=6,
                    kind='g-bound')
    tree.records.append(SquareRecord(square, STATUS_BAD))
    return tree


def test_exclusion_region_examples():
    # bad square near the critical point: inside the analytic region
    ok, viol = check_exclusion_region(_tree_with_bad(DyadicSquare(80, 160, 6)))
    assert ok and not viol
    # hypothetical bad square at (0.5, 3.0): inside B, outside the region
    ok, viol = check_exclusion_region(_tree_with_bad(DyadicSquare(32, 192, 6)))
    assert not ok and len(viol) == 1
    # empty bad set
    tree = CertTree(roots=[], N=1 << 12, max_scale=6, kind='g-bound')
    ok, viol = check_exclusion_region(tree)
    assert ok and not viol


def reflection_reduction_check(k: int) -> bool:
    """Exact check of the coefficient identity behind the mirror reduction
    that halves the 2-D parameter space:

        a_{2^{k+2}-1-i} = (-1)^{k+i} a_i    for 2^{k+1} <= i < 2^{k+2}.

    Summed over [m, n) it gives, with T = 2^{k+2},
    P_{[T-n, T-m)}(z) = (-1)^k z^{T-1} P_{[m, n)}(-1/z), so the two segments
    have equal L-norms for 2^{k+1} <= m <= n <= T.  Every index is checked
    in integer arithmetic.  The identity holds for every k (README): the
    (k+2)-bit complement of i turns its '11' pairs into '00' pairs, and of
    i's k + 1 adjacent pairs #00 + #11 + #changes = k + 1 with
    #changes = 1 + i (mod 2), so #00 = k + i + #11 (mod 2).
    """
    half = 1 << (k + 1)
    upper = coeff_range(Segment(half, 2 * half)).astype(np.int64)
    mirrored = coeff_range(Segment(0, half))[::-1].astype(np.int64)
    signs = (-1) ** k * (1 - 2 * (np.arange(half, 2 * half) % 2))
    return bool(np.array_equal(mirrored, signs * upper))


def test_reflection_reduction():
    for k in range(16):
        assert reflection_reduction_check(k)


def test_reflection_full_blocks():
    from rsbounds.norms import L_norm_sq

    for k in (1, 2, 3):
        top = 1 << (k + 2)
        a = L_norm_sq(Segment(1 << (k + 1), top), 1 << 12)
        b = L_norm_sq(Segment(0, 1 << (k + 1)), 1 << 12)
        assert a.contains(float(top)) and b.contains(float(top))


def test_csv_and_json_schema():
    tree = certify_square_g(DyadicSquare(0, 3, 0), 1 << 12, max_scale=2)
    lines = tree.to_csv().strip().splitlines()
    assert lines[0] == 'k,r,s,status'
    assert len(lines) == len(tree.records) + 1
    doc = json.loads(tree.to_json())
    assert doc['kind'] == 'g-bound'
    assert {r['status'] for r in doc['records']} <= {
        'certified', 'subdivided', 'bad'}
