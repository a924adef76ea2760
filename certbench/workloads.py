"""The certificate workloads and the checks on their outputs.

Each workload is three functions, listed in ``WORKLOADS``:

- ``inputs(params, seed)`` makes the workload's inputs from the seed;
- ``run(rs, params, inputs, out_dir)`` makes every call into rsbounds and
  returns the raw outputs; the worker times exactly this call;
- ``check(outputs, params, root)`` returns ``(check name, passed)`` pairs
  and runs after the timed region.

Sizes: ``full`` is what the benchmark measures.  ``smoke`` keeps the same
calls and checks at inputs that run in about a second, for the
benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import numpy as np

# (binary anchor, printed f value) from the paper's two anchor tables.
TABLE_F = [
    ('1.011', 6.250000), ('1.01101', 6.491173), ('1.011011', 6.955324),
    ('1.0111', 6.625000), ('1.1', 5.000000),
    ('1.101', 5.971801), ('1.1011', 7.090947), ('1.10111', 7.284252),
    ('1.11', 6.500000), ('1.1101', 6.239011), ('10.', 4.000000),
]

# The two covers of the one-dimensional bound (criterion 2).
F_COVERS = [
    ('builtin:1', '7.92', ('11/8', '25/16')),
    ('builtin:2', '9', ('25/16', '10.')),
]

# Criterion-10 pairs of the dense-limit experiment.
DENSE_PAIRS = [(0, 1), (1, 2), (2, 3), (5, 8)]

SIZES = {
    'full': {
        # The whole [0, 4]^2 tree; identical to the 2^20 fixture tree.
        'gcert': {'grid_log2': 16, 'square': None},
        'fcover': {'grid_log2': 22, 'table_tol': 1e-5},
        'sweep': {'brute': (2048, 15), 'smallk': ('midrange', 'upper'),
                  'f2_grid_log2': 16, 'montgomery_ks': (6, 7, 8, 9),
                  'dense_kmax': 12, 'extra_dense': 4,
                  'sphere': (14, 4096), 'sphere_targets': 4},
    },
    'smoke': {
        # One subtree of the fixture that holds bad squares.
        'gcert': {'grid_log2': 16, 'square': (1, 2, 1)},
        'fcover': {'grid_log2': 20, 'table_tol': 1e-3},
        'sweep': {'brute': (256, 12), 'smallk': ('upper',),
                  'f2_grid_log2': 14, 'montgomery_ks': (6,),
                  'dense_kmax': 6, 'extra_dense': 2,
                  'sphere': (10, 256), 'sphere_targets': 2},
    },
}

THREADS = 1   # every workload runs single-threaded


def _cli(rs, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process and capture what it prints; the printed bytes
    add up in ``rs.stdout_bytes``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rs.cli.main(argv)
    stdout = buf.getvalue()
    rs.stdout_bytes += len(stdout.encode())
    return code, stdout


def _global_flags(grid_log2: int, out_dir: str) -> list[str]:
    return ['--grid-log2', str(grid_log2), '--threads', str(THREADS),
            '--out-dir', out_dir]


def _result(stdout: str) -> dict:
    return json.loads(stdout)['result']


def _file_matches_stdout(out_dir: str, name: str, stdout: str) -> bool:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        return fh.read() == stdout


# --- gcert -----------------------------------------------------------------

def run_gcert(rs, p: dict, inputs: dict, out_dir: str) -> dict:
    argv = _global_flags(p['grid_log2'], out_dir) + ['certify-g']
    if p['square']:
        argv += ['--square', *map(str, p['square'])]
    code, stdout = _cli(rs, argv)
    return {'code': code, 'stdout': stdout, 'out_dir': out_dir}


def _descends(sq: list[int], root: tuple[int, int, int]) -> bool:
    """Does the square [k, r, s] lie inside the root square (r, s, k)?"""
    k, r, s = sq
    rr, rs_, rk = root
    return k >= rk and r >> (k - rk) == rr and s >> (k - rk) == rs_


def check_gcert(out: dict, p: dict, root: str) -> list[tuple[str, bool]]:
    checks = [('gcert.exit_code', out['code'] == 0)]
    res = _result(out['stdout'])
    recs = res['records']
    by = {st: sorted([x['k'], x['r'], x['s']] for x in recs
                     if x['status'] == st)
          for st in ('subdivided', 'bad')}
    with open(os.path.join(root, 'tests', 'fixtures',
                           'gbound_tree_n20.json')) as fh:
        fixture = json.load(fh)
    square = p['square']
    for st in ('subdivided', 'bad'):
        want = sorted(fixture[st]) if square is None else sorted(
            sq for sq in fixture[st] if _descends(sq, tuple(square)))
        checks.append((f'gcert.{st}_equals_fixture', by[st] == want))
    checks.append(('gcert.exclusion_ok', res['exclusion_ok'] is True))
    leaf = sum((Fraction(1, 4 ** x['k']) for x in recs
                if x['status'] in ('certified', 'bad')), Fraction(0))
    rootarea = sum((Fraction(1, 4 ** k) for _, _, k in res['roots']),
                   Fraction(0))
    checks.append(('gcert.area_leaf_equals_root', leaf == rootarea))
    checks.append(('gcert.json_file_equals_stdout',
                   _file_matches_stdout(out['out_dir'], 'certify_g.json',
                                        out['stdout'])))
    return checks


# --- fcover ----------------------------------------------------------------

def run_fcover(rs, p: dict, inputs: dict, out_dir: str) -> dict:
    runs = []
    for table, target, (a, b) in F_COVERS:
        argv = _global_flags(p['grid_log2'], out_dir) + [
            'certify-f', '--table', table, '--target', target,
            '--interval', a, b]
        runs.append(_cli(rs, argv))
    return {'runs': runs}


def check_fcover(out: dict, p: dict, root: str) -> list[tuple[str, bool]]:
    checks = []
    mids = {}
    for (table, _, _), (code, stdout) in zip(F_COVERS, out['runs']):
        cov = _result(stdout)
        checks.append((f'fcover.{table}.exit_code', code == 0))
        checks.append((f'fcover.{table}.covered', cov['covered'] is True))
        for rec in cov['records']:
            mids[rec['center_binary']] = 0.5 * (rec['f_lo'] + rec['f_hi'])
    for binary, printed in TABLE_F:
        mid = mids.get(binary)
        checks.append((f'fcover.f_mid[{binary}]', mid is not None
                       and abs(mid - printed) <= p['table_tol']))
    return checks


# --- sweep -----------------------------------------------------------------

def sweep_inputs(p: dict, seed: int) -> dict:
    """The seed-driven inputs: extra dense pairs and sampler targets.

    Extra pairs keep fixed lengths 3 and 5 at random offsets, so their cost
    does not depend on the seed.
    """
    rng = np.random.default_rng(seed)
    extra = []
    for i in range(p['extra_dense']):
        m = int(rng.integers(0, 64))
        extra.append((m, m + (3, 5)[i % 2]))
    targets = []
    for _ in range(p['sphere_targets']):
        z = complex(np.exp(2j * np.pi * rng.random()))
        targets.append((z, _sphere_target(rng), int(rng.integers(1 << 31))))
    return {'dense_pairs': DENSE_PAIRS + extra, 'sphere': targets}


def _sphere_target(rng) -> tuple[complex, complex]:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return complex(v[0], v[1]), complex(v[2], v[3])


def run_sweep(rs, p: dict, inputs: dict, out_dir: str) -> dict:
    c1, ex = rs.certify1d, rs.experiments
    n_max, n_log2 = p['brute']
    out = {'brute': c1.brute_onedim(n_max, 1 << n_log2)}
    out['smallk'] = {kind: c1.check_smallk_L(kind)[1] for kind in p['smallk']}
    out['f2'] = _cli(rs, _global_flags(p['f2_grid_log2'], out_dir)
                     + ['certify-f2'])
    out['montgomery_point'] = ex.montgomery_counterexample(12)
    out['montgomery_grid'] = [
        ex.montgomery_counterexample(k, N=1 << max(16, 2 * k + 4))
        for k in p['montgomery_ks']]
    out['dense'] = [((m, n), ex.dense_limit_empirical(m, n, p['dense_kmax']))
                    for m, n in inputs['dense_pairs']]
    k, count = p['sphere']
    out['sphere'] = [ex.sphere_sampler(k, z, target, count, seed=s)
                     for z, target, s in inputs['sphere']]
    return out


def check_sweep(out: dict, p: dict, root: str) -> list[tuple[str, bool]]:
    brute = out['brute']
    checks = [('sweep.brute.ok', brute.ok),
              ('sweep.brute.sharp_ratio',
               abs(brute.worst_ratio - 1.0) <= 1e-6)]
    for kind, ok in out['smallk'].items():
        checks.append((f'sweep.smallk.{kind}.ok', ok))
    code, stdout = out['f2']
    f2 = _result(stdout)
    checks.append(('sweep.f2.exit_code', code == 0))
    checks.append(('sweep.f2.ok_no_bad',
                   f2['ok'] is True and f2['summary']['bad'] == 0))
    pt = out['montgomery_point']
    checks.append(('sweep.montgomery.k12_point',
                   9.90 <= pt.point_ratio <= 9.99 and pt.exceeds_nine))
    for rep in out['montgomery_grid']:
        checks.append((f'sweep.montgomery.k{rep.k}_grid_lo',
                       rep.grid_sup_ratio_lo > 9.0))
    for (m, n), rows in out['dense']:
        target = rows[0].target
        ok = all(r.ratio.lo <= target.hi + target.width + 1e-9 for r in rows)
        checks.append((f'sweep.dense[{m},{n}]', ok))
    for i, rep in enumerate(out['sphere']):
        checks.append((f'sweep.sphere[{i}]', rep.parseval_max_err <= 1e-9
                       and 0.0 <= rep.min_distance <= 2.0))
    return checks


def no_inputs(p: dict, seed: int) -> dict:
    """gcert and fcover are the paper's fixed certificates: the seed is
    recorded but drives nothing."""
    return {}


# name -> (make inputs from (params, seed), run, check)
WORKLOADS = {
    'gcert': (no_inputs, run_gcert, check_gcert),
    'fcover': (no_inputs, run_fcover, check_fcover),
    'sweep': (sweep_inputs, run_sweep, check_sweep),
}
