"""Tests of the certificate benchmark itself, at the smoke size.

    python3 -m pytest certbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer metrics that count work rather than time it; they must repeat
# exactly between runs of the same code.
COUNTS = sorted(k for k in PER_LAYER if not k.endswith('_s'))


def bench_json() -> dict:
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as fh:
        return json.load(fh)


def worker(workload: str, out_dir: str) -> dict:
    os.makedirs(out_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, 'worker.py'), '--root', ROOT,
         '--workload', workload, '--seed', '7', '--size', 'smoke',
         '--trace', '1', '--out-dir', out_dir],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def runner(cwd: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join('certbench', 'run.py'),
         '--workload', 'sweep', '--seed', '3', '--seconds', '0',
         '--trace', str(trace), '--size', 'smoke'],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=120)


def test_tables_match_benchmark_json():
    doc = bench_json()
    assert [w['name'] for w in doc['workloads']] == list(WORKLOADS)
    assert {m['name']: m['unit'] for m in doc['end_to_end']} == END_TO_END
    assert {m['name']: m['unit'] for m in doc['per_layer']} == PER_LAYER


@pytest.mark.parametrize('workload', list(WORKLOADS))
def test_counts_repeat_exactly(workload, tmp_path):
    # Same-length output paths: the outputs embed the path.
    a = worker(workload, str(tmp_path / 'a'))
    b = worker(workload, str(tmp_path / 'b'))
    for rep in (a, b):
        assert rep['checks'] and all(ok for _, ok in rep['checks'])
        rep['layers'].update({k: rep[k] for k in
                              ('cli.stdout_bytes', 'cli.file_bytes')})
    assert {k: a['layers'][k] for k in COUNTS if k in a['layers']} == \
        {k: b['layers'][k] for k in COUNTS if k in b['layers']}


@pytest.mark.parametrize('trace', [0, 1])
def test_runner_prints_every_metric(trace):
    proc = runner(ROOT, trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ['attempted', 'correct', 'failed', 'metrics']
    assert result['correct'] and result['failed'] == 0
    assert result['attempted'] >= 1
    doc = bench_json()
    listed = doc['per_layer'] if trace else doc['end_to_end']
    assert {k: v['unit'] for k, v in result['metrics'].items()} == \
        {m['name']: m['unit'] for m in listed}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / 'certbench',
                    ignore=shutil.ignore_patterns('__pycache__'))
    shutil.copy(os.path.join(ROOT, 'BENCHMARK.json'), tmp_path)
    proc = runner(str(tmp_path), 0)
    assert proc.returncode != 0
    assert proc.stdout == ''
