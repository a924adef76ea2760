"""Certificate benchmark for rsbounds.

    python3 certbench/run.py --workload gcert|fcover|sweep --seed N
        --seconds S --trace 0|1

Run from the root of a source checkout; rsbounds is imported from src/.
Every repetition of a workload runs in a fresh interpreter (worker.py) with
its own temporary --out-dir under .certbench_work/.

Repetitions run until S seconds have passed, at least one.  With --trace 0
each repetition is preceded by SETUP_PER_REP timed fresh imports (setup_s),
and the end-to-end metrics are medians over the samples.  With --trace 1
each repetition is an untraced and a traced worker; the per-layer metrics
are medians over the traced ones, and trace.overhead_s is the median traced
minus the median untraced cert_s.

Every repetition checks its outputs.  A failed check, or a worker that did
not finish, counts in `failed`, sets `correct` to false and makes the exit
code 1.  The last line of stdout is the result object; the lines before it
record the environment and each metric's quartiles and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import SIZES, THREADS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, '.certbench_work')

END_TO_END = {
    'cert_s': 's',
    'setup_s': 's',
    'peak_rss_mb': 'MB',
    'pass_frac': 'ratio',
}

PER_LAYER = {
    'norms.g_int.calls': 'count',
    'norms.g_int.self_s': 's',
    'norms.prefix_reuse_ratio': 'ratio',
    'norms.oversample_median': 'ratio',
    'norms.L_norm_sq.calls': 'count',
    'norms.L_norm_sq.self_s': 's',
    'norms.sup_norm_sq.calls': 'count',
    'norms.sup_norm_sq.self_s': 's',
    'evaluate.half_spectrum.calls': 'count',
    'evaluate.half_spectrum.self_s': 's',
    'evaluate.half_spectrum.max_log2': 'log2',
    'evaluate.half_spectrum.bytes_computed': 'bytes',
    'sequence.coeff_range.calls': 'count',
    'sequence.coeff_range.self_s': 's',
    'certify1d.max_radius.calls': 'count',
    'certify1d.max_radius.self_s': 's',
    'certify1d.decide.calls': 'count',
    'certify1d.decide.self_s': 's',
    'certify1d.smallk_refine_ratio': 'ratio',
    'certify2d.self_s': 's',
    'certify2d.decide.calls': 'count',
    'certify2d.decide.self_s': 's',
    'certify2d.corner_evals': 'count',
    'certify2d.certified_ratio': 'ratio',
    'certify2d.frontier_max': 'count',
    'experiments.calls': 'count',
    'experiments.self_s': 's',
    'cli.serialize.self_s': 's',
    'cli.stdout_bytes': 'bytes',
    'cli.file_bytes': 'bytes',
    'trace.overhead_s': 's',
}

SETUP_PER_REP = 2     # set-up samples taken before each repetition
TIME_LIMIT_S = 170     # the whole run, set-up included, ends before this


def child_env() -> dict:
    env = dict(os.environ)
    env['PYTHONPATH'] = os.path.join(ROOT, 'src')
    return env


def git_commit() -> str:
    """HEAD of ROOT/.git if there is one, read without running git."""
    git = os.path.join(ROOT, '.git')
    try:
        with open(os.path.join(git, 'HEAD')) as fh:
            head = fh.read().strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, 'packed-refs')) as fh:
            for line in fh:
                if line.rstrip().endswith(' ' + ref):
                    return line.split()[0]
    except OSError:
        pass
    return 'unknown'


def cpu_model() -> str:
    try:
        with open('/proc/cpuinfo') as fh:
            for line in fh:
                if line.startswith('model name'):
                    return line.split(':', 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args) -> dict:
    import numpy
    params = SIZES[args.size][args.workload]
    return {
        'nproc': os.cpu_count(),
        'cpu_model': cpu_model(),
        'python': platform.python_version(),
        'numpy': numpy.__version__,
        'git_commit': git_commit(),
        'workload': args.workload,
        'size': args.size,
        'params': params,
        'threads': THREADS,
        'seed': args.seed,
        'seconds': args.seconds,
        'trace': args.trace,
    }


def time_setup(deadline: float) -> float:
    """Wall time of a fresh interpreter importing numpy and rsbounds.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, '-c', 'import numpy, rsbounds.cli'],
                   cwd=ROOT, env=child_env(), check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return time.perf_counter() - t0


def run_worker(args, trace: int, deadline: float) -> dict | None:
    """One repetition in a fresh interpreter; None if it did not finish."""
    tmp = tempfile.mkdtemp(prefix='rep-', dir=os.path.join(WORK, 'tmp'))
    cmd = [sys.executable, os.path.join(HERE, 'worker.py'),
           '--root', ROOT, '--workload', args.workload,
           '--seed', str(args.seed), '--size', args.size,
           '--trace', str(trace), '--out-dir', tmp]
    if trace:
        cmd += ['--spans', os.path.join(WORK, f'spans-{args.workload}.jsonl')]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f'worker timed out: {args.workload}', file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f'worker failed with exit code {proc.returncode}',
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {'median': med, 'q1': q1, 'q3': q3, 'n': len(values),
            'samples': values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', choices=sorted(WORKLOADS), required=True)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), required=True)
    ap.add_argument('--size', choices=sorted(SIZES), default='full',
                    help='smoke: tiny inputs for the benchmark tests')
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S

    needed = [os.path.join('src', 'rsbounds', 'cli.py'),
              os.path.join('tests', 'fixtures', 'gbound_tree_n20.json')]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f'not an rsbounds checkout, missing: {", ".join(missing)}',
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, 'tmp'), exist_ok=True)

    env = environment(args)
    if THREADS > (env['nproc'] or 1):
        print(f'warning: workloads use {THREADS} threads on '
              f'{env["nproc"]} cores', file=sys.stderr)
    print('environment ' + json.dumps(env, sort_keys=True))

    if not args.trace:
        time_setup(deadline)      # fills the byte-code cache; not timed
    setup, plain, traced = [], [], []
    attempted = failed = 0
    first = time.monotonic()
    while True:
        t0 = time.monotonic()
        if not args.trace:
            setup += [time_setup(deadline) for _ in range(SETUP_PER_REP)]
        for trace, reps in ((0, plain), (1, traced))[:1 + args.trace]:
            rep = run_worker(args, trace, deadline)
            checks = rep['checks'] if rep else [('worker finished', False)]
            for name, ok in checks:
                attempted += 1
                if not ok:
                    failed += 1
                    print(f'check failed: {name}', file=sys.stderr)
            if rep is None:
                break
            reps.append(rep)
        now = time.monotonic()
        if (rep is None or now - first >= args.seconds
                or now + (now - t0) > deadline):
            break

    if args.trace:
        samples = {k: [rep['layers'][k] for rep in traced]
                   for k in traced[0]['layers']} if traced else {}
        for k in ('cli.stdout_bytes', 'cli.file_bytes'):
            samples[k] = [rep[k] for rep in traced]
        units = PER_LAYER
    else:
        samples = {k: [rep[k] for rep in plain]
                   for k in ('cert_s', 'peak_rss_mb')}
        samples['setup_s'] = setup
        samples['pass_frac'] = [(attempted - failed) / attempted]
        units = END_TO_END
    stats = {k: quartiles(v) for k, v in samples.items() if v}
    metrics = {k: q['median'] for k, q in stats.items()}
    if plain and traced:
        metrics['trace.overhead_s'] = (
            statistics.median(rep['cert_s'] for rep in traced)
            - statistics.median(rep['cert_s'] for rep in plain))
    print('quartiles ' + json.dumps(stats, sort_keys=True))

    correct = failed == 0 and set(metrics) == set(units)
    print(json.dumps({
        'correct': correct,
        'attempted': attempted,
        'failed': failed,
        'metrics': {k: {'value': metrics[k], 'unit': u}
                    for k, u in units.items() if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
