"""One workload run in a fresh interpreter; run.py starts one per repetition.

    python3 certbench/worker.py --root ROOT --workload NAME --seed N
        --size full|smoke --trace 0|1 --out-dir DIR [--spans FILE]

Imports rsbounds from ROOT/src, makes the inputs, times the calls into
rsbounds, takes the peak RSS, then checks the outputs.  With --trace 1 the
layers are wrapped first and the spans are written to FILE at the end.
Prints one JSON line: cert_s, peak_rss_mb, checks, cli byte counts and,
when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from types import SimpleNamespace

from spans import Tracer, install, layer_metrics
from workloads import SIZES, WORKLOADS

MODULES = ('sequence', 'evaluate', 'norms', 'certify1d', 'certify2d',
           'experiments', 'cli')


def load_rsbounds(root: str) -> SimpleNamespace:
    """Import every rsbounds layer from ROOT/src, and no other copy."""
    src = os.path.join(root, 'src')
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(f'rsbounds.{name}')
            for name in MODULES}
    where = os.path.dirname(os.path.abspath(mods['cli'].__file__))
    if where != os.path.join(src, 'rsbounds'):
        raise ImportError(f'rsbounds imported from {where}, not {src}')
    return SimpleNamespace(stdout_bytes=0, **mods)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument('--root', required=True)
    ap.add_argument('--workload', choices=sorted(WORKLOADS), required=True)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--size', choices=sorted(SIZES), default='full')
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--out-dir', required=True)
    ap.add_argument('--spans')
    args = ap.parse_args()

    rs = load_rsbounds(os.path.abspath(args.root))
    make_inputs, run, check = WORKLOADS[args.workload]
    params = SIZES[args.size][args.workload]
    inputs = make_inputs(params, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer(f'{args.workload}-seed{args.seed}')
        install(rs, tracer)

    t0 = time.perf_counter()
    out = run(rs, params, inputs, args.out_dir)
    cert_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        checks = check(out, params, args.root)
    except (KeyError, TypeError, ValueError, OSError):
        # Output that cannot be parsed as expected is a failed check.
        traceback.print_exc()
        checks = [(f'{args.workload}.outputs_parse', False)]
    result = {
        'cert_s': cert_s,
        'peak_rss_mb': peak_rss_mb,
        'checks': checks,
        'cli.stdout_bytes': rs.stdout_bytes,
        'cli.file_bytes': dir_bytes(args.out_dir),
    }
    if tracer is not None:
        result['layers'] = layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main())
