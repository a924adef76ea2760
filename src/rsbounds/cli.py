"""Command-line front end.

Every subcommand prints a JSON document to stdout (and optionally writes
files under the configured output directory).  The embedded run
configuration plus fixed random seeds make outputs byte-identical across
runs apart from the generated_at timestamp.  Exit status 0 means every
certification or check in the invocation passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import sys
import time

from . import __version__
from .config import RunConfig
from .dyadic import DyadicPoint
from .norms import Enclosure, f2_dyadic, f_dyadic, g_dyadic, segment_spectra
from .sequence import DEFAULT_MAX_RANGE, Segment, coeff_range
from .evaluate import eval_point
from .jsonfmt import dump

SCHEMA_VERSION = 1

DYADIC_HELP = ("dyadic point: a fraction a/b with b a power of two, a "
               "decimal integer ('10' is ten), or binary with a point "
               "('10.' is two, '1.011' is 11/8)")


def _payload(cfg: RunConfig, command: str, result: dict) -> dict:
    return {
        'schema_version': SCHEMA_VERSION,
        'tool_version': __version__,
        'generated_at': time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime()),
        'config': cfg.to_dict(),
        'command': command,
        'result': result,
    }


def _emit(cfg: RunConfig, command: str, result: dict, ok: bool,
          out_name: str | None = None, table=None) -> int:
    """Print the command's document; with ``out_name`` the same text is
    first the out-dir file ``out_name``, and stdout is copied from it.
    ``table`` is a CSV file's name and text."""
    doc = _payload(cfg, command, result)
    with _written(cfg, doc, out_name, table) as fh:
        shutil.copyfileobj(fh, sys.stdout)
    return 0 if ok else 1


def _written(cfg: RunConfig, doc: dict, name: str | None, table=None):
    """The text of ``doc`` and a line end, encoded once and returned open
    at its start: the out-dir file ``name``, or a buffer in memory without
    a name.  The file is written as <name>.partial and renamed after its
    last byte.  The CSV ``table``, if any, is written in between, once the
    document has encoded: a document that fails to encode leaves no file,
    and a table that fails to write leaves no document."""
    if name is None:
        fh = io.StringIO()
    else:
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, name)
        partial = path + '.partial'
        fh = open(partial, 'w+', newline='')
    try:
        dump(doc, fh.write)
        fh.write('\n')
        fh.flush()
        if table is not None:
            _write_csv(cfg, *table)
        if name is not None:
            os.replace(partial, path)
    except BaseException:
        fh.close()
        if name is not None:
            os.remove(partial)
        raise
    fh.seek(0)
    return fh


def _enc_dict(enc: Enclosure) -> dict:
    return {'lo': enc.lo, 'hi': enc.hi, 'width': enc.width}


def _cmd_coeffs(cfg: RunConfig, args) -> int:
    signs = coeff_range(Segment(args.m, args.n))
    print(' '.join('+' if s > 0 else '-' for s in signs))
    return 0


def _cmd_eval(cfg: RunConfig, args) -> int:
    seg = Segment(args.m, args.n)
    if args.grid:
        # |P|^2 at z_j for j = 0 .. N/2; z_{N-j} has the same modulus.  A
        # segment longer than N/2 is built on 2N, whose even points are
        # the N-grid.
        N = cfg.N
        if seg.length > N:
            raise ValueError(f"segment length {seg.length} exceeds grid "
                             f"size {N}")
        M = N if 2 * seg.length <= N else 2 * N
        if M > DEFAULT_MAX_RANGE:
            raise ValueError(f"grid size {N}: a segment longer than N/2 "
                             f"needs the grid 2N = {M}, past the limit "
                             f"{DEFAULT_MAX_RANGE}")
        F = segment_spectra([seg], M)[::M // N]
        j = int(F.argmax())
        result = {
            'grid_log2': cfg.grid_log2,
            'max_abs': math.sqrt(F[j]),
            'argmax_index': j,
        }
        return _emit(cfg, 'eval', result, True)
    try:
        re, im = map(float, args.z.split(','))
    except ValueError:
        raise ValueError(
            f"--z takes a point as re,im, got {args.z!r}") from None
    val = eval_point(seg, complex(re, im))
    return _emit(cfg, 'eval', {'value': [val.real, val.imag]}, True)


def _cmd_point(cfg: RunConfig, args) -> int:
    """f, f2 or g: the objective's enclosure at the command's one or two
    dyadic points.  The objective is looked up on this module at each
    call, so a wrapper set on the module attribute is the one called."""
    objective = {'f': f_dyadic, 'f2': f2_dyadic, 'g': g_dyadic}[args.cmd]
    names = [n for n in ('x', 'y') if hasattr(args, n)]
    points = [DyadicPoint.parse(getattr(args, n)) for n in names]
    enc = objective(*points, cfg.N)
    result = {n: float(p) for n, p in zip(names, points)}
    result['enclosure'] = _enc_dict(enc)
    return _emit(cfg, args.cmd, result, True)


def _cmd_certify_f(cfg: RunConfig, args) -> int:
    from .certify1d import certify_cover, load_centers

    centers = load_centers(args.table)
    a = DyadicPoint.parse(args.interval[0]).fraction
    b = DyadicPoint.parse(args.interval[1]).fraction
    report = certify_cover((a, b), args.target, centers, cfg.N)
    return _emit(cfg, 'certify-f', report.to_dict(), report.covered,
                 out_name='certify_f.json')


def _cmd_certify_g(cfg: RunConfig, args) -> int:
    from .certify2d import (DyadicSquare, certify_g_full, certify_square_g,
                            check_exclusion_region)

    if args.square:
        r, s, k = args.square
        tree = certify_square_g(DyadicSquare(r, s, k), cfg.N, cfg.max_scale)
    else:
        tree = certify_g_full(cfg.N, cfg.max_scale)
    ok, violations = check_exclusion_region(tree)
    return _emit_tree(cfg, 'certify-g', tree, ok, {
        'exclusion_ok': ok, 'violations': [v.to_dict() for v in violations]})


def _cmd_certify_f2(cfg: RunConfig, args) -> int:
    from .certify2d import certify_f2

    tree, ok = certify_f2(cfg.N, cfg.max_scale)
    return _emit_tree(cfg, 'certify-f2', tree, ok, {'ok': ok})


def _emit_tree(cfg: RunConfig, command: str, tree, ok: bool,
               fields: dict) -> int:
    """A certificate tree's document, to_dict() plus the command's
    ``fields``, and its files <name>.json and then <name>_squares.csv,
    <name> being the command with '_' in place of '-'."""
    result = tree.to_dict()
    result.update(fields)
    name = command.replace('-', '_')
    return _emit(cfg, command, result, ok, out_name=f'{name}.json',
                 table=(f'{name}_squares.csv', tree.to_csv()))


def _cmd_extremal(cfg: RunConfig, args) -> int:
    from .experiments import ExtremalPair, extremal_values

    pair = ExtremalPair(args.k)
    at_one, at_minus_one = extremal_values(args.k)
    result = {'k': args.k, 'm': pair.m, 'n': pair.n,
              'value_at_one': at_one, 'value_at_minus_one': at_minus_one,
              'invariants_ok': pair.check_invariants()}
    return _emit(cfg, 'extremal', result, result['invariants_ok'])


def _cmd_montgomery(cfg: RunConfig, args) -> int:
    from .experiments import montgomery_counterexample

    grid_N = cfg.N if 2 * args.k + 2 <= cfg.grid_log2 else None
    rep = montgomery_counterexample(args.k, grid_N)
    result = {'k': rep.k, 'point_ratio': rep.point_ratio,
              'limit': rep.limit, 'exceeds_nine': rep.exceeds_nine,
              'grid_sup_ratio_hi': rep.grid_sup_ratio,
              'grid_sup_ratio_lo': rep.grid_sup_ratio_lo, 'grid_N': rep.N}
    return _emit(cfg, 'montgomery', result, True, table=(
        f'montgomery_{args.k}.csv', _csv_rows(
            [['k', 'ratio', 'target'], [rep.k, rep.point_ratio, rep.limit]])))


def _cmd_dense(cfg: RunConfig, args) -> int:
    from .experiments import dense_limit_empirical

    rows = dense_limit_empirical(args.m, args.n, args.kmax)
    target = rows[0].target
    hard_ok = all(r.ratio.lo <= target.hi + 1e-9 for r in rows)
    result = {
        'm': args.m, 'n': args.n,
        'target': _enc_dict(target),
        'rows': [{'k': r.k, 'ratio_lo': r.ratio.lo, 'ratio_hi': r.ratio.hi}
                 for r in rows],
        'hard_ok': hard_ok,
    }
    return _emit(cfg, 'dense', result, hard_ok, table=(
        f'dense_{args.m}_{args.n}.csv', _csv_rows(
            [['k', 'ratio_lo', 'ratio_hi', 'target_lo', 'target_hi']]
            + [[r.k, r.ratio.lo, r.ratio.hi, target.lo, target.hi]
               for r in rows])))


def _write_csv(cfg: RunConfig, name: str, body: str) -> None:
    """Write CSV text, line ends as given, to the file ``name`` under
    out_dir after a '# config:' comment line."""
    comment = '# config: ' + json.dumps(cfg.to_dict(), sort_keys=True)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, name), 'w', newline='') as fh:
        fh.write(comment + '\n' + body)


def _csv_rows(rows: list) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _cmd_figures(cfg: RunConfig, args) -> int:
    # f-curve over [1, 2] on a dyadic lattice of step 2^-8.
    rows = []
    for u in range(256, 513):
        x = DyadicPoint(u, 8)
        enc = f_dyadic(x, min(cfg.N, 1 << 20))
        rows.append([float(x), enc.lo, enc.hi])
    result = {'f_curve_points': len(rows), 'files': ['figure_f_curve.csv']}
    return _emit(cfg, 'figures', result, True, table=(
        'figure_f_curve.csv', _csv_rows([['x', 'f_lo', 'f_hi']] + rows)))


class _Parser(argparse.ArgumentParser):
    """Bad usage raises ValueError, which main() reports as a JSON error."""

    def error(self, message: str):
        raise ValueError(f'{self.prog}: {message}')


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog='rsbounds',
        description='Certified bounds for Rudin-Shapiro partial sums')
    ap.add_argument('--grid-log2', type=int, default=None,
                    help='log2 of the evaluation grid (default 20); the '
                    'grid cap for certify-g and certify-f2')
    ap.add_argument('--max-scale', type=int, default=None,
                    help='deepest dyadic subdivision scale (default 6)')
    ap.add_argument('--out-dir', default=None,
                    help=f'output directory (env {"RSBOUNDS_OUT_DIR"})')
    ap.add_argument('--threads', type=int, default=None,
                    help='accepted for compatibility; has no effect')
    sub = ap.add_subparsers(dest='cmd', required=True)

    p = sub.add_parser('coeffs', help='print signs a_m .. a_{n-1}')
    p.add_argument('m', type=int)
    p.add_argument('n', type=int)
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser('eval', help='evaluate a partial sum')
    p.add_argument('m', type=int)
    p.add_argument('n', type=int)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument('--z', help='point as re,im on the unit circle')
    g.add_argument('--grid', action='store_true',
                   help='batch evaluate on the configured grid')
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser('f', help='enclosure of f at a dyadic point')
    p.add_argument('x', help=DYADIC_HELP)
    p.set_defaults(fn=_cmd_point)

    p = sub.add_parser('f2', help='enclosure of f(x, y)')
    p.add_argument('x', help=DYADIC_HELP)
    p.add_argument('y', help=DYADIC_HELP)
    p.set_defaults(fn=_cmd_point)

    p = sub.add_parser('g', help='enclosure of g(x, y)')
    p.add_argument('x', help=DYADIC_HELP)
    p.add_argument('y', help=DYADIC_HELP)
    p.set_defaults(fn=_cmd_point)

    p = sub.add_parser('certify-f', help='interval coverage certification')
    p.add_argument('--table', default='builtin:1',
                   help="center list path or 'builtin:1' / 'builtin:2'")
    p.add_argument('--target', type=float, required=True)
    p.add_argument('--interval', nargs=2, required=True,
                   metavar=('A', 'B'),
                   help='endpoints; ' + DYADIC_HELP)
    p.set_defaults(fn=_cmd_certify_f)

    p = sub.add_parser('certify-g', help='dyadic-square bound on g')
    p.add_argument('--square', nargs=3, type=int, metavar=('R', 'S', 'K'),
                   help='restrict to one dyadic square (default [0,4]^2)')
    p.set_defaults(fn=_cmd_certify_g)

    p = sub.add_parser('certify-f2', help='dyadic-square bound on f(x, y)')
    p.set_defaults(fn=_cmd_certify_f2)

    p = sub.add_parser('extremal', help='exact critical-pair values')
    p.add_argument('--k', type=int, required=True)
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser('montgomery', help='critical tail ratio report')
    p.add_argument('--k', type=int, required=True)
    p.set_defaults(fn=_cmd_montgomery)

    p = sub.add_parser('dense', help='sup-to-L norm ratio sequence')
    p.add_argument('--m', type=int, required=True)
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--kmax', type=int, default=8)
    p.set_defaults(fn=_cmd_dense)

    p = sub.add_parser('figures', help='emit the f-curve CSV')
    p.set_defaults(fn=_cmd_figures)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {name: getattr(args, name) for name in
                     ('grid_log2', 'max_scale', 'out_dir')
                     if getattr(args, name) is not None}
        return args.fn(RunConfig(**overrides), args)
    except (ValueError, OSError) as exc:
        print(json.dumps({'error': str(exc), 'schema_version': SCHEMA_VERSION}),
              file=sys.stderr)
        return 2
