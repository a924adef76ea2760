"""Span tracing of the rsbounds layers, from outside the program.

``install(rs, tracer)`` replaces each traced function, at every module
attribute through which rsbounds looks it up, by a wrapper that records a
span: name, start, end, parent span and run id.  The wrappers stay for the
life of the process.  Spans stay in memory until
``Tracer.write`` is called at the end of the run.  ``layer_metrics`` turns
the spans into the per-layer metrics.

Self time of a span is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.info: dict[int, object] = {}  # span index -> hook result
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Trace ``owner.attr`` as span ``name``.  ``hook(args, kwargs,
        result)``, if given, records extra data about the call in
        ``info``."""
        fn = getattr(owner, attr)
        spans, stack, info = self.spans, self._stack, self.info
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                info[idx] = hook(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        with open(path, 'w') as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({'id': i, 'name': name, 'start': start,
                                     'end': end, 'parent': parent,
                                     'run': self.run_id}) + '\n')


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _grid_of(args, kwargs, result) -> int:
    return _arg(args, kwargs, 1, 'N')


def _oversample_seg(args, kwargs, result) -> float | None:
    """N / (degree + 1) of a segment enclosure."""
    seg, N = _arg(args, kwargs, 0, 'seg'), _arg(args, kwargs, 1, 'N')
    return N / seg.length if seg.length else None


def _oversample_g(args, kwargs, result) -> float | None:
    """N / (degree + 1) of a g enclosure, whose degree is r + s."""
    r, s = _arg(args, kwargs, 0, 'r'), _arg(args, kwargs, 1, 's')
    N = _arg(args, kwargs, 2, 'N')
    return N / (r + s + 1) if r + s else None


def _frontier_max(tree) -> int:
    per_level = Counter(rec.square.k for rec in tree.records
                        if rec.status == 'subdivided')
    return max(per_level.values(), default=0)


def install(rs, tracer: Tracer) -> None:
    """Wrap the public functions of every layer, where they are looked up.

    ``rs`` has the rsbounds modules as attributes: sequence, evaluate,
    norms, certify1d, certify2d, experiments, cli.
    """
    seq, ev, norms = rs.sequence, rs.evaluate, rs.norms
    c1, c2, ex, cli = rs.certify1d, rs.certify2d, rs.experiments, rs.cli
    w = tracer.wrap

    for mod in (seq, ev, ex, cli):
        w(mod, 'coeff_range', 'sequence.coeff_range')
    for mod in (ev, norms):
        w(mod, 'half_spectrum', 'evaluate.half_spectrum', _grid_of)
    w(ev, 'eval_PQ', 'evaluate.eval_PQ')

    w(norms, '_prefix_half_spectrum', 'norms.prefix_lookup')
    w(norms, 'g_int', 'norms.g_int', _oversample_g)
    for mod in (norms, c1, ex):
        w(mod, 'L_norm_sq', 'norms.L_norm_sq', _oversample_seg)
        w(mod, 'sup_norm_sq', 'norms.sup_norm_sq', _oversample_seg)
    for mod in (norms, c2, cli):
        w(mod, 'f2_dyadic', 'norms.f2_dyadic')
        w(mod, 'g_dyadic', 'norms.g_dyadic')

    w(c1, 'max_radius', 'certify1d.max_radius')
    w(c1, '_sqrt_sum_le', 'certify1d.decide')
    w(c1, 'check_smallk_L', 'certify1d.check_smallk_L',
      lambda a, kw, r: len(r[0]))

    w(c2, '_run', 'certify2d.run',
      lambda a, kw, tree: (tree.corner_evals, _frontier_max(tree)))
    w(c2, '_certified', 'certify2d.decide', lambda a, kw, r: bool(r))

    for fn in ('critical_pair', 'extremal_values', 'tail_point',
               'tail_point_root', 'montgomery_counterexample',
               'L_ratio_lower', 'dense_limit_empirical', 'sphere_sampler',
               'random_sphere_target'):
        w(ex, fn, f'experiments.{fn}')

    w(cli, '_emit', 'cli.serialize')
    w(c2.CertTree, 'to_json', 'cli.serialize')
    w(c2.CertTree, 'to_csv', 'cli.serialize')


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Ratios over zero attempts, and maxima and medians over no calls, read
    0: the layer did no such work in the workload.
    """
    spans, info = tracer.spans, tracer.info
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]

    def parent_name(i: int) -> str:
        p = spans[i][3]
        return spans[p][0] if p >= 0 else ''

    def indices(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] == name]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in ('norms.g_int', 'norms.L_norm_sq', 'norms.sup_norm_sq',
                 'evaluate.half_spectrum', 'sequence.coeff_range',
                 'certify1d.max_radius', 'certify1d.decide',
                 'certify2d.decide'):
        m[f'{name}.calls'] = calls[name]
        m[f'{name}.self_s'] = self_s[name]

    spectra = indices('evaluate.half_spectrum')
    computed = sum(parent_name(i) == 'norms.prefix_lookup' for i in spectra)
    lookups = calls['norms.prefix_lookup']
    m['norms.prefix_reuse_ratio'] = ratio(lookups - computed, lookups)
    oversample = [info[i] for name in ('norms.g_int', 'norms.L_norm_sq',
                                       'norms.sup_norm_sq')
                  for i in indices(name)
                  if info[i] is not None and parent_name(i) != 'norms.g_int']
    m['norms.oversample_median'] = (statistics.median(oversample)
                                    if oversample else 0.0)

    grids = [info[i] for i in spectra]
    m['evaluate.half_spectrum.max_log2'] = max(
        (N.bit_length() - 1 for N in grids), default=0)
    m['evaluate.half_spectrum.bytes_computed'] = sum(
        8 * N + 16 * (N // 2 + 1) for N in grids)

    smallk = indices('certify1d.check_smallk_L')
    refine = sum(parent_name(i) == 'certify1d.check_smallk_L'
                 for i in indices('norms.L_norm_sq'))
    m['certify1d.smallk_refine_ratio'] = ratio(
        refine, sum(info[i] for i in smallk))

    runs = [info[i] for i in indices('certify2d.run')]
    m['certify2d.self_s'] = self_s['certify2d.run']
    m['certify2d.corner_evals'] = sum(evals for evals, _ in runs)
    m['certify2d.frontier_max'] = max((f for _, f in runs), default=0)
    decided = indices('certify2d.decide')
    m['certify2d.certified_ratio'] = ratio(
        sum(info[i] for i in decided), len(decided))

    experiments = [n for n in calls if n.startswith('experiments.')]
    m['experiments.calls'] = sum(calls[n] for n in experiments)
    m['experiments.self_s'] = sum(self_s[n] for n in experiments)
    m['cli.serialize.self_s'] = self_s['cli.serialize']
    return m
