"""Per-layer figures from the traced processes of one run.

Every traced process reports, on the probe's reference clock, the self
time of each span name, the time of each inclusive tag, call counts
and counters (see spans.py).  This module sums them over the processes
and names them as BENCHMARK.json does.

Layer self times add up: the self time of every span, summed per
module, plus the import time (`cli.startup_s`, part of `cli.s`) plus
`trace.unattributed_s` (time outside any span: interpreter start,
benchmark glue) equals `trace.total_s`, the traced processes' time.
The residual of that sum is printed as `trace.residual_s`.
"""

from __future__ import annotations

NONE = '(none)'
# spans whose `.s` is inclusive of their children (the layers they open)
INCLUSIVE = ('homotopy.theta_summands', 'smod.build_catalog')
MODULES = ('coxeter', 'hecke', 'coinvariants', 'exactla', 'smod', 'homotopy',
           'induction', 'serialize', 'cli')


def _add(into: dict, more: dict) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


def per_layer_metrics(traced_reports: list, traced_norm: float,
                      untraced_norm: float) -> dict:
    """Every per-layer figure of the run, by name."""
    self_s, tag_s, calls, tag_calls, counts, maxima = {}, {}, {}, {}, {}, {}
    startup = unattributed = total = 0.0
    for report in traced_reports:
        trace = report['trace']
        _add(self_s, trace['self_s'])
        _add(tag_s, trace['tag_s'])
        _add(calls, trace['calls'])
        _add(tag_calls, trace['tag_calls'])
        _add(counts, trace['counts'])
        for key, value in trace['maxima'].items():
            maxima[key] = max(maxima.get(key, value), value)
        startup += report['startup_s']
        unattributed += (trace['pre_trace_s'] - report['startup_s']
                         + trace['self_s'].get(NONE, 0.0))
        total += report['norm_s']

    out: dict = {}
    modules = dict.fromkeys(MODULES, 0.0)
    for name, seconds in self_s.items():
        if name == NONE:
            continue
        modules[name.split('.')[0]] += seconds
        if name in INCLUSIVE:
            out[f'{name}.self_s'] = seconds
            out[f'{name}.s'] = tag_s.get(name, 0.0)
        else:
            out[f'{name}.s'] = seconds
    for name, n in calls.items():
        out[f'{name}.calls'] = n
    for tag, seconds in tag_s.items():
        if tag.startswith('induction.'):
            out[f'{tag}.s'] = seconds
            out[f'{tag}.n'] = tag_calls.get(tag, 0)
    out.update(counts)
    out.update(maxima)
    summands = counts.get('smod.decompose.summands', 0)
    out['smod.decompose.end_solves_per_summand'] = (
        counts.get('smod.decompose.hom_space_calls', 0) / summands
        if summands else 0.0)
    modules['cli'] += startup
    for module, seconds in modules.items():
        out[f'{module}.s'] = seconds
    out['cli.startup_s'] = startup
    out['cli.processes'] = len(traced_reports)
    out['trace.unattributed_s'] = unattributed
    out['trace.total_s'] = total
    out['trace.residual_s'] = total - unattributed - sum(modules.values())
    out['trace.overhead_ratio'] = traced_norm / untraced_norm
    return out
