"""Run one measured process: speed probe, optional tracer, then the program.

Usage: python3 perfbench/launch.py SPEC.json

The spec (written by run.py) says what to run:
  mode     "cli" calls soergelind.cli.main(argv); "fill" fills a cache
           directory through soergelind.induction.make_setup for each
           group; "import" only imports the package.
  argv     arguments for the cli mode
  groups   [[family, rank, [subset...]], ...]: for "fill", the groups to
           set up; for "cli", if present, the corpus `verify` sweeps
  cache_dir, trace, report, spawned_at (the parent's perf_counter at
  spawn; on Linux it is CLOCK_MONOTONIC, shared by all processes)

The probe starts before the package is imported and stops after the
program returns; the report (JSON) carries the number of samples, the
reference-clock times, the raw wall time, the exit code, the peak RSS
and, when traced, the tracer's rollup.  The exit code is the program's.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback

from probe import Probe, ProbeError, clock, raw_time, reference_between, \
    reference_time, slowdown


def restrict_corpus(induction, groups) -> None:
    """Make `verify --corpus full` sweep only the given groups."""
    chosen = [(f, r, tuple(sub)) for f, r, sub in groups]

    def corpus_groups(scope='full'):
        return list(chosen)

    induction.corpus_groups = corpus_groups


def main(spec_path: str) -> int:
    started = clock()
    probe = Probe()
    probe.start()
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    code = 3
    error = None
    imported = started
    try:
        import_start = clock()
        import soergelind.cli
        import soergelind.induction
        imported = clock()
        if spec.get('trace'):
            from spans import Tracer, install
            tracer = Tracer(probe.samples)
            install(tracer)
        mode = spec['mode']
        if mode == 'import':
            code = 0
        elif mode == 'fill':
            for family, rank, subset in spec['groups']:
                soergelind.induction.make_setup(family, rank, tuple(subset),
                                                spec['cache_dir'])
            code = 0
        elif mode == 'cli':
            if spec.get('groups'):
                restrict_corpus(soergelind.induction, spec['groups'])
            entry = soergelind.cli.main
            if tracer is not None:
                entry = tracer.wrap(entry, 'cli.main')
            code = entry(spec['argv'])
        else:
            raise ValueError(f'unknown mode {mode!r}')
    except Exception:  # reported to the parent, which counts a failure
        error = traceback.format_exc()
        code = 3
    finally:
        if tracer is not None:
            tracer.close()
        probe.stop()
    samples = probe.samples
    report = {'code': code, 'error': error,
              'samples': len(samples),
              'peak_rss_kb': resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    try:
        report['norm_s'] = (reference_time(samples)
                            + reference_between(samples, spec['spawned_at'],
                                                started))
        report['startup_s'] = reference_between(samples, import_start,
                                                imported)
        report['interp_s'] = reference_between(samples, spec['spawned_at'],
                                               started)
        report['raw_wall_s'] = raw_time(samples) + started - spec['spawned_at']
        report['slowdown'] = slowdown(samples)
        if tracer is not None:
            report['trace'] = tracer.rollup()
            report['trace']['pre_trace_s'] = reference_between(
                samples, spec['spawned_at'], tracer.started)
    except ProbeError as exc:
        report['error'] = f'probe: {exc}'
        report['code'] = code or 3
    with open(spec['report'], 'w') as fh:
        json.dump(report, fh)
    return report['code']


if __name__ == '__main__':
    sys.exit(main(sys.argv[1]))
