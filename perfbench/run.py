"""Speed-normalized benchmark of the soergelind command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-light --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload indw-warm --seed 1 --seconds 15 --trace 1

Every measured command runs in its own process under perfbench/launch.py,
which samples a fixed Fraction kernel on a timer and rescales wall time
to seconds at a reference speed (see perfbench/probe.py and
perfbench/NOTES.md).  Outputs are compared with the digests recorded in
perfbench/expected.json.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a separate
traced pass with --trace 1.  The line before it holds the run's
environment record and the figures that are printed but not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probe import clock  # noqa: E402
from rollup import per_layer_metrics  # noqa: E402

EXPECTED = os.path.join(HERE, 'expected.json')
LAUNCH = os.path.join(HERE, 'launch.py')
# Raw wall seconds after which no command is started and a running one
# is killed, so that a run ends within three minutes.  A command cut off
# there is neither attempted nor failed; the run says so in its info
# line (`cut_off`) and reports what it measured before.
RUN_LIMIT_S = 170.0
# Set-ups per untraced run; setup_s is their median.  One import takes
# about 0.17 s and single ones spread by a fifth, hence many of them.
SETUP_REPS = {'verify-light': 21, 'indw-warm': 3}


def group_label(family, rank, subset) -> str:
    return f'{family}{rank}-I{"".join(str(i + 1) for i in subset) or "none"}'


def check_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(',', ':'))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def strip_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != 'timing'}


def verify_digests(output: dict) -> dict:
    """Digest of every check report of a `verify --json` file."""
    return {kind: [check_digest(strip_timing(r)) for r in reports]
            for kind, reports in output['checks'].items()}


def indw_digest(output: dict) -> str:
    """Digest of an `indw --json` file: the report without its timing,
    and the complex's terms.  Differential matrices are left out: they
    depend on the splitting basis, not only on the answer."""
    return check_digest({'report': strip_timing(output['report']),
                         'terms': output['complex']['terms']})


def query_key(query) -> str:
    group, x, w = query
    return f'{group_label(*group)} x={x or "e"} w={w}'


def draw_queries(population: list, seed: int, per_group: dict) -> list:
    """A seeded draw stratified by (type, I) group.

    Within a group the queries are sorted by chain length and the draw
    is systematic (a random offset, then every k-th), so each draw
    spans short and long chains.  The order of the whole draw is then
    shuffled.  The seed alone decides the draw.
    """
    rng = random.Random(seed)
    by_group: dict = {}
    for query in population:
        by_group.setdefault(group_label(*query[0]), []).append(query)
    drawn = []
    for label in sorted(by_group):
        members = sorted(by_group[label],
                         key=lambda q: (len(q[2].split()), len(q[1].split()),
                                        q[2], q[1]))
        n = per_group[label]
        step = len(members) / n
        offset = rng.random() * step
        drawn.extend(members[int(offset + i * step)] for i in range(n))
    rng.shuffle(drawn)
    return drawn


def indw_argv(query, cache_dir, json_path) -> list:
    (family, rank, subset), x, w = query
    argv = ['indw', '--type', family, '--rank', str(rank), '--w', w,
            '--cache-dir', cache_dir, '--json', json_path]
    if subset:
        argv += ['--parabolic', ','.join(str(i + 1) for i in subset)]
    if x:
        argv += ['--x', x]
    return argv


def read_steal_s():
    """Cumulative steal time of all CPUs from /proc/stat, or None."""
    try:
        with open('/proc/stat') as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf('SC_CLK_TCK')
    except (OSError, IndexError, ValueError):
        return None


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != '__pycache__')
        for name in sorted(filenames):
            if name.endswith('.py'):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, 'rb') as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str):
    """HEAD of the checkout when it is a git repository, else None."""
    if not os.path.isdir(os.path.join(root, '.git')):
        return None
    try:
        out = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    """Spawns measured processes one at a time and collects reports."""

    def __init__(self, root: str, workdir: str, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.cut_off = False
        self.count = 0
        self.env = dict(os.environ)
        src = os.path.join(root, 'src')
        self.env['PYTHONPATH'] = src + (os.pathsep + self.env['PYTHONPATH']
                                        if self.env.get('PYTHONPATH') else '')
        self.env.pop('SOERGELIND_CACHE_DIR', None)
        # the same dict and set layouts in every process: the outputs do
        # not depend on them, but the time can
        self.env['PYTHONHASHSEED'] = '0'

    def launch(self, spec: dict):
        """The measured process's report, or None when the run time
        limit stopped it or kept it from starting."""
        self.count += 1
        tag = f'p{self.count:04d}'
        spec = dict(spec, report=os.path.join(self.workdir, tag + '.json'))
        spec_path = os.path.join(self.workdir, tag + '.spec.json')
        log_path = os.path.join(self.workdir, tag + '.log')
        remaining = self.deadline - clock()
        if remaining <= 0:
            self.cut_off = True
            return None
        with open(log_path, 'w') as log:
            spec['spawned_at'] = clock()
            with open(spec_path, 'w') as fh:
                json.dump(spec, fh)
            proc = subprocess.Popen([sys.executable, LAUNCH, spec_path],
                                    cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                self.cut_off = True
                return None
        try:
            with open(spec['report']) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            return {'code': proc.returncode, 'error': f'no report:\n{tail}'}
        if proc.returncode != report['code']:
            report['error'] = f'exit code {proc.returncode}'
        return report


def percentile_with_ten_beyond(values: list):
    """Highest order statistic with at least ten samples above it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None, None
    rank = len(ordered) - 10
    return ordered[rank - 1], rank / len(ordered)


# ---------------------------------------------------------------------------
# workloads


def verify_pass(runner, expected, trace) -> tuple:
    """One serial `verify --corpus full --json` over the chosen groups."""
    out = os.path.join(runner.workdir, f'verify-{runner.count + 1}.json')
    report = runner.launch({'mode': 'cli', 'trace': trace,
                            'groups': expected['groups'],
                            'argv': ['verify', '--corpus', 'full',
                                     '--json', out]})
    if report is None:
        return [], 0, 0
    want = expected['checks']
    attempted = sum(len(v) for v in want.values())
    failed = attempted
    if report.get('code') == 0 and not report.get('error'):
        try:
            with open(out) as fh:
                output = json.load(fh)
            got = verify_digests(output)
            bad = 0
            for kind, digests in want.items():
                reports = output['checks'].get(kind, [])
                bad += sum(i >= len(reports) or got[kind][i] != digest
                           or reports[i]['status'] != 'pass'
                           for i, digest in enumerate(digests))
            extra = sum(len(v) for v in got.values()) - attempted
            failed = min(attempted, bad + max(0, extra))
        except (OSError, ValueError, KeyError) as exc:
            report['error'] = f'unreadable verify output: {exc}'
    return [report], attempted, failed


def indw_pass(runner, expected, queries, cache_dir, trace) -> tuple:
    reports, failed = [], 0
    for query in queries:
        out = os.path.join(runner.workdir, f'indw-{runner.count + 1}.json')
        report = runner.launch({'mode': 'cli', 'trace': trace,
                                'argv': indw_argv(query, cache_dir, out)})
        if report is None:
            break
        ok = report.get('code') == 0 and not report.get('error')
        if ok:
            try:
                with open(out) as fh:
                    ok = indw_digest(json.load(fh)) == \
                        expected['queries'][query_key(query)]['digest']
            except (OSError, ValueError, KeyError):
                ok = False
        failed += not ok
        reports.append(report)
    return reports, len(reports), failed


def load_population(expected) -> list:
    population = []
    for entry in expected['queries'].values():
        family, rank, subset = entry['group']
        population.append(((family, rank, tuple(subset)), entry['x'],
                           entry['w']))
    return population


# ---------------------------------------------------------------------------


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, 'src', 'soergelind', 'cli.py')):
        print('perfbench: no src/soergelind here; run from the root of a '
              'soergelind checkout', file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected_all = json.load(fh)
    with open(os.path.join(root, 'BENCHMARK.json')) as fh:
        declared = json.load(fh)
    if args.workload not in expected_all['workloads']:
        print(f'perfbench: unknown workload {args.workload!r}',
              file=sys.stderr)
        return 2
    started = clock()
    workdir = os.path.join(root, '.bench_run',
                           f'{args.workload}-{os.getpid()}')
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    steal0 = read_steal_s()
    runner = Runner(root, workdir, started + RUN_LIMIT_S)
    try:
        result, info = measure(args, runner, expected_all, declared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal1 = read_steal_s()
    info.update({
        'workload': args.workload, 'seed': args.seed, 'trace': args.trace,
        'commit': git_commit(root),
        'source_sha256': source_digest(os.path.join(root, 'src')),
        'python': sys.version.split()[0], 'nproc': len(os.sched_getaffinity(0)),
        'steal_s': (None if steal0 is None or steal1 is None
                    else round(steal1 - steal0, 2)),
        'run_wall_s': round(clock() - started, 3),
    })
    print(json.dumps({'info': info}, sort_keys=True))
    print(json.dumps(result))
    return 0


def summarize_probe(reports: list) -> dict:
    good = [r for r in reports if 'slowdown' in r]
    if not good:
        return {}
    return {'probe.slowdown': statistics.mean(r['slowdown'] for r in good),
            'probe.raw_wall_s': sum(r['raw_wall_s'] for r in good),
            'probe.norm_wall_s': sum(r['norm_s'] for r in good)}


def fine(report: dict) -> bool:
    return (report.get('code') == 0 and not report.get('error')
            and 'norm_s' in report)


def select(figures: dict, declared: list, complete: bool = True) -> dict:
    """The declared metrics, in BENCHMARK.json's order and units.

    In a complete run a declared name the run did not produce is an
    error (KeyError); in a run that failed or was cut off it is left
    out.  It is never a silent zero."""
    return {m['name']: {'value': figures[m['name']], 'unit': m['unit']}
            for m in declared if complete or m['name'] in figures}


def measure(args, runner, expected_all, declared) -> tuple:
    workload = args.workload
    expected = expected_all['workloads'][workload]
    attempted = failed = 0
    info: dict = {}
    setup, timed, traced = [], [], []
    pass_times, query_times = [], []
    setup_reps = 1 if args.trace else SETUP_REPS[workload]

    if workload == 'verify-light':
        specs = [{'mode': 'import'}] * setup_reps

        def one_pass(trace):
            return verify_pass(runner, expected, trace)
    else:
        queries = draw_queries(load_population(expected), args.seed,
                               expected['per_group'])
        info['queries'] = [query_key(q) for q in queries]
        groups = [list(g) for g in sorted({q[0] for q in queries})]
        specs = [{'mode': 'fill', 'trace': args.trace, 'groups': groups,
                  'cache_dir': os.path.join(runner.workdir, f'cache-{rep}')}
                 for rep in range(setup_reps)]
        cache_dir = specs[-1]['cache_dir']

        def one_pass(trace):
            return indw_pass(runner, expected, queries, cache_dir, trace)

    for spec in specs:
        report = runner.launch(spec)
        if report is None:
            break
        setup.append(report)
    attempted += len(setup)
    failed += sum(not fine(r) for r in setup)

    # Untraced passes until --seconds are used up (one with --trace 1).
    # Every command that finished cleanly contributes its time, also in
    # a pass that failed a digest or that the run time limit cut short.
    t0 = clock()
    while len(setup) == len(specs) and not failed:
        reports, n, bad = one_pass(False)
        timed.extend(reports)
        attempted += n
        failed += bad
        query_times.extend(r['norm_s'] for r in reports if fine(r))
        if runner.cut_off or not all(fine(r) for r in reports):
            break
        pass_times.append(sum(r['norm_s'] for r in reports))
        if bad or args.trace or clock() - t0 >= args.seconds:
            break
    traced_complete = False
    if args.trace and pass_times and not failed:
        traced, n, bad = one_pass(True)
        attempted += n
        failed += bad
        traced_complete = not runner.cut_off

    measured = setup + timed + traced
    errors = [r['error'] for r in measured if r.get('error')]
    if errors:
        info['errors'] = errors[:3]
    complete = (len(setup) == len(specs) and bool(query_times)
                and all(fine(r) for r in measured)
                and (traced_complete or not args.trace))
    correct = failed == 0 and complete
    info.update(summarize_probe(timed))
    tail, tail_quantile = percentile_with_ten_beyond(query_times)
    info.update({'processes': len(measured), 'passes': len(pass_times),
                 'cut_off': runner.cut_off,
                 'query_samples': len(query_times), 'query_tail_s': tail,
                 'query_tail_quantile': tail_quantile})
    metrics: dict = {}
    if not args.trace:
        figures = {'pass_ratio': 1 - failed / attempted if attempted else 0.0}
        setup_times = [r['norm_s'] for r in setup if fine(r)]
        if setup_times:
            figures['setup_s'] = statistics.median(setup_times)
            info['setup_samples_s'] = setup_times
        rss = [r['peak_rss_kb'] for r in measured if 'peak_rss_kb' in r]
        if rss:
            figures['peak_rss_mb'] = max(rss) / 1024
        if query_times:
            figures['norm_s'] = statistics.median(query_times)
            info.update({'pass_samples_s': pass_times,
                         'query_samples_s': query_times,
                         'query_p50_s': figures['norm_s'],
                         'raw_query_p50_s': statistics.median(
                             r['raw_wall_s'] for r in timed if fine(r))})
        metrics = select(figures, declared['end_to_end'], correct)
    elif correct:
        # indw-warm traces its set-up too; verify-light's is an import
        figures = per_layer_metrics(
            [r for r in setup if 'trace' in r] + traced,
            sum(r['norm_s'] for r in traced), statistics.median(pass_times))
        info['layers'] = figures
        metrics = select(figures, declared['per_layer'])
    result = {'correct': correct, 'attempted': attempted,
              'failed': failed, 'metrics': metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == '__main__':
    sys.exit(main())
