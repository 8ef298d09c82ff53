"""Record the outputs the benchmark checks against (perfbench/expected.json).

Usage, from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record.py

Runs the `verify-light` sweep and every `indw` query of the population
in this process and stores a digest of each check report and of each
query's answer (see run.py for what a digest covers).  Record again
only when the program's answers are meant to change; a change that
claims a speed-up must leave this file alone.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), 'src'))

from launch import restrict_corpus  # noqa: E402
from run import EXPECTED, indw_argv, indw_digest, query_key, \
    verify_digests  # noqa: E402

# The corpus groups the verify-light sweep runs: both rank-2 systems
# whole, and A3 with I = {1, 2}.  The other A3 groups need the
# splitting of theta_{s2} D_{s1 s2 s3 s2 s1}, a 490-unknown End^0 solve
# that alone takes 55-80 s; with it a run overruns its time budget.
VERIFY_GROUPS = [['A', 2, []], ['A', 2, [0]], ['A', 2, [1]],
                 ['B', 2, []], ['B', 2, [0]], ['B', 2, [1]],
                 ['A', 3, [0, 1]]]

# Queries left out of the indw population: each needs the same
# 490-unknown solve and takes about 80 s alone.
EXCLUDED = {
    'A3-I3 x=3 w=1 2 1 3 2': '490-unknown End^0 solve, ~80 s',
    'A3-I13 x=1 3 w=2 1 3 2': '490-unknown End^0 solve, ~80 s',
}

# Queries drawn per (type, I) group in one indw-warm pass.
PER_GROUP_RANK2 = 1
PER_GROUP_RANK3 = 2


def word(element) -> str:
    return ' '.join(str(i) for i in element.word_1based())


def population() -> list:
    from soergelind.coxeter import (admissible_chain, build_parabolic,
                                    build_root_system)
    from soergelind.induction import corpus_groups
    out = []
    for family, rank, subset in corpus_groups('full'):
        rs = build_root_system(family, rank)
        datum = build_parabolic(rs, subset)
        xs = sorted(datum.elements_WI, key=lambda u: (u.length, u.word))
        ws = sorted(datum.min_reps, key=lambda u: (u.length, u.word))
        for x in xs:
            for w in ws:
                if w.length and admissible_chain(datum, w) is not None:
                    out.append(((family, rank, tuple(subset)), word(x),
                                word(w)))
    return out


def main() -> int:
    import soergelind.cli
    import soergelind.induction as induction
    scratch = os.path.join(os.getcwd(), '.bench_run', 'record')
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        queries = {}
        per_group = {}
        cache_dir = os.path.join(scratch, 'cache')
        for query in population():
            key = query_key(query)
            if key in EXCLUDED:
                continue
            out = os.path.join(scratch, 'indw.json')
            code = soergelind.cli.main(indw_argv(query, cache_dir, out))
            if code != 0:
                raise SystemExit(f'{key}: exit code {code}')
            with open(out) as fh:
                digest = indw_digest(json.load(fh))
            group, x, w = query
            queries[key] = {'group': [group[0], group[1], list(group[2])],
                            'x': x, 'w': w, 'digest': digest}
            label = key.split()[0]
            per_group[label] = (PER_GROUP_RANK2 if group[1] == 2
                                else PER_GROUP_RANK3)
            print(key, digest, flush=True)

        restrict_corpus(induction, VERIFY_GROUPS)
        out = os.path.join(scratch, 'verify.json')
        code = soergelind.cli.main(['verify', '--corpus', 'full',
                                    '--json', out])
        if code != 0:
            raise SystemExit(f'verify: exit code {code}')
        with open(out) as fh:
            checks = verify_digests(json.load(fh))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expected = {'workloads': {
        'verify-light': {'groups': VERIFY_GROUPS, 'checks': checks},
        'indw-warm': {'per_group': per_group, 'excluded': EXCLUDED,
                      'queries': queries},
    }}
    with open(EXPECTED, 'w') as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write('\n')
    print(f'{sum(len(v) for v in checks.values())} checks, '
          f'{len(queries)} queries recorded in {EXPECTED}')
    return 0


if __name__ == '__main__':
    sys.exit(main())
