"""The benchmark's hooks still fit the package.

`perfbench/spans.py` wraps public functions of every layer by name and
raises when a name is gone or bound nowhere.  Installing it runs in a
fresh interpreter, since the wrappers replace module attributes for
the rest of the process.  The verify output that the benchmark gates
on must also keep every check digest recorded in
`perfbench/expected.json`; the sweep runs here in-process, through the
benchmark's own corpus restriction and digest functions, so a change
of output fails the tests and not only the benchmark; so must a few of
the `indw` queries it draws.  No source file may grow past the largest
one, since its compile sets the floor of every process's peak RSS.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import json
from spans import Tracer, install
tracer = Tracer([])
install(tracer)
print(json.dumps(sorted(tracer.calls)))
"""


def test_every_wrapped_name_still_exists():
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [str(ROOT / 'perfbench'), str(ROOT / 'src'),
         env.get('PYTHONPATH', '')])
    done = subprocess.run([sys.executable, '-c', SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    wrapped = set(json.loads(done.stdout.strip().splitlines()[-1]))
    assert {'smod.decompose', 'smod.is_isomorphic', 'smod.hom_space',
            'smod.build_catalog', 'homotopy.theta_summands',
            'homotopy.gaussian_eliminate', 'homotopy.verify_d_squared',
            'homotopy.complex_from_module', 'exactla.sparse_nullspace',
            'exactla.nullspace', 'exactla.solve_matrix'} <= wrapped


def test_verify_light_keeps_its_recorded_digests(tmp_path, monkeypatch):
    from soergelind import cli, induction

    monkeypatch.syspath_prepend(str(ROOT / 'perfbench'))
    import launch
    import run

    with open(run.EXPECTED) as fh:
        expected = json.load(fh)['workloads']['verify-light']
    monkeypatch.delenv('SOERGELIND_CACHE_DIR', raising=False)
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    monkeypatch.setattr(induction, 'corpus_groups', induction.corpus_groups)
    launch.restrict_corpus(induction, expected['groups'])
    out = tmp_path / 'verify.json'
    assert cli.main(['verify', '--corpus', 'full', '--json', str(out)]) == 0
    with open(out) as fh:
        assert run.verify_digests(json.load(fh)) == expected['checks']


INDW_QUERIES = ['A2-I1 x=1 w=2 1', 'A2-Inone x=e w=1 2 1',
                'B2-I2 x=2 w=1 2 1', 'B2-Inone x=e w=1 2 1 2',
                'A3-I12 x=1 2 w=3 2 1', 'A3-I12 x=1 2 1 w=3 2']


def test_indw_queries_keep_their_recorded_digests(tmp_path, monkeypatch):
    # indw-warm queries of every rank-2 family and of an A3 parabolic,
    # through the benchmark's own argv and digest functions; the first
    # query of a root system fills the cache that the others read
    from soergelind import cli, induction

    monkeypatch.syspath_prepend(str(ROOT / 'perfbench'))
    import run

    with open(run.EXPECTED) as fh:
        expected = json.load(fh)['workloads']['indw-warm']['queries']
    monkeypatch.delenv('SOERGELIND_CACHE_DIR', raising=False)
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    for key in INDW_QUERIES:
        entry = expected[key]
        family, rank, subset = entry['group']
        query = ((family, rank, tuple(subset)), entry['x'], entry['w'])
        out = tmp_path / 'indw.json'
        argv = run.indw_argv(query, str(tmp_path / 'cache'), str(out))
        assert cli.main(argv) == 0, key
        with open(out) as fh:
            assert run.indw_digest(json.load(fh)) == entry['digest'], key


# non-blank lines of src/soergelind/smod.py when it was the largest file
LARGEST_SOURCE_LINES = 959


def test_no_source_file_outgrows_the_largest_one():
    # every process compiles the package when no bytecode is written
    # (PYTHONDONTWRITEBYTECODE=1), and the compile of the largest file
    # sets a floor under the process's peak RSS, which peak_rss_mb gates
    sizes = {path.name: sum(1 for line in path.read_text().splitlines()
                            if line.strip())
             for path in (ROOT / 'src' / 'soergelind').glob('*.py')}
    assert max(sizes.values()) <= LARGEST_SOURCE_LINES, sizes
