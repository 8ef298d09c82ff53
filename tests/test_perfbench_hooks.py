"""The benchmark's hooks still fit the package.

`perfbench/spans.py` wraps public functions of every layer by name and
raises when a name is gone or bound nowhere.  Installing it runs in a
fresh interpreter, since the wrappers replace module attributes for
the rest of the process.  The verify output that the benchmark gates
on must also keep every check digest recorded in
`perfbench/expected.json`; the sweep runs here in-process, through the
benchmark's own corpus restriction and digest functions, so a change
of output fails the tests and not only the benchmark.
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
