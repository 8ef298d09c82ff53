"""The benchmark's tracer still finds every function it wraps.

`perfbench/spans.py` wraps public functions of every layer by name and
raises when a name is gone or bound nowhere.  Installing it runs in a
fresh interpreter, since the wrappers replace module attributes for
the rest of the process.
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
