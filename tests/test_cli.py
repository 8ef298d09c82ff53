"""Command-line interface: outputs, exit codes, JSON reports."""

import ast
import contextlib
import io
import json
import os
import pathlib
import shutil
import stat
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import soergelind.cli
import soergelind.induction
import soergelind.laurent
from soergelind.cli import build_parser, main, parse_word
from soergelind.coxeter import RootSystem
from soergelind.errors import ConfigurationError
from soergelind.induction import CalibrationRecord


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != 'timing'}
    if isinstance(obj, list):
        return [strip_timing(x) for x in obj]
    return obj


# ---------------------------------------------------------------------------
# word parsing


def test_parse_word_accepts_both_spellings():
    rs = RootSystem('A', 2)
    assert parse_word(rs, '1 2') == parse_word(rs, 's1 s2')
    assert parse_word(rs, '') == rs.identity
    # non-reduced input is reduced, not rejected
    assert parse_word(rs, '1 1 2') == parse_word(rs, '2')


def test_parse_word_rejects_garbage():
    rs = RootSystem('A', 2)
    with pytest.raises(ConfigurationError):
        parse_word(rs, '1 x')
    with pytest.raises(ConfigurationError):
        parse_word(rs, '0')
    with pytest.raises(ConfigurationError):
        parse_word(rs, '3')
    with pytest.raises(ConfigurationError):
        parse_word(rs, '²')


# ---------------------------------------------------------------------------
# subcommands


def run_python(code: str) -> str:
    """Standard output of code run in a fresh interpreter on this source."""
    src = pathlib.Path(soergelind.cli.__file__).parents[1]
    run = subprocess.run([sys.executable, '-c', code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    return run.stdout.strip()


# the coinvariant algebra and its polynomials serve only a catalog build
ALGEBRA_MODULES = ('soergelind.coinvariants', 'soergelind.polynomials')


def test_importing_the_cli_loads_no_heavy_module():
    # an indw query is one process, so what it imports is part of its
    # time; these modules serve only --jobs above 1, --cache-dir and
    # catalog builds
    heavy = ('dataclasses', 'inspect', 'concurrent.futures',
             'multiprocessing', 'hashlib') + ALGEBRA_MODULES
    assert run_python('import soergelind.cli, sys; '
                      f'print([m for m in {heavy!r} if m in sys.modules])') \
        == '[]'


def test_a_warm_query_imports_no_coinvariant_algebra(tmp_path):
    argv = INDW_A2 + ['--cache-dir', str(tmp_path)]
    query = ('import sys; from soergelind.cli import main; '
             f'code = main({argv!r}); '
             f'print(code, [m for m in {ALGEBRA_MODULES!r} '
             'if m in sys.modules])')
    # the first query fills the cache, so it builds both algebras
    assert run_python(query).splitlines()[-1] == \
        f'0 {list(ALGEBRA_MODULES)!r}'
    assert run_python(query).splitlines()[-1] == '0 []'


def test_a_warm_query_loads_no_openssl_hash(tmp_path):
    # cache file names need SHA-256 only, which the builtin _sha256
    # gives without the OpenSSL library behind hashlib
    pytest.importorskip('_sha256')
    argv = INDW_A2 + ['--cache-dir', str(tmp_path)]
    query = ('import sys; from soergelind.cli import main; '
             f'code = main({argv!r}); '
             "print(code, '_hashlib' in sys.modules)")
    assert run_python(query).splitlines()[-1] == '0 False'
    assert list(tmp_path.glob('catalog-*.json'))
    assert run_python(query).splitlines()[-1] == '0 False'


def source_trees() -> dict:
    """The parsed source of every module of the package, by name."""
    src = pathlib.Path(soergelind.cli.__file__).parent
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(src.glob('*.py'))}


def imported_packages(tree) -> set:
    """The top-level package of every import in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or '')
    return {name.split('.')[0] for name in names}


def test_no_module_imports_random():
    # every isomorphism is decided by a deterministic test; none is
    # searched for by random draws
    for name, tree in source_trees().items():
        assert 'random' not in imported_packages(tree), name


def test_the_hecke_side_is_over_the_integers():
    # KL polynomials lie in Z[v]: the Coxeter data, the Laurent
    # polynomials and the Hecke algebra import nothing from fractions,
    # laurent exports LaurentPoly alone, and the "p"/"p/q" codec of the
    # cache files lives in serialize only
    trees = source_trees()
    for name in ('coxeter', 'laurent', 'hecke'):
        assert 'fractions' not in imported_packages(trees[name]), name
    assert soergelind.laurent.__all__ == ['LaurentPoly']
    codec = sorted((name, node.name) for name, tree in trees.items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name in ('fraction_to_str', 'fraction_from_str'))
    assert codec == [('serialize', 'fraction_from_str'),
                     ('serialize', 'fraction_to_str')]


DENSE = {'from_form', 'zeros', 'mat_mul', 'rref', 'nullspace', 'solve_matrix',
         'invert', 'is_zero_matrix'}


def test_the_pipeline_holds_no_fraction_matrix():
    # modules and maps are built and read as integer forms: no module
    # but exactla names a dense Fraction routine, and smod keeps one
    # constructor per class, with no second _of beside it
    trees = source_trees()
    for name, tree in trees.items():
        if name == 'exactla':
            continue
        named = {node.id if isinstance(node, ast.Name) else
                 node.attr if isinstance(node, ast.Attribute) else node.name
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
        assert not named & DENSE, (name, sorted(named & DENSE))
    assert '_of' not in {node.name for node in ast.walk(trees['smod'])
                         if isinstance(node, ast.FunctionDef)}


def test_group_summary(capsys):
    assert main(['group', '--type', 'A', '--rank', '2']) == 0
    out = capsys.readouterr().out
    assert 'W(A2): 6 elements' in out
    assert 'longest element: 1 2 1' in out


def test_group_with_parabolic(capsys):
    assert main(['group', '--type', 'A', '--rank', '3',
                 '--parabolic', '1,2']) == 0
    out = capsys.readouterr().out
    assert 'W^I for I={1,2}: 4 minimal representatives' in out
    assert '3 2 1' in out


@pytest.mark.parametrize('parabolic', ['0', '3', '1,x', '²'])
def test_group_with_a_bad_parabolic_prints_nothing(capsys, parabolic):
    assert main(['group', '--type', 'A', '--rank', '2',
                 '--parabolic', parabolic]) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert 'parabolic index' in captured.err


def test_kl_element(capsys):
    assert main(['kl', '--type', 'A', '--rank', '3',
                 '--w', 's2 s1 s3 s2']) == 0
    out = capsys.readouterr().out
    assert out.startswith('b_2132 = ')
    assert '(v^2 + v^4)*H_e' in out


def test_indw_pass_with_json(tmp_path, capsys):
    target = tmp_path / 'report.json'
    code = main(['indw', '--type', 'A', '--rank', '2', '--parabolic', '1',
                 '--x', '1', '--w', '2 1', '--json', str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert '(chain 2 1)' in out
    assert 'status: pass' in out
    data = json.loads(target.read_text())
    assert data['report']['status'] == 'pass'
    assert data['report']['computed_class'] == \
        data['report']['predicted_class']
    assert set(data['complex']['terms']) == {'-1', '0'}


def test_indw_rejects_x_outside_parabolic(capsys):
    code = main(['indw', '--type', 'A', '--rank', '2', '--parabolic', '1',
                 '--x', '2', '--w', '2'])
    assert code == 2
    assert 'usage error' in capsys.readouterr().err


def test_indw_rejects_non_minimal_w(capsys):
    code = main(['indw', '--type', 'A', '--rank', '2', '--parabolic', '1',
                 '--w', '1'])
    assert code == 2
    assert 'usage error' in capsys.readouterr().err


def test_verify_quick(tmp_path, capsys):
    target = tmp_path / 'verify.json'
    code = main(['verify', '--corpus', 'quick', '--json', str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert 'calibration: shift=2 sign=1' in out
    data = json.loads(target.read_text())
    assert data['corpus'] == 'quick'
    assert all(block['failed'] == 0 for block in data['summary'].values())
    assert data['summary']['induced']['run'] == 20


def test_verify_reports_are_stable(tmp_path):
    one, two = tmp_path / 'a.json', tmp_path / 'b.json'
    assert main(['verify', '--corpus', 'quick', '--json', str(one)]) == 0
    assert main(['verify', '--corpus', 'quick', '--jobs', '2',
                 '--json', str(two)]) == 0
    a = strip_timing(json.loads(one.read_text()))
    b = strip_timing(json.loads(two.read_text()))
    assert a == b


CLI_MAIN = 'import sys; from soergelind.cli import main; ' \
    'sys.exit(main(sys.argv[1:]))'


@pytest.mark.parametrize('argv', [
    ['verify', '--corpus', 'quick'],
    ['indw', '--type', 'A', '--rank', '3', '--parabolic', '1,2',
     '--x', '2 1', '--w', '3 2 1'],
], ids=['verify', 'indw'])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, argv):
    # sets of Weyl elements iterate in the order of their hashes, values
    # of their matrices; the reports, differentials included, must come
    # out the same under any seed
    src = pathlib.Path(soergelind.cli.__file__).parents[1]
    texts = []
    for seed in ('1', '7'):
        target = tmp_path / f'{seed}.json'
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        env.pop('SOERGELIND_CACHE_DIR', None)
        subprocess.run([sys.executable, '-c', CLI_MAIN, *argv,
                        '--json', str(target)], env=env, capture_output=True,
                       check=True, timeout=300)
        texts.append(json.dumps(strip_timing(json.loads(target.read_text()))))
    assert texts[0] == texts[1]


DEAD_WORKER = """
import os, sys
from soergelind import induction
from soergelind.cli import main

def die(args):
    os._exit(9)

induction._run_group_task = die
sys.exit(main(['verify', '--corpus', 'quick', '--jobs', '2']))
"""


def test_a_dead_jobs_worker_exits_3_without_a_traceback():
    # a worker that dies is a broken internal invariant, not a
    # verification mismatch (exit 1)
    src = pathlib.Path(soergelind.cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop('SOERGELIND_CACHE_DIR', None)
    run = subprocess.run([sys.executable, '-c', DEAD_WORKER], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 3, run.stderr
    assert 'Traceback' not in run.stderr
    err = run.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith('internal assertion failed')


def test_verify_rejects_a_calibration_it_does_not_use(monkeypatch, capsys):
    monkeypatch.setattr(soergelind.cli, 'calibrate_shift',
                        lambda cache_dir=None: CalibrationRecord(shift=0,
                                                                 sign=1))

    def sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(soergelind.cli, 'run_corpus', sweep)
    assert main(['verify', '--corpus', 'quick']) == 3
    assert 'internal assertion failed' in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the catalog cache, seen from a fresh process


@pytest.fixture
def fresh_process(monkeypatch):
    """An empty setup registry and a log of build_catalog calls."""
    monkeypatch.setattr(soergelind.induction, '_SYSTEMS', {})
    built = []
    original = soergelind.induction.build_catalog

    def counting(algebra):
        built.append(algebra)
        return original(algebra)

    monkeypatch.setattr(soergelind.induction, 'build_catalog', counting)

    def restart():
        monkeypatch.setattr(soergelind.induction, '_SYSTEMS', {})
        built.clear()

    return built, restart


def catalog_files(cache):
    """Cache file names without their content hash."""
    return sorted(name.rsplit('-', 1)[0] for name in os.listdir(cache))


def test_verify_caches_every_catalog_and_reuses_them(tmp_path, fresh_process):
    built, restart = fresh_process
    cache = tmp_path / 'cache'
    one, two = tmp_path / 'a.json', tmp_path / 'b.json'
    argv = ['verify', '--corpus', 'quick', '--cache-dir', str(cache)]
    assert main(argv + ['--json', str(one)]) == 0
    assert catalog_files(cache) == [
        'catalog-A1-I1', 'catalog-A1-Inone', 'catalog-A2-I1',
        'catalog-A2-I12', 'catalog-A2-I2', 'catalog-A2-Inone']
    assert len(built) == 6
    restart()
    assert main(argv + ['--json', str(two)]) == 0
    assert built == []
    assert strip_timing(json.loads(one.read_text())) == \
        strip_timing(json.loads(two.read_text()))


def full_a2_file(cache):
    return next(path for path in pathlib.Path(cache).iterdir()
                if path.name.startswith('catalog-A2-I12-'))


INDW_A2 = ['indw', '--type', 'A', '--rank', '2', '--parabolic', '1',
           '--x', '1', '--w', '2 1']


def test_truncated_cache_file_is_rebuilt(tmp_path, fresh_process, capsys):
    built, restart = fresh_process
    cache = str(tmp_path)
    assert main(INDW_A2 + ['--cache-dir', cache]) == 0
    path = full_a2_file(cache)
    whole = path.read_text()
    path.write_text(whole[:300])
    restart()
    capsys.readouterr()
    assert main(INDW_A2 + ['--cache-dir', cache]) == 0
    assert 'unreadable cache file' in capsys.readouterr().err
    assert len(built) == 1
    assert path.read_text() == whole


def test_cache_file_failing_validation_exits_three(tmp_path, fresh_process,
                                                   capsys):
    _built, restart = fresh_process
    cache = str(tmp_path)
    assert main(INDW_A2 + ['--cache-dir', cache]) == 0
    path = full_a2_file(cache)
    data = json.loads(path.read_text())
    data['entries'][-1]['dims'] = {'0': 2}
    path.write_text(json.dumps(data))
    restart()
    assert main(INDW_A2 + ['--cache-dir', cache]) == 3
    assert 'internal assertion failed' in capsys.readouterr().err


def test_cache_file_with_a_foreign_header_exits_three(tmp_path,
                                                     fresh_process, capsys):
    _built, restart = fresh_process
    cache = str(tmp_path)
    assert main(INDW_A2 + ['--cache-dir', cache]) == 0
    path = full_a2_file(cache)
    data = json.loads(path.read_text())
    data['family'] = 'B'
    path.write_text(json.dumps(data))
    restart()
    capsys.readouterr()
    assert main(INDW_A2 + ['--cache-dir', cache]) == 3
    err = capsys.readouterr().err
    assert 'does not describe this algebra' in err
    assert path.name in err


def test_cache_file_with_broken_entries_exits_three(tmp_path, fresh_process,
                                                   capsys, break_entries):
    _built, restart = fresh_process
    cache = str(tmp_path)
    assert main(INDW_A2 + ['--cache-dir', cache]) == 0
    path = full_a2_file(cache)
    data = json.loads(path.read_text())
    break_entries(data['entries'])
    path.write_text(json.dumps(data))
    restart()
    capsys.readouterr()
    assert main(INDW_A2 + ['--cache-dir', cache]) == 3
    err = capsys.readouterr().err
    assert 'internal assertion failed' in err
    assert path.name in err
    assert 'Traceback' not in err


def test_cache_entries_with_swapped_modules_exit_three(tmp_path,
                                                       fresh_process, capsys):
    # D_s1 and D_{w0} trade their dims and actions: each module is
    # whole, so only the Kazhdan-Lusztig graded character tells
    _built, restart = fresh_process
    cache = str(tmp_path)
    assert main(INDW_A2 + ['--cache-dir', cache]) == 0
    path = full_a2_file(cache)
    data = json.loads(path.read_text())
    s1 = next(e for e in data['entries'] if e['word'] == [1])
    w0 = max(data['entries'], key=lambda e: len(e['word']))
    for key in ('dims', 'actions'):
        s1[key], w0[key] = w0[key], s1[key]
    path.write_text(json.dumps(data))
    restart()
    capsys.readouterr()
    assert main(INDW_A2 + ['--cache-dir', cache]) == 3
    err = capsys.readouterr().err
    assert 'cached entry for s1 has graded character' in err
    assert 'Kazhdan-Lusztig predicts' in err
    assert path.name in err
    assert 'Traceback' not in err


def _odd_dims_key(w0):
    w0['dims']['1'] = 1


def _variable_out_of_range(w0):
    w0['actions'][0]['var'] = 3


def _variable_below_range(w0):
    w0['actions'][0]['var'] = -5


def _action_into_a_zero_piece(w0):
    w0['actions'].append({'var': 1, 'degree': 6, 'matrix': [['1']]})


def _a_row_too_long(w0):
    first = next(a for a in w0['actions']
                 if (a['var'], a['degree']) == (1, 0))
    first['matrix'][0].append('0')


MODULE_REFUSALS = [
    (_odd_dims_key, 'modules must be evenly graded; got degree 1'),
    (_variable_out_of_range, 'action of variable 3 outside the 2 variables'),
    (_variable_below_range, 'action of variable -5 outside the 2 variables'),
    (_action_into_a_zero_piece, 'nonzero action into a zero graded piece'),
    (_a_row_too_long,
     'action matrix for variable 1 at degree 0 has wrong shape'),
]


@pytest.mark.parametrize('corrupt, message', MODULE_REFUSALS,
                         ids=[row[0].__name__.lstrip('_')
                              for row in MODULE_REFUSALS])
def test_module_data_that_do_not_fit_the_algebra_exit_three(
        tmp_path, fresh_process, capsys, corrupt, message):
    # each check of module_from_json, on the entry of w0 in the A2 file
    _built, restart = fresh_process
    cache = str(tmp_path)
    assert main(INDW_A2 + ['--cache-dir', cache]) == 0
    path = full_a2_file(cache)
    data = json.loads(path.read_text())
    corrupt(data['entries'][-1])
    path.write_text(json.dumps(data))
    restart()
    capsys.readouterr()
    assert main(INDW_A2 + ['--cache-dir', cache]) == 3
    err = capsys.readouterr().err
    assert f'cache file {path} fails validation: {message}' in err
    assert 'Traceback' not in err


INDW_A1 = ['indw', '--type', 'A', '--rank', '1', '--w', '1']


def full_a1_file(cache):
    return next(path for path in pathlib.Path(cache).iterdir()
                if path.name.startswith('catalog-A1-I1-'))


def test_a_directory_in_place_of_a_cache_file_exits_two(tmp_path,
                                                       fresh_process, capsys):
    _built, restart = fresh_process
    cache = str(tmp_path)
    assert main(INDW_A1 + ['--cache-dir', cache]) == 0
    path = full_a1_file(cache)
    path.unlink()
    path.mkdir()
    restart()
    capsys.readouterr()
    assert main(INDW_A1 + ['--cache-dir', cache]) == 2
    err = capsys.readouterr().err
    assert 'usage error: cannot read cache file' in err
    assert 'Traceback' not in err


def test_a_too_deeply_nested_cache_file_is_rebuilt(tmp_path, fresh_process,
                                                   capsys):
    built, restart = fresh_process
    cache = str(tmp_path)
    assert main(INDW_A1 + ['--cache-dir', cache]) == 0
    path = full_a1_file(cache)
    whole = path.read_text()
    path.write_text('[' * 200000)
    restart()
    capsys.readouterr()
    assert main(INDW_A1 + ['--cache-dir', cache]) == 0
    assert 'unreadable cache file' in capsys.readouterr().err
    assert len(built) == 1
    assert path.read_text() == whole


def test_a_cache_file_with_a_float_dimension_is_rebuilt(tmp_path,
                                                        fresh_process,
                                                        capsys):
    # 1.0 == 1, so the graded character matches; the loader refuses it
    # as the wrong shape before a matrix of that size is ever made
    built, restart = fresh_process
    cache = str(tmp_path)
    assert main(INDW_A2 + ['--cache-dir', cache]) == 0
    clean = capsys.readouterr().out
    path = full_a2_file(cache)
    whole = path.read_text()
    data = json.loads(whole)
    s1 = next(e for e in data['entries'] if e['word'] == [1])
    s1['dims'] = {d: float(n) for d, n in s1['dims'].items()}
    path.write_text(json.dumps(data))
    restart()
    assert main(INDW_A2 + ['--cache-dir', cache]) == 0
    out, err = capsys.readouterr()
    assert f'unreadable cache file {path}' in err
    assert 'rebuilding it' in err
    assert out == clean
    assert len(built) == 1
    assert path.read_text() == whole


# corrupted cache payloads: each is a miss that is rebuilt, or exits 3
# naming the file, and none ends in a traceback


def run_main(argv):
    """Exit code, stdout and stderr of main(argv) from an empty setup
    registry."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(soergelind.induction, '_SYSTEMS', {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope='module')
def clean_caches(tmp_path_factory):
    """For each query, a cache directory one clean run filled, the name
    of the full catalog file in it, and the run's standard output."""
    out = {}
    for name, argv, prefix in (('A1', INDW_A1, 'catalog-A1-I1-'),
                               ('A2', INDW_A2, 'catalog-A2-I12-')):
        cache = tmp_path_factory.mktemp(f'clean-{name}')
        code, stdout, _err = run_main(argv + ['--cache-dir', str(cache)])
        assert code == 0
        path = next(p for p in cache.iterdir() if p.name.startswith(prefix))
        out[name] = argv, cache, path.name, stdout
    return out


def nodes(doc, path=()):
    """(path, value) for every value of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, child in items:
            yield from nodes(child, path + (key,))


def container(doc, path):
    """The dict or list that holds the value at path."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def other_types(x):
    """JSON values of another type than x, an equal float first for an
    integer."""
    out = [float(x)] if type(x) is int else []
    out += [True, False, None, 0, 'x', [x], {'x': x}]
    return [y for y in out if type(y) is not type(x)]


# cut short, a value of another type, a dropped key, a repeated action,
# a dims key spelled another way, a foreign header value
CORRUPTIONS = ['truncate', 'retype', 'drop', 'repeat', 'respell', 'header']


@st.composite
def corrupted(draw, text, kind):
    """The one-line JSON text of a catalog file, corrupted once."""
    if kind == 'truncate':
        # every prefix without the closing brace is invalid JSON
        return text[:draw(st.integers(0, len(text) - 2))]
    doc = json.loads(text)
    every = list(nodes(doc))
    if kind == 'retype':
        path, value = draw(st.sampled_from(every))
        other = draw(st.sampled_from(other_types(value)))
        if not path:
            return json.dumps(other)
        container(doc, path)[path[-1]] = other
    elif kind == 'drop':
        path = draw(st.sampled_from(
            [p for p, _v in every if p and isinstance(p[-1], str)]))
        del container(doc, path)[path[-1]]
    elif kind == 'repeat':
        actions = draw(st.sampled_from(
            [v for p, v in every if p[-1:] == ('actions',) and v]))
        actions.append(draw(st.sampled_from(actions)))
    elif kind == 'respell':
        dims = draw(st.sampled_from(
            [v for p, v in every if p[-1:] == ('dims',)]))
        key = draw(st.sampled_from(sorted(dims)))
        spelled = draw(st.sampled_from(['0' + key, ' ' + key, key + ' ',
                                        '+' + key]))
        dims[spelled] = dims.pop(key)
    else:
        field, value = draw(st.sampled_from([
            ('family', 'B'), ('rank', doc['rank'] + 1),
            ('parabolic', doc['parabolic'][:-1])]))
        doc[field] = value
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize('kind', CORRUPTIONS)
@pytest.mark.parametrize('name', ['A1', 'A2'])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_a_corrupted_cache_file_is_rebuilt_or_exits_three(clean_caches, name,
                                                          kind, data):
    argv, clean, filename, stdout = clean_caches[name]
    whole = (clean / filename).read_text()
    text = data.draw(corrupted(whole, kind))
    with tempfile.TemporaryDirectory() as cache:
        shutil.copytree(clean, cache, dirs_exist_ok=True)
        path = pathlib.Path(cache, filename)
        path.write_text(text)
        code, out, err = run_main(argv + ['--cache-dir', cache])
        assert 'Traceback' not in err
        if code == 0:
            assert f'warning: unreadable cache file {path}' in err
            assert 'rebuilding it' in err
            assert out == stdout
            assert path.read_text() == whole
        else:
            assert code == 3
            assert 'internal assertion failed' in err
            assert filename in err


# ---------------------------------------------------------------------------
# exit codes and parser plumbing


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(['frobnicate']) == 2
    assert main(['group', '--type', 'Q', '--rank', '2']) == 2
    assert main(['kl', '--type', 'A', '--rank', '2', '--w', '9']) == 2
    assert main(['group', '--type', 'B', '--rank', '9']) == 2
    assert main(['group', '--type', 'A', '--rank', '2000']) == 2
    assert main(['group', '--type', 'A', '--rank', '9' * 23]) == 2
    capsys.readouterr()


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if the command starts computing."""
    def refuse(*args, **kwargs):
        raise AssertionError("the command must stop before any work")

    for name in ('make_setup', 'calibrate_shift', 'run_corpus'):
        monkeypatch.setattr(soergelind.cli, name, refuse)


COMMANDS = [INDW_A2, ['verify', '--corpus', 'quick']]


def test_a_cache_dir_that_cannot_be_a_directory_exits_two(tmp_path, no_work,
                                                         capsys):
    blocker = tmp_path / 'file'
    blocker.write_text('')
    for cache in (blocker, blocker / 'sub'):
        for argv in COMMANDS:
            assert main(argv + ['--cache-dir', str(cache)]) == 2
            assert 'usage error: cannot use --cache-dir' in \
                capsys.readouterr().err
    assert blocker.read_text() == ''


def test_a_json_path_that_cannot_be_written_exits_two_before_the_work(
        tmp_path, no_work, capsys):
    for target, why in ((tmp_path / 'missing' / 'out.json', 'no directory'),
                        (tmp_path, 'is a directory')):
        for argv in COMMANDS:
            assert main(argv + ['--json', str(target)]) == 2
            err = capsys.readouterr().err
            assert 'usage error' in err and why in err


def test_a_json_path_that_is_not_a_regular_file_is_left_in_place(
        tmp_path, no_work, capsys):
    fifo = tmp_path / 'pipe'
    os.mkfifo(fifo)
    for argv in COMMANDS:
        assert main(argv + ['--json', str(fifo)]) == 2
        assert 'not a regular file' in capsys.readouterr().err
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.parametrize('exists', [True, False])
def test_a_json_symlink_writes_the_file_it_names(tmp_path, exists, capsys):
    target = tmp_path / 'reports' / 'report.json'
    target.parent.mkdir()
    if exists:
        target.write_text('stale')
    link = tmp_path / 'link.json'
    os.symlink(target, link)
    assert main(INDW_A2 + ['--json', str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())['report']['status'] == 'pass'
    assert sorted(p.name for p in tmp_path.iterdir()) == ['link.json',
                                                          'reports']
    assert [p.name for p in target.parent.iterdir()] == ['report.json']


def test_a_failed_json_write_exits_two(tmp_path, monkeypatch, capsys):
    def refuse(data, path):
        raise PermissionError(13, 'Permission denied', path)

    monkeypatch.setattr(soergelind.cli, 'dump_json', refuse)
    assert main(INDW_A2 + ['--json', str(tmp_path / 'out.json')]) == 2
    assert 'usage error: cannot write --json' in capsys.readouterr().err


@pytest.mark.parametrize('jobs', ['0', '-3', 'two'])
def test_verify_rejects_a_jobs_count_below_one(jobs, no_work, capsys):
    assert main(['verify', '--corpus', 'quick', '--jobs', jobs]) == 2
    assert 'argument --jobs' in capsys.readouterr().err


@pytest.mark.parametrize('argv, flag', [
    (['group', '--type', 'A', '--rank', '\u0662'], '--rank'),
    (['verify', '--corpus', 'quick', '--jobs', '\u0661'], '--jobs'),
])
def test_a_count_in_non_ascii_digits_is_a_usage_error(argv, flag, no_work,
                                                      capsys):
    # '\u0662' and '\u0661' are Arabic-Indic two and one, which int reads;
    # counts take ASCII digits only, as generator labels do (cli._index)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert 'usage: soergelind' in captured.err
    assert f'argument {flag}' in captured.err


def test_help_exits_zero(capsys):
    assert main(['--help']) == 0
    assert 'graded parabolic induction' in capsys.readouterr().out


def test_cache_dir_defaults_from_environment(monkeypatch, tmp_path):
    monkeypatch.setenv('SOERGELIND_CACHE_DIR', str(tmp_path))
    parser = build_parser()
    args = parser.parse_args(['indw', '--type', 'A', '--rank', '2',
                              '--w', '2'])
    assert args.cache_dir == str(tmp_path)
    monkeypatch.delenv('SOERGELIND_CACHE_DIR')
    args = build_parser().parse_args(['verify'])
    assert args.cache_dir is None
