"""Command-line interface: outputs, exit codes, JSON reports."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import soergelind.cli
import soergelind.induction
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


def test_no_module_imports_random():
    # every isomorphism is decided by a deterministic test; none is
    # searched for by random draws
    src = pathlib.Path(soergelind.cli.__file__).parent
    for path in sorted(src.glob('*.py')):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or '']
            else:
                continue
            assert all(name.split('.')[0] != 'random' for name in names), \
                path.name


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


@pytest.mark.parametrize('parabolic', ['0', '3', '1,x'])
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
                        lambda: CalibrationRecord(shift=0, sign=1))

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
    assert 'does not describe this algebra' in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# exit codes and parser plumbing


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(['frobnicate']) == 2
    assert main(['group', '--type', 'Q', '--rank', '2']) == 2
    assert main(['kl', '--type', 'A', '--rank', '2', '--w', '9']) == 2
    assert main(['group', '--type', 'B', '--rank', '9']) == 2
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
