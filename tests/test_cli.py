"""Command-line interface: outputs, exit codes, JSON reports."""

import json
import os
import pathlib

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


# ---------------------------------------------------------------------------
# exit codes and parser plumbing


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(['frobnicate']) == 2
    assert main(['group', '--type', 'Q', '--rank', '2']) == 2
    assert main(['kl', '--type', 'A', '--rank', '2', '--w', '9']) == 2
    assert main(['group', '--type', 'B', '--rank', '9']) == 2
    capsys.readouterr()


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
