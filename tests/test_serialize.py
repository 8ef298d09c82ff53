"""Exact serialization: fractions, modules, catalogs, report files.

Round trips must reproduce objects on the nose (no floats anywhere),
and the on-disk catalog cache must hand back modules that still pass
the full structural validation.
"""

import json
import os
from fractions import Fraction

import pytest

from soergelind.coinvariants import build_coinvariants
from soergelind.coxeter import RootSystem
from soergelind.errors import (ConfigurationError, IncompatibilityError,
                               InternalCheckError)
from soergelind.exactla import to_form
from soergelind.serialize import (catalog_cache_path, catalog_from_json,
                                  catalog_to_json, content_key, dump_json,
                                  fraction_from_str, fraction_to_str,
                                  load_cached_catalog, matrix_from_json,
                                  matrix_to_json, module_from_json,
                                  module_to_json, store_catalog)
from soergelind.smod import build_catalog, is_isomorphic

from reference import verify_relations


def fresh_catalog(family='A', rank=2, subset=None):
    rs = RootSystem(family, rank)
    use = tuple(range(rank)) if subset is None else subset
    return build_catalog(build_coinvariants(rs, use))


def test_fraction_strings():
    for f in [Fraction(0), Fraction(7), Fraction(-3, 2), Fraction(1, 12)]:
        assert fraction_from_str(fraction_to_str(f)) == f
    assert fraction_to_str(Fraction(5)) == '5'
    assert fraction_to_str(Fraction(-1, 2)) == '-1/2'


@pytest.mark.parametrize('text', ['1.0', '1e3', '0.5', ' 1', '1 ', '+1', '01',
                                  '-0', '2/4', '3/1', '1/0', '1/-2', '1_000',
                                  '', 'nan', '\u0661'])
def test_only_canonical_fraction_strings_decode(text):
    with pytest.raises(ValueError):
        fraction_from_str(text)


@pytest.mark.parametrize('value', [1, 1.0, 0.5, True, None, [1], {'1': 1}])
def test_a_json_value_that_is_not_a_string_does_not_decode(value):
    with pytest.raises(TypeError):
        fraction_from_str(value)


def test_matrix_round_trip_preserves_shape():
    # the writer reads an integer form and writes fraction_to_str's
    # strings; a zero matrix has the form None
    m = [[Fraction(1, 2), Fraction(0)], [Fraction(-3), Fraction(2, 7)]]
    assert matrix_to_json(to_form(m), 2, 2) == \
        [[fraction_to_str(x) for x in row] for row in m]
    assert matrix_from_json(matrix_to_json(to_form(m), 2, 2)) == m
    tall = [[Fraction(1)], [Fraction(2)]]
    assert matrix_from_json(matrix_to_json(to_form(tall), 2, 1)) == tall
    assert matrix_to_json(None, 2, 3) == [['0'] * 3] * 2


def test_module_round_trip():
    catalog = fresh_catalog()
    rs = catalog.algebra.root_system
    for y in catalog.elements():
        entry = catalog.entry(y)
        back = module_from_json(catalog.algebra, module_to_json(entry))
        assert back.graded_dims == entry.graded_dims
        verify_relations(back)
        assert is_isomorphic(back, entry, catalog.entries) is not None


def test_catalog_round_trip_revalidates():
    catalog = fresh_catalog('B', 2)
    data = catalog_to_json(catalog)
    # a fresh algebra over a fresh group: nothing shared with the source
    rs2 = RootSystem('B', 2)
    algebra2 = build_coinvariants(rs2, (0, 1))
    back = catalog_from_json(algebra2, data)
    assert len(back.elements()) == len(catalog.elements())
    rs1 = catalog.algebra.root_system
    for y2 in back.elements():
        y1 = rs1.element_from_word(list(y2.word))
        assert back.entry(y2).graded_dims == catalog.entry(y1).graded_dims


def test_catalog_json_rejects_corrupted_dims():
    catalog = fresh_catalog('A', 1)
    data = catalog_to_json(catalog)
    broken = {**data, 'entries': [dict(e) for e in data['entries']]}
    # tamper with the graded dimensions of the last entry
    broken['entries'][-1] = {**broken['entries'][-1], 'dims': {'0': 2}}
    rs2 = RootSystem('A', 1)
    algebra2 = build_coinvariants(rs2, (0,))
    with pytest.raises(IncompatibilityError,
                       match='nonzero action into a zero graded piece'):
        catalog_from_json(algebra2, broken)


def test_content_key_separates_data():
    rs = RootSystem('A', 2)
    full = content_key(rs, (0, 1))
    sub = content_key(rs, (0,))
    other = content_key(RootSystem('B', 2), (0, 1))
    assert len({full, sub, other}) == 3
    assert content_key(RootSystem('A', 2), (0, 1)) == full


def test_content_keys_keep_their_values():
    # cache directories filled by earlier versions must keep hitting
    assert content_key(RootSystem('A', 2), (0, 1)) == '9d3c744c498d335a'
    assert content_key(RootSystem('A', 3), (0, 1)) == 'f8fdd01572c9bac3'


def test_cache_store_and_load(tmp_path):
    cache = str(tmp_path)
    catalog = fresh_catalog('A', 2)
    path = store_catalog(catalog, cache)
    assert path == catalog_cache_path(cache, catalog.algebra.root_system,
                                      catalog.algebra.subset)
    rs2 = RootSystem('A', 2)
    algebra2 = build_coinvariants(rs2, (0, 1))
    loaded = load_cached_catalog(algebra2, cache)
    assert loaded
    assert loaded.algebra is algebra2
    assert len(loaded.elements()) == 6
    for y in loaded.elements():
        verify_relations(loaded.entry(y))
    # a miss reports itself as such
    rs3 = RootSystem('B', 2)
    algebra3 = build_coinvariants(rs3, (0, 1))
    assert not load_cached_catalog(algebra3, cache)


def integers_as_floats(stored: str) -> str:
    """The stored catalog file with every integral entry a JSON float."""
    data = json.loads(stored)
    changed = 0
    for item in data['entries']:
        for action in item['actions']:
            action['matrix'] = [[x if '/' in x else float(x) for x in row]
                                for row in action['matrix']]
            changed += sum(isinstance(x, float)
                           for row in action['matrix'] for x in row)
    assert changed
    return json.dumps(data)


def matrix_entry_as(value):
    """The stored catalog file with its first matrix entry set to value."""
    def stored_with(stored: str) -> str:
        data = json.loads(stored)
        row = next(row for item in data['entries']
                   for action in item['actions']
                   for row in action['matrix'] if row)
        row[0] = value
        return json.dumps(data)
    return stored_with


# a matrix entry of another JSON type is refused for its type before
# the decoder, which keeps one Fraction per distinct string, hashes it
UNREADABLE = {
    '{"family": "A", "rank"': ('{"family": "A", "rank"', 'JSONDecodeError'),
    '[1, 2]': ('[1, 2]', 'TypeError'),
    '{}': ('{}', "KeyError: 'rank'"),
    'integers_as_floats': (integers_as_floats, 'expected a JSON str, not 1.0'),
    'matrix_entry_object': (matrix_entry_as({}),
                            'expected a JSON str, not {}'),
    'matrix_entry_list': (matrix_entry_as([]), 'expected a JSON str, not []'),
}


@pytest.mark.parametrize('text, reason', UNREADABLE.values(), ids=UNREADABLE)
def test_unreadable_cache_file_is_a_miss(tmp_path, capsys, text, reason):
    cache = str(tmp_path)
    catalog = fresh_catalog('A', 1)
    path = store_catalog(catalog, cache)
    if callable(text):
        with open(path) as fh:
            text = text(fh.read())
    with open(path, 'w') as fh:
        fh.write(text)
    assert load_cached_catalog(catalog.algebra, cache) is None
    err = capsys.readouterr().err
    assert f'warning: unreadable cache file {path} (' in err
    assert reason in err and err.endswith('; rebuilding it\n')


def test_cache_file_with_broken_entries_fails_validation(tmp_path,
                                                        break_entries):
    catalog = fresh_catalog('A', 2)
    path = store_catalog(catalog, str(tmp_path))
    with open(path) as fh:
        data = json.load(fh)
    break_entries(data['entries'])
    dump_json(data, path)
    with pytest.raises(InternalCheckError):
        load_cached_catalog(catalog.algebra, str(tmp_path))


def test_a_cache_dir_that_cannot_be_written_is_a_configuration_error(
        tmp_path):
    blocker = tmp_path / 'file'
    blocker.write_text('')
    with pytest.raises(ConfigurationError, match='cannot store cache file'):
        store_catalog(fresh_catalog('A', 1), str(blocker))


def test_dump_json_failure_keeps_the_old_file(tmp_path):
    target = tmp_path / 'data.json'
    dump_json({'a': 1}, str(target))
    before = target.read_bytes()
    with pytest.raises(TypeError):
        dump_json({'a': object()}, str(target))
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ['data.json']


def test_dump_json_writes_through_a_symlink(tmp_path):
    # a cache file or report that is a link keeps the link, and the file
    # it names gets the data instead of going stale
    target, link = tmp_path / 'data.json', tmp_path / 'link.json'
    target.write_text('stale')
    os.symlink(target, link)
    dump_json({'a': 1}, str(link))
    assert link.is_symlink() and json.loads(target.read_text()) == {'a': 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ['data.json',
                                                          'link.json']


def test_dump_json_is_deterministic(tmp_path):
    data = {'b': [1, 2, {'z': 'x', 'a': None}], 'a': 'text'}
    p1, p2 = tmp_path / 'one.json', tmp_path / 'two.json'
    dump_json(data, str(p1))
    dump_json(data, str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.endswith(b'\n')
