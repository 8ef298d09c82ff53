"""Exact serialization: fractions, modules, catalogs, report files.

Round trips must reproduce objects on the nose (no floats anywhere),
and the on-disk catalog cache must hand back modules that still pass
the full structural validation.
"""

from fractions import Fraction

import pytest

from soergelind.coinvariants import build_coinvariants
from soergelind.coxeter import RootSystem
from soergelind.serialize import (catalog_cache_path, catalog_from_json,
                                  catalog_to_json, content_key, dump_json,
                                  fraction_from_str, fraction_to_str,
                                  load_cached_catalog, matrix_from_json,
                                  matrix_to_json, module_from_json,
                                  module_to_json, store_catalog)
from soergelind.smod import build_catalog, is_isomorphic, verify_relations


def fresh_catalog(family='A', rank=2, subset=None):
    rs = RootSystem(family, rank)
    use = tuple(range(rank)) if subset is None else subset
    return build_catalog(build_coinvariants(rs, use))


def test_fraction_strings():
    for f in [Fraction(0), Fraction(7), Fraction(-3, 2), Fraction(1, 12)]:
        assert fraction_from_str(fraction_to_str(f)) == f
    assert fraction_to_str(Fraction(5)) == '5'
    assert fraction_to_str(Fraction(-1, 2)) == '-1/2'


def test_matrix_round_trip_preserves_shape():
    m = [[Fraction(1, 2), Fraction(0)], [Fraction(-3), Fraction(2, 7)]]
    assert matrix_from_json(matrix_to_json(m)) == m
    tall = [[Fraction(1)], [Fraction(2)]]
    assert matrix_from_json(matrix_to_json(tall)) == tall


def test_module_round_trip():
    catalog = fresh_catalog()
    rs = catalog.algebra.root_system
    for y in catalog.elements():
        entry = catalog.entry(y)
        back = module_from_json(catalog.algebra, module_to_json(entry))
        assert back.graded_dims == entry.graded_dims
        verify_relations(back)
        assert is_isomorphic(back, entry) is not None


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
    with pytest.raises(Exception):
        catalog_from_json(algebra2, broken)


def test_content_key_separates_data():
    rs = RootSystem('A', 2)
    full = content_key(rs, (0, 1))
    sub = content_key(rs, (0,))
    other = content_key(RootSystem('B', 2), (0, 1))
    assert len({full, sub, other}) == 3
    assert content_key(RootSystem('A', 2), (0, 1)) == full


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


@pytest.mark.parametrize('text', ['{"family": "A", "rank"', '[1, 2]', '{}'])
def test_unreadable_cache_file_is_a_miss(tmp_path, capsys, text):
    cache = str(tmp_path)
    catalog = fresh_catalog('A', 1)
    path = store_catalog(catalog, cache)
    with open(path, 'w') as fh:
        fh.write(text)
    assert load_cached_catalog(catalog.algebra, cache) is None
    assert 'unreadable cache file' in capsys.readouterr().err


def test_dump_json_failure_keeps_the_old_file(tmp_path):
    target = tmp_path / 'data.json'
    dump_json({'a': 1}, str(target))
    before = target.read_bytes()
    with pytest.raises(TypeError):
        dump_json({'a': object()}, str(target))
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ['data.json']


def test_dump_json_is_deterministic(tmp_path):
    data = {'b': [1, 2, {'z': 'x', 'a': None}], 'a': 'text'}
    p1, p2 = tmp_path / 'one.json', tmp_path / 'two.json'
    dump_json(data, str(p1))
    dump_json(data, str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.endswith(b'\n')
