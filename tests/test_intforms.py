"""Module maps and module actions kept as integer forms.

Every block of a ModuleMap and every action matrix of a GradedModule is
one integer matrix over one positive denominator in lowest terms
(exactla.to_form), and the map arithmetic runs in ints on those forms.
Here it is checked against Fraction arithmetic on the blocks read back
as Fraction matrices (reference.blocks_of), for random rational
combinations of hom-basis maps between A2 and B2 catalog entries: with
zero coefficients, zero blocks and zero maps.
Equality compares forms, so it holds only if every form is in lowest
terms: a verification sweep must leave no other block behind.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from soergelind import induction
from soergelind.coxeter import RootSystem
from soergelind.exactla import normal, to_form
from soergelind.smod import AlgebraRecord, ModuleMap, _pair_trace, \
    build_catalog

from reference import action_of, block_of, blocks_of, map_of

_CATALOGS: dict = {}


def catalog_of(family):
    if family not in _CATALOGS:
        rs = RootSystem(family, 2)
        _CATALOGS[family] = build_catalog(AlgebraRecord(rs, (0, 1)))
    return _CATALOGS[family]


def hom_triples(family):
    """(y, z, k) for every nonzero hom space Hom^k(D_y, D_z), k in -4..6."""
    catalog = catalog_of(family)
    return [(y, z, k) for y in catalog.elements() for z in catalog.elements()
            for k in range(-4, 8, 2) if catalog.hom_basis(y, z, k)]


coefficients = st.one_of(st.just(Fraction(0)), st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3,
                                      max_denominator=12))


def combination(draw, catalog, y, z, k):
    basis = catalog.hom_basis(y, z, k)
    total = ModuleMap.zero(catalog.entry(y), catalog.entry(z), k)
    for f in basis:
        total = total + f.scale(draw(coefficients))
    return total


@st.composite
def composable(draw):
    """(f: D_y -> D_z, g: D_z -> D_w, h: D_y -> D_z)."""
    family = draw(st.sampled_from(['A', 'B']))
    catalog = catalog_of(family)
    y, z, k = draw(st.sampled_from(hom_triples(family)))
    onward = [t for t in hom_triples(family) if t[0] == z]
    _z, w, k2 = draw(st.sampled_from(onward))
    return (combination(draw, catalog, y, z, k),
            combination(draw, catalog, z, w, k2),
            combination(draw, catalog, y, z, k))


def ref_product(a, b, rows, cols):
    return [[sum((a[r][j] * b[j][c] for j in range(len(b))), Fraction(0))
             for c in range(cols)] for r in range(rows)]


def ref_compose(g, f):
    return {d: ref_product(block_of(g, d + f.degree), block_of(f, d),
                           g.target.dim_at(d + f.degree + g.degree),
                           f.source.dim_at(d))
            for d in f.source.degrees()
            if g.target.dim_at(d + f.degree + g.degree)}


def ref_combine(a, b, c):
    """The blocks of a + c b, entry by entry."""
    return {d: [[x + c * y for x, y in zip(ra, rb)]
                for ra, rb in zip(blocks_of(a)[d], blocks_of(b)[d])]
            for d in blocks_of(a)}


def ref_trace(p, i):
    return sum((block[r][r] for block in ref_compose(p, i).values()
                for r in range(len(block))), Fraction(0))


def ref_intertwines(m):
    src, tgt, k = m.source, m.target, m.degree
    for i in range(src.algebra.root_system.rank):
        for d in src.degrees():
            rows, cols = tgt.dim_at(d + k + 2), src.dim_at(d)
            lhs = ref_product(action_of(tgt, i, d + k), block_of(m, d),
                              rows, cols)
            rhs = ref_product(block_of(m, d + 2), action_of(src, i, d),
                              rows, cols)
            if lhs != rhs:
                return False
    return True


def is_lowest_terms(form):
    den, rows = form
    return den > 0 and gcd(den, *(x for row in rows for x in row)) == 1 \
        and any(x for row in rows for x in row)


@settings(max_examples=80, deadline=None)
@given(composable(), st.sampled_from([0, -1, 2, Fraction(-3, 4),
                                      Fraction(5, 6)]))
def test_integer_arithmetic_agrees_with_fractions(case, c):
    f, g, h = case
    assert blocks_of(g.compose(f)) == ref_compose(g, f)
    assert blocks_of(f + h) == ref_combine(f, h, 1)
    assert blocks_of(f - h) == ref_combine(f, h, -1)
    assert blocks_of(f.scale(c)) == {d: [[c * x for x in row] for row in block]
                                     for d, block in blocks_of(f).items()}
    assert f.is_zero() == all(not x for block in blocks_of(f).values()
                              for row in block for x in row)
    assert (f == h) == (blocks_of(f) == blocks_of(h))
    assert (f - f).is_zero() and f.scale(0).is_zero()
    assert (f + h) - h == f
    assert map_of(f.source, f.target, f.degree, blocks_of(f)) == f
    for m in (f, g, h, g.compose(f), f + h, f.scale(c)):
        assert all(is_lowest_terms(form) for form in m.forms.values())


@st.composite
def there_and_back(draw):
    """(i: D_y -> D_z of degree k, p: D_z -> D_y of degree -k)."""
    family = draw(st.sampled_from(['A', 'B']))
    catalog = catalog_of(family)
    triples = hom_triples(family)
    y, z, k = draw(st.sampled_from([(y, z, k) for y, z, k in triples
                                    if (z, y, -k) in triples]))
    return (combination(draw, catalog, y, z, k),
            combination(draw, catalog, z, y, -k))


@settings(max_examples=60, deadline=None)
@given(there_and_back())
def test_pair_trace_agrees_with_fractions(pair):
    i, p = pair
    assert _pair_trace(p, i) == ref_trace(p, i)


@settings(max_examples=60, deadline=None)
@given(composable(), st.data())
def test_intertwining_agrees_with_fractions(case, data):
    f, _g, _h = case
    assert f.check_intertwines()
    blocks = blocks_of(f)
    d = data.draw(st.sampled_from(sorted(blocks)))
    r = data.draw(st.integers(0, len(blocks[d]) - 1))
    col = data.draw(st.integers(0, len(blocks[d][0]) - 1))
    blocks[d][r][col] += data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    perturbed = map_of(f.source, f.target, f.degree, blocks)
    assert perturbed != f
    assert perturbed.check_intertwines() == ref_intertwines(perturbed)


@pytest.mark.parametrize('family', ['A', 'B'])
def test_a_perturbed_entry_breaks_most_maps(family):
    # every entry of every basis map, one at a time: a perturbed map
    # that still intertwines (a scalar on D_e, say) must be one by the
    # reference too, and most are refused
    catalog = catalog_of(family)
    verdicts = []
    for y, z, k in hom_triples(family):
        for f in catalog.hom_basis(y, z, k):
            for d, block in blocks_of(f).items():
                for r in range(len(block)):
                    for c in range(len(block[0])):
                        blocks = blocks_of(f)
                        blocks[d][r][c] += 1
                        bent = map_of(f.source, f.target, k, blocks)
                        verdicts.append(bent.check_intertwines())
                        assert verdicts[-1] == ref_intertwines(bent)
    assert verdicts.count(False) > 2 * verdicts.count(True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.integers(1, 12), st.integers(1, 12))
def test_forms_are_unique_whatever_the_denominator_given(rows, den, g):
    form = normal(den, rows)
    assert normal(den * g, [[g * x for x in row] for row in rows]) == form
    matrix = [[Fraction(x, den) for x in row] for row in rows]
    assert to_form(matrix) == form
    assert to_form([[Fraction(x * g, den * g) for x in row]
                    for row in rows]) == form
    if any(x for row in rows for x in row):
        assert is_lowest_terms(form)
    else:
        assert form is None


def test_lowest_terms_guard_refuses_a_form_with_a_common_factor():
    assert is_lowest_terms((3, [[1, 2]]))
    assert not is_lowest_terms((6, [[2, 4]]))
    assert not is_lowest_terms((-3, [[1, 2]]))
    assert not is_lowest_terms((1, [[0, 0]]))


def kept_maps(side):
    """Every map a root system's side keeps: the splittings and hom
    bases of its catalogs, and the components of its stored complexes
    and of their minimized theta rows."""
    catalogs = [side.catalog] + [s.sub_catalog for s in side.setups.values()]
    for catalog in catalogs:
        for _theta, pieces in catalog.theta_splittings.values():
            for _z, _k, incl, proj in pieces:
                yield incl
                yield proj
        for basis in catalog.hom_bases.values():
            yield from basis
    for cpx in side.induced.values():
        for complex_ in [cpx, *cpx._crossed.values()]:
            for comps in complex_.diffs.values():
                yield from comps.values()


def test_a_sweep_keeps_every_block_in_lowest_terms(monkeypatch):
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    monkeypatch.delenv('SOERGELIND_CACHE_DIR', raising=False)
    for family in ('A', 'B'):
        for subset in [(), (0,), (1,)]:
            reports = induction.run_group(family, 2, subset)
            assert all(r.status == 'pass' for rs in reports.values()
                       for r in rs)
    seen = 0
    for side in induction._SYSTEMS.values():
        for m in kept_maps(side):
            for form in m.forms.values():
                seen += 1
                assert is_lowest_terms(form), m
        for y in side.catalog.elements():
            for form in side.catalog.entry(y).forms.values():
                assert form is None or is_lowest_terms(form)
        assert any(cpx.diffs for cpx in side.induced.values())
    assert seen
