"""Graded modules over coinvariant algebras and the indecomposables.

The central cross-check runs in two unrelated ways: splitting the
wall-crossing of a catalog module into indecomposable summands, and
multiplying Kazhdan-Lusztig basis elements in the Hecke algebra.  The
multiset of summands (with shifts) must match the coefficients of the
product, and neither computation knows about the other.
"""

import random
from collections import Counter

import pytest

from soergelind.coinvariants import build_coinvariants
from soergelind.coxeter import RootSystem
from soergelind import smod
from soergelind.errors import ConfigurationError, InternalCheckError
from soergelind.hecke import hecke_multiply, kl_basis, wall_crossing_summands
from soergelind.homotopy import theta_summands
from soergelind.laurent import LaurentPoly
from soergelind.smod import (ModuleMap, bott_samelson, build_catalog,
                             decompose, direct_sum, end_space, hom_space,
                             induce_frobenius, is_indecomposable,
                             is_isomorphic, restrict_module, trivial_module,
                             verify_relations, zero_module)

_RS = {}
_ALG = {}


def group(family, rank):
    if (family, rank) not in _RS:
        _RS[(family, rank)] = RootSystem(family, rank)
    return _RS[(family, rank)]


def algebra(family, rank, subset=None):
    key = (family, rank, subset)
    if key not in _ALG:
        use = tuple(range(rank)) if subset is None else subset
        _ALG[key] = build_coinvariants(group(family, rank), use)
    return _ALG[key]


def word_el(rs, *letters_1based):
    return rs.element_from_word([i - 1 for i in letters_1based])


# ---------------------------------------------------------------------------
# basic module mechanics


def test_trivial_and_zero_modules():
    C = algebra('A', 2)
    triv = trivial_module(C)
    assert triv.graded_dims == {0: 1}
    assert zero_module(C).is_zero()
    assert not triv.is_zero()
    shifted = triv.shift(4)
    assert shifted.graded_dims == {4: 1}
    assert shifted.bottom_degree() == 4


def test_shift_must_stay_even():
    C = algebra('A', 2)
    with pytest.raises(ConfigurationError):
        trivial_module(C).shift(1)


def test_direct_sum_with_inclusions_and_projections():
    C = algebra('A', 2)
    a = trivial_module(C)
    b = trivial_module(C).shift(2)
    total, incls, projs = direct_sum([a, b])
    assert total.graded_dims == {0: 1, 2: 1}
    # projections split the inclusions
    for inc, pr, piece in zip(incls, projs, (a, b)):
        comp = pr.compose(inc)
        assert (comp - ModuleMap.identity(piece)).is_zero()
    assert projs[0].compose(incls[1]).is_zero()


def test_bott_samelson_dimensions():
    # dim B_w = 2^(len(word)), bottom degree 0 after normalization
    C = algebra('A', 2)
    for word in [(0,), (1,), (0, 1), (0, 1, 0)]:
        B = bott_samelson(C, word)
        assert sum(B.graded_dims.values()) == 2 ** len(word)
        assert B.bottom_degree() == 0
        verify_relations(B)


def test_wall_crossing_doubles_dimension():
    C = algebra('B', 2)
    catalog = build_catalog(C)
    for y in catalog.elements():
        D = catalog.entry(y)
        for i in range(2):
            theta = induce_frobenius(i, D)
            assert sum(theta.graded_dims.values()) == \
                2 * sum(D.graded_dims.values())
            verify_relations(theta)


# ---------------------------------------------------------------------------
# the catalog of indecomposables


_CAT = {}


def catalog_of(family, rank):
    if (family, rank) not in _CAT:
        _CAT[(family, rank)] = build_catalog(algebra(family, rank))
    return _CAT[(family, rank)]


def test_catalog_has_one_entry_per_element():
    for family, rank in [('A', 2), ('B', 2)]:
        rs = algebra(family, rank).root_system
        catalog = catalog_of(family, rank)
        assert len(catalog.elements()) == len(rs.elements)
        for y in catalog.elements():
            entry = catalog.entry(y)
            assert entry.bottom_degree() == 0
            assert is_indecomposable(entry)


def test_catalog_literal_dims_a2():
    # in A2 all Schubert varieties are smooth, so D_y has the graded
    # dimensions of the (doubled) Poincare polynomial of [e, y]
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    expected = {
        (): {0: 1},
        (1,): {0: 1, 2: 1},
        (2,): {0: 1, 2: 1},
        (1, 2): {0: 1, 2: 2, 4: 1},
        (2, 1): {0: 1, 2: 2, 4: 1},
        (1, 2, 1): {0: 1, 2: 2, 4: 2, 6: 1},
    }
    for word, dims in expected.items():
        y = word_el(rs, *word)
        assert catalog.entry(y).graded_dims == dims


def test_catalog_literal_dims_b2_longest():
    catalog = catalog_of('B', 2)
    rs = catalog.algebra.root_system
    w0 = word_el(rs, 1, 2, 1, 2)
    assert catalog.entry(w0).graded_dims == {0: 1, 2: 2, 4: 2, 6: 2, 8: 1}


def test_catalog_literal_dims_singular_a3():
    # s2 s1 s3 s2: the singular Schubert variety; the naive orbit count
    # {0:1, 2:4, 4:7, 6:4, 8:1} total 17 is wrong, intersection
    # cohomology gives 16 with a 6 in the middle
    catalog = catalog_of('A', 3)
    rs = catalog.algebra.root_system
    y = word_el(rs, 2, 1, 3, 2)
    assert catalog.entry(y).graded_dims == {0: 1, 2: 4, 4: 6, 6: 4, 8: 1}


def test_catalog_dims_are_palindromic():
    for family, rank in [('A', 2), ('B', 2)]:
        catalog = catalog_of(family, rank)
        for y in catalog.elements():
            dims = catalog.entry(y).graded_dims
            top = max(dims)
            assert top == 2 * y.length
            assert dims == {top - d: n for d, n in dims.items()}


def test_identify_recognizes_shifts_and_rejects_strangers():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    s1 = word_el(rs, 1)
    shifted = catalog.entry(s1).shift(6)
    assert catalog.identify(shifted) == (s1, 6)
    two = direct_sum([catalog.entry(s1), catalog.entry(s1)])[0]
    assert catalog.identify(two) is None


# ---------------------------------------------------------------------------
# splitting against the Hecke algebra (the dual route)


def hecke_summand_multiset(y, s_index):
    """Expected summands of theta_s D_y from the product b_y b_s.

    Writing b_y b_s = sum_z m_z(v) b_z with m_z palindromic, a
    coefficient of v^j in m_z contributes one copy of D_z<k> with
    k = l(y) + 1 + j - l(z): summand shifts measure displacement from
    the self-dual centering, and one wall-crossing moves the center up
    by one.  The expansion peels the longest term repeatedly.
    """
    rs = y.root_system
    prod = hecke_multiply(kl_basis(y), kl_basis(rs.simple_reflection(s_index)))
    out = Counter()
    while prod.terms:
        z = max(prod.terms, key=lambda u: (u.length, u.word))
        m_z = prod.terms[z]
        for j, c in sorted(m_z.terms.items()):
            assert c.denominator == 1 and c > 0
            out[(z, y.length + 1 + j - z.length)] += int(c)
        prod = prod - kl_basis(z).scale(m_z)
    return out


@pytest.mark.parametrize('family,rank', [('A', 2), ('B', 2)])
def test_splitting_matches_hecke_product(family, rank):
    catalog = catalog_of(family, rank)
    rs = catalog.algebra.root_system
    for y in catalog.elements():
        for i in range(rank):
            theta = induce_frobenius(i, catalog.entry(y))
            got = Counter()
            for z, k, _incl, _proj in decompose(theta, catalog.entries):
                assert z is not None, (y, i)
                got[(z, k)] += 1
            assert got == hecke_summand_multiset(y, i), (y, i)


@pytest.mark.parametrize('family,rank', [('A', 2), ('B', 2), ('G', 2)])
def test_search_and_guided_splittings_agree_with_the_hecke_product(
        family, rank):
    # the search finds summands with no Hecke input, so it checks the
    # guided splitting that theta_summands peels from b_y b_s
    catalog = catalog_of(family, rank)
    for y in catalog.elements():
        for i in range(rank):
            theta = induce_frobenius(i, catalog.entry(y))
            searched = Counter((z, k) for z, k, _i, _p
                               in decompose(theta, catalog.entries))
            _theta, pieces = theta_summands(catalog, i, y)
            guided = Counter((z, k) for z, k, _i, _p in pieces)
            assert searched == hecke_summand_multiset(y, i), (y, i)
            assert guided == searched, (y, i)
            assert Counter(wall_crossing_summands(y, i)) == searched


def test_pieces_add_up_to_the_identity():
    catalog = catalog_of('B', 2)
    for y in catalog.elements():
        for i in range(2):
            theta, pieces = theta_summands(catalog, i, y)
            total = ModuleMap.zero(theta, theta, 0)
            for z, k, incl, proj in pieces:
                assert proj.compose(incl) == \
                    ModuleMap.identity(catalog.entry(z))
                total = total + incl.compose(proj)
            assert total == ModuleMap.identity(theta)


def test_a_bogus_predicted_summand_is_refused():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    s1 = word_el(rs, 1)
    theta = induce_frobenius(0, catalog.entry(s1))
    predicted = wall_crossing_summands(s1, 0)
    for bogus in [(rs.identity, 0), (s1, 4), (word_el(rs, 2), 0)]:
        for wanted in (predicted + [bogus], [bogus] + predicted):
            with pytest.raises(InternalCheckError):
                decompose(theta, catalog.entries, wanted)


def test_a_missing_predicted_summand_stops_the_catalog(monkeypatch):
    # b_{s1 s2} b_{s1} = b_{s1 s2 s1} + b_{s1}: without the b_{s1}, the
    # module left for s1 s2 s1 is D_{s1 s2 s1} + D_{s1}<2>
    full = smod.wall_crossing_summands
    monkeypatch.setattr(smod, 'wall_crossing_summands', lambda y, i: [
        t for t in full(y, i) if t[0].length > y.length])
    with pytest.raises(InternalCheckError):
        build_catalog(algebra('A', 2))


def test_descent_case_gives_two_shifted_copies():
    # theta_s D_s = D_s<0> + D_s<2>, the categorified (v + 1/v) b_s
    # in its bottom-0 normalization
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    s1 = word_el(rs, 1)
    theta = induce_frobenius(0, catalog.entry(s1))
    parts = Counter((z, k) for z, k, _i, _p
                    in decompose(theta, catalog.entries))
    assert parts == {(s1, 0): 1, (s1, 2): 1}


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_space_literals():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    e, s1 = rs.identity, word_el(rs, 1)
    assert len(hom_space(catalog.entry(e), catalog.entry(e), 0)) == 1
    # the quotient map C_{s1} -> triv lives in degree 0 ...
    assert len(hom_space(catalog.entry(s1), catalog.entry(e), 0)) == 1
    # ... but there is no map back in degree 0
    assert len(hom_space(catalog.entry(e), catalog.entry(s1), 0)) == 0
    assert len(hom_space(catalog.entry(e), catalog.entry(s1), 2)) == 1


def test_end_space_of_indecomposable_is_local():
    # degree-0 endomorphisms of each D_y: scalars only
    catalog = catalog_of('B', 2)
    for y in catalog.elements():
        entry = catalog.entry(y)
        assert len(hom_space(entry, entry, 0)) == 1
        assert len(end_space(entry)) >= 1


def test_end_space_of_the_largest_a3_theta_module():
    # theta_s2 D_{s1 s2 s3 s2 s1}: 490 unknowns and 1284 equations, the
    # largest hom system of the corpus; taking its rows in the order
    # they are generated instead of sparsest first made this one solve
    # dominate the whole verification sweep
    catalog = catalog_of('A', 3)
    rs = catalog.algebra.root_system
    theta = induce_frobenius(1, catalog.entry(word_el(rs, 1, 2, 3, 2, 1)))
    assert sum(n * n for n in theta.graded_dims.values()) == 490
    assert len(end_space(theta)) == 3


def test_hom_respects_shifts():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    s2 = word_el(rs, 2)
    entry = catalog.entry(s2)
    n0 = len(hom_space(entry, entry.shift(2), 2))
    n1 = len(hom_space(entry, entry, 0))
    assert n0 == n1


# ---------------------------------------------------------------------------
# Krull-Schmidt: decomposition is unique up to order and isomorphism


def test_krull_schmidt_random_sums():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    entries = [catalog.entry(y) for y in catalog.elements()]
    for seed in range(20):
        rng = random.Random(seed)
        picks = [rng.choice(entries).shift(2 * rng.randint(0, 2))
                 for _ in range(rng.randint(2, 4))]
        left, _, _ = direct_sum(picks)
        rng.shuffle(picks)
        right, _, _ = direct_sum(picks)
        assert is_isomorphic(left, right) is not None
        got = Counter()
        for z, k, _incl, _proj in decompose(left, catalog.entries):
            assert z is not None
            got[(z, k)] += 1
        expected = Counter()
        for m in picks:
            hit = catalog.identify(m)
            expected[hit] += 1
        assert got == expected


def test_is_isomorphic_rejects_non_isomorphic():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    s1, s2 = word_el(rs, 1), word_el(rs, 2)
    assert is_isomorphic(catalog.entry(s1), catalog.entry(s2)) is None
    assert is_isomorphic(catalog.entry(s1),
                         catalog.entry(s1).shift(2)) is None


# ---------------------------------------------------------------------------
# restriction of modules along the parabolic surjection


def test_restricted_catalog_entries_keep_dimensions():
    from soergelind.coinvariants import restriction_surjection
    full = algebra('A', 2)
    sub = algebra('A', 2, (0,))
    rs = full.root_system
    rmap = restriction_surjection(rs, (0,), source=full, target=sub)
    sub_catalog = build_catalog(sub)
    for y in sub_catalog.elements():
        entry = sub_catalog.entry(y)
        inflated = restrict_module(rmap, entry)
        assert inflated.graded_dims == entry.graded_dims
        verify_relations(inflated)
