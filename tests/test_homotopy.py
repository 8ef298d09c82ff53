"""Formal complexes: tensoring, minimization, K_0, hom vanishing.

The decategorification dictionary sends a summand D_y<k> in homological
degree i to (-1)^i v^(k + l(y)) b_y -- the exponent measures the
displacement of the summand from its self-dual centering.  Under this
dictionary one tensor step multiplies the class by v H_s exactly, so
the two-step complex over the A1 generator must give (v H_s)^2, a
class that no bottom-normalized exponent convention can produce since
it has a negative-power coefficient.
"""

from fractions import Fraction

import pytest

from soergelind.coinvariants import build_coinvariants
from soergelind.coxeter import RootSystem
from soergelind.errors import (ConfigurationError, IncompatibilityError,
                               InternalCheckError)
from soergelind.hecke import hecke_multiply, hecke_standard, kl_basis
from soergelind.exactla import rank
from soergelind.homotopy import (FormalComplex, _coords_in_basis,
                                 _hom_differential, complex_from_module,
                                 complexes_isomorphic, direct_sum_complexes,
                                 gaussian_eliminate, hom_complex_basis,
                                 hom_complex_vanishing, is_minimal, k0_class,
                                 one_term_complex, tensor_rouquier,
                                 theta_complex)
from soergelind.laurent import LaurentPoly
from soergelind import smod
from soergelind.hecke import wall_crossing_summands
from soergelind.homotopy import theta_summands
from soergelind.serialize import load_cached_catalog, store_catalog
from soergelind.smod import (GradedModule, IndecomposableCatalog, ModuleMap,
                             build_catalog, direct_sum, end_space)
from soergelind.smod import _split_pair as split_pair

V = LaurentPoly({1: 1})

_CAT = {}


def catalog_of(family, rank):
    if (family, rank) not in _CAT:
        rs = RootSystem(family, rank)
        _CAT[(family, rank)] = build_catalog(
            build_coinvariants(rs, tuple(range(rank))))
    return _CAT[(family, rank)]


def word_el(rs, *letters_1based):
    return rs.element_from_word([i - 1 for i in letters_1based])


def rouquier_chain(catalog, letters):
    rs = catalog.algebra.root_system
    cpx = one_term_complex(catalog, [(rs.identity, 0)])
    for s in letters:
        cpx = gaussian_eliminate(tensor_rouquier(s, cpx))
    return cpx


# ---------------------------------------------------------------------------
# the K_0 dictionary on one-term complexes


def test_k0_of_single_summands():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    e, s1 = rs.identity, word_el(rs, 1)
    assert k0_class(one_term_complex(catalog, [(e, 0)])) == kl_basis(e)
    assert k0_class(one_term_complex(catalog, [(s1, 0)])) == \
        kl_basis(s1).scale(V)
    # shifts move the exponent, homological degree flips the sign
    assert k0_class(one_term_complex(catalog, [(s1, 2)], degree=0)) == \
        kl_basis(s1).scale(LaurentPoly.v(3))
    assert k0_class(one_term_complex(catalog, [(s1, 0)], degree=-1)) == \
        kl_basis(s1).scale(-V)


def test_k0_rejects_odd_shifts():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    with pytest.raises((ConfigurationError, InternalCheckError)):
        k0_class(one_term_complex(catalog, [(rs.identity, 1)]))


def test_complex_from_module_splits_sums():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    s1 = word_el(rs, 1)
    summed, _, _ = direct_sum([catalog.entry(s1),
                               catalog.entry(rs.identity).shift(2)])
    cpx = complex_from_module(catalog, summed)
    assert cpx.terms == {0: ((s1, 0), (rs.identity, 2))}
    assert k0_class(cpx) == kl_basis(s1).scale(V) + \
        kl_basis(rs.identity).scale(LaurentPoly.v(2))


# ---------------------------------------------------------------------------
# differentials are validated


def test_d_squared_is_enforced():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    e = rs.identity
    ident = ModuleMap.identity(catalog.entry(e))
    terms = {-2: ((e, 0),), -1: ((e, 0),), 0: ((e, 0),)}
    diffs = {-2: {(0, 0): ident}, -1: {(0, 0): ident}}
    with pytest.raises(InternalCheckError):
        FormalComplex(catalog, terms, diffs)


def test_differentials_must_be_degree_zero_maps():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    e = rs.identity
    ident = ModuleMap.identity(catalog.entry(e))
    # a degree-0 map cannot connect D_e<2> to D_e
    terms = {-1: ((e, 2),), 0: ((e, 0),)}
    with pytest.raises(IncompatibilityError):
        FormalComplex(catalog, terms, {-1: {(0, 0): ident}})


# ---------------------------------------------------------------------------
# Rouquier complexes over one generator


def test_two_term_complex_of_one_generator():
    catalog = catalog_of('A', 1)
    rs = catalog.algebra.root_system
    s = word_el(rs, 1)
    cpx = rouquier_chain(catalog, [0])
    assert cpx.terms == {-1: ((rs.identity, 2),), 0: ((s, 0),)}
    assert is_minimal(cpx)
    assert k0_class(cpx) == hecke_standard(s).scale(V)
    # minimizing a minimal complex changes nothing
    again = gaussian_eliminate(cpx)
    assert again.terms == cpx.terms


def test_squared_generator_gives_squared_class():
    # (v H_s)^2 has a v^1 coefficient AND a v^3 one on H_s: only the
    # centered exponent can reach below the bottom shift
    catalog = catalog_of('A', 1)
    rs = catalog.algebra.root_system
    s = word_el(rs, 1)
    cpx = rouquier_chain(catalog, [0, 0])
    expected = hecke_multiply(hecke_standard(s), hecke_standard(s))
    assert k0_class(cpx) == expected.scale(LaurentPoly.v(2))
    assert cpx.terms == {-2: ((rs.identity, 4),),
                         -1: ((s, 2),), 0: ((s, 0),)}


def test_reduced_words_give_isomorphic_complexes():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    w0 = word_el(rs, 1, 2, 1)
    left = rouquier_chain(catalog, [0, 1, 0])
    right = rouquier_chain(catalog, [1, 0, 1])
    assert k0_class(left) == hecke_standard(w0).scale(LaurentPoly.v(3))
    assert k0_class(left) == k0_class(right)
    assert complexes_isomorphic(left, right)


def test_longer_chain_stays_exact_in_b2():
    catalog = catalog_of('B', 2)
    rs = catalog.algebra.root_system
    w0 = word_el(rs, 1, 2, 1, 2)
    cpx = rouquier_chain(catalog, [0, 1, 0, 1])
    assert k0_class(cpx) == hecke_standard(w0).scale(LaurentPoly.v(4))


def test_sign_gauge_is_invisible():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    base = one_term_complex(catalog, [(rs.identity, 0)])
    plus = gaussian_eliminate(tensor_rouquier(0, base, sign=1))
    minus = gaussian_eliminate(tensor_rouquier(0, base, sign=-1))
    assert k0_class(plus) == k0_class(minus)
    assert complexes_isomorphic(plus, minus)


def test_tensor_step_refuses_an_uncalibrated_shift():
    # only the three calibration points name a vertical map
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    base = one_term_complex(catalog, [(rs.identity, 0)])
    with pytest.raises(ConfigurationError):
        tensor_rouquier(0, base, shift=4)


# ---------------------------------------------------------------------------
# wall-crossing of whole complexes


def test_theta_multiplies_class_by_v_bs():
    # for every catalog module, ascent or descent alike
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    for y in catalog.elements():
        base = one_term_complex(catalog, [(y, 0)])
        for s in range(rs.rank):
            crossed = gaussian_eliminate(theta_complex(s, base))
            expected = hecke_multiply(
                k0_class(base), kl_basis(rs.simple_reflection(s))).scale(V)
            assert k0_class(crossed) == expected, (y, s)


def test_theta_acts_degreewise():
    catalog = catalog_of('A', 2)
    cpx = rouquier_chain(catalog, [0, 1])
    crossed = theta_complex(0, cpx)
    assert crossed.support() == cpx.support()
    for i in cpx.support():
        n = sum(cpx.term_module(i)[0].graded_dims.values())
        m = sum(crossed.term_module(i)[0].graded_dims.values())
        assert m == 2 * n


# ---------------------------------------------------------------------------
# theta splittings: kept by the catalog build, reproduced after a reload


def assert_split(catalog, theta, pieces):
    total = ModuleMap.zero(theta, theta, 0)
    for z, _k, incl, proj in pieces:
        entry = catalog.entry(z)
        assert incl.source is entry and proj.target is entry
        assert incl.target is theta and proj.source is theta
        assert proj.compose(incl) == ModuleMap.identity(entry)
        total = total + incl.compose(proj)
    assert total == ModuleMap.identity(theta)


def count_split_pairs(monkeypatch):
    """Record the (entry, shift) of every split pair smod solves."""
    calls = []

    def counted(module, entry, k):
        calls.append((entry, k))
        return split_pair(module, entry, k)

    monkeypatch.setattr(smod, '_split_pair', counted)
    return calls


def fallback_solves(calls, catalog, s, y):
    """The solves of D_ys<0> against what is left of theta_s D_y: the
    peels of the other summands never offer D_ys at shift 0."""
    ys = catalog.entry(y * y.root_system.simple_reflection(s))
    return [k for entry, k in calls if entry is ys and k == 0]


@pytest.mark.parametrize('family,rank',
                         [('A', 2), ('B', 2), ('G', 2), ('A', 3)])
def test_a_reloaded_catalog_splits_theta_as_the_build_did(
        family, rank, tmp_path, monkeypatch):
    rs = RootSystem(family, rank)
    cold = build_catalog(build_coinvariants(rs, tuple(range(rank))))
    # one splitting per entry but the identity
    assert len(cold.theta_splittings) == len(cold.entries) - 1
    store_catalog(cold, str(tmp_path))
    warm = load_cached_catalog(cold.algebra, str(tmp_path))
    assert not warm.theta_splittings
    calls = count_split_pairs(monkeypatch)
    for (s, y), (theta, pieces) in cold.theta_splittings.items():
        assert_split(cold, theta, pieces)
        assert [(z, k) for z, k, _i, _p in pieces] == \
            wall_crossing_summands(y, s)
        del calls[:]
        _theta, again = theta_summands(warm, s, y)
        assert fallback_solves(calls, warm, s, y) == [], (s, y)
        assert [(z, k) for z, k, _i, _p in again] == \
            [(z, k) for z, k, _i, _p in pieces], (s, y)
        for (_z, k, incl, proj), (_z2, _k2, incl2, proj2) in zip(
                pieces, again):
            assert (incl2.degree, incl2.blocks) == (k, incl.blocks)
            assert (proj2.degree, proj2.blocks) == (-k, proj.blocks)


def rescaled(module):
    """module in the basis 2^(d/2) e of each degree d: isomorphic to it,
    with every nonzero action entry doubled."""
    return GradedModule(module.algebra, module.graded_dims,
                        {key: [[2 * x for x in row] for row in m]
                         for key, m in module.actions.items()})


def with_entry(catalog, w, module):
    entries = dict(catalog.entries)
    entries[w] = module
    return IndecomposableCatalog(catalog.algebra, entries)


def test_a_rebased_entry_is_split_through_a_solved_pair(monkeypatch):
    catalog = catalog_of('B', 2)
    rs = catalog.algebra.root_system
    calls = count_split_pairs(monkeypatch)
    ascents = [(s, y) for y in catalog.elements() for s in range(rs.rank)
               if not y.has_right_descent(s)]
    assert ascents
    for s, y in ascents:
        ys = y * rs.simple_reflection(s)
        other = with_entry(catalog, ys, rescaled(catalog.entry(ys)))
        del calls[:]
        theta, pieces = theta_summands(other, s, y)
        assert fallback_solves(calls, other, s, y) == [0], (s, y)
        assert [(z, k) for z, k, _i, _p in pieces] == \
            wall_crossing_summands(y, s)
        assert_split(other, theta, pieces)


def test_an_entry_that_does_not_split_off_theta_is_refused():
    catalog = catalog_of('B', 2)
    rs = catalog.algebra.root_system
    y, s = word_el(rs, 1, 2), 0
    ys = y * rs.simple_reflection(s)
    assert len(wall_crossing_summands(y, s)) == 2
    # the same graded dimensions, every variable acting by zero
    flat = GradedModule(catalog.algebra, catalog.entry(ys).graded_dims, {})
    with pytest.raises(InternalCheckError, match='does not split off'):
        theta_summands(with_entry(catalog, ys, flat), s, y)


# ---------------------------------------------------------------------------
# Gaussian elimination


def contractible_two_term(catalog, y, shift=0, degree=-1):
    # components are stored against the unshifted catalog entries
    ident = ModuleMap.identity(catalog.entry(y))
    return FormalComplex(catalog,
                         {degree: ((y, shift),), degree + 1: ((y, shift),)},
                         {degree: {(0, 0): ident}})


def test_elimination_kills_contractible_summands():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    s1 = word_el(rs, 1)
    acyclic = contractible_two_term(catalog, s1, shift=2)
    assert k0_class(acyclic) == kl_basis(s1).scale(LaurentPoly.zero())
    assert gaussian_eliminate(acyclic).is_zero()
    base = rouquier_chain(catalog, [1, 0])
    fat = direct_sum_complexes(base, acyclic)
    slim = gaussian_eliminate(fat)
    assert k0_class(fat) == k0_class(base)
    assert complexes_isomorphic(slim, base)
    assert is_minimal(slim)


def test_elimination_reindexes_the_survivors():
    # contractible pieces placed before the surviving summands, in one
    # pair of degrees and in two adjacent pairs, shift every index the
    # survivors have; minimizing must give the base complex exactly
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    s1 = word_el(rs, 1)
    base = rouquier_chain(catalog, [1, 0])
    assert set(base.terms) == {-2, -1, 0}
    one = direct_sum_complexes(contractible_two_term(catalog, s1, 2), base)
    two = direct_sum_complexes(
        contractible_two_term(catalog, rs.identity, 4, degree=-2), one)
    for fat in (one, two):
        assert not is_minimal(fat)
        assert gaussian_eliminate(fat).to_json() == \
            gaussian_eliminate(base).to_json()


def test_elimination_reaches_a_minimal_complex():
    catalog = catalog_of('B', 2)
    cpx = rouquier_chain(catalog, [0, 1, 0])
    assert is_minimal(cpx)
    raw = tensor_rouquier(1, cpx)
    assert not is_minimal(raw)
    assert is_minimal(gaussian_eliminate(raw))
    assert k0_class(raw) == k0_class(gaussian_eliminate(raw))


# ---------------------------------------------------------------------------
# direct sums of complexes


def test_direct_sum_complexes_adds_classes():
    catalog = catalog_of('A', 2)
    a = rouquier_chain(catalog, [0])
    b = rouquier_chain(catalog, [1, 0])
    summed = direct_sum_complexes(a, b)
    assert k0_class(summed) == k0_class(a) + k0_class(b)
    summed.verify_d_squared()


def test_direct_sum_complexes_requires_one_catalog():
    a = rouquier_chain(catalog_of('A', 2), [0])
    b = rouquier_chain(catalog_of('B', 2), [0])
    with pytest.raises(ConfigurationError):
        direct_sum_complexes(a, b)


# ---------------------------------------------------------------------------
# hom spaces of complexes


def test_identity_chain_map_is_detected():
    catalog = catalog_of('A', 2)
    cpx = rouquier_chain(catalog, [0, 1])
    assert hom_complex_vanishing(cpx, cpx) is False


def test_hom_vanishing_along_a_chain_step():
    # no nonzero maps, up to homotopy, from the complex of a word to
    # the complex of a longer word
    catalog = catalog_of('A', 2)
    shorter = rouquier_chain(catalog, [0])
    longer = rouquier_chain(catalog, [0, 1])
    assert hom_complex_vanishing(shorter, longer) is True


def test_contractible_complex_has_only_null_homotopic_maps():
    # the cone D_s1 --id--> D_s1 has the identity among its chain maps,
    # and the identity homotopy kills it; added to a chain, the chain's
    # own identity survives
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    cone = contractible_two_term(catalog, word_el(rs, 1), shift=2)
    _grid, chain_maps = hom_complex_basis(cone, cone)
    assert chain_maps
    assert hom_complex_vanishing(cone, cone) is True
    fat = direct_sum_complexes(rouquier_chain(catalog, [0]), cone)
    assert hom_complex_vanishing(fat, fat) is False


def test_null_homotopic_maps_are_chain_maps():
    # D_0 D_{-1} = 0: the boundary of every homotopy is a chain map.
    # Minimized chains of this length have no homotopies at all, so the
    # chains are taken before elimination.
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    chains = []
    for word in [[], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1]]:
        cpx = one_term_complex(catalog, [(rs.identity, 0)])
        for s in word:
            cpx = tensor_rouquier(s, cpx)
        chains.append(cpx)
    boundaries = 0
    for x in chains:
        for y in chains:
            grid, chain_maps = hom_complex_basis(x, y, 0)
            _hgrid, columns = _hom_differential(x, y, -1)
            for col in columns:
                vec = [0] * grid.size
                for (i, a, b, t), v in col.items():
                    vec[grid.offset[(i, a, b)] + t] += v
                assert rank(chain_maps + [vec]) == len(chain_maps)
                boundaries += any(vec)
    assert boundaries


def test_coords_in_basis_rejects_a_map_outside_the_span():
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    entry = catalog.entry(word_el(rs, 1))
    basis = end_space(entry)
    assert _coords_in_basis([ModuleMap.identity(entry).scale(3)],
                            basis) == [[3]]
    # identity in degree 0 and zero in degree 2 does not commute with x
    half = ModuleMap(entry, entry, 0, {0: [[Fraction(1)]]})
    assert not half.check_intertwines()
    with pytest.raises(InternalCheckError):
        _coords_in_basis([half], basis)


def test_isomorphism_test_rejects_distinct_classes():
    catalog = catalog_of('A', 2)
    a = rouquier_chain(catalog, [0])
    b = rouquier_chain(catalog, [1])
    assert not complexes_isomorphic(a, b)
    # a shift of the same complex is not isomorphic to it either
    shifted = FormalComplex(
        a.catalog,
        {i: tuple((y, k + 2) for y, k in row) for i, row in a.terms.items()},
        a.diffs)
    assert not complexes_isomorphic(a, shifted)


def test_isomorphism_needs_a_combination_of_chain_maps():
    # a = D_e<2> -> D_s1; no chain map of a basis of End(a + a) is
    # invertible, so only the 2x2 block determinants can tell
    catalog = catalog_of('A', 2)
    a = rouquier_chain(catalog, [0])
    assert a.diffs
    bare = FormalComplex(catalog, a.terms, {})
    assert complexes_isomorphic(direct_sum_complexes(a, a),
                                direct_sum_complexes(a, a))
    assert not complexes_isomorphic(direct_sum_complexes(a, a),
                                    direct_sum_complexes(a, bare))
    # the degree-0 block is [[0, u], [v, w]] here, so its determinant
    # -uv comes from the off-diagonal entries alone
    assert complexes_isomorphic(direct_sum_complexes(a, bare),
                                direct_sum_complexes(bare, a))


def test_isomorphism_test_rejects_a_tampered_endomorphism_basis():
    rs = RootSystem('A', 1)
    catalog = build_catalog(build_coinvariants(rs, (0,)))
    cpx = one_term_complex(catalog, [(rs.identity, 0)])
    one = ModuleMap.identity(catalog.entry(rs.identity))
    catalog.hom_bases[(rs.identity, rs.identity, 0)] = [one, one.scale(2)]
    with pytest.raises(InternalCheckError):
        complexes_isomorphic(cpx, cpx)
