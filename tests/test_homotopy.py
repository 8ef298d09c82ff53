"""Formal complexes: tensoring, minimization, K_0, hom vanishing.

The decategorification dictionary sends a summand D_y<k> in homological
degree i to (-1)^i v^(k + l(y)) b_y -- the exponent measures the
displacement of the summand from its self-dual centering.  Under this
dictionary one tensor step multiplies the class by v H_s exactly, so
the two-step complex over the A1 generator must give (v H_s)^2, a
class that no bottom-normalized exponent convention can produce since
it has a negative-power coefficient.
"""

from collections import Counter
from fractions import Fraction

import pytest

from soergelind.coinvariants import build_coinvariants
from soergelind.coxeter import RootSystem, admissible_chain
from soergelind.errors import (ConfigurationError, IncompatibilityError,
                               InternalCheckError)
from soergelind.hecke import hecke_multiply, hecke_standard, kl_basis
from soergelind.exactla import nullspace, solve_matrix
from soergelind.homotopy import (FormalComplex, _HomGrid, complex_from_module,
                                 complexes_isomorphic, gaussian_eliminate,
                                 hom_complex_basis,
                                 hom_complex_vanishing, is_minimal, k0_class,
                                 one_term_complex, tensor_rouquier,
                                 theta_complex, wall_crossed)
from soergelind.laurent import LaurentPoly
from soergelind import homotopy, induction, smod
from soergelind.hecke import wall_crossing_summands
from soergelind.homotopy import theta_summands
from soergelind.serialize import (fraction_to_str, load_cached_catalog,
                                  store_catalog)
from soergelind.smod import (GradedModule, IndecomposableCatalog, ModuleMap,
                             build_catalog, direct_sum)
from soergelind.smod import _split_pair as split_pair

from reference import actions_of, blocks_of, direct_sum_complexes, map_of, \
    module_of

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
    assert sorted(crossed.terms) == sorted(cpx.terms)
    for i in sorted(cpx.terms):
        n = sum(catalog.entry(y).total_dim() for y, _k in cpx.terms[i])
        m = sum(catalog.entry(y).total_dim() for y, _k in crossed.terms[i])
        assert m == 2 * n


def stored_complexes(family, rank):
    """Every complex the induction store of the root system holds once
    each of its parabolic groups has induced all its classes."""
    for subset in induction.proper_subsets(rank):
        setup = induction.make_setup(family, rank, subset)
        induction.induce_all(setup)
    return list(setup.side.induced.values())


def test_the_json_differentials_are_the_strings_of_every_block():
    # every stored complex of A3 I = {1, 2}: each component is written
    # with one block per source degree whose target piece is nonzero,
    # as the strings of its dense matrix
    setup = induction.make_setup('A', 3, (0, 1))
    written_blocks = []
    for cpx in induction.induce_all(setup).values():
        written = cpx.to_json()['differentials']
        assert sorted(written) == sorted(str(i) for i in cpx.diffs)
        for i, comps in cpx.diffs.items():
            entries = written[str(i)]
            assert [(e['to'], e['from']) for e in entries] == sorted(comps)
            for e, (_key, phi) in zip(entries, sorted(comps.items())):
                want = {str(d): [[fraction_to_str(x) for x in row]
                                 for row in block]
                        for d, block in blocks_of(phi).items()}
                assert e['blocks'] == want
                written_blocks += want.values()
    assert written_blocks
    # no component there has a zero block; one is written in full
    catalog = catalog_of('A', 1)
    s1 = catalog.algebra.root_system.element_from_word([0])
    bottom = map_of(catalog.entry(s1), catalog.entry(s1), 0, {0: [[1]]})
    cpx = FormalComplex(catalog, {-1: ((s1, 0),), 0: ((s1, 0),)},
                        {-1: {(0, 0): bottom}})
    assert cpx.to_json()['differentials'] == {'-1': [
        {'from': 0, 'to': 0, 'blocks': {'0': [['1']], '2': [['0']]}}]}


@pytest.mark.parametrize('family,rank', [('A', 2), ('B', 2), ('G', 2)])
def test_the_tensor_step_is_the_cone_over_the_theta_row(family, rank):
    # degree i lists X^{i+1}<2>, then the row; the row's components are
    # copied at an offset, the X block carries -d_X, and every other
    # component is vertical: from a summand of X^{i+1} into its own
    # theta block
    for cpx in stored_complexes(family, rank):
        for s in range(rank):
            row, cone = theta_complex(s, cpx), tensor_rouquier(s, cpx)
            degrees = set(cpx.terms) | {j - 1 for j in cpx.terms}
            assert set(cone.terms) <= degrees
            for i in degrees:
                shifted = cpx.summands(i + 1)
                n1, n2 = len(shifted), len(cpx.summands(i + 2))
                assert cone.summands(i) == tuple(
                    (y, k + 2) for (y, k) in shifted) + row.summands(i)
                comps = cone.diffs.get(i, {})
                assert {(b - n2, a - n1): phi for (b, a), phi in comps.items()
                        if a >= n1} == row.diffs.get(i, {})
                assert {(b, a): phi for (b, a), phi in comps.items()
                        if a < n1 and b < n2} == {
                    key: -phi for key, phi in cpx.diffs.get(i + 1, {}).items()}
                starts = [n2]
                for (y, _k) in shifted:
                    starts.append(
                        starts[-1] + len(theta_summands(cpx.catalog, s, y)[1]))
                for (b, a), phi in comps.items():
                    if a < n1 and b >= n2:
                        assert starts[a] <= b < starts[a + 1], (i, b, a)


@pytest.mark.parametrize('family,rank', [('A', 2), ('B', 2)])
def test_wall_crossed_is_the_minimized_theta_row_kept_once(family, rank):
    for cpx in stored_complexes(family, rank):
        for s in range(rank):
            crossed = wall_crossed(s, cpx)
            assert wall_crossed(s, cpx) is crossed
            assert crossed.to_json() == gaussian_eliminate(
                theta_complex(s, cpx)).to_json()


def count_theta_rows(monkeypatch):
    """A list that gains one entry per theta row built."""
    rows = []
    original = homotopy.theta_complex

    def counted(s, cpx):
        rows.append(s)
        return original(s, cpx)

    monkeypatch.setattr(homotopy, 'theta_complex', counted)
    return rows


def test_every_prefix_keeps_its_row_for_the_next_letter(monkeypatch):
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    setup = induction.make_setup('B', 2, ())
    w0 = setup.coset_reps()[-1]
    chain = admissible_chain(setup.datum, w0)
    e = setup.rs.identity
    induction.induce(setup, e, w0)
    rows = count_theta_rows(monkeypatch)
    for n, s in enumerate(chain):
        wall_crossed(s, setup.side.induced[(e, chain[:n])])
    assert rows == []


def test_a_wall_check_off_the_chain_builds_its_row_once(monkeypatch):
    # the word of ws is not the word of w followed by s, so no tensor
    # step crossed ind_w with s
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    setup = induction.make_setup('A', 2, ())
    induction.induce_all(setup)
    word = {w: admissible_chain(setup.datum, w)
            for w in setup.coset_reps()}
    x, w, s = next(
        (x, w, s) for x, w, s in induction.wall_crossing_triples(setup)
        if word[w * setup.rs.simple_reflection(s)] != word[w] + (s,))
    rows = count_theta_rows(monkeypatch)
    first = induction.verify_wall_crossing(setup, x, w, s)
    second = induction.verify_wall_crossing(setup, x, w, s)
    assert rows == [s] and first.ok()
    assert dict(first.to_json(), timing=0) == dict(second.to_json(), timing=0)


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


def twins(catalog):
    """The entries of a full catalog that are the image of an earlier
    one, in (length, word) order, under a diagram automorphism."""
    rs = catalog.algebra.root_system
    return [w for w in catalog.elements()
            if any((v.length, v.word) < (w.length, w.word)
                   for sigma in rs.diagram_automorphisms
                   for v in [rs.apply_automorphism(sigma, w)])]


@pytest.mark.parametrize('family,rank',
                         [('A', 2), ('B', 2), ('G', 2), ('A', 3)])
def test_a_reloaded_catalog_splits_theta_as_the_build_did(
        family, rank, tmp_path, monkeypatch):
    rs = RootSystem(family, rank)
    cold = build_catalog(build_coinvariants(rs, tuple(range(rank))))
    # one splitting per entry built through theta_summands: every entry
    # but the identity and the twins
    built = {'A2': 3, 'B2': 7, 'G2': 11, 'A3': 15}[f'{family}{rank}']
    assert len(cold.theta_splittings) == built \
        == len(cold.entries) - 1 - len(twins(cold))
    store_catalog(cold, str(tmp_path))
    warm = load_cached_catalog(cold.algebra, str(tmp_path))
    assert not warm.theta_splittings
    calls = count_split_pairs(monkeypatch)
    # the splits made by the build, then, on demand, the ascent split
    # theta_s D_ws that meets each twin w and w's own descent split
    on_demand = [(w.right_descents()[0], y) for w in twins(cold)
                 for y in (w * rs.simple_reflection(w.right_descents()[0]),
                           w)]
    for s, y in list(cold.theta_splittings) + on_demand:
        theta, pieces = theta_summands(cold, s, y)
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
            assert (incl2.degree, blocks_of(incl2)) == (k, blocks_of(incl))
            assert (proj2.degree, blocks_of(proj2)) == (-k, blocks_of(proj))


def rescaled(module):
    """module in the basis 2^(d/2) e of each degree d: isomorphic to it,
    with every nonzero action entry doubled."""
    return module_of(module.algebra, module.graded_dims,
                     {key: [[2 * x for x in row] for row in m]
                      for key, m in actions_of(module).items()})


def with_entry(catalog, w, module):
    entries = dict(catalog.entries)
    entries[w] = module
    return IndecomposableCatalog(catalog.algebra, entries)


@pytest.mark.parametrize('family,rank', [('B', 2), ('A', 3)])
def test_a_rebased_entry_is_matched_through_its_generator(family, rank,
                                                         monkeypatch):
    # a cyclic D_ys is matched to the rest by m_0 |-> m_0 without a
    # solve, and the two non-cyclic A3 entries by the one basis map of
    # Hom^0(D_ys, rest) and its inverse: no split pair either way
    catalog = catalog_of(family, rank)
    rs = catalog.algebra.root_system
    calls = count_split_pairs(monkeypatch)
    ascents = [(s, y) for y in catalog.elements() for s in range(rs.rank)
               if not y.has_right_descent(s)]
    if family == 'A':
        ascents = [(s, y) for s, y in ascents
                   if not catalog.is_cyclic(y * rs.simple_reflection(s))]
    assert ascents
    for s, y in ascents:
        ys = y * rs.simple_reflection(s)
        other = with_entry(catalog, ys, rescaled(catalog.entry(ys)))
        del calls[:]
        theta, pieces = theta_summands(other, s, y)
        assert fallback_solves(calls, other, s, y) == [], (s, y)
        assert other.is_cyclic(ys) == (family == 'B')
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


def removes_adjacent_pairs(before, after):
    """True when the summands of before missing from after are a
    nonempty union of pairs D_z<k> in degree i, D_z<k> in degree i + 1."""
    lost = Counter((i, yk) for i, row in before.terms.items() for yk in row)
    lost.subtract((i, yk) for i, row in after.terms.items() for yk in row)
    if any(n < 0 for n in lost.values()) or not +lost:
        return False
    # the copies in the lowest degree can only pair with the next one up
    for i, yk in sorted(lost, key=lambda key: key[0]):
        n = lost[(i, yk)]
        if lost[(i + 1, yk)] < n:
            return False
        lost[(i + 1, yk)] -= n
    return True


def test_every_elimination_removes_pairs_and_keeps_the_class(monkeypatch):
    # gaussian_eliminate keeps the class by construction and does not
    # check it; every minimization of the corpus's tensor steps is
    # checked here
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    eliminate, changed = homotopy.gaussian_eliminate, []

    def checked(cpx):
        out = eliminate(cpx)
        if out is not cpx:
            changed.append(out)
            assert removes_adjacent_pairs(cpx, out), (cpx.terms, out.terms)
            assert k0_class(out) == k0_class(cpx)
        return out

    for module in (homotopy, induction):
        monkeypatch.setattr(module, 'gaussian_eliminate', checked)
    for family, rank, subset in induction.corpus_groups('full'):
        induction.induce_all(induction.make_setup(family, rank, subset))
    assert changed


def test_elimination_reads_nothing_from_the_hecke_side(monkeypatch):
    catalog = catalog_of('A', 2)
    raw = tensor_rouquier(1, rouquier_chain(catalog, [1, 0]))
    assert not is_minimal(raw)

    def refused(*args):
        raise AssertionError('elimination reached the Hecke side')

    monkeypatch.setattr(homotopy, 'k0_class', refused)
    monkeypatch.setattr(homotopy, 'kl_basis', refused)
    slim = gaussian_eliminate(raw)
    assert is_minimal(slim)
    assert sum(map(len, slim.terms.values())) < \
        sum(map(len, raw.terms.values()))


def test_elimination_refuses_a_component_that_is_not_a_scalar():
    # the one entry trivial + trivial has End^0 = 2x2 matrices, so
    # diag(1, 2) between two copies of it is invertible but no scalar;
    # a genuine catalog entry has End^0 = Q, and elimination relies on it
    rs = RootSystem('A', 1)
    algebra = build_coinvariants(rs, (0,))
    e = rs.identity
    double, _incls, _projs = direct_sum([smod.trivial_module(algebra)] * 2)
    catalog = IndecomposableCatalog(algebra, {e: double})
    diag = map_of(double, double, 0, {0: [[Fraction(1), Fraction(0)],
                                          [Fraction(0), Fraction(2)]]})
    cpx = FormalComplex(catalog, {-1: ((e, 0),), 0: ((e, 0),)},
                        {-1: {(0, 0): diag}})
    with pytest.raises(InternalCheckError, match='not a scalar'):
        gaussian_eliminate(cpx)


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


def raw_chains(catalog, words):
    # Rouquier chains before elimination, which keeps their homotopies
    rs = catalog.algebra.root_system
    chains = []
    for word in words:
        cpx = one_term_complex(catalog, [(rs.identity, 0)])
        for s in word:
            cpx = tensor_rouquier(s, cpx)
        chains.append(cpx)
    return chains


A2_WORDS = [[], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1]]


def hom_boundary(x, y, h, i, a, b, f):
    """The components of D_h f = d_Y f - (-1)^h f d_X, for f a map
    X^i_a -> Y^{i+h}_b, keyed by (j, p, q) for X^j_p -> Y^{j+h+1}_q."""
    out = {}
    for (b2, b1), d in y.diffs.get(i + h, {}).items():
        if b1 == b:
            out[(i, a, b2)] = d.compose(f)
    for (a1, a0), d in x.diffs.get(i - 1, {}).items():
        if a1 == a:
            out[(i - 1, a0, b)] = f.compose(d).scale((-1) ** (h + 1))
    return out


def flat(phi):
    return [v for _d, block in sorted(blocks_of(phi).items())
            for row in block for v in row]


def reference_hom_kernel(x, y, h):
    """ker D_h with D_h written in the hom bases of Hom^{h+1}: every
    boundary is flattened, its coordinates solved densely, and the
    kernel of the coordinate matrix taken densely."""
    grid = _HomGrid(x, y, h)
    columns = []
    for (i, a, b, basis) in grid.slots:
        for f in basis:
            col = {}
            for (j, p, q), g in hom_boundary(x, y, h, i, a, b, f).items():
                if g.is_zero():
                    continue
                (yp, kp), (yq, kq) = x.summands(j)[p], y.summands(j + h + 1)[q]
                target = x.catalog.hom_basis(yp, yq, kp - kq)
                assert target, "a nonzero boundary in a zero hom space"
                coords = solve_matrix(
                    [list(r) for r in zip(*[flat(t) for t in target])],
                    [[v] for v in flat(g)])
                for t, (c,) in enumerate(coords):
                    col[(j, p, q, t)] = c
            columns.append(col)
    keys = sorted(set().union(*columns))
    return nullspace([[col.get(k, 0) for col in columns] for k in keys]
                     or [[0] * grid.size])


def test_hom_complex_kernels_match_the_coordinate_reference():
    # the entry equations have the same kernel as the coordinates of
    # D_h in the bases of Hom^{h+1}, and sparse_nullspace reads the
    # same basis off it as dense elimination
    pairs = []
    for catalog, words in ((catalog_of('A', 2), A2_WORDS),
                           (catalog_of('B', 2), [[0, 1], [1, 0]])):
        chains = raw_chains(catalog, words)
        pairs += [(x, y) for x in chains for y in chains]
    nonzero = 0
    for x, y in pairs:
        for h in (0, -1):
            _grid, kernel = hom_complex_basis(x, y, h)
            assert kernel == reference_hom_kernel(x, y, h)
            nonzero += bool(kernel)
    assert nonzero


def test_hom_complex_fetches_only_the_bases_of_its_own_degree():
    rs = RootSystem('A', 2)
    catalog = build_catalog(build_coinvariants(rs, (0, 1)))
    chains = raw_chains(catalog, A2_WORDS)
    for h in (0, -1):
        for x in chains:
            for y in chains:
                before = set(catalog.hom_bases)
                hom_complex_basis(x, y, h)
                slots = {(ya, yb, ka - kb) for i in x.terms
                         for (ya, ka) in x.summands(i)
                         for (yb, kb) in y.summands(i + h)}
                assert set(catalog.hom_bases) - before <= slots


def test_null_homotopic_maps_are_chain_maps():
    # D_0 D_{-1} = 0: the boundary of every homotopy is a chain map.
    # Minimized chains of this length have no homotopies at all, so the
    # chains are taken before elimination.
    chains = raw_chains(catalog_of('A', 2), A2_WORDS)
    boundaries = 0
    for x in chains:
        for y in chains:
            grid, _homotopies = hom_complex_basis(x, y, -1)
            for (i, a, b, basis) in grid.slots:
                for f in basis:
                    g = hom_boundary(x, y, -1, i, a, b, f)
                    totals = {}
                    for (j, p, q), phi in g.items():
                        for key, psi in hom_boundary(x, y, 0, j, p, q,
                                                     phi).items():
                            totals[key] = totals[key] + psi \
                                if key in totals else psi
                    assert all(psi.is_zero() for psi in totals.values())
                    boundaries += any(not phi.is_zero() for phi in g.values())
    assert boundaries


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
