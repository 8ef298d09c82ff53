"""Every certificate fires on the one input it guards.

A fast path is certified, not trusted: each check below stands between
a computed object and its use.  Each test corrupts the one input the
check guards (a catalog entry, a kept record, a map the check is handed)
and asserts that the check raises InternalCheckError with its own
message, so a certificate that could never fire shows up here.  The
table SITES at the end names, for every `raise InternalCheckError` in
src/, the test that reaches it, or why none can; an ast guard fails when
a site has no row or a row matches no site.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

from soergelind import (coinvariants, coxeter, hecke, induction,
                        presentation, smod)
from soergelind.cli import main
from soergelind.coinvariants import build_coinvariants
from soergelind.coxeter import ParabolicDatum, RootSystem
from soergelind.errors import InternalCheckError
from soergelind.exactla import form_scale
from soergelind.hecke import HeckeElement
from soergelind.homotopy import complex_from_module
from soergelind.laurent import LaurentPoly
from soergelind.polynomials import Polynomial
from soergelind.smod import (GradedModule, IndecomposableCatalog, ModuleMap,
                             build_catalog, decompose, direct_sum,
                             induce_frobenius, is_isomorphic, trivial_module)

_CAT = {}


def catalog_of(family, rank):
    if (family, rank) not in _CAT:
        rs = RootSystem(family, rank)
        _CAT[(family, rank)] = build_catalog(
            build_coinvariants(rs, tuple(range(rank))))
    return _CAT[(family, rank)]


def fresh(catalog, replaced=()):
    """A new catalog over the same entries, those in replaced swapped
    in; it has derived nothing from them yet."""
    entries = dict(catalog.entries)
    entries.update(replaced)
    return IndecomposableCatalog(catalog.algebra, entries)


def descent_split(catalog, word):
    """_descent_pieces for y = the word and s its last letter."""
    y = catalog.algebra.root_system.element_from_word(word)
    s = word[-1]
    return smod._descent_pieces(catalog, s, y,
                                induce_frobenius(s, catalog.entry(y)))


def doubled(module):
    double, _incls, _projs = direct_sum([module, module])
    return double


# ---------------------------------------------------------------------------
# the descent split theta_s D_y = D_y<0> + D_y<2>


def test_a_descent_split_holds_uncorrupted():
    pieces = descent_split(catalog_of('A', 2), [0])
    assert [k for _y, k, _i, _p in pieces] == [0, 2]


def test_an_entry_without_a_section_of_the_multiplication_is_refused():
    # D_s1 replaced by the trivial module: theta_s1 of it is D_s1, and
    # no map out of the trivial module splits its multiplication
    catalog = catalog_of('A', 2)
    s1 = catalog.algebra.root_system.element_from_word([0])
    corrupt = fresh(catalog, {s1: trivial_module(catalog.algebra)})
    with pytest.raises(InternalCheckError,
                       match='has no section of its multiplication'):
        descent_split(corrupt, [0])


def test_a_coevaluation_that_misses_d_y_2_is_refused(monkeypatch):
    # a zero coevaluation gives incl2 = 0, so D_y<0> + D_y<2> does not
    # map onto theta_s D_y
    monkeypatch.setattr(smod, 'coev_map',
                        lambda s, module, theta:
                        ModuleMap.zero(module, theta, 2))
    with pytest.raises(InternalCheckError, match='does not map onto'):
        descent_split(catalog_of('A', 2), [0])


def test_a_coevaluation_that_is_no_module_map_is_refused(monkeypatch):
    # the coevaluation with its bottom block doubled still has an
    # inverse blockwise, but incl2 no longer intertwines
    coev = smod.coev_map

    def bent(s, module, theta):
        phi = coev(s, module, theta)
        forms = dict(phi.forms)
        forms[0] = form_scale(2, forms[0])
        return ModuleMap(module, theta, 2, forms)

    monkeypatch.setattr(smod, 'coev_map', bent)
    with pytest.raises(InternalCheckError,
                       match=r'the split of theta_s1 D_.* fails to '
                             'intertwine'):
        descent_split(catalog_of('A', 2), [0])


# ---------------------------------------------------------------------------
# maps out of a cyclic entry, from its generator record


def test_a_generator_record_in_another_basis_is_refused():
    # (S_2, P_2) of D_s1 read in the basis 2 e of degree 2: S_2 P_2 = id
    # still, so the image m_0 |-> 1 passes the residues, but the map
    # built through P_2 is half of a module map.  End^0(D_s1) has a
    # one-dimensional bottom degree, so maps_from reads the record and
    # the certificate fires; the target D_s1 + D_s1 has a
    # two-dimensional one, solved by hom_space, which reads no record
    catalog = catalog_of('A', 2)
    corrupt = fresh(catalog)
    s1 = catalog.algebra.root_system.element_from_word([0])
    record = corrupt.presentation(s1)[2]
    stacked, section = record[2]
    record[2] = (form_scale(2, stacked), form_scale(Fraction(1, 2), section))
    assert len(catalog.maps_from(s1, catalog.entry(s1), 0)) == 1
    for find in (lambda: corrupt.maps_from(s1, corrupt.entry(s1), 0),
                 lambda: corrupt.hom_basis(s1, s1, 0)):
        with pytest.raises(InternalCheckError,
                           match=r'a map out of D_s1 fails to intertwine'):
            find()
    target = doubled(catalog.entry(s1))
    maps = corrupt.maps_from(s1, target, 0)
    assert len(maps) == 2 and all(phi.check_intertwines() for phi in maps)


@pytest.mark.parametrize('word', [None, [1, 0, 2, 1], 'gap'])
def test_a_module_that_is_not_cyclic_has_no_generator_record(word,
                                                            monkeypatch):
    # a bottom degree of dimension 2 (the trivial module doubled), a
    # second generator degree (D_{s2 s1 s3 s2} in A3), or a degree that
    # nothing maps into, which is a generator degree (D_e + D_e<2> in
    # A2): its presentation has no record, and maps_from solves every
    # space by hom_space
    if word in (None, 'gap'):
        catalog = catalog_of('A', 2)
        y = catalog.algebra.root_system.identity
        trivial = trivial_module(catalog.algebra)
        corrupt = fresh(catalog, {y: doubled(trivial) if word is None else
                                  direct_sum([trivial, trivial.shift(2)])[0]})
    else:
        corrupt = fresh(catalog_of('A', 3))
        y = corrupt.algebra.root_system.element_from_word(word)
    generators, _socle, record = corrupt.presentation(y)
    assert record is None and not corrupt.is_cyclic(y)
    assert word != 'gap' or generators == {0, 2}
    solved, solve = [], smod.hom_space

    def recorded(source, target, degree):
        solved.append(degree)
        return solve(source, target, degree)

    def refused(*args):
        raise AssertionError("map_from_generator read a missing record")

    monkeypatch.setattr(smod, 'hom_space', recorded)
    monkeypatch.setattr(smod, 'map_from_generator', refused)
    entry = corrupt.entry(y)
    assert len(corrupt.maps_from(y, entry, 0)) == len(solve(entry, entry, 0))
    assert solved == [0]


def test_a_wrong_section_is_refused(monkeypatch):
    # the last kernel vector of [S_d | -den I] with its p-part doubled:
    # its q-part still reads d as spanned from below, but the section
    # is no right inverse of S_d, and present refuses it before any
    # map is built through it
    catalog = catalog_of('A', 2)
    corrupt = fresh(catalog)
    s1 = catalog.algebra.root_system.element_from_word([0])
    solve = presentation.sparse_nullspace

    def doubled_section(rows, ncols):
        kernel = solve(rows, ncols)
        width = ncols - len(rows)
        if rows and all(max(row) == width + r and row[width + r] < 0
                        for r, row in enumerate(rows)):
            *kernel, last = kernel
            kernel.append([2 * x for x in last[:width]] + last[width:])
        return kernel

    monkeypatch.setattr(presentation, 'sparse_nullspace', doubled_section)
    with pytest.raises(InternalCheckError,
                       match='the section into degree 2 is no right '
                             'inverse'):
        corrupt.presentation(s1)


# ---------------------------------------------------------------------------
# twins along a diagram automorphism


def test_a_twin_with_the_wrong_graded_dimensions_is_refused():
    # D_s1 replaced by the trivial module: its twist along the flip of
    # A2 has one dimension, and D_s2 has two
    catalog = catalog_of('A', 2)
    rs = catalog.algebra.root_system
    s1, s2 = rs.element_from_word([0]), rs.element_from_word([1])
    corrupt = fresh(catalog, {s1: trivial_module(catalog.algebra)})
    with pytest.raises(InternalCheckError,
                       match=r'the twin D_s2 of D_s1 has graded character '
                             r'\{0: 1\}; Kazhdan-Lusztig predicts'):
        corrupt.admit(s2, twin=(s1, (1, 0)))
    assert corrupt.entry(s2) is catalog.entry(s2)


# ---------------------------------------------------------------------------
# split pairs


def test_an_entry_with_endomorphisms_beyond_the_scalars_is_refused():
    # a doubled trivial module as D_e: a hom basis pair with nonzero
    # trace composes to a rank-one idempotent, not a scalar
    catalog = catalog_of('A', 2)
    e = catalog.algebra.root_system.identity
    double = doubled(trivial_module(catalog.algebra))
    with pytest.raises(InternalCheckError, match='beyond the scalars'):
        decompose(double, fresh(catalog, {e: double}).entries)


# ---------------------------------------------------------------------------
# what is left of a decomposition, and isomorphisms through it


def test_a_summand_that_matches_no_entry_is_refused():
    # a catalog that holds D_e only: D_s1 has no summand in it
    catalog = catalog_of('A', 2)
    e = catalog.algebra.root_system.identity
    s1 = catalog.algebra.root_system.element_from_word([0])
    only_e = IndecomposableCatalog(catalog.algebra, {e: catalog.entry(e)})
    with pytest.raises(InternalCheckError, match='matches no catalog entry'):
        complex_from_module(only_e, catalog.entry(s1))


def test_a_complement_that_drops_the_rest_is_refused(monkeypatch):
    # theta_s1 D_s1 = D_s1<0> + D_s1<2>; a complement that returns
    # nothing after the first summand loses D_s1<2>
    catalog = catalog_of('A', 2)
    s1 = catalog.algebra.root_system.element_from_word([0])
    complement = smod._complement

    def dropped(module, incl, proj):
        _rest, rest_incl, rest_proj = complement(module, incl, proj)
        return GradedModule(module.algebra, {}, {}), rest_incl, rest_proj

    monkeypatch.setattr(smod, '_complement', dropped)
    with pytest.raises(InternalCheckError,
                       match='decomposition loses dimensions'):
        decompose(induce_frobenius(0, catalog.entry(s1)), catalog.entries)


def bend_inclusions(monkeypatch, bend):
    """decompose with each summand's inclusion replaced by bend(incl)."""
    original = smod.decompose

    def bent(module, entries, summands=None):
        return [(z, k, bend(incl), proj)
                for z, k, incl, proj in original(module, entries, summands)]

    monkeypatch.setattr(smod, 'decompose', bent)


def test_matched_summands_that_give_no_invertible_map_are_refused(
        monkeypatch):
    catalog = catalog_of('A', 2)
    s1 = catalog.algebra.root_system.element_from_word([0])
    bend_inclusions(monkeypatch, lambda incl: ModuleMap.zero(
        incl.source, incl.target, incl.degree))
    with pytest.raises(InternalCheckError, match='is not invertible'):
        is_isomorphic(catalog.entry(s1), catalog.entry(s1), catalog.entries)


def test_an_isomorphism_that_fails_to_intertwine_is_refused(monkeypatch):
    # the inclusion of D_s1 with its bottom block doubled is invertible
    # blockwise, but x_1 no longer commutes with it
    catalog = catalog_of('A', 2)
    s1 = catalog.algebra.root_system.element_from_word([0])

    def doubled_bottom(incl):
        forms = dict(incl.forms)
        forms[0] = form_scale(2, forms[0])
        return ModuleMap(incl.source, incl.target, incl.degree, forms)

    bend_inclusions(monkeypatch, doubled_bottom)
    with pytest.raises(InternalCheckError,
                       match='blockwise inverse fails to intertwine'):
        is_isomorphic(catalog.entry(s1), catalog.entry(s1), catalog.entries)


# ---------------------------------------------------------------------------
# the coinvariant algebra and Demazure division


def test_length_counts_of_no_reflection_group_give_no_degrees():
    # 1 + 2q + q^2 times (1 - q) is 1 + q - q^2 - q^3: its lowest
    # positive term is no factor (1 - q^d)
    with pytest.raises(InternalCheckError,
                       match='so it gives no invariant degrees'):
        coinvariants._invariant_degrees({0: 1, 1: 2, 2: 1}, 1)


def test_dividing_by_a_variable_that_does_not_divide_is_refused():
    with pytest.raises(InternalCheckError,
                       match='polynomial not divisible by x_1'):
        Polynomial(2, {(0, 1): 1}).divide_by_variable(0)


# ---------------------------------------------------------------------------
# the Hecke side, on a fresh root system with an empty KL table
#
# Each corruption patches the Hecke side of every root system, so the
# same fault is run in process and through the command line (kl for the
# two kl_basis sites, indw in type A2 with I = {1} for the others).


def doubled_leading_term(monkeypatch):
    # kl_basis's step b_{ws} H_s + v b_{ws}, with b_{ws} H_s doubled
    times_generator = hecke._times_generator
    monkeypatch.setattr(hecke, '_times_generator',
                        lambda a, i: times_generator(a, i).scale(2))


def negative_kl_coefficient(monkeypatch):
    # b_s1 = H_s1 + v H_e becomes H_s1 - v H_e
    times_generator = hecke._times_generator

    def product(a, i):
        rs = a.root_system
        return times_generator(a, i) - HeckeElement(
            rs, {rs.identity: LaurentPoly.v(1, 2)})

    monkeypatch.setattr(hecke, '_times_generator', product)


def kl_element(rs, terms):
    """A Hecke element from {word: exponent of v}."""
    return HeckeElement(rs, {rs.element_from_word(word): LaurentPoly.v(k)
                             for word, k in terms.items()})


def corrupt_b_s1(monkeypatch, terms):
    """b_s1 replaced by kl_element(terms); every other b_w kept."""
    kl_basis = hecke.kl_basis
    monkeypatch.setattr(hecke, 'kl_basis', lambda w: (
        kl_element(w.root_system, terms) if w.word == (0,)
        else kl_basis(w)))


def kl_coefficient_off_the_graded_character(monkeypatch):
    # h_{e,s1} = v^2 puts a dimension in degree 1 + 0 - 2 = -1
    corrupt_b_s1(monkeypatch, {(0,): 0, (): 2})


def kl_element_outside_the_parabolic_subgroup(monkeypatch):
    corrupt_b_s1(monkeypatch, {(0,): 0, (1,): 1})


def parabolic_term_whose_length_does_not_add(monkeypatch):
    # every b_x read as H_s2: z w = e for z = s2 and w = s2
    monkeypatch.setattr(hecke, 'parabolic_kl', lambda datum, x: {
        datum.root_system.element_from_word([1]): LaurentPoly.one()})


def test_a_kl_element_with_a_doubled_leading_term_is_refused(monkeypatch):
    doubled_leading_term(monkeypatch)
    with pytest.raises(InternalCheckError, match='has bad leading term'):
        hecke.kl_basis(RootSystem('A', 2).element_from_word([0]))


def test_a_negative_kl_coefficient_is_refused(monkeypatch):
    negative_kl_coefficient(monkeypatch)
    with pytest.raises(InternalCheckError, match=r'is not in vZ>=0\[v\]'):
        hecke.kl_basis(RootSystem('A', 2).element_from_word([0]))


def test_a_kl_coefficient_off_the_graded_character_is_refused(monkeypatch):
    kl_coefficient_off_the_graded_character(monkeypatch)
    with pytest.raises(InternalCheckError, match='unexpected KL coefficient'):
        hecke.expected_graded_dims(RootSystem('A', 2).element_from_word([0]))


def test_a_kl_element_outside_the_parabolic_subgroup_is_refused(
        monkeypatch):
    kl_element_outside_the_parabolic_subgroup(monkeypatch)
    rs = RootSystem('A', 2)
    with pytest.raises(InternalCheckError,
                       match='escaped the parabolic subgroup'):
        hecke.parabolic_kl(ParabolicDatum(rs, (0,)),
                           rs.element_from_word([0]))


def test_a_parabolic_term_whose_length_does_not_add_is_refused(
        monkeypatch):
    parabolic_term_whose_length_does_not_add(monkeypatch)
    rs = RootSystem('A', 2)
    with pytest.raises(InternalCheckError, match='lengths fail to add'):
        hecke.predicted_class(ParabolicDatum(rs, (0,)), rs.identity,
                              rs.element_from_word([1]))


KL_S1 = ['kl', '--type', 'A', '--rank', '2', '--w', '1']
INDW_A2 = ['indw', '--type', 'A', '--rank', '2', '--parabolic', '1',
           '--x', '1', '--w', '2 1']


CLI_CORRUPTIONS = [
    (doubled_leading_term, KL_S1, 'has bad leading term'),
    (negative_kl_coefficient, KL_S1, 'is not in vZ>=0[v]'),
    # the catalog build reads the graded character of D_s1
    (kl_coefficient_off_the_graded_character, INDW_A2,
     'unexpected KL coefficient'),
    (parabolic_term_whose_length_does_not_add, INDW_A2,
     'lengths fail to add'),
]


@pytest.mark.parametrize('corrupt, argv, message', CLI_CORRUPTIONS,
                         ids=[row[0].__name__ for row in CLI_CORRUPTIONS])
def test_a_hecke_certificate_exits_three_through_the_cli(
        monkeypatch, capsys, corrupt, argv, message):
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    corrupt(monkeypatch)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert 'internal assertion failed: ' in err
    assert message in err
    assert 'Traceback' not in err


def test_a_kl_element_outside_the_parabolic_subgroup_exits_three(
        monkeypatch, capsys):
    # the catalog build reads b_s1 too, so the query runs once clean and
    # its setup is kept; the second run reaches parabolic_kl first
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    assert main(INDW_A2) == 0
    kl_element_outside_the_parabolic_subgroup(monkeypatch)
    capsys.readouterr()
    assert main(INDW_A2) == 3
    err = capsys.readouterr().err
    assert 'internal assertion failed: KL recursion escaped the ' \
        'parabolic subgroup' in err
    assert 'Traceback' not in err


# ---------------------------------------------------------------------------
# the bookkeeping of the Weyl group enumeration and its cosets


GROUP_A2 = ['group', '--type', 'A', '--rank', '2']


def length_off_the_inversion_count(monkeypatch):
    monkeypatch.setattr(coxeter.WeylElement, 'inversion_count',
                        lambda self: -1)


def matrix_kept_as_its_own_inverse(monkeypatch):
    # right for the reflections, wrong first at s1 s2, no involution
    init = coxeter.WeylElement.__init__

    def own_inverse(self, rs, matrix, inv_matrix, length, word):
        init(self, rs, matrix, matrix, length, word)

    monkeypatch.setattr(coxeter.WeylElement, '__init__', own_inverse)


def no_minimal_coset_representative(monkeypatch):
    monkeypatch.setattr(coxeter.ParabolicDatum, 'is_min_rep',
                        lambda self, w: False)


BOOKKEEPING_CORRUPTIONS = [
    (length_off_the_inversion_count, GROUP_A2,
     'length bookkeeping broken at'),
    (matrix_kept_as_its_own_inverse, GROUP_A2,
     'inverse bookkeeping broken at'),
    (no_minimal_coset_representative, GROUP_A2 + ['--parabolic', '1'],
     'coset decomposition has wrong size'),
]


@pytest.mark.parametrize('corrupt, argv, message', BOOKKEEPING_CORRUPTIONS,
                         ids=[row[0].__name__
                              for row in BOOKKEEPING_CORRUPTIONS])
def test_a_group_bookkeeping_check_exits_three_through_the_cli(
        monkeypatch, capsys, corrupt, argv, message):
    corrupt(monkeypatch)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f'internal assertion failed: {message}' in err
    assert 'Traceback' not in err


# ---------------------------------------------------------------------------
# the guard: every certificate in src/ has a row here

# (module, function, the message's leading words) -> the test that
# reaches the site, as file::function, or 'unreached: ' and why no test
# can reach it past the checks that fire first.  A message's formatted
# fields read as {}.
SITES = {
    ('coinvariants', '_invariant_degrees', 'P_W(q) (1 - q)^{} has'):
        'test_certificates.py::'
        'test_length_counts_of_no_reflection_group_give_no_degrees',
    ('coinvariants', 'build_coinvariants', 'coinvariant dimension in'):
        'test_coinvariants.py::'
        'test_a_missing_generator_fails_the_dimension_check',
    ('coxeter', 'enumerate_group', 'length bookkeeping broken at'):
        'test_certificates.py::'
        'test_a_group_bookkeeping_check_exits_three_through_the_cli',
    ('coxeter', 'enumerate_group', 'inverse bookkeeping broken at'):
        'test_certificates.py::'
        'test_a_group_bookkeeping_check_exits_three_through_the_cli',
    ('coxeter', '__init__', 'coset decomposition has wrong size'):
        'test_certificates.py::'
        'test_a_group_bookkeeping_check_exits_three_through_the_cli',
    ('hecke', 'kl_basis', 'KL element for'):
        'test_certificates.py::'
        'test_a_kl_element_with_a_doubled_leading_term_is_refused',
    ('hecke', 'kl_basis', 'KL coefficient h_'):
        'test_certificates.py::test_a_negative_kl_coefficient_is_refused',
    ('hecke', 'expected_graded_dims', 'unexpected KL coefficient'):
        'test_certificates.py::'
        'test_a_kl_coefficient_off_the_graded_character_is_refused',
    ('hecke', 'parabolic_kl', 'KL recursion escaped'):
        'test_certificates.py::'
        'test_a_kl_element_outside_the_parabolic_subgroup_is_refused',
    ('hecke', 'predicted_class', 'lengths fail to add'):
        'test_certificates.py::'
        'test_a_parabolic_term_whose_length_does_not_add_is_refused',
    ('homotopy', 'verify_d_squared', 'd o d != 0'):
        'test_homotopy.py::test_d_squared_is_enforced',
    ('homotopy', 'complex_from_module', 'a summand with graded character'):
        'test_certificates.py::'
        'test_a_summand_that_matches_no_entry_is_refused',
    ('homotopy', '_find_iso_component', 'a component on D_{} is not'):
        'test_homotopy.py::'
        'test_elimination_refuses_a_component_that_is_not_a_scalar',
    ('homotopy', 'k0_class', 'odd internal shift'):
        'test_homotopy.py::test_k0_rejects_odd_shifts',
    ('homotopy', 'complexes_isomorphic', 'the hom basis of End^0'):
        'test_homotopy.py::'
        'test_isomorphism_test_rejects_a_tampered_endomorphism_basis',
    ('induction', 'induce', 'the inflation of D^I_'):
        'test_induction.py::'
        'test_an_inflation_that_is_not_the_entry_is_refused',
    ('induction', 'run_corpus', 'a verification worker died'):
        'test_cli.py::test_a_dead_jobs_worker_exits_3_without_a_traceback',
    ('polynomials', 'divide_by_variable', 'polynomial not divisible'):
        'test_certificates.py::'
        'test_dividing_by_a_variable_that_does_not_divide_is_refused',
    ('presentation', 'check_relations', 'variables x{}, x{} fail'):
        'test_smod.py::test_relations_refuse_a_tampered_action_entry',
    ('presentation', 'check_relations', 'invariant of degree'):
        'test_smod.py::test_relations_refuse_a_tampered_action_entry',
    ('presentation', 'present', 'the section into degree {} is no right'):
        'test_certificates.py::test_a_wrong_section_is_refused',
    ('serialize', 'catalog_from_json', 'catalog file does not describe'):
        'test_cli.py::test_cache_file_with_a_foreign_header_exits_three',
    ('serialize', 'catalog_from_json', 'catalog file has a stray'):
        'test_serialize.py::'
        'test_cache_file_with_broken_entries_fails_validation',
    ('serialize', 'catalog_from_json', 'cached entry for'):
        'test_cli.py::test_cache_entries_with_swapped_modules_exit_three',
    ('serialize', 'catalog_from_json', 'catalog file has {} of the'):
        'test_serialize.py::'
        'test_cache_file_with_broken_entries_fails_validation',
    ('serialize', 'load_cached_catalog', 'cache file {} fails validation'):
        'test_cli.py::test_cache_file_with_broken_entries_exits_three',
    ('smod', 'map_from_generator', 'a map out of D_'):
        'test_certificates.py::'
        'test_a_generator_record_in_another_basis_is_refused',
    ('smod', '_split_pair', 'a catalog entry has degree-0'):
        'test_certificates.py::'
        'test_an_entry_with_endomorphisms_beyond_the_scalars_is_refused',
    ('smod', 'decompose', 'predicted summand D_{}<{}> does not split'):
        'test_smod.py::test_a_bogus_predicted_summand_is_refused',
    ('smod', 'decompose', 'predicted summand D_{}<{}> is missing'):
        'test_smod.py::test_a_bogus_predicted_summand_is_refused',
    ('smod', 'decompose', 'decomposition loses dimensions'):
        'test_certificates.py::'
        'test_a_complement_that_drops_the_rest_is_refused',
    ('smod', 'is_isomorphic', 'neither module is a sum'):
        'test_smod.py::'
        'test_is_isomorphic_decides_only_sums_of_catalog_entries',
    ('smod', 'is_isomorphic', 'matched summands give a map'):
        'test_certificates.py::'
        'test_matched_summands_that_give_no_invertible_map_are_refused',
    ('smod', 'is_isomorphic', 'the isomorphism or its blockwise inverse'):
        'test_certificates.py::'
        'test_an_isomorphism_that_fails_to_intertwine_is_refused',
    ('smod', 'admit', 'the module left for'):
        'test_smod.py::test_admission_refuses_a_decomposable_module',
    ('smod', 'admit', 'the twin D_{} of D_{} has graded character'):
        'test_certificates.py::'
        'test_a_twin_with_the_wrong_graded_dimensions_is_refused',
    ('smod', '_descent_pieces', 'theta_s{} D_{} has no section'):
        'test_certificates.py::'
        'test_an_entry_without_a_section_of_the_multiplication_is_refused',
    ('smod', '_descent_pieces', 'D_{}<0> + D_{}<2> does not map onto'):
        'test_certificates.py::'
        'test_a_coevaluation_that_misses_d_y_2_is_refused',
    ('smod', '_descent_pieces', 'the split of theta_s'):
        'test_certificates.py::'
        'test_a_coevaluation_that_is_no_module_map_is_refused',
    ('smod', 'theta_summands', 'theta_s{} D_{} leaves no'):
        'test_smod.py::test_a_missing_predicted_summand_stops_the_catalog',
    ('smod', 'theta_summands', 'predicted summand D_{}<0> does not split'):
        'test_homotopy.py::'
        'test_an_entry_that_does_not_split_off_theta_is_refused',
}

ROOT = pathlib.Path(__file__).resolve().parent.parent


class _RaiseSites(ast.NodeVisitor):
    """(module, innermost function, message) of each
    `raise InternalCheckError(...)` under a tree."""

    def __init__(self, module):
        self.module, self.functions, self.sites = module, ['<module>'], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Raise(self, node):
        exc = node.exc
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) \
                and exc.func.id == 'InternalCheckError':
            text = exc.args[0] if exc.args else ast.Constant('')
            parts = text.values if isinstance(text, ast.JoinedStr) else [text]
            self.sites.append((self.module, self.functions[-1], ''.join(
                part.value if isinstance(part, ast.Constant) else '{}'
                for part in parts)))


def raise_sites() -> list:
    sites = []
    for path in sorted((ROOT / 'src' / 'soergelind').glob('*.py')):
        finder = _RaiseSites(path.stem)
        finder.visit(ast.parse(path.read_text(), str(path)))
        sites.extend(finder.sites)
    return sites


def test_every_certificate_has_exactly_one_row():
    sites = raise_sites()

    def rows_of(site):
        module, function, message = site
        return [key for key in SITES if key[:2] == (module, function)
                and message.startswith(key[2])]

    assert [site for site in sites if len(rows_of(site)) != 1] == []
    matched = [key for site in sites for key in rows_of(site)]
    assert sorted(matched) == sorted(SITES)


def test_every_row_names_a_test_that_exists():
    for key, reached in SITES.items():
        if reached.startswith('unreached: '):
            continue
        filename, name = reached.split('::')
        tree = ast.parse((ROOT / 'tests' / filename).read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, key
