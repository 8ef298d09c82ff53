"""The induction pipeline against its Hecke-algebra prediction.

Everything funnels through two independent computations: the module
side (inflate, tensor along an admissible chain, minimize, read off
K_0) and the character side (parabolic Kazhdan-Lusztig coefficients
pushed along the coset).  The tests freeze small instances completely
and check the structural properties -- chain independence, additivity,
the wall-crossing cone -- that make the sweep meaningful.
"""

import ast
import pathlib

import pytest

from soergelind import (coinvariants, coxeter, homotopy, induction,
                        presentation, smod)
from soergelind.coxeter import admissible_chain
from soergelind.errors import (CalibrationError, ConfigurationError,
                               InternalCheckError)
from soergelind.hecke import hecke_standard, kl_basis, predicted_class
from soergelind.homotopy import (complexes_isomorphic, FormalComplex,
                                 gaussian_eliminate, k0_class,
                                 tensor_rouquier)
from soergelind.induction import (CalibrationRecord, VerificationReport,
                                  calibrate_shift, corpus_groups,
                                  hom_positive_control, induce, induce_all,
                                  make_setup, proper_subsets,
                                  run_corpus, run_group, verify_base_case,
                                  verify_hom_vanishing, verify_induced_class,
                                  verify_theta_restriction,
                                  verify_wall_crossing, wall_crossing_triples)
from soergelind.laurent import LaurentPoly
from soergelind.smod import direct_sum

from reference import (actions_of, admissible_chains, direct_sum_complexes,
                       induce_module, module_of)


def word_el(rs, *letters_1based):
    return rs.element_from_word([i - 1 for i in letters_1based])


def shift_complex(cpx, k):
    return FormalComplex(
        cpx.catalog,
        {i: tuple((y, d + k) for y, d in row) for i, row in cpx.terms.items()},
        cpx.diffs)


# ---------------------------------------------------------------------------
# calibration


def test_calibration_is_unique_and_reproducible():
    record = calibrate_shift()
    assert record == CalibrationRecord(shift=2, sign=1)
    # cached data does not change the answer
    assert calibrate_shift() == record


def test_calibration_records_are_immutable_values():
    record = CalibrationRecord(shift=2, sign=1)
    with pytest.raises(AttributeError):
        record.shift = 0
    assert hash(record) == hash(CalibrationRecord(shift=2, sign=1))
    assert record != CalibrationRecord(shift=0, sign=1)
    assert repr(record) == 'CalibrationRecord(shift=2, sign=1)'


def test_wrong_calibrations_fail_loudly():
    # inducing with the rejected grid points must either refuse to
    # build a complex or produce the wrong class
    setup = make_setup('A', 2, ())
    rs = setup.rs
    e, s2 = rs.identity, word_el(rs, 2)
    good = k0_class(induce(setup, e, s2))
    assert good == hecke_standard(s2).scale(LaurentPoly.v(1))
    for record in (CalibrationRecord(shift=0, sign=1),
                   CalibrationRecord(shift=-2, sign=1)):
        try:
            cpx = gaussian_eliminate(tensor_rouquier(
                1, induce(setup, e, e), shift=record.shift,
                sign=record.sign))
        except Exception:
            continue
        assert k0_class(cpx) != good


def test_calibration_signs_differ_by_the_sign_of_the_vertical_map():
    setup = make_setup('A', 2, ())
    base = induce(setup, setup.rs.identity, setup.rs.identity)
    for s in range(2):
        plus, minus = (gaussian_eliminate(tensor_rouquier(s, base, sign=sign))
                       for sign in (1, -1))
        assert induction._sign_flipped(plus, minus)
        assert not induction._sign_flipped(plus, plus)


# ---------------------------------------------------------------------------
# frozen instances in A2 with I = {s1}


@pytest.fixture(scope='module')
def a2s1():
    return make_setup('A', 2, (0,))


def test_frozen_instance_identity_times_s2(a2s1):
    rs = a2s1.rs
    s2 = word_el(rs, 2)
    cpx = induce(a2s1, rs.identity, s2)
    assert k0_class(cpx) == hecke_standard(s2).scale(LaurentPoly.v(1))


def test_frozen_instance_s1_times_s2(a2s1):
    rs = a2s1.rs
    s1, s2 = word_el(rs, 1), word_el(rs, 2)
    cpx = induce(a2s1, s1, s2)
    expected = hecke_standard(word_el(rs, 1, 2)) + \
        hecke_standard(s2).scale(LaurentPoly.v(1))
    assert k0_class(cpx) == expected.scale(LaurentPoly.v(2))


def test_frozen_instance_s1_times_s2s1(a2s1):
    rs = a2s1.rs
    s1 = word_el(rs, 1)
    w = word_el(rs, 2, 1)
    cpx = induce(a2s1, s1, w)
    expected = hecke_standard(word_el(rs, 1, 2, 1)) + \
        hecke_standard(w).scale(LaurentPoly.v(1))
    assert k0_class(cpx) == expected.scale(LaurentPoly.v(3))


def test_report_normalizes_away_the_global_shift(a2s1):
    rs = a2s1.rs
    s1, w = word_el(rs, 1), word_el(rs, 2, 1)
    report = verify_induced_class(a2s1, s1, w)
    assert report.ok()
    assert report.details == {'graded_equal': True, 'ungraded_equal': True,
                              'global_shift': 3}
    assert report.computed_class == report.predicted_class
    assert report.instance['chain'] == [2, 1]


def test_inducing_along_w_equals_e_is_inflation(a2s1):
    rs = a2s1.rs
    s1 = word_el(rs, 1)
    cpx = induce(a2s1, s1, rs.identity)
    assert cpx.terms == {0: ((s1, 0),)}
    assert k0_class(cpx) == kl_basis(s1).scale(LaurentPoly.v(1))


def test_every_induced_class_instance_in_a2(a2s1):
    for x in a2s1.parabolic_elements():
        for w in a2s1.coset_reps():
            report = verify_induced_class(a2s1, x, w)
            assert report.ok(), report.instance
            assert report.details['ungraded_equal']


# ---------------------------------------------------------------------------
# chains: independence, reuse, validation


def test_the_theory_replaces_three_searches():
    # chains are reduced words, isomorphism components are scalars, a
    # hom complex is solved on the composites' entries and the inflation
    # is matched to its one entry: homotopy inverts no block and solves
    # no coordinates, induction decides no isomorphism by Krull-Schmidt
    # and searches no catalog, admissible_chain runs no search, and
    # presentation reads its sections off the elimination that decides
    # each degree, with no dense inverse of a Gram matrix
    def imported(module):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        return {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}

    assert 'invert' not in imported(homotopy)
    assert 'form_solve' not in imported(homotopy)
    assert 'form_solve' not in imported(presentation)
    assert 'is_isomorphic' not in imported(induction)
    assert 'decompose' not in imported(induction)
    tree = ast.parse(pathlib.Path(coxeter.__file__).read_text())
    chain, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == 'admissible_chain']
    called = {getattr(node.func, 'id', getattr(node.func, 'attr', None))
              for node in ast.walk(chain) if isinstance(node, ast.Call)}
    assert called <= {'is_min_rep'}



def test_chain_independence_up_to_isomorphism():
    setup = make_setup('A', 2, ())
    rs = setup.rs
    w0 = word_el(rs, 1, 2, 1)
    chains = admissible_chains(setup.datum, w0)
    assert sorted(chains) == [(0, 1, 0), (1, 0, 1)]
    left = induce(setup, rs.identity, w0, chain=(0, 1, 0))
    right = induce(setup, rs.identity, w0, chain=(1, 0, 1))
    assert k0_class(left) == k0_class(right)
    assert complexes_isomorphic(left, right)


def test_bad_chains_are_rejected(a2s1):
    rs = a2s1.rs
    w = word_el(rs, 2, 1)
    with pytest.raises(ConfigurationError):
        induce(a2s1, rs.identity, w, chain=(1,))           # wrong length
    with pytest.raises(ConfigurationError):
        induce(a2s1, rs.identity, w, chain=(1, 5))         # out of range
    with pytest.raises(ConfigurationError):
        induce(a2s1, rs.identity, w, chain=(0, 1))         # prefix in W_I
    with pytest.raises(ConfigurationError):
        induce(a2s1, rs.identity, word_el(rs, 2), chain=(0,))  # wrong product


@pytest.mark.parametrize('family,rank,subset', [('A', 2, ()), ('B', 2, (0,))])
def test_stored_route_equals_the_explicit_chain(family, rank, subset):
    # the stored complex equals one computed from scratch along the chain
    setup = make_setup(family, rank, subset)
    for x in setup.parabolic_elements():
        for w in setup.coset_reps():
            chain = admissible_chain(setup.datum, w)
            stored = induce(setup, x, w)
            fresh = induce_module(setup, setup.sub_catalog.entry(x), w, chain)
            assert fresh is not stored
            assert stored.to_json() == fresh.to_json()


def test_setups_of_one_root_system_share_the_store(monkeypatch):
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    small, large = make_setup('A', 2, ()), make_setup('A', 2, (0,))
    rs = small.rs
    e, s1 = rs.identity, word_el(rs, 1)
    w0 = word_el(rs, 1, 2, 1)
    cpx = induce(small, e, w0, chain=(1, 0, 1))
    assert set(small.side.induced) == {
        (e, ()), (e, (1,)), (e, (1, 0)), (e, (1, 0, 1))}
    assert induce(large, e, word_el(rs, 2)) is small.side.induced[(e, (1,))]
    assert induce(small, e, w0, chain=[1, 0, 1]) is cpx
    # a stored start does not let x leave W_I
    induce(large, s1, e)
    with pytest.raises(ConfigurationError):
        induce(small, s1, e)


def _untimed(result: dict) -> dict:
    return {name: [dict(r.to_json(), timing=0.0) for r in reports]
            for name, reports in result.items()}


def test_the_store_computes_each_step_once_and_changes_no_report(
        monkeypatch):
    steps = []
    tensor_step = induction._tensor_step

    def counted(s, cpx):
        steps.append(s)
        return tensor_step(s, cpx)

    monkeypatch.setattr(induction, '_tensor_step', counted)
    groups = [(family, rank, subset) for family, rank in (('A', 2), ('B', 2))
              for subset in proper_subsets(rank)]
    alone = {}
    for group in groups:
        monkeypatch.setattr(induction, '_SYSTEMS', {})
        alone[group] = _untimed(run_group(*group))
    steps_alone = len(steps)
    steps.clear()
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    for group in groups:
        assert _untimed(run_group(*group)) == alone[group], group
    stored = [key for side in induction._SYSTEMS.values()
              for key in side.induced if key[1]]
    assert len(steps) == len(stored) < steps_alone


def test_a_group_without_induced_checks_induces_nothing(monkeypatch):
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    out = run_group('A', 3, (0, 1), checks=('base',))
    assert [r.ok() for r in out['base']] == [True]
    assert induction._SYSTEMS[('A', 3)].induced == {}


@pytest.mark.parametrize('group', [
    group for group in corpus_groups('full') if group[1] == 2])
def test_later_checks_induce_what_they_need(group, monkeypatch):
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    everything = _untimed(run_group(*group))
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    alone = _untimed(run_group(*group, checks=('wall', 'hom')))
    assert alone == {name: everything[name] for name in ('wall', 'hom')}


def test_an_a3_group_builds_each_theta_row_once(monkeypatch):
    # the A3 I = {1, 2} group from scratch: its tensor steps build 18
    # theta rows and keep them minimized, and its 18 wall checks read
    # those rows instead of building them again
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    rows, walls, inside = [], [], []
    theta_complex = homotopy.theta_complex
    wall_check = induction.verify_wall_crossing

    def counted_theta(s, cpx):
        rows.append('wall' if inside else 'tensor')
        return theta_complex(s, cpx)

    def counted_wall(*args):
        walls.append(args)
        inside.append(args)
        report = wall_check(*args)
        inside.pop()
        return report

    # a binding of theta_complex in induction is counted too
    for module in (homotopy, induction):
        monkeypatch.setattr(module, 'theta_complex', counted_theta,
                            raising=False)
    monkeypatch.setattr(induction, 'verify_wall_crossing', counted_wall)
    out = run_group('A', 3, (0, 1))
    assert all(r.ok() for reports in out.values() for r in reports)
    assert len(walls) == 18 and rows == ['tensor'] * 18


def test_induce_all_fills_the_cache():
    setup = make_setup('B', 2, (0,))
    cache = induce_all(setup)
    for x in setup.parabolic_elements():
        for w in setup.coset_reps():
            assert (x, w) in cache
            assert k0_class(cache[(x, w)]) == predicted_class(
                setup.datum, x, w).scale(LaurentPoly.v(x.length + w.length))


# ---------------------------------------------------------------------------
# the coinvariant algebras: built with a catalog, never from the cache


@pytest.fixture
def algebra_builds(monkeypatch):
    """An empty setup registry and a log of build_coinvariants calls."""
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    built = []
    original = coinvariants.build_coinvariants

    def counting(rs, subset):
        built.append((repr(rs), tuple(subset)))
        return original(rs, subset)

    monkeypatch.setattr(coinvariants, 'build_coinvariants', counting)
    return built


def test_a_setup_builds_each_of_its_algebras_once(algebra_builds):
    setup = make_setup('A', 3, (0, 1))
    induce_all(setup)
    assert sorted(algebra_builds) == [('RootSystem(A3)', (0, 1)),
                                      ('RootSystem(A3)', (0, 1, 2))]
    assert make_setup('A', 3, (0, 1)) is setup


def test_a_setup_from_the_cache_builds_no_algebra(tmp_path, monkeypatch,
                                                  algebra_builds):
    cold = make_setup('A', 2, (0,), cache_dir=str(tmp_path))
    assert len(algebra_builds) == 2
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    algebra_builds.clear()
    warm = make_setup('A', 2, (0,), cache_dir=str(tmp_path))
    assert warm is not cold
    for x in warm.parabolic_elements():
        for w in warm.coset_reps():
            assert verify_induced_class(warm, x, w).ok()
    assert algebra_builds == []


# ---------------------------------------------------------------------------
# additivity


def test_induction_is_additive_on_direct_sums(a2s1):
    rs = a2s1.rs
    s1, w = word_el(rs, 1), word_el(rs, 2)
    summed, _, _ = direct_sum([a2s1.sub_catalog.entry(s1),
                               a2s1.sub_catalog.entry(rs.identity).shift(2)])
    whole = induce_module(a2s1, summed, w)
    pieces = direct_sum_complexes(induce(a2s1, s1, w),
                                  shift_complex(induce(a2s1, rs.identity, w),
                                                2))
    assert k0_class(whole) == k0_class(pieces)
    assert complexes_isomorphic(whole, pieces)


# ---------------------------------------------------------------------------
# the other verifications, spot-checked


def test_base_case_reports_hom_matrix(a2s1):
    report = verify_base_case(a2s1)
    assert report.ok()
    assert report.details['members'] == 2
    # lower triangular: the only degree-0 map between distinct
    # indecomposables here is the quotient D_{s1} -> D_e
    assert report.details['hom_matrix'] == [[1, 0], [1, 1]]


def test_base_case_hom_matrices_come_from_the_catalogs(a2s1):
    # both degree-0 matrices are read through catalog.hom_basis, so the
    # full catalog shares its solves with the hom complexes over it
    verify_base_case(a2s1)
    members = a2s1.parabolic_elements()
    pairs = {(a, b, 0) for a in members for b in members}
    assert pairs <= set(a2s1.catalog.hom_bases)
    assert pairs <= set(a2s1.sub_catalog.hom_bases)


def test_base_case_matches_one_entry_per_member(monkeypatch):
    # infl(D^I_x) = D_x is certified by one match_entry per member each
    # time the base case or the start of induce asks for it, and every
    # inflation has the entry's action matrices, so none solves a hom
    # space
    setup = make_setup('A', 3, (0, 1))
    calls, solves = [], []
    match_entry = induction.match_entry
    maps_from = smod.IndecomposableCatalog.maps_from

    def counted(*args):
        calls.append(args)
        return match_entry(*args)

    def solved(*args):
        solves.append(args)
        return maps_from(*args)

    monkeypatch.setattr(induction, 'match_entry', counted)
    monkeypatch.setattr(smod.IndecomposableCatalog, 'maps_from', solved)
    report = verify_base_case(setup)
    assert report.ok()
    assert len(calls) == report.details['members'] == 6
    calls.clear()
    assert verify_base_case(setup).details == report.details
    assert len(calls) == 6
    # on a cold catalog the base case solves the sub-catalog's Hom^0
    # bases, so the count of solves starts with the induce loop
    calls.clear()
    solves.clear()
    monkeypatch.setattr(setup.side, 'induced', {})
    for x in setup.parabolic_elements():
        assert induce(setup, x, setup.rs.identity).terms == {0: ((x, 0),)}
    assert len(calls) == 6 and not solves


def test_an_a3_group_solves_only_where_the_theory_names_no_map(monkeypatch):
    # the A3 I = {1, 2} group from scratch: End^0 is solved only for the
    # catalog entries that are not cyclic, a descent split of a cyclic
    # entry solves nothing, and the group makes no more hom solves than
    # it does with both
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    solves = {'hom': 0, 'end': 0}
    descents = []
    hom_space, end_space = smod.hom_space, smod.end_space
    descent_pieces = smod._descent_pieces

    def counted_hom(*args):
        solves['hom'] += 1
        return hom_space(*args)

    def counted_end(module):
        solves['end'] += 1
        return end_space(module)

    def counted_descent(catalog, s, y, theta):
        before = solves['hom']
        pieces = descent_pieces(catalog, s, y, theta)
        descents.append((catalog.is_cyclic(y), solves['hom'] - before))
        return pieces

    monkeypatch.setattr(smod, 'hom_space', counted_hom)
    monkeypatch.setattr(smod, 'end_space', counted_end)
    monkeypatch.setattr(smod, '_descent_pieces', counted_descent)
    out = run_group('A', 3, (0, 1))
    assert all(r.ok() for reports in out.values() for r in reports)
    setup = make_setup('A', 3, (0, 1))
    built = [catalog.is_cyclic(y) for catalog in (setup.catalog,
                                                  setup.sub_catalog)
             for y in catalog.entries]
    assert len(built) == 30 and solves['end'] == built.count(False) == 2
    # every descent split of the group is of a cyclic entry
    assert descents == [(True, 0)] * 9
    assert solves['hom'] <= 176


VERIFY_LIGHT_GROUPS = [('A', 2, ()), ('A', 2, (0,)), ('A', 2, (1,)),
                       ('B', 2, ()), ('B', 2, (0,)), ('B', 2, (1,)),
                       ('A', 3, (0, 1))]


def test_the_light_sweep_solves_few_hom_spaces(monkeypatch):
    # maps out of a cyclic entry come from its generator, so a full
    # hom_space solve is left for the entries that are not cyclic, split
    # pairs and End^0 only: 43 solves, 189 before the generator records
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    solved = []
    hom_space = smod.hom_space

    def counted(*args):
        solved.append(args)
        return hom_space(*args)

    monkeypatch.setattr(smod, 'hom_space', counted)
    for group in VERIFY_LIGHT_GROUPS:
        out = run_group(*group)
        assert all(r.ok() for reports in out.values() for r in reports)
    assert len(solved) <= 60


def with_entries(monkeypatch, setup, replaced):
    """The setup with a new sub catalog: its entries, those in replaced
    swapped in.  The new catalog has derived nothing from the old
    entries yet."""
    sub = setup.sub_catalog
    entries = dict(sub.entries)
    entries.update(replaced)
    monkeypatch.setattr(setup, 'sub_catalog',
                        smod.IndecomposableCatalog(sub.algebra, entries))


def base_case_in_another_basis(monkeypatch, setup):
    # the inflations then differ from the entries in their matrices, so
    # match_entry certifies each by an explicit isomorphism
    moved = {}
    for x in setup.parabolic_elements():
        entry = setup.sub_catalog.entry(x)
        # the basis e_r / (d + 2) of each graded piece d
        actions = {(i, d): [[v * (d + 4) / (d + 2) for v in row] for row in m]
                   for (i, d), m in actions_of(entry).items()}
        moved[x] = module_of(entry.algebra, entry.graded_dims, actions)
        assert x.length == 0 or moved[x].forms != entry.forms
    with_entries(monkeypatch, setup, moved)
    report = verify_base_case(setup)
    assert report.ok(), report.details


def test_base_case_holds_with_the_parabolic_entries_in_another_basis(
        monkeypatch):
    base_case_in_another_basis(monkeypatch, make_setup('A', 3, (0, 1)))


def test_the_rebased_base_case_holds_after_the_catalog_was_used(
        monkeypatch):
    # every record the old sub catalog keeps (hom bases and
    # presentations) is filled first; none of them reaches the new
    # catalog, so the verdict does not depend on the order of the tests
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    setup = make_setup('A', 3, (0, 1))
    assert verify_base_case(setup).ok()
    sub = setup.sub_catalog
    for x in setup.parabolic_elements():
        sub.presentation(x)
    assert sub.hom_bases and sub.presentations
    base_case_in_another_basis(monkeypatch, setup)


def test_an_inflation_that_is_not_the_entry_is_refused(monkeypatch):
    # D^I_{s1} replaced by the trivial module: its inflation does not
    # have the graded dimensions of D_{s1}, so the base case fails that
    # member and induce refuses to start from it
    setup = make_setup('A', 2, (0,))
    e, s1 = setup.rs.identity, word_el(setup.rs, 1)
    with_entries(monkeypatch, setup, {s1: setup.sub_catalog.entry(e)})
    monkeypatch.setattr(setup.side, 'induced', {})
    report = verify_base_case(setup)
    assert not report.ok()
    assert [f.get('x') for f in report.details['failures']] == [[1], None]
    with pytest.raises(InternalCheckError, match='inflation'):
        induce(setup, s1, e)
    assert induce(setup, e, e).terms == {0: ((e, 0),)}


def test_theta_restriction_inside_parabolic(a2s1):
    report = verify_theta_restriction(a2s1, 0)
    assert report.ok()
    assert report.details['failures'] == []
    with pytest.raises(ConfigurationError):
        verify_theta_restriction(a2s1, 1)


@pytest.mark.parametrize('subset', [(0,), (1,)])
def test_base_case_and_theta_restriction_in_g2(subset):
    setup = make_setup('G', 2, subset)
    assert verify_base_case(setup).ok()
    report = verify_theta_restriction(setup, subset[0])
    assert report.ok()
    assert report.details['failures'] == []


def test_wall_crossing_cone(a2s1):
    rs = a2s1.rs
    triples = wall_crossing_triples(a2s1)
    assert (rs.identity, rs.identity, 1) in triples
    for x, w, s in triples:
        report = verify_wall_crossing(a2s1, x, w, s)
        assert report.ok(), report.instance
        assert report.details == {'graded_equal': True, 'mass_equal': True}


def test_wall_crossing_rejects_descents(a2s1):
    rs = a2s1.rs
    s2 = word_el(rs, 2)
    with pytest.raises(ConfigurationError):
        verify_wall_crossing(a2s1, rs.identity, s2, 1)   # s2 s2 is shorter


def test_hom_vanishing_and_positive_control(a2s1):
    rs = a2s1.rs
    s1 = word_el(rs, 1)
    report = verify_hom_vanishing(a2s1, s1, s1, rs.identity, 1)
    assert report.ok()
    control = hom_positive_control(a2s1, s1, rs.identity)
    assert control.ok()
    assert control.instance['control'] == 'identity'


# ---------------------------------------------------------------------------
# corpus enumeration and the group runner


def test_proper_subsets_enumeration():
    assert proper_subsets(1) == [()]
    assert proper_subsets(2) == [(), (0,), (1,)]
    assert proper_subsets(3) == [(), (0,), (1,), (2,),
                                 (0, 1), (0, 2), (1, 2)]


def test_corpus_groups_layout():
    quick = corpus_groups('quick')
    assert quick == [('A', 1, ()), ('A', 2, ()), ('A', 2, (0,)),
                     ('A', 2, (1,))]
    full = corpus_groups('full')
    assert len(full) == 3 + 3 + 7
    with pytest.raises(ConfigurationError):
        corpus_groups('everything')


def test_jobs_start_no_more_workers_than_groups(monkeypatch):
    # the pool records its size and runs nothing, so no process starts
    import concurrent.futures
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [{} for _ in tasks]

    monkeypatch.setattr(concurrent.futures, 'ProcessPoolExecutor',
                        RecordingPool)
    for scope, jobs in (('quick', 3), ('quick', 64), ('full', 64)):
        assert run_corpus(scope, jobs, checks=('base',)) == {'base': []}
    # the quick corpus has 4 groups, the full one 13
    assert sizes == [3, 4, 13]


def test_run_group_counts_and_statuses():
    out = run_group('A', 2, ())
    assert {k: len(v) for k, v in out.items()} == {
        'induced': 6, 'base': 1, 'theta': 0, 'wall': 6, 'hom': 7}
    out = run_group('A', 2, (0,))
    assert {k: len(v) for k, v in out.items()} == {
        'induced': 6, 'base': 1, 'theta': 1, 'wall': 4, 'hom': 9}
    for reports in out.values():
        for report in reports:
            assert report.ok(), report.instance


def test_verification_report_round_trip():
    report = VerificationReport(
        instance={'family': 'A', 'rank': 2, 'parabolic': [1]},
        status='fail', computed_class='H_e', predicted_class='(v)*H_e',
        timing=0.25, details={'graded_equal': False})
    assert report.to_json() == {
        'instance': {'family': 'A', 'rank': 2, 'parabolic': [1]},
        'status': 'fail', 'computed_class': 'H_e',
        'predicted_class': '(v)*H_e', 'timing': 0.25,
        'complex_summary': None, 'details': {'graded_equal': False}}
    assert not report.ok()
