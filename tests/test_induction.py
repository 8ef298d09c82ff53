"""The induction pipeline against its Hecke-algebra prediction.

Everything funnels through two independent computations: the module
side (inflate, tensor along an admissible chain, minimize, read off
K_0) and the character side (parabolic Kazhdan-Lusztig coefficients
pushed along the coset).  The tests freeze small instances completely
and check the structural properties -- chain independence, additivity,
the wall-crossing cone -- that make the sweep meaningful.
"""

import pytest

from soergelind.coxeter import admissible_chain, admissible_chains
from soergelind.errors import CalibrationError, ConfigurationError
from soergelind.hecke import hecke_standard, kl_basis, predicted_class
from soergelind.homotopy import (complexes_isomorphic, direct_sum_complexes,
                                 FormalComplex, k0_class)
from soergelind.induction import (CalibrationRecord, VerificationReport,
                                  calibrate_shift, corpus_groups,
                                  hom_positive_control, induce, induce_all,
                                  induce_module, make_setup, proper_subsets,
                                  run_group, verify_base_case,
                                  verify_hom_vanishing, verify_induced_class,
                                  verify_theta_restriction,
                                  verify_wall_crossing, wall_crossing_triples)
from soergelind.laurent import LaurentPoly
from soergelind.smod import direct_sum


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


def test_wrong_calibrations_fail_loudly():
    # inducing with the rejected grid points must either refuse to
    # build a complex or produce the wrong class
    setup = make_setup('A', 2, ())
    rs = setup.rs
    s2 = word_el(rs, 2)
    good = k0_class(induce(setup, rs.identity, s2))
    assert good == hecke_standard(s2).scale(LaurentPoly.v(1))
    for record in (CalibrationRecord(shift=0, sign=1),
                   CalibrationRecord(shift=-2, sign=1)):
        try:
            cpx = induce(setup, rs.identity, s2, record=record)
        except Exception:
            continue
        assert k0_class(cpx) != good


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
    setup = make_setup(family, rank, subset)
    for x in setup.parabolic_elements():
        for w in setup.coset_reps():
            chain = admissible_chain(setup.datum, w)
            stored = induce(setup, x, w)
            fresh = induce(setup, x, w, chain=chain)
            assert fresh is not stored
            assert stored.to_json() == fresh.to_json()


def test_induce_all_fills_the_cache():
    setup = make_setup('B', 2, (0,))
    cache = induce_all(setup)
    for x in setup.parabolic_elements():
        for w in setup.coset_reps():
            assert (x, w) in cache
            assert k0_class(cache[(x, w)]) == predicted_class(
                setup.datum, x, w).scale(LaurentPoly.v(x.length + w.length))


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


def test_theta_restriction_inside_parabolic(a2s1):
    report = verify_theta_restriction(a2s1, 0)
    assert report.ok()
    assert report.details['failures'] == []
    with pytest.raises(ConfigurationError):
        verify_theta_restriction(a2s1, 1)


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
    back = VerificationReport.from_json(report.to_json())
    assert back == report
    assert not back.ok()
