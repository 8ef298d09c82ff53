"""Acceptance gate: the eight headline checks, one verdict line each.

Everything here runs in exact arithmetic -- rational coefficients and
integer Laurent exponents throughout, equality always literal, never
approximate.  The first six criteria interrogate a single shared sweep
of the full verification corpus (every corpus group with every proper
parabolic subset), so the expensive induction work happens once per
session.  Criteria 7 and 8 are self-contained: the infrastructure
battery re-derives its oracles from scratch, and the calibration check
re-runs the shift search from nothing.

Run with -s to see the verdict lines as they happen; on a failure the
line is replayed in the captured output either way.
"""

import random
import time
from collections import Counter

from soergelind.coinvariants import build_coinvariants
from soergelind.coxeter import RootSystem
from soergelind.hecke import bar_involution, kl_basis
from soergelind.homotopy import (gaussian_eliminate, is_minimal, k0_class,
                                 one_term_complex, tensor_rouquier)
from soergelind.induction import (CalibrationRecord, calibrate_shift,
                                  corpus_groups, run_corpus, run_group)
from soergelind.laurent import LaurentPoly
from soergelind.polynomials import Polynomial, PolyRing, demazure
from soergelind.smod import build_catalog, decompose, direct_sum

_STATE: dict = {}


def full_sweep():
    """One full-corpus verification run, shared by criteria 1-6."""
    if 'sweep' not in _STATE:
        t0 = time.perf_counter()
        reports = run_corpus('full')
        _STATE['sweep'] = (reports, time.perf_counter() - t0)
    return _STATE['sweep']


def conclude(number, label, ok):
    verdict = 'PASS' if ok else 'FAIL'
    print(f'criterion {number} ({label}): {verdict}')
    assert ok, f'criterion {number} ({label}): {verdict}'


def group_key(report):
    inst = report.instance
    return (inst['family'], inst['rank'], tuple(inst['parabolic']))


def corpus_keys():
    return [(f, r, tuple(i + 1 for i in subset))
            for f, r, subset in corpus_groups('full')]


# ---------------------------------------------------------------------------
# criterion 1: every induced class in the corpus matches its prediction


def test_criterion_1_induced_class_sweep():
    reports, elapsed = full_sweep()
    induced = reports['induced']
    # one instance per (x in W_I, w in W^I), i.e. |W| per group
    expected = sum({'A2': 6, 'B2': 8, 'A3': 24}[f'{f}{r}']
                   for f, r, _ in corpus_groups('full'))
    ok = (len(induced) == expected
          and all(r.ok() for r in induced)
          and all(r.computed_class == r.predicted_class for r in induced)
          and elapsed < 600.0)
    conclude(1, 'graded induced classes, full corpus', ok)


# ---------------------------------------------------------------------------
# criterion 2: the ungraded (v = 1) comparison holds independently


def test_criterion_2_ungraded_shadow():
    reports, _ = full_sweep()
    induced = reports['induced']
    ok = bool(induced) and all(
        r.details.get('ungraded_equal') is True for r in induced)
    conclude(2, 'ungraded specialization agrees', ok)


# ---------------------------------------------------------------------------
# criterion 3: base case w = e, with hom matrices, for every (type, I)


def test_criterion_3_base_cases():
    full_sweep()          # warm the per-process setup caches first
    t0 = time.perf_counter()
    collected = []
    for family, rank, subset in corpus_groups('full'):
        collected.extend(
            run_group(family, rank, subset, checks=('base',))['base'])
    elapsed = time.perf_counter() - t0
    covered = Counter(group_key(r) for r in collected)
    ok = (covered == Counter(corpus_keys())
          and all(r.ok() for r in collected)
          and all('hom_matrix' in r.details for r in collected)
          and elapsed < 60.0)
    conclude(3, 'base cases with hom matrices', ok)


# ---------------------------------------------------------------------------
# criterion 4: restriction commutes with the wall-crossing functor


def test_criterion_4_theta_restriction():
    reports, _ = full_sweep()
    theta = reports['theta']
    covered = Counter(group_key(r) for r in theta)
    expected = Counter()
    for key in corpus_keys():
        if key[2]:
            expected[key] = len(key[2])   # one report per s in I
    ok = (covered == expected
          and all(r.ok() for r in theta)
          and all(r.instance['s'] in r.instance['parabolic']
                  for r in theta))
    conclude(4, 'theta commutes with restriction', ok)


# ---------------------------------------------------------------------------
# criterion 5: the wall-crossing cone identity, graded and by mass


def test_criterion_5_wall_crossing():
    reports, _ = full_sweep()
    wall = reports['wall']
    covered = set(group_key(r) for r in wall)
    ok = (covered == set(corpus_keys())
          and all(r.ok() for r in wall)
          and all(r.details.get('graded_equal') is True for r in wall)
          and all(r.details.get('mass_equal') is True for r in wall))
    conclude(5, 'wall-crossing cone identity', ok)


# ---------------------------------------------------------------------------
# criterion 6: hom vanishing between induced complexes, with controls


def test_criterion_6_hom_vanishing():
    reports, _ = full_sweep()
    hom = reports['hom']
    vanishing = [r for r in hom if 'control' not in r.instance]
    controls = [r for r in hom if r.instance.get('control') == 'identity']
    control_groups = set(group_key(r) for r in controls)
    ok = (bool(vanishing)
          and all(r.ok() for r in hom)
          and control_groups == set(corpus_keys()))
    conclude(6, 'hom vanishing with positive controls', ok)


# ---------------------------------------------------------------------------
# criterion 7: the infrastructure battery, re-derived from scratch


DEGREES = {('A', 1): (2,), ('A', 2): (2, 3), ('A', 3): (2, 3, 4),
           ('B', 2): (2, 4), ('G', 2): (2, 6)}


def length_counts_from_degrees(degrees):
    counts = Counter({0: 1})
    for d in degrees:
        new = Counter()
        for length, mult in counts.items():
            for k in range(d):
                new[length + k] += mult
        counts = new
    return counts


def all_monomials(ring, max_degree):
    out = [ring.one()]
    for d in range(1, max_degree + 1):
        out.extend(Polynomial(ring.n, {expt: 1})
                   for expt in ring.monomials_of_degree(d))
    return out


def check_group_enumeration():
    for (family, rank), degrees in DEGREES.items():
        rs = RootSystem(family, rank)
        order = 1
        for d in degrees:
            order *= d
        assert len(rs.elements) == order
        assert Counter(w.length for w in rs.elements) == \
            length_counts_from_degrees(degrees)
        assert max(w.length for w in rs.elements) == \
            sum(d - 1 for d in degrees)


def check_demazure_battery():
    for family, braid_word in (('A', [0, 1, 0]), ('B', [0, 1, 0, 1])):
        ring = PolyRing(RootSystem(family, 2))
        monos = all_monomials(ring, 6)
        for f in monos:
            for i in range(2):
                assert demazure(ring, i, demazure(ring, i, f)).is_zero()
        small = all_monomials(ring, 3)
        for f in small:
            for g in small:
                for i in range(2):
                    assert demazure(ring, i, f * g) == \
                        demazure(ring, i, f) * g + \
                        ring.apply_simple(i, f) * demazure(ring, i, g)

        def chain(word, f):
            for i in reversed(word):
                f = demazure(ring, i, f)
            return f

        for f in monos:
            assert chain(braid_word, f) == chain(braid_word[::-1], f)


def check_kl_battery():
    rs = RootSystem('A', 3)
    for w in rs.elements:
        b = kl_basis(w)
        assert bar_involution(b) == b
        for x, coeff in b.terms.items():
            if x == w:
                assert coeff == LaurentPoly.one()
            else:
                assert x.length < w.length
                assert coeff.in_positive_v_lattice()
                assert not coeff.is_zero()


def check_complex_battery():
    for family, rank, words in (('A', 2, ([0], [0, 0], [0, 1, 0])),
                                ('B', 2, ([0, 1, 0, 1],))):
        rs = RootSystem(family, rank)
        catalog = build_catalog(build_coinvariants(rs, tuple(range(rank))))
        for word in words:
            raw = one_term_complex(catalog, [(rs.identity, 0)])
            for s in word:
                raw = tensor_rouquier(s, raw)
            raw.verify_d_squared()
            mini = gaussian_eliminate(raw)
            assert k0_class(mini) == k0_class(raw)
            assert is_minimal(mini)


def check_krull_schmidt():
    rs = RootSystem('A', 2)
    catalog = build_catalog(build_coinvariants(rs, (0, 1)))
    elements = catalog.elements()
    for seed in range(20):
        rng = random.Random(seed)
        picks = [(rng.choice(elements), 2 * rng.randint(0, 2))
                 for _ in range(rng.randint(2, 4))]
        total, _, _ = direct_sum([catalog.entry(y).shift(k)
                                  for y, k in picks])
        got = Counter()
        for z, k, _incl, _proj in decompose(total, catalog.entries):
            assert z is not None
            got[(z, k)] += 1
        assert got == Counter(picks)


def test_criterion_7_infrastructure_battery():
    t0 = time.perf_counter()
    ok = True
    try:
        check_group_enumeration()
        check_demazure_battery()
        check_kl_battery()
        check_complex_battery()
        check_krull_schmidt()
    except AssertionError:
        ok = False
    ok = ok and (time.perf_counter() - t0) < 120.0
    conclude(7, 'infrastructure battery', ok)


# ---------------------------------------------------------------------------
# criterion 8: the grading shift is forced, and forced to the same value


def test_criterion_8_calibration():
    # calibrate_shift() itself raises CalibrationError unless the rank-1
    # search has a unique survivor and rank 2 reproduces it
    try:
        first = calibrate_shift()
        again = calibrate_shift()
        ok = first == CalibrationRecord(shift=2, sign=1) and again == first
    except Exception:
        ok = False
    conclude(8, 'calibration unique and reproducible', ok)
