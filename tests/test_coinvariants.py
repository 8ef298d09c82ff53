"""Coinvariant algebras and Demazure operators.

The graded dimension of the coinvariant algebra of a reflection group
is its Poincare polynomial (in the doubled grading), which we get
independently from the Weyl group enumeration.  Demazure operators are
checked against their defining identities in the free polynomial ring
-- nilpotency, the twisted Leibniz rule, the braid relations -- on all
monomials up to algebraic degree six.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from soergelind import coinvariants
from soergelind.coxeter import RootSystem, build_parabolic
from soergelind.errors import InternalCheckError
from soergelind.exactla import rref
from soergelind.coinvariants import build_coinvariants
from soergelind.polynomials import Polynomial, PolyRing, demazure

from reference import rational_coinvariants


def poincare_dims(elements):
    """Module-graded dimension pattern {2 l(w): count} of a group."""
    out = Counter()
    for w in elements:
        out[2 * w.length] += 1
    return dict(out)


@pytest.mark.parametrize('family,rank',
                         [('A', 1), ('A', 2), ('B', 2), ('A', 3)])
def test_full_coinvariants_match_poincare(family, rank):
    rs = RootSystem(family, rank)
    C = build_coinvariants(rs, tuple(range(rank)))
    assert C.dimension() == len(rs.elements)
    assert C.graded_dims() == poincare_dims(rs.elements)


def test_parabolic_coinvariants_match_subgroup():
    rs = RootSystem('A', 3)
    for subset in [(), (0,), (0, 2), (0, 1)]:
        datum = build_parabolic(rs, subset)
        C = build_coinvariants(rs, subset)
        assert C.dimension() == len(datum.elements_WI)
        assert C.graded_dims() == poincare_dims(datum.elements_WI)


# ---------------------------------------------------------------------------
# the construction against full Reynolds averaging and dense elimination


def reference_coinvariants(rs, subset):
    """(basis_by_algdeg, fundamental) the slow way.

    Averages every monomial of every degree over W_I, spots the new
    averages with a dense echelon and reduces the whole span with the
    dense `rref`.
    """
    ring = PolyRing(rs)
    group = [w for w in rs.elements if set(w.word) <= set(subset)]
    top = max(w.length for w in group)
    basis_by_algdeg = {0: [(0,) * rs.rank]}
    ideal_polys, fundamental = [], []
    for d in range(1, top + 2):
        monos = ring.monomials_of_degree(d)
        span = [p * ring.variable(j)
                for p in ideal_polys for j in range(rs.rank)]
        echelon = {}

        def is_new(vec):
            for col in range(len(vec)):
                if vec[col] and col in echelon:
                    c = vec[col]
                    vec = [x - c * y for x, y in zip(vec, echelon[col])]
                elif vec[col]:
                    echelon[col] = [x / vec[col] for x in vec]
                    return True
            return False

        for p in span:
            is_new([p.coefficient(m) for m in monos])
        for m in monos:
            avg = Polynomial.zero(rs.rank)
            for w in group:
                avg = avg + ring.apply_weyl(w, Polynomial(rs.rank, {m: 1}))
            avg = avg.scale(Fraction(1, len(group)))
            span.append(avg)
            if is_new([avg.coefficient(mm) for mm in monos]):
                fundamental.append(avg)
        reduced, pivots = rref([[p.coefficient(m) for m in monos]
                                for p in span])
        if d <= top:
            basis_by_algdeg[d] = [m for j, m in enumerate(monos)
                                  if j not in pivots]
            ideal_polys = [Polynomial(rs.rank, dict(zip(monos, row)))
                           for row in reduced]
    return basis_by_algdeg, fundamental


ALL_SUBSETS = [(family, rank, subset)
               for family, rank in [('A', 1), ('A', 2), ('B', 2), ('G', 2),
                                    ('A', 3)]
               for k in range(rank + 1)
               for subset in combinations(range(rank), k)]


@pytest.mark.parametrize('family,rank,subset', ALL_SUBSETS, ids=[
    f"{f}{n}-I{''.join(str(i + 1) for i in sub) or 'none'}"
    for f, n, sub in ALL_SUBSETS])
def test_construction_equals_full_averaging(family, rank, subset):
    rs = RootSystem(family, rank)
    C = build_coinvariants(rs, subset)
    basis, fundamental = reference_coinvariants(rs, subset)
    assert C.basis_by_algdeg == basis
    assert C.fundamental_invariants == fundamental


def invariant_degrees(rs, subset):
    counts = Counter(w.length for w in rs.elements
                     if set(w.word) <= set(subset))
    return coinvariants._invariant_degrees(dict(counts), rs.rank)


@pytest.mark.parametrize('family,rank,degrees', [
    ('A', 1, {2: 1}), ('A', 2, {2: 1, 3: 1}), ('B', 2, {2: 1, 4: 1}),
    ('A', 3, {2: 1, 3: 1, 4: 1})])
def test_invariant_degrees_are_the_classical_ones(family, rank, degrees):
    rs = RootSystem(family, rank)
    assert invariant_degrees(rs, tuple(range(rank))) == degrees


def test_invariant_degrees_of_a3_parabolics():
    rs = RootSystem('A', 3)
    assert invariant_degrees(rs, (0,)) == {1: 2, 2: 1}
    assert invariant_degrees(rs, ()) == {1: 3}


def test_a_missing_generator_fails_the_dimension_check(monkeypatch):
    # under-report the degree-4 invariant of A3: the ideal built is then
    # too small in degree 4 and the graded dimension check must say so
    monkeypatch.setattr(coinvariants, '_invariant_degrees',
                        lambda counts, rank: {2: 1, 3: 1})
    with pytest.raises(InternalCheckError):
        build_coinvariants(RootSystem('A', 3), (0, 1, 2))


def test_full_a3_averages_only_a_few_monomials(monkeypatch):
    # full averaging would average all 119 monomials of degrees 1..7,
    # 24 x 119 = 2856 element applications; six make 144
    rs = RootSystem('A', 3)
    applied = []
    average = coinvariants._average

    def counted(columns, mono, powers):
        applied.append(len(columns))
        return average(columns, mono, powers)

    monkeypatch.setattr(coinvariants, '_average', counted)
    build_coinvariants(rs, (0, 1, 2))
    assert 0 < len(applied) <= 6
    assert sum(applied) <= len(rs.elements) * 6


ORACLE_GROUPS = [(family, rank, subset)
                 for family, rank in [('A', 2), ('B', 2), ('G', 2),
                                      ('A', 3), ('B', 3)]
                 for k in range(rank + 1)
                 for subset in combinations(range(rank), k)]


@pytest.mark.parametrize('family,rank,subset', ORACLE_GROUPS, ids=[
    f"{f}{n}-I{''.join(str(i + 1) for i in sub) or 'none'}"
    for f, n, sub in ORACLE_GROUPS])
def test_integer_average_equals_the_fraction_average(family, rank, subset):
    # the reference averages through PolyRing.apply_weyl, in Fractions;
    # _average returns |group| times the average, in ints
    rs = RootSystem(family, rank)
    ring = PolyRing(rs)
    group = [w for w in rs.elements if set(w.word) <= set(subset)]
    columns = [tuple(zip(*w.matrix)) for w in group]
    powers = {}
    for d in range(5):
        for m in ring.monomials_of_degree(d):
            mono = Polynomial(rs.rank, {m: 1})
            ref = Polynomial.zero(rs.rank)
            for w in group:
                ref = ref + ring.apply_weyl(w, mono)
            ref = ref.scale(Fraction(1, len(group)))
            total = coinvariants._average(columns, m, powers)
            assert Polynomial(rs.rank, {
                k: Fraction(c, len(group)) for k, c in total.items()}) \
                == ref, m


@pytest.mark.parametrize('family,rank,subset', ORACLE_GROUPS, ids=[
    f"{f}{n}-I{''.join(str(i + 1) for i in sub) or 'none'}"
    for f, n, sub in ORACLE_GROUPS])
def test_the_mod_p_echelon_agrees_with_the_rational_one(family, rank,
                                                        subset):
    # the echelon of build_coinvariants, over the integers, keeps the
    # same invariants as the reference's echelon over Fraction, Fraction
    # for Fraction, and the same quotient basis monomials
    rs = RootSystem(family, rank)
    basis, fundamental = rational_coinvariants(rs, subset)
    C = build_coinvariants(rs, subset)
    assert C.basis_by_algdeg == basis
    assert [f.terms for f in C.fundamental_invariants] == \
        [f.terms for f in fundamental]
    assert all(isinstance(c, Fraction) for f in C.fundamental_invariants
               for c in f.terms.values())


# ---------------------------------------------------------------------------
# Demazure operators in the free polynomial ring


def all_monomials(ring, max_degree):
    out = [ring.one()]
    for d in range(1, max_degree + 1):
        out.extend(Polynomial(ring.n, {expt: 1})
                   for expt in ring.monomials_of_degree(d))
    return out


@pytest.mark.parametrize('family', ['A', 'B'])
def test_demazure_squares_to_zero(family):
    ring = PolyRing(RootSystem(family, 2))
    for f in all_monomials(ring, 6):
        for i in range(2):
            assert demazure(ring, i, demazure(ring, i, f)).is_zero()


@pytest.mark.parametrize('family', ['A', 'B'])
def test_demazure_twisted_leibniz(family):
    ring = PolyRing(RootSystem(family, 2))
    monos = all_monomials(ring, 3)
    for f in monos:
        for g in monos:
            for i in range(2):
                lhs = demazure(ring, i, f * g)
                rhs = demazure(ring, i, f) * g + \
                    ring.apply_simple(i, f) * demazure(ring, i, g)
                assert lhs == rhs


def test_demazure_braid_relations():
    # m = 3 in type A2, m = 4 in type B2: the alternating words of
    # length m in d_1, d_2 agree
    def chain(ring, word, f):
        for i in reversed(word):
            f = demazure(ring, i, f)
        return f

    ring = PolyRing(RootSystem('A', 2))
    for f in all_monomials(ring, 6):
        assert chain(ring, [0, 1, 0], f) == chain(ring, [1, 0, 1], f)
    ring = PolyRing(RootSystem('B', 2))
    for f in all_monomials(ring, 6):
        assert chain(ring, [0, 1, 0, 1], f) == chain(ring, [1, 0, 1, 0], f)


def test_demazure_output_is_invariant():
    ring = PolyRing(RootSystem('A', 2))
    for f in all_monomials(ring, 5):
        for i in range(2):
            g = demazure(ring, i, f)
            assert ring.apply_simple(i, g) == g


def test_demazure_on_simple_root():
    ring = PolyRing(RootSystem('B', 2))
    for i in range(2):
        assert demazure(ring, i, ring.variable(i)) == ring.const(2)
