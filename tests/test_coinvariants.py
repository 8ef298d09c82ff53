"""Coinvariant algebras, Demazure operators, and restriction.

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
from soergelind.errors import ConfigurationError, InternalCheckError
from soergelind.exactla import rank as matrix_rank, rref
from soergelind.coinvariants import build_coinvariants, restriction_surjection
from soergelind.polynomials import Polynomial, PolyRing, demazure


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
    """(basis_by_algdeg, pivot_rules, fundamental) the slow way.

    Averages every monomial of every degree over W_I, spots the new
    averages with a dense echelon and reduces the whole span with the
    dense `rref`.
    """
    ring = PolyRing(rs)
    group = [w for w in rs.elements if set(w.word) <= set(subset)]
    top = max(w.length for w in group)
    basis_by_algdeg = {0: [(0,) * rs.rank]}
    pivot_rules = {0: {}}
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
            pivot_rules[d] = {
                monos[pc]: {monos[j]: -row[j] for j in range(len(monos))
                            if j not in pivots and row[j]}
                for row, pc in zip(reduced, pivots)}
            ideal_polys = [Polynomial(rs.rank, dict(zip(monos, row)))
                           for row in reduced]
    return basis_by_algdeg, pivot_rules, fundamental


ALL_SUBSETS = [(family, rank, subset)
               for family, rank in [('A', 1), ('A', 2), ('B', 2), ('A', 3)]
               for k in range(rank + 1)
               for subset in combinations(range(rank), k)]


@pytest.mark.parametrize('family,rank,subset', ALL_SUBSETS, ids=[
    f"{f}{n}-I{''.join(str(i + 1) for i in sub) or 'none'}"
    for f, n, sub in ALL_SUBSETS])
def test_construction_equals_full_averaging(family, rank, subset):
    rs = RootSystem(family, rank)
    C = build_coinvariants(rs, subset)
    basis, rules, fundamental = reference_coinvariants(rs, subset)
    assert C.basis_by_algdeg == basis
    assert C.pivot_rules == rules
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
    # full averaging would make 24 x 119 = 2856 calls
    rs = RootSystem('A', 3)
    calls = []
    apply_weyl = PolyRing.apply_weyl

    def counted(self, w, f):
        calls.append(w)
        return apply_weyl(self, w, f)

    monkeypatch.setattr(PolyRing, 'apply_weyl', counted)
    build_coinvariants(rs, (0, 1, 2))
    assert 0 < len(calls) <= len(rs.elements) * 6


def test_normal_form_is_idempotent_and_multiplicative():
    rs = RootSystem('A', 2)
    C = build_coinvariants(rs, (0, 1))
    a, b = C.alpha(0), C.alpha(1)
    prod = C.multiply(a, b)
    assert C.nf(prod) == prod
    assert C.is_nf(prod)
    # (a*b)*a computed two ways
    assert C.multiply(prod, a) == C.multiply(a, C.multiply(b, a))


def test_top_degree_is_one_dimensional_and_products_reach_it():
    # the coinvariant algebra of A2 is a Poincare duality algebra: the
    # top degree is one-dimensional and is spanned by the product of
    # the positive roots a1 * a2 * (a1 + a2)
    rs = RootSystem('A', 2)
    C = build_coinvariants(rs, (0, 1))
    top = max(C.graded_dims())
    assert C.graded_dims()[top] == 1
    socle = C.multiply(C.multiply(C.alpha(0), C.alpha(1)),
                       C.alpha(0) + C.alpha(1))
    assert not socle.is_zero()
    # one step higher everything dies
    assert C.multiply(socle, C.alpha(0)).is_zero()


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


# ---------------------------------------------------------------------------
# Demazure and the Frobenius decomposition inside the algebra


def test_algebra_demazure_and_frobenius_decomposition():
    rs = RootSystem('A', 2)
    C = build_coinvariants(rs, (0, 1))
    samples = [C.alpha(0), C.alpha(1),
               C.multiply(C.alpha(0), C.alpha(1)),
               C.multiply(C.alpha(0), C.alpha(0))]
    for f in samples:
        for i in range(2):
            assert C.demazure(i, C.demazure(i, f)).is_zero()
            half, other = C.frobenius_decompose(i, f)
            assert C.act_simple(i, half) == half
            assert C.act_simple(i, other) == other
            rebuilt = half + C.multiply(other, C.alpha(i))
            assert C.nf(rebuilt) == C.nf(f)


def test_algebra_rejects_outside_generators():
    rs = RootSystem('A', 2)
    Cs = build_coinvariants(rs, (0,))
    with pytest.raises(ConfigurationError):
        Cs.demazure(1, Cs.alpha(0))
    with pytest.raises(ConfigurationError):
        Cs.act_simple(1, Cs.alpha(0))


# ---------------------------------------------------------------------------
# restriction onto the parabolic coinvariants


def restriction_pair(rs, subset):
    source = build_coinvariants(rs, tuple(range(rs.rank)))
    target = build_coinvariants(rs, subset)
    return source, target, restriction_surjection(rs, subset,
                                                  source=source,
                                                  target=target)


@pytest.mark.parametrize('family,rank,subset', [
    ('A', 2, (0,)), ('A', 2, ()), ('B', 2, (1,)), ('A', 3, (0, 2))])
def test_restriction_is_surjective_in_every_degree(family, rank, subset):
    rs = RootSystem(family, rank)
    _source, target, rmap = restriction_pair(rs, subset)
    top = max(target.graded_dims()) // 2
    for algdeg in range(top + 1):
        m = rmap.matrix_on_degree(algdeg)
        assert len(m) == target.graded_dims().get(2 * algdeg, 0)
        if m:
            assert matrix_rank(m) == len(m)


def test_restriction_is_an_algebra_map():
    rs = RootSystem('A', 2)
    source, target, rmap = restriction_pair(rs, (0,))
    samples = [source.one(), source.alpha(0), source.alpha(1),
               source.multiply(source.alpha(0), source.alpha(1))]
    for f in samples:
        for g in samples:
            lhs = rmap(source.multiply(f, g))
            rhs = target.multiply(rmap(f), rmap(g))
            assert lhs == rhs
    assert rmap(source.one()) == target.one()


def test_restriction_commutes_with_parabolic_action():
    rs = RootSystem('A', 3)
    subset = (0, 1)
    source, target, rmap = restriction_pair(rs, subset)
    samples = [source.alpha(i) for i in range(3)]
    samples.append(source.multiply(source.alpha(0), source.alpha(2)))
    for f in samples:
        for i in subset:
            assert rmap(source.act_simple(i, f)) == \
                target.act_simple(i, rmap(f))
            assert rmap(source.demazure(i, f)) == target.demazure(i, rmap(f))
