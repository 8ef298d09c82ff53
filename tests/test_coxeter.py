"""Weyl group enumeration against classification facts.

Orders, length distributions and longest-element lengths are checked
against the classical degree data (d_1, ..., d_n) of each type, which
the enumeration code never touches: |W| = prod d_i, the length
generating function is prod (1 + q + ... + q^(d_i - 1)), and the
longest element has length sum (d_i - 1).
"""

from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from soergelind.coxeter import (RootSystem, WeylElement, admissible_chain,
                                build_parabolic)
from soergelind.errors import ConfigurationError, IncompatibilityError

from reference import admissible_chains

# fundamental degrees, straight out of the classification
DEGREES = {
    ('A', 1): (2,),
    ('A', 2): (2, 3),
    ('A', 3): (2, 3, 4),
    ('B', 2): (2, 4),
    ('B', 3): (2, 4, 6),
    ('C', 3): (2, 4, 6),
    ('D', 4): (2, 4, 6, 4),
    ('G', 2): (2, 6),
}


def length_counts_from_degrees(degrees):
    """Coefficients of prod (1 + q + ... + q^(d-1)) as a Counter."""
    counts = Counter({0: 1})
    for d in degrees:
        new = Counter()
        for length, mult in counts.items():
            for k in range(d):
                new[length + k] += mult
        counts = new
    return counts


def product(items):
    out = 1
    for x in items:
        out *= x
    return out


@pytest.mark.parametrize('family,rank', sorted(DEGREES))
def test_group_order_matches_degree_product(family, rank):
    rs = RootSystem(family, rank)
    assert len(rs.elements) == product(DEGREES[(family, rank)])


@pytest.mark.parametrize('family,rank', sorted(DEGREES))
def test_length_distribution_is_poincare_polynomial(family, rank):
    rs = RootSystem(family, rank)
    got = Counter(w.length for w in rs.elements)
    assert got == length_counts_from_degrees(DEGREES[(family, rank)])


@pytest.mark.parametrize('family,rank', sorted(DEGREES))
def test_longest_element(family, rank):
    rs = RootSystem(family, rank)
    top = sum(d - 1 for d in DEGREES[(family, rank)])
    longest = [w for w in rs.elements if w.length == top]
    assert len(longest) == 1
    w0 = longest[0]
    # w0 is an involution and right-multiplication by any s drops length
    assert w0 * w0 == rs.identity
    assert all(w0.has_right_descent(i) for i in range(rank))


def test_coxeter_relations_dihedral():
    # m(s1, s2) = 3, 4, 6 for A2, B2, G2
    for family, m in (('A', 3), ('B', 4), ('G', 6)):
        rs = RootSystem(family, 2)
        s1, s2 = rs.simple_reflection(0), rs.simple_reflection(1)
        assert s1 * s1 == rs.identity
        assert s2 * s2 == rs.identity
        prod, order = s1 * s2, 1
        while prod != rs.identity:
            prod, order = prod * (s1 * s2), order + 1
        assert order == m


AUTOMORPHISMS = {('A', 1): 0, ('A', 2): 1, ('A', 3): 1, ('A', 4): 1,
                 ('A', 5): 1, ('B', 2): 0, ('B', 3): 0, ('B', 4): 0,
                 ('C', 3): 0, ('C', 4): 0, ('D', 4): 5, ('D', 5): 1,
                 ('F', 4): 0, ('G', 2): 0}


@pytest.mark.parametrize('family,rank', sorted(AUTOMORPHISMS))
def test_diagram_automorphisms_preserve_the_cartan_matrix(family, rank):
    # one flip for A_n (n >= 2) and D_n (n >= 5), the five non-identity
    # permutations of the three leaves of D4, none for B, C, F or G
    rs = RootSystem(family, rank)
    autos = rs.diagram_automorphisms
    assert len(autos) == len(set(autos)) == AUTOMORPHISMS[(family, rank)]
    a = rs.cartan
    for sigma in autos:
        assert sorted(sigma) == list(range(rank))
        assert sigma != tuple(range(rank))
        assert all(a[sigma[i]][sigma[j]] == a[i][j]
                   for i in range(rank) for j in range(rank))
    if family == 'A' and rank > 1:
        assert autos == (tuple(reversed(range(rank))),)
    if family == 'D' and rank == 4:
        # the centre, node 2, stays; the leaves 1, 3, 4 permute freely
        assert {sigma[1] for sigma in autos} == {1}
        assert {tuple(sigma[i] for i in (0, 2, 3)) for sigma in autos} \
            | {(0, 2, 3)} == set(permutations((0, 2, 3)))


@pytest.mark.parametrize('family,rank', [('A', 3), ('D', 4)])
def test_a_diagram_automorphism_is_a_group_automorphism(family, rank):
    # sigma(u v) = sigma(u) sigma(v), and sigma keeps lengths
    rs = RootSystem(family, rank)
    for sigma in rs.diagram_automorphisms:
        image = {w: rs.apply_automorphism(sigma, w) for w in rs.elements}
        assert len(set(image.values())) == len(rs.elements)
        assert all(image[w].length == w.length for w in rs.elements)
        for i in range(rank):
            s = rs.simple_reflection(i)
            assert image[s] == rs.simple_reflection(sigma[i])
            assert all(image[w * s] == image[w] * image[s]
                       for w in rs.elements)


def test_length_equals_inversion_count():
    # the word-combinatorial length against the geometric count of
    # positive roots sent negative
    for family, rank in (('A', 3), ('B', 2), ('G', 2)):
        rs = RootSystem(family, rank)
        for w in rs.elements:
            assert w.length == w.inversion_count()


def test_descents_track_length():
    rs = RootSystem('A', 3)
    for w in rs.elements:
        for i in range(rs.rank):
            s = rs.simple_reflection(i)
            assert w.has_right_descent(i) == ((w * s).length < w.length)
            assert w.has_left_descent(i) == ((s * w).length < w.length)


def test_word_is_reduced_and_lex_least():
    rs = RootSystem('A', 2)
    w0 = rs.element_from_word([0, 1, 0])
    assert w0.length == 3
    assert w0.word == (0, 1, 0)        # lex-least among (0,1,0), (1,0,1)
    assert rs.element_from_word([1, 0, 1]) == w0
    assert rs.element_from_word([0, 0]) == rs.identity
    assert rs.element_from_word([]) == rs.identity


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=10))
def test_element_from_word_agrees_with_stepwise_product(letters):
    rs = RootSystem('A', 3)
    w = rs.element_from_word(letters)
    step = rs.identity
    for i in letters:
        step = step * rs.simple_reflection(i)
    assert w == step
    assert w.length <= len(letters)
    assert (w.length - len(letters)) % 2 == 0


def test_inverse_and_mixed_groups():
    rs = RootSystem('B', 2)
    for w in rs.elements:
        inverse = rs.element_from_matrix(w.inv_matrix)
        assert w * inverse == rs.identity
        assert inverse.length == w.length
    other = RootSystem('A', 2)
    with pytest.raises(IncompatibilityError):
        rs.simple_reflection(0) * other.simple_reflection(0)


def test_elements_compare_by_matrix_alone():
    rs = RootSystem('A', 2)
    w = rs.element_from_word([0, 1])
    twin = WeylElement(rs, w.matrix, w.inv_matrix, w.length, (9, 9))
    assert twin == w and hash(twin) == hash(w)
    assert w != rs.element_from_word([1, 0])
    assert len({w, twin, rs.identity}) == 2


def int_matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


@pytest.mark.parametrize('family,rank', [('A', 3), ('B', 3), ('G', 2),
                                         ('F', 4)])
def test_products_are_the_registered_matrix_products(family, rank):
    # all pairs, but for F4 every element times every generator; the
    # second product comes from the memo
    rs = RootSystem(family, rank)
    rights = ([rs.simple_reflection(i) for i in range(rank)]
              if family == 'F' else rs.elements)
    for a in rs.elements:
        for b in rights:
            expected = rs.element_from_matrix(int_matmul(a.matrix, b.matrix))
            assert a * b is expected
            assert a * b is expected


@pytest.mark.parametrize('family,rank', [('A', 3), ('B', 3), ('G', 2),
                                         ('F', 4)])
def test_kept_descents_hash_and_index(family, rank):
    rs = RootSystem(family, rank)
    for k, w in enumerate(rs.elements):
        right = [all(row[i] <= 0 for row in w.matrix) for i in range(rank)]
        left = [all(row[i] <= 0 for row in w.inv_matrix)
                for i in range(rank)]
        assert [w.has_right_descent(i) for i in range(rank)] == right
        assert [w.has_left_descent(i) for i in range(rank)] == left
        assert w.right_descents() == [i for i in range(rank) if right[i]]
        assert hash(w) == hash((w.matrix,))
        assert w.index == k


def test_a_warm_product_memo_still_refuses_another_group():
    # two A2 systems share matrices and indices, so only the group check
    # tells their elements apart
    rs, other = RootSystem('A', 2), RootSystem('A', 2)
    s1, s2 = rs.simple_reflection(0), rs.simple_reflection(1)
    assert s1 * s2 is rs.element_from_word([0, 1])
    assert s2.index == other.simple_reflection(1).index
    with pytest.raises(IncompatibilityError):
        s1 * other.simple_reflection(1)
    with pytest.raises(IncompatibilityError):
        other.simple_reflection(1) * s1


def test_parabolic_repr():
    rs = RootSystem('B', 3)
    assert repr(build_parabolic(rs, (2, 0))) == \
        'ParabolicDatum(RootSystem(B3), {s1,s3})'
    assert repr(build_parabolic(rs, ())) == \
        'ParabolicDatum(RootSystem(B3), {empty})'


def test_unsupported_type_rejected():
    with pytest.raises(ConfigurationError):
        RootSystem('E', 6)
    with pytest.raises(ConfigurationError):
        RootSystem('A', 0)


# ---------------------------------------------------------------------------
# parabolic subgroups and minimal coset representatives


def test_parabolic_factorization_unique():
    # every w is z * u with z in W_I, u a minimal representative,
    # lengths adding up; uniqueness by counting
    rs = RootSystem('A', 3)
    for subset in [(), (0,), (1,), (0, 2), (0, 1)]:
        datum = build_parabolic(rs, subset)
        seen = {}
        for z in datum.elements_WI:
            for u in datum.min_reps:
                w = z * u
                assert w.length == z.length + u.length
                assert w not in seen
                seen[w] = (z, u)
        assert len(seen) == len(rs.elements)


def test_min_rep_means_no_left_descent_in_subset():
    rs = RootSystem('B', 2)
    for subset in [(), (0,), (1,)]:
        datum = build_parabolic(rs, subset)
        for w in rs.elements:
            expected = all(not w.has_left_descent(i) for i in subset)
            assert datum.is_min_rep(w) == expected


def test_parabolic_subgroup_contents():
    rs = RootSystem('A', 3)
    datum = build_parabolic(rs, (0, 1))
    assert len(datum.elements_WI) == 6          # an A2 inside A3
    assert len(datum.min_reps) == 4
    words = sorted(u.word_1based() for u in datum.min_reps)
    assert words == [[], [3], [3, 2], [3, 2, 1]]


def test_admissible_chain_properties():
    rs = RootSystem('A', 3)
    for subset in [(), (0,), (0, 1), (0, 2)]:
        datum = build_parabolic(rs, subset)
        for w in sorted(datum.min_reps, key=lambda u: (u.length, u.word)):
            chain = admissible_chain(datum, w)
            assert chain is not None, w
            assert len(chain) == w.length
            prefix = rs.identity
            for i in chain:
                prefix = prefix * rs.simple_reflection(i)
                assert datum.is_min_rep(prefix)
            assert prefix == w


def test_admissible_chains_enumerates_all():
    rs = RootSystem('A', 2)
    datum = build_parabolic(rs, ())
    w0 = rs.element_from_word([0, 1, 0])
    chains = admissible_chains(datum, w0)
    assert sorted(chains) == [(0, 1, 0), (1, 0, 1)]
    assert admissible_chain(datum, w0) == (0, 1, 0)
    # chains must consist of reduced words, so s1 s1 s1 never appears
    s1 = rs.simple_reflection(0)
    assert admissible_chains(datum, s1) == [(0,)]


@pytest.mark.parametrize('family,rank', [('A', 3), ('B', 3), ('G', 2)])
def test_first_admissible_chain_is_the_least(family, rank):
    # the search is the reference: its chains come out sorted, and the
    # single chain is the first of them.  The chains of a minimal
    # representative are all of its reduced words (the chains for
    # I = empty), so the least is the element's own word
    rs = RootSystem(family, rank)
    empty = build_parabolic(rs, ())
    reduced_words = {w: admissible_chains(empty, w) for w in rs.elements}
    for mask in range(1 << rank):
        subset = tuple(i for i in range(rank) if mask >> i & 1)
        datum = build_parabolic(rs, subset)
        for w in rs.elements:
            chains = admissible_chains(datum, w)
            assert chains == sorted(chains)
            assert admissible_chain(datum, w) == \
                (chains[0] if chains else None)
            minimal = datum.is_min_rep(w)
            assert chains == (reduced_words[w] if minimal else [])
            assert admissible_chain(datum, w) == (w.word if minimal
                                                  else None)
