"""Hecke algebra arithmetic and the Kazhdan-Lusztig basis.

The KL elements are not compared against a second implementation of
the same recursion; instead each b_w is checked against the three
properties that characterize it uniquely (bar-invariance, b_w in
H_w + sum v Z[v] H_x, positivity), plus a handful of frozen literals
from the literature.  Multiplication is checked against the group
algebra through the v = 1 specialization, which the Hecke product
code never sees.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from soergelind.coxeter import RootSystem, build_parabolic
from soergelind.errors import ConfigurationError, IncompatibilityError
from soergelind.hecke import (HeckeElement, bar_involution, hecke_multiply,
                              hecke_standard, hecke_unit, kl_basis,
                              parabolic_kl, predicted_class,
                              wall_crossing_summands)
from soergelind.laurent import LaurentPoly

V = LaurentPoly({1: 1})


def word_el(rs, *letters_1based):
    return rs.element_from_word([i - 1 for i in letters_1based])


# ---------------------------------------------------------------------------
# Laurent polynomial layer


def test_laurent_arithmetic():
    p = LaurentPoly({-1: 1, 1: -1})          # v^-1 - v
    q = LaurentPoly({0: 1, 2: 3})
    assert p * q == LaurentPoly({-1: 1, 1: 2, 3: -3})
    assert p + p == p * LaurentPoly.const(2)
    assert p - p == LaurentPoly.zero()
    assert LaurentPoly.v(5) * LaurentPoly.v(-5) == LaurentPoly.one()


def test_laurent_repr_and_eval():
    p = LaurentPoly({-2: 1, 0: -2, 3: 5})
    assert repr(p) == 'v^-2 - 2 + 5*v^3'
    assert p.bar() == LaurentPoly({2: 1, 0: -2, -3: 5})
    # v = 1 sums each coefficient's terms
    rs = RootSystem('A', 1)
    s = rs.simple_reflection(0)
    a = HeckeElement(rs, {rs.identity: p, s: LaurentPoly.v(-1)})
    assert a.evaluate_at_one() == {rs.identity: 4, s: 1}


# ---------------------------------------------------------------------------
# standard basis arithmetic


def test_quadratic_relation():
    rs = RootSystem('A', 2)
    for i in range(2):
        hs = hecke_standard(rs.simple_reflection(i))
        lhs = hecke_multiply(hs, hs)
        rhs = hs.scale(LaurentPoly.v(-1) - V) + hecke_unit(rs)
        assert lhs == rhs


def test_braid_relations():
    a2 = RootSystem('A', 2)
    h1 = hecke_standard(a2.simple_reflection(0))
    h2 = hecke_standard(a2.simple_reflection(1))
    assert hecke_multiply(hecke_multiply(h1, h2), h1) == \
        hecke_multiply(hecke_multiply(h2, h1), h2)
    b2 = RootSystem('B', 2)
    g1 = hecke_standard(b2.simple_reflection(0))
    g2 = hecke_standard(b2.simple_reflection(1))
    lhs = hecke_multiply(hecke_multiply(hecke_multiply(g1, g2), g1), g2)
    rhs = hecke_multiply(hecke_multiply(hecke_multiply(g2, g1), g2), g1)
    assert lhs == rhs


def test_product_of_standard_basis_respects_lengths():
    # H_u H_w = H_uw whenever lengths add
    rs = RootSystem('A', 3)
    for u in rs.elements:
        for i in range(rs.rank):
            s = rs.simple_reflection(i)
            if (u * s).length == u.length + 1:
                prod = hecke_multiply(hecke_standard(u), hecke_standard(s))
                assert prod == hecke_standard(u * s)


def group_algebra_product(mass_a, mass_b):
    out = Counter()
    for u, c in mass_a.items():
        for w, d in mass_b.items():
            out[u * w] += c * d
    return {k: v for k, v in out.items() if v}


def mass(element):
    return {w: c for w, c in element.evaluate_at_one().items() if c}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=6),
       st.lists(st.integers(0, 1), max_size=6))
def test_specialization_at_one_is_group_algebra(word_a, word_b):
    # at v = 1 the quadratic relation degenerates to s^2 = e, so the
    # specialized product must match the honest group-algebra product
    rs = RootSystem('B', 2)
    a = hecke_standard(rs.element_from_word(word_a)) + \
        hecke_unit(rs).scale(LaurentPoly.const(3))
    b = hecke_standard(rs.element_from_word(word_b))
    lhs = mass(hecke_multiply(a, b))
    rhs = group_algebra_product(mass(a), mass(b))
    assert lhs == rhs


def test_elements_of_different_groups_do_not_mix():
    a = hecke_unit(RootSystem('A', 2))
    b = hecke_unit(RootSystem('A', 2))
    with pytest.raises(IncompatibilityError):
        hecke_multiply(a, b)          # same type, distinct instances


def test_scale_and_linear_ops():
    rs = RootSystem('A', 1)
    s = rs.simple_reflection(0)
    a = hecke_standard(s).scale(V) + hecke_unit(rs)
    assert a - hecke_unit(rs) == hecke_standard(s).scale(V)
    assert a.scale(LaurentPoly.zero()) == HeckeElement(rs, {})


# ---------------------------------------------------------------------------
# bar involution


def bar_fixed_groups():
    return [RootSystem('A', 2), RootSystem('B', 2)]


@pytest.mark.parametrize('rs', bar_fixed_groups(),
                         ids=lambda r: f'{r.cartan_type}{r.rank}')
def test_bar_is_a_ring_involution(rs):
    elements = sorted(rs.elements, key=lambda w: (w.length, w.word))
    for u in elements:
        a = hecke_standard(u).scale(V)
        assert bar_involution(bar_involution(a)) == a
    # multiplicativity on a generating pair
    a = hecke_standard(elements[1])
    b = hecke_standard(elements[-1])
    assert bar_involution(hecke_multiply(a, b)) == \
        hecke_multiply(bar_involution(a), bar_involution(b))


def test_bar_of_generator():
    rs = RootSystem('A', 1)
    s = rs.simple_reflection(0)
    got = bar_involution(hecke_standard(s))
    expected = hecke_standard(s) + \
        hecke_unit(rs).scale(V - LaurentPoly.v(-1))
    assert got == expected


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig basis: characterizing properties, then literals


def coefficients_lower_terms_positive(rs, w, element):
    """b_w = H_w + sum over shorter x of h_x H_x with h_x in v Z>=0[v]."""
    for x, coeff in element.terms.items():
        if x == w:
            assert coeff == LaurentPoly.one()
            continue
        assert x.length < w.length
        assert coeff.in_positive_v_lattice() and not coeff.is_zero()


@pytest.mark.parametrize('family,rank', [('A', 2), ('B', 2), ('A', 3)])
def test_kl_basis_characterizing_properties(family, rank):
    rs = RootSystem(family, rank)
    for w in rs.elements:
        b = kl_basis(w)
        assert bar_involution(b) == b
        coefficients_lower_terms_positive(rs, w, b)


def product_and_peel(y, i):
    """b_y b_s multiplied out and peeled longest term first: the
    expansion wall_crossing_summands reads off the mu-coefficients."""
    rs = y.root_system
    prod = hecke_multiply(kl_basis(y), kl_basis(rs.simple_reflection(i)))
    out = []
    while prod.terms:
        z = max(prod.terms, key=lambda u: (u.length, u.word))
        m_z = prod.terms[z]
        for j, c in m_z.terms.items():
            assert type(c) is int and c > 0
            out.extend([(z, y.length + 1 + j - z.length)] * c)
        prod = prod - kl_basis(z).scale(m_z)
    return sorted(out, key=lambda t: (t[1], t[0].length, t[0].word))


@pytest.mark.parametrize('family,rank',
                         [('A', 2), ('B', 2), ('G', 2), ('A', 3), ('B', 3)])
def test_wall_crossing_summands_equal_the_peeled_product(family, rank):
    rs = RootSystem(family, rank)
    for y in rs.elements:
        for i in range(rank):
            assert wall_crossing_summands(y, i) == product_and_peel(y, i), \
                (y, i)


def test_kl_literals_dihedral():
    # in rank 2 every KL polynomial is 1: b_w = sum_{x <= w} v^(l(w)-l(x)) H_x
    rs = RootSystem('B', 2)
    w0 = word_el(rs, 1, 2, 1, 2)
    b = kl_basis(w0)
    assert set(b.terms) == set(rs.elements)
    for x, coeff in b.terms.items():
        assert coeff == LaurentPoly.v(w0.length - x.length)


def test_kl_literal_singular_a3():
    # the first Weyl group element with a nontrivial KL polynomial:
    # h_{e, 2132}(v) = v^2 + v^4
    rs = RootSystem('A', 3)
    b = kl_basis(word_el(rs, 2, 1, 3, 2))
    assert b.terms[rs.identity] == LaurentPoly({2: 1, 4: 1})
    s2 = word_el(rs, 2)
    assert b.terms[s2] == LaurentPoly({1: 1, 3: 1})
    s1 = word_el(rs, 1)
    assert b.terms[s1] == LaurentPoly({3: 1})


def test_kl_ungraded_mass_counts_bruhat_interval():
    # at v = 1 the mass of b_w counts each x <= w with multiplicity
    # P_{x,w}(1); for A2 all polynomials are 1, so the mass is the
    # indicator of the Bruhat interval [e, w]
    rs = RootSystem('A', 2)
    w0 = word_el(rs, 1, 2, 1)
    assert mass(kl_basis(w0)) == {x: 1 for x in rs.elements}
    s1s2 = word_el(rs, 1, 2)
    assert mass(kl_basis(s1s2)) == {
        rs.identity: 1, word_el(rs, 1): 1, word_el(rs, 2): 1, s1s2: 1}


def test_kl_generator_square():
    # b_s b_s = (v + v^-1) b_s
    rs = RootSystem('A', 1)
    s = rs.simple_reflection(0)
    prod = hecke_multiply(kl_basis(s), kl_basis(s))
    assert prod == kl_basis(s).scale(V + LaurentPoly.v(-1))


# ---------------------------------------------------------------------------
# parabolic KL data and the induced-class prediction


def test_parabolic_kl_matches_standalone_subgroup():
    # the A2 sitting inside A3 on the first two generators must carry
    # exactly the KL data of a standalone A2
    big = RootSystem('A', 3)
    small = RootSystem('A', 2)
    datum = build_parabolic(big, (0, 1))
    for x_small in small.elements:
        x_big = big.element_from_word(list(x_small.word))
        coeffs = parabolic_kl(datum, x_big)
        reference = kl_basis(x_small).terms
        translated = {small.element_from_word(list(z.word)): c
                      for z, c in coeffs.items()}
        assert translated == dict(reference)


def test_parabolic_kl_rejects_outsiders():
    rs = RootSystem('A', 3)
    datum = build_parabolic(rs, (0, 1))
    with pytest.raises(ConfigurationError):
        parabolic_kl(datum, word_el(rs, 3))


def test_predicted_class_literals():
    rs = RootSystem('A', 2)
    datum = build_parabolic(rs, (0,))
    s1, s2 = word_el(rs, 1), word_el(rs, 2)
    assert predicted_class(datum, rs.identity, s2) == hecke_standard(s2)
    got = predicted_class(datum, s1, s2)
    expected = hecke_standard(word_el(rs, 1, 2)) + hecke_standard(s2).scale(V)
    assert got == expected
    with pytest.raises(ConfigurationError):
        predicted_class(datum, s1, s1)      # s1 is not a minimal rep


def test_predicted_class_lengths_are_additive():
    rs = RootSystem('A', 3)
    datum = build_parabolic(rs, (0, 2))
    for x in datum.elements_WI:
        for w in datum.min_reps:
            cls = predicted_class(datum, x, w)
            for zw, coeff in cls.terms.items():
                assert zw.length >= w.length
                # the coefficient of H_{xw} itself is exactly 1
            assert cls.terms[x * w] == LaurentPoly.one()
