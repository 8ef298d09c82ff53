"""Laurent polynomials against a reference over Fraction.

A coefficient is stored as an int exactly when it is integral, and as a
Fraction otherwise.  The ring operations, the bar involution and the
shift must agree with the same operations done on dicts of Fractions,
equal polynomials must hash equally, and nothing but an int or a
Fraction may become a coefficient.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from soergelind.laurent import LaurentPoly

coeffs = st.one_of(st.integers(-5, 5),
                   st.fractions(min_value=-3, max_value=3,
                                max_denominator=6))
# (exponent, coefficient) pairs, exponents repeated on purpose
pairs = st.lists(st.tuples(st.integers(-4, 4), coeffs), max_size=6)


def reference(pairs):
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, Fraction(0)) + Fraction(c)
    return {k: c for k, c in out.items() if c}


def ref_add(a, b):
    return reference(list(a.items()) + list(b.items()))


def ref_mul(a, b):
    return reference([(k1 + k2, c1 * c2)
                      for k1, c1 in a.items() for k2, c2 in b.items()])


def assert_matches(poly, ref):
    assert poly.terms == ref
    for c in poly.terms.values():
        assert c != 0
        if c.denominator == 1:
            assert type(c) is int
        else:
            assert type(c) is Fraction
    same = LaurentPoly(ref)
    assert poly == same
    assert hash(poly) == hash(same)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, st.integers(-5, 5))
def test_operations_match_the_fraction_reference(p, q, k):
    a, b = LaurentPoly(p), LaurentPoly(q)
    ra, rb = reference(p), reference(q)
    assert_matches(a, ra)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, {e: -c for e, c in rb.items()}))
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(-a, {e: -c for e, c in ra.items()})
    assert_matches(a.bar(), {-e: c for e, c in ra.items()})
    assert_matches(a.shift(k), {e + k: c for e, c in ra.items()})


def test_integral_fractions_are_stored_as_ints():
    p = LaurentPoly({0: Fraction(4, 2), 1: Fraction(1, 2)})
    assert p.terms == {0: 2, 1: Fraction(1, 2)}
    assert type(p.terms[0]) is int
    assert type((p + p).terms[1]) is int
    assert type((p * p).terms[0]) is int


@pytest.mark.parametrize('bad', [0.5, 1.0, True, '1', None])
def test_a_coefficient_that_is_not_exact_is_refused(bad):
    with pytest.raises(TypeError):
        LaurentPoly({0: bad})
    with pytest.raises(TypeError):
        LaurentPoly.one() + bad
