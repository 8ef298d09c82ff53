"""Laurent polynomials against a reference over dicts of ints.

A coefficient is a Python int.  The ring operations, the bar involution
and the shift must agree with the same operations done on dicts of
ints, and nothing but an int may become a coefficient.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from soergelind.laurent import LaurentPoly

# {exponent: coefficient}, zero coefficients included on purpose
polys = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=6)


def reference(pairs):
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def ref_add(a, b):
    return reference(list(a.items()) + list(b.items()))


def ref_mul(a, b):
    return reference([(k1 + k2, c1 * c2)
                      for k1, c1 in a.items() for k2, c2 in b.items()])


def assert_matches(poly, ref):
    assert poly.terms == ref
    assert all(type(c) is int and c != 0 for c in poly.terms.values())
    assert poly == LaurentPoly(ref)


@settings(max_examples=300, deadline=None)
@given(polys, polys, st.integers(-5, 5))
def test_operations_match_the_int_reference(p, q, k):
    a, b = LaurentPoly(p), LaurentPoly(q)
    ra, rb = reference(p.items()), reference(q.items())
    assert_matches(a, ra)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, {e: -c for e, c in rb.items()}))
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(-a, {e: -c for e, c in ra.items()})
    assert_matches(a.bar(), {-e: c for e, c in ra.items()})
    assert_matches(a * LaurentPoly({k: 1}), {e + k: c for e, c in ra.items()})


@pytest.mark.parametrize('bad', [0.5, 1.0, True, '1', None,
                                 Fraction(1, 2), Fraction(2)])
def test_a_coefficient_that_is_not_exact_is_refused(bad):
    with pytest.raises(TypeError):
        LaurentPoly({0: bad})
    with pytest.raises(TypeError):
        LaurentPoly.one() + bad
