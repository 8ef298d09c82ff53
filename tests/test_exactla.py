"""Exact linear algebra kernels against textbook references.

sparse_nullspace eliminates its rows sparsest first with a heap of pivot
columns, and mat_mul skips zero entries; both must give exactly what
dense elimination and the triple-loop product give, whatever the row
order, on systems with empty rows, duplicate rows, explicit zeros and
columns that no row touches.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from soergelind.exactla import mat_mul, nullspace, sparse_nullspace

entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4))


@st.composite
def sparse_systems(draw):
    """(rows, ncols): rows are dicts {col: Fraction}, some repeated."""
    ncols = draw(st.integers(0, 8))
    row = st.dictionaries(st.integers(0, max(ncols - 1, 0)), entries,
                          max_size=4 if ncols else 0)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    dups = draw(st.lists(st.sampled_from(rows), max_size=3))
    return rows + [dict(row) for row in dups], ncols


def dense(rows, ncols):
    return [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]


def matrices(nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def products(draw):
    """(a, b, p, r) with a p x q and b q x r, any of p, q, r zero."""
    p, q, r = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(matrices(p, q)), draw(matrices(q, r)), p, r


def triple_loop(a, b, p, r):
    q = len(b)
    return [[sum((a[i][k] * b[k][j] for k in range(q)), Fraction(0))
             for j in range(r)] for i in range(p)]


@settings(max_examples=200, deadline=None)
@given(sparse_systems(), st.data())
def test_sparse_nullspace_ignores_row_order(system, data):
    rows, ncols = system
    shuffled = data.draw(st.permutations(rows))
    assert sparse_nullspace(shuffled, ncols) == sparse_nullspace(rows, ncols)


# the third row meets pivot 0, whose row brings in pivot column 1 as
# fill-in: column 1 must then be cleared too
FILL_IN = ([{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)},
            {0: Fraction(1), 3: Fraction(1)}], 4)


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
@example(FILL_IN)
def test_sparse_nullspace_equals_dense_nullspace(system):
    rows, ncols = system
    basis = sparse_nullspace(rows, ncols)
    assert basis == nullspace(dense(rows, ncols))
    for vec in basis:
        assert all(sum((v * vec[c] for c, v in row.items()), Fraction(0)) == 0
                   for row in rows)


def test_sparse_nullspace_without_rows_is_the_unit_basis():
    assert sparse_nullspace([], 2) == [[1, 0], [0, 1]]
    assert sparse_nullspace([{}, {1: Fraction(0)}], 2) == [[1, 0], [0, 1]]


@settings(max_examples=200, deadline=None)
@given(products())
def test_mat_mul_equals_the_triple_loop(case):
    a, b, p, r = case
    got = mat_mul(a, b)
    # a 0 x q matrix and a q x r one with q = 0 are both [], so the
    # column count only survives through a nonempty b
    cols = r if b else 0
    assert got == triple_loop(a, b, p, cols)
    assert len(got) == p
    assert all(len(row) == cols for row in got)
    assert all(isinstance(x, Fraction) for row in got for x in row)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 3))
def test_mat_mul_rejects_a_shape_mismatch(p, q, extra, r):
    a = [[Fraction(1)] * q for _ in range(p)]
    b = [[Fraction(1)] * r for _ in range(q + extra)]
    with pytest.raises(ValueError):
        mat_mul(a, b)
