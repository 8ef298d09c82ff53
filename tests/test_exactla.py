"""Exact linear algebra kernels against textbook references.

sparse_nullspace eliminates its rows by descending leading column with
a heap of pivot columns, and mat_mul skips zero entries and sums in
integers over one denominator per row; both must give exactly what
dense elimination and the triple-loop product give, whatever the row
order, on systems with empty rows, duplicate rows, explicit zeros, int
entries, columns that no row touches, and the block-bidiagonal shape of
the hom systems.  A float handed to any exact entry point is a
TypeError, never its binary expansion.  sparse_nullspace scales each
row to integers and eliminates fraction-free, exact at every step:
systems that a pass modulo p = 2^61 - 1 could not lift back (the rank
drops mod p, a denominator is divisible by p, an entry is beyond a
lift bound) must still equal the dense reference, and so must every
system that the A2 and B2 verification groups solve.  Once the rows
have a pivot in every column, the kernel is zero and nothing after
that is computed: no further row and no back-substitution.
form_solve, which the pipeline's blockwise inverses run through, must
return the one X with X A = B that the dense reference finds, and
False where that finds none or more than one; the sections of
presentation.present are read off sparse_nullspace directly.
That no module but exactla uses the dense routines is test_cli's
test_the_pipeline_holds_no_fraction_matrix.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from soergelind import exactla, homotopy, induction, presentation, smod
from soergelind.exactla import mat_mul, nullspace, sparse_nullspace
from soergelind.polynomials import Polynomial

P = 2 ** 61 - 1

# plain ints too: mat_mul and sparse_nullspace accept both, and
# hom_space hands sparse_nullspace integer rows
entries = st.one_of(st.just(Fraction(0)), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=12))


@st.composite
def generic_rows(draw):
    ncols = draw(st.integers(0, 8))
    row = st.dictionaries(st.integers(0, max(ncols - 1, 0)), entries,
                          max_size=4 if ncols else 0)
    return draw(st.lists(row, min_size=1, max_size=8)), ncols


@st.composite
def block_bidiagonal_rows(draw):
    """Rows shaped like hom_space's: the columns fall into consecutive
    degree blocks, and each row touches one block and the next."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    starts = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
    ncols = starts[-1]

    def row_at(k):
        cols = st.integers(starts[k], starts[min(k + 2, len(sizes))] - 1)
        return st.dictionaries(cols, entries, max_size=4)

    rows = draw(st.lists(st.integers(0, len(sizes) - 1).flatmap(row_at),
                         min_size=1, max_size=10))
    return rows, ncols


@st.composite
def sparse_systems(draw):
    """(rows, ncols): rows are dicts {col: Fraction}, some repeated."""
    rows, ncols = draw(st.one_of(generic_rows(), block_bidiagonal_rows()))
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


def _identity_map():
    from soergelind.coinvariants import build_coinvariants
    from soergelind.coxeter import RootSystem
    from soergelind.smod import ModuleMap, trivial_module
    algebra = build_coinvariants(RootSystem('A', 1), (0,))
    return ModuleMap.identity(trivial_module(algebra))


FLOAT_INPUTS = {
    'mat_mul_left': lambda: mat_mul([[0.5]], [[Fraction(1)]]),
    'mat_mul_right': lambda: mat_mul([[Fraction(1)]], [[0.5]]),
    'ModuleMap.scale': lambda: _identity_map().scale(0.1),
    'Polynomial.scale': lambda: Polynomial.const(2, 1).scale(0.1),
    'Polynomial.const': lambda: Polynomial.const(2, 0.1),
}


@pytest.mark.parametrize('call', FLOAT_INPUTS.values(), ids=FLOAT_INPUTS)
def test_a_float_is_refused_rather_than_expanded(call):
    # Fraction(0.1) would be 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        call()


# ---------------------------------------------------------------------------
# systems a modular pass could not lift, and early stopping


def assert_dense(rows, ncols):
    basis = sparse_nullspace(rows, ncols)
    assert basis == nullspace(dense(rows, ncols))
    assert all(isinstance(x, Fraction) for vec in basis for x in vec)


def test_a_system_whose_rank_drops_mod_p_is_solved_exactly():
    # p vanishes mod p, so mod p the column looks free; over Q it is not
    assert_dense([{0: Fraction(P)}], 1)
    assert_dense([{0: Fraction(P), 1: Fraction(1)}, {1: Fraction(2)}], 3)
    assert_dense([{0: Fraction(1), 1: Fraction(1)},
                  {0: Fraction(1), 1: Fraction(1 + P)}], 2)


def test_a_denominator_divisible_by_p_is_solved_exactly():
    assert_dense([{0: Fraction(1, P), 1: Fraction(1)}], 2)
    assert_dense([{0: Fraction(3, 2 * P), 1: Fraction(1, 3)},
                  {1: Fraction(5)}], 3)


def test_an_entry_beyond_a_lift_bound_is_solved_exactly():
    # the kernel entry 3 / (2^40 + 1) has a denominator above 2^30
    big = Fraction(2 ** 40 + 1, 3)
    assert_dense([{0: big, 1: Fraction(1)}], 2)
    assert_dense([{0: Fraction(1), 1: big, 2: Fraction(-1)},
                  {1: Fraction(1), 2: big}], 4)
    assert_dense([{0: Fraction(2 ** 31), 1: Fraction(1)}], 2)


odd_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=10 ** 12).map(
        lambda x: x if x.denominator % 2 else x / 3),
    st.integers(-2 ** 70, 2 ** 70).map(Fraction),
    st.sampled_from([Fraction(P), Fraction(-P), Fraction(1, P),
                     Fraction(2 ** 30), Fraction(2 ** 30 + 1),
                     Fraction(1, 2 ** 30 + 1)]))


@st.composite
def systems_with_large_entries(draw):
    ncols = draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, ncols - 1), odd_entries,
                          max_size=4)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    # a combination of two rows keeps the rank low, so kernels are large
    a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
    c = draw(odd_entries)
    mixed = {k: a.get(k, 0) + c * b.get(k, 0) for k in set(a) | set(b)}
    return rows + [mixed], ncols


@settings(max_examples=300, deadline=None)
@given(systems_with_large_entries())
def test_odd_and_large_denominators_equal_the_dense_nullspace(system):
    rows, ncols = system
    assert_dense(rows, ncols)


def unreachable(*args):
    raise AssertionError("this step must not be reached")


def test_full_rank_stops_before_a_later_row(monkeypatch):
    # the third row sorts last (leading column 0, the longer one), after
    # two pivots already fill both columns, so only two rows are reduced
    reduced = []
    reduce_into = exactla._reduce_into

    def counting(pivots, row):
        reduced.append(dict(row))
        return reduce_into(pivots, row)

    monkeypatch.setattr(exactla, '_reduce_into', counting)
    rows = [{0: Fraction(1, P), 1: Fraction(1)}, {0: Fraction(2)},
            {1: Fraction(3)}]
    assert sparse_nullspace(rows, 2) == []
    assert reduced == [{1: 3}, {0: 2}]
    assert nullspace(dense(rows, 2)) == []


def test_a_full_rank_system_skips_back_substitution(monkeypatch):
    monkeypatch.setattr(exactla, '_back_substitute', unreachable)
    # upper bidiagonal with 1/3 and 5/7, then a redundant row
    rows = [{c: Fraction(1, 3), c + 1: Fraction(5, 7)} for c in range(5)]
    rows += [{5: Fraction(2)}, {0: Fraction(1), 5: Fraction(1)}]
    assert sparse_nullspace(rows, 6) == []
    assert nullspace(dense(rows, 6)) == []


def test_the_a3_parabolic_group_holds_on_the_integer_echelon(monkeypatch):
    """Every check of the A3, I = {1, 2} group passes, over more than a
    hundred integer eliminations."""
    echelons = {}
    reduce_into = exactla._reduce_into

    def counting(pivots, row):
        echelons[id(pivots)] = pivots  # kept alive, so ids are not reused
        return reduce_into(pivots, row)

    monkeypatch.setattr(exactla, '_reduce_into', counting)
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    results = induction.run_group('A', 3, (0, 1))
    assert all(r.ok() for reports in results.values() for r in reports)
    assert len(echelons) > 100


def test_every_system_of_the_rank_2_groups_equals_the_dense_nullspace(
        monkeypatch):
    """The systems the verification itself solves, recorded from every
    binding of sparse_nullspace and compared with the dense reference."""
    systems = []
    solve = exactla.sparse_nullspace

    def recording(rows, ncols):
        systems.append(([dict(row) for row in rows], ncols))
        return solve(rows, ncols)

    for module in (exactla, homotopy, presentation, smod):
        monkeypatch.setattr(module, 'sparse_nullspace', recording)
    monkeypatch.setattr(induction, '_SYSTEMS', {})
    for family in ('A', 'B', 'G'):
        for subset in induction.proper_subsets(2):
            results = induction.run_group(family, 2, subset)
            assert all(r.ok() for reports in results.values()
                       for r in reports)
    assert len(systems) > 200
    for rows, ncols in systems:
        assert solve(rows, ncols) == nullspace(
            dense(rows, ncols) or [[Fraction(0)] * ncols])


# ---------------------------------------------------------------------------
# form_solve: the unique X with X A = B, against the dense reference


@st.composite
def solve_systems(draw):
    """(a, b, n): a n x m, b k x m; half the time b = X a is consistent."""
    n, m, k = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(matrices(n, m))
    if draw(st.booleans()):
        return a, mat_mul(draw(matrices(k, n)), a) if n else [[0] * m] * k, n
    return a, draw(matrices(k, m)), n


def dense_solution(a, b, n):
    """X with X a = b read off the rref of [a^T | b^T], or False unless
    there is exactly one."""
    m = len((a or b or [[]])[0])
    red, pivots = exactla.rref([[row[c] for row in a] + [row[c] for row in b]
                                for c in range(m)])
    if pivots != list(range(n)):
        return False
    return [[red[i][n + j] for i in range(n)] for j in range(len(b))]


@settings(max_examples=300, deadline=None)
@given(solve_systems())
@example(([[0, 0], [0, 0]], [[1, 2]], 2))                 # zero A
@example(([[1, 2], [3, 4]], [[0, 0], [0, 0]], 2))         # zero B
@example(([[1, 2], [2, 4]], [[1, 2]], 2))                 # singular square
@example(([[1, 1]], [[1, 2]], 1))                         # inconsistent
@example(([[1], [1]], [[Fraction(1, 3)]], 2))             # not unique
@example(([[Fraction(1, 2), 3], [0, Fraction(2, 7)]], [[1, 1]], 2))
def test_form_solve_equals_the_dense_solution(system):
    a, b, n = system
    expected = dense_solution(a, b, n)
    got = exactla.form_solve(exactla.to_form(a), exactla.to_form(b), n)
    if expected is False:
        assert got is False
    else:
        assert got == exactla.to_form(expected)


@pytest.mark.parametrize('a', [[[1, 2], [2, 4]], [[0]], [[1, 2]],
                               [[1], [2]]],
                         ids=['singular', 'zero', 'wide', 'tall'])
def test_invert_refuses_a_singular_or_non_square_matrix(a):
    with pytest.raises(ValueError):
        exactla.invert(a)


@pytest.mark.parametrize('a, b', [([[1], [1]], [[1], [2]]),
                                  ([[1, 1], [2, 2]], [[1], [2]]),
                                  ([[1, 2]], [[1]]),
                                  ([[1]], [[1], [1]])],
                         ids=['inconsistent', 'singular', 'wide', 'shape'])
def test_solve_matrix_refuses_a_system_without_one_solution(a, b):
    with pytest.raises(ValueError):
        exactla.solve_matrix(a, b)


def test_invert_and_solve_matrix_answer_through_form_solve():
    a = [[Fraction(1, 2), 1], [3, 4]]
    inverse = exactla.invert(a)
    assert mat_mul(a, inverse) == [[1, 0], [0, 1]]
    assert exactla.solve_matrix(a, [[1], [0]]) == [row[:1] for row in inverse]
    assert exactla.solve_matrix([[1], [1]], [[2], [2]]) == [[2]]
