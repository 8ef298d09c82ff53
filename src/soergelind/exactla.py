"""Exact linear algebra over the rationals; no floating point anywhere.

The pipeline computes on integer forms: the form (den, rows) of a
nonzero matrix A has den > 0, the int rows den * A and gcd(den, every
entry) = 1, and None is the form of a zero matrix.  Equal matrices have
equal forms.  :func:`form_mul`, :func:`form_add`, :func:`form_scale`
and :func:`place` compute on forms in ints, skipping zeros;
:func:`to_form` makes the form of a matrix, a list of lists of ints or
Fractions, where one comes in: the solvers' kernel vectors, and the
action matrices of a cache file, whose shapes
``serialize.module_from_json`` validates as it reads them.

Every elimination runs through :func:`sparse_nullspace`, directly (hom
systems, hom complexes, kernels, sections) or through
:func:`form_solve`, the unique X with X A = B (blockwise inverses).
It scales each row to integers and eliminates the rows, by descending
leading column, fraction-free into an echelon of integer pivot rows,
exact at every step; the argument is in its docstring.  Its two steps,
:func:`_reduce_into` and :func:`_back_substitute`, also build the
coinvariant algebras (``coinvariants.build_coinvariants``).

:func:`rref` and :func:`nullspace` are dense Gaussian elimination over
Fraction, kept as the reference the tests compare against;
:func:`invert`, :func:`solve_matrix` and :func:`mat_mul` wrap
:func:`form_solve` and :func:`form_mul` for Fraction matrices, which
:func:`from_form` and :func:`zeros` read back.  No other module of the
package names these: the pipeline holds no Fraction matrix.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

__all__ = [
    'Matrix',
    'zeros', 'mat_mul', 'rref', 'nullspace', 'sparse_nullspace',
    'solve_matrix', 'invert', 'to_form', 'from_form', 'normal', 'id_form',
    'form_mul', 'form_add', 'form_scale', 'place', 'form_solve',
]

Matrix = list  # list[list[Fraction]]


_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    """x as a Fraction; an int or a Fraction, anything else a TypeError.

    Fraction(x) itself would turn a float into its binary expansion.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"an exact entry is an int or a Fraction, not {x!r}")


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b with exact rational entries, through the
    integer forms of both (:func:`form_mul`).  The entries of a and b
    may be ints or Fractions, anything else is a TypeError; every output
    entry is a Fraction.
    """
    if a and b and len(a[0]) != len(b):
        raise ValueError(
            f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    ncols = len(b[0]) if b else 0
    return from_form(form_mul(to_form(a), to_form(b)) if a and b else None,
                     len(a), ncols)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.

    Returns the reduced rows (zero rows dropped) together with the list
    of pivot column indices, in order.  The input is not modified.
    """
    rows = [[_frac(x) for x in row] for row in a]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # find a pivot in column c at or below row r
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel {v : a v = 0}."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def solve_matrix(a: Matrix, b: Matrix) -> Matrix:
    """The unique X with a X = b, through X^T a^T = b^T (form_solve); a
    ValueError when there is none or more than one."""
    ncols, nrhs = len(a[0]) if a else 0, len(b[0]) if b else 0
    xt = form_solve(to_form(list(zip(*a))), to_form(list(zip(*b))), ncols)
    if xt is False or len(a) != len(b):
        raise ValueError("the linear system has no unique solution")
    x = from_form(xt, nrhs, ncols)
    return [[row[c] for row in x] for c in range(ncols)]


def invert(a: Matrix) -> Matrix:
    """The inverse of a square matrix (form_solve); a ValueError when it
    is singular or not square."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("cannot invert a non-square matrix")
    inverse = form_solve(to_form(a), id_form(n), n)
    if inverse is False:
        raise ValueError("matrix is singular")
    return from_form(inverse, n, n)


def sparse_nullspace(rows: list, ncols: int) -> list:
    """Kernel basis of a sparse matrix given as dicts {col: int or Fraction}.

    Each row is scaled to integers, by the lcm of its denominators, and
    reduced fraction-free into an echelon of integer pivot rows keyed by pivot
    column (:func:`_reduce_into`), by descending leading column,
    shorter first among equals.  Every pivot found so far then lies at
    or above the next row's leading column, so unless that column is a
    pivot already the row becomes the pivot there, reduced only in its
    higher columns; ``smod.hom_space`` numbers its unknowns by degree
    block, so its systems are eliminated from the top degree down.
    Each step adds to a nonzero multiple of a row a multiple of another,
    which keeps the row space over Q, so every step is exact (Bareiss,
    Math. Comp. 22, 1968).  After back-substitution
    (:func:`_back_substitute`) each pivot row divided by its pivot entry
    is a row of the reduced row echelon form, which the row space alone
    determines, so the basis does not depend on the order of the rows.
    The vector of a free column f is 1 at f, 0 at the other free
    columns and -prow[f] / prow[p] at each pivot p, free columns in
    increasing order.  Once there are ncols pivots the kernel is zero:
    the remaining rows are not read and back-substitution is skipped.
    """
    rows = sorted(rows, key=lambda row: (-min(row, default=ncols), len(row)))
    pivots: dict[int, dict] = {}
    for raw in rows:
        den = lcm(*[v.denominator for v in raw.values()])
        row = {c: v.numerator * (den // v.denominator)
               for c, v in raw.items() if v}
        if _reduce_into(pivots, row) and len(pivots) == ncols:
            return []
    _back_substitute(pivots)
    basis = {}
    for f in range(ncols):
        if f not in pivots:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            basis[f] = vec
    for p, prow in pivots.items():
        a = prow[p]
        for f, v in prow.items():
            if f != p:
                basis[f][p] = Fraction(-v, a)
    return list(basis.values())


def _reduce_into(pivots: dict, row: dict) -> bool:
    """Reduce an integer row into an echelon of pivot rows; True if it
    was new.

    ``pivots`` maps each pivot column to its row, a dict {col: int}
    with no columns below the pivot, a positive pivot entry and content
    (the gcd of its entries) 1; ``row`` has no zero entries and is
    consumed.  The pivot columns the row meets are cleared lowest
    first, from a min-heap: with a the pivot entry, c the row's entry
    and g = gcd(a, c), the row becomes (a/g) * row - (c/g) * (pivot
    row).  That creates columns only above the one cleared, so the heap
    only grows upwards.  A nonzero remainder, divided by its content
    and signed so that its lowest entry is positive, is stored as the
    pivot row of that column.
    """
    heap = [c for c in row if c in pivots]
    heapq.heapify(heap)
    while heap:
        hit = heapq.heappop(heap)
        coeff = row.pop(hit, None)
        if coeff is None:  # cancelled by an earlier step
            continue
        prow = pivots[hit]
        a = prow[hit]
        g = gcd(a, coeff)
        if g != a:
            a //= g
            for c in row:
                row[c] *= a
        coeff //= g
        for c2, v2 in prow.items():
            if c2 == hit:
                continue
            nv = row.get(c2, 0) - coeff * v2
            if nv:
                if c2 not in row and c2 in pivots:
                    heapq.heappush(heap, c2)
                row[c2] = nv
            else:
                del row[c2]
    if not row:
        return False
    p = min(row)
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    pivots[p] = row if g == 1 else {c: v // g for c, v in row.items()}
    return True


def _back_substitute(pivots: dict) -> None:
    """Clear every pivot column from the other pivot rows, in place.

    Top pivot first, as in :func:`_reduce_into`: row p holds no pivot
    column above p by then, and its turn is when it is divided by its
    content.  Afterwards each pivot row divided by its pivot entry is a
    row of the reduced row echelon form.
    """
    for p in sorted(pivots, reverse=True):
        prow = pivots[p]
        g = gcd(*prow.values())
        if g != 1:
            prow = pivots[p] = {c: v // g for c, v in prow.items()}
        a = prow[p]
        for q, qrow in pivots.items():
            if q >= p or p not in qrow:
                continue
            coeff = qrow.pop(p)
            g = gcd(a, coeff)
            if g != a:
                k = a // g
                for c in qrow:
                    qrow[c] *= k
            coeff //= g
            for c2, v2 in prow.items():
                if c2 == p:
                    continue
                nv = qrow.get(c2, 0) - coeff * v2
                if nv:
                    qrow[c2] = nv
                else:
                    qrow.pop(c2, None)


# ---------------------------------------------------------------------------
# integer forms (see the module docstring); None is the zero matrix


def normal(den: int, rows: list):
    """The form of the matrix rows / den, or None when it is zero."""
    g = den
    for row in rows:
        g = gcd(g, *row)
        if g == 1:
            break
    if g == den and not any(map(any, rows)):
        return None
    if g == 1:
        return den, rows
    return den // g, [[x // g for x in row] for row in rows]


def to_form(m: Matrix):
    """The form of a matrix of ints or Fractions; anything else is a
    TypeError."""
    try:
        den = lcm(*{x.denominator for row in m for x in row})
        rows = [[x.numerator * (den // x.denominator) for x in row]
                for row in m]
    except AttributeError:
        raise TypeError("an exact entry is an int or a Fraction") from None
    return normal(den, rows)


def from_form(form, nrows: int, ncols: int) -> Matrix:
    """The Fraction matrix of a form, zeros(nrows, ncols) for None."""
    if form is None:
        return zeros(nrows, ncols)
    den, rows = form
    return [[Fraction(x, den) if x else _ZERO for x in row] for row in rows]


def id_form(n: int) -> tuple:
    return 1, [[int(r == c) for c in range(n)] for r in range(n)]


def form_mul(a, b):
    """The form of the product of two forms' matrices.

    Each row of a adds x * (row j of b) only where its entry x is
    nonzero, and only the nonzero entries of that row of b.
    """
    if a is None or b is None:
        return None
    (den_a, rows_a), (den_b, rows_b) = a, b
    out = []
    for row in rows_a:
        acc = [0] * len(rows_b[0])
        for x, row_b in zip(row, rows_b):
            if x:
                for j, y in enumerate(row_b):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return normal(den_a * den_b, out)


def form_add(a, b):
    """The form of the sum of two same-shaped forms' matrices."""
    if a is None or b is None:
        return b if a is None else a
    (den_a, rows_a), (den_b, rows_b) = a, b
    den = lcm(den_a, den_b)
    ka, kb = den // den_a, den // den_b
    return normal(den, [[x * ka + y * kb for x, y in zip(ra, rb)]
                        for ra, rb in zip(rows_a, rows_b)])


def form_scale(c, a):
    """The form of c times a form's matrix, c an int or a Fraction."""
    if a is None or not c:
        return None
    den, rows = a
    p = c.numerator
    return normal(den * c.denominator, [[p * x for x in row] for row in rows])


def place(nrows: int, ncols: int, pieces):
    """The form of the nrows x ncols matrix that holds each (r0, c0, form)
    of pieces with its top left entry at (r0, c0), and zeros elsewhere."""
    pieces = [p for p in pieces if p[2] is not None]
    den = lcm(*[form[0] for _r, _c, form in pieces])
    out = [[0] * ncols for _ in range(nrows)]
    for r0, c0, (d, rows) in pieces:
        k = den // d
        for r, row in enumerate(rows, r0):
            out[r][c0:c0 + len(row)] = [k * x for x in row]
    return normal(den, out)


def form_solve(a, b, n: int):
    """The form of the unique X with X A = B, or False if there is none
    or more than one.

    A is the matrix of the form a, with n rows, and B that of b; a
    zero B (None) has no rows.  (x, y) is in the kernel of [A^T | -B^T]
    (sparse_nullspace, on integer rows) iff x A = y B, so X is unique
    exactly when the free columns are the n + j, one per row j of B;
    the vector of a free column f is 1 at f and 0 after it, and that of
    n + j holds row j of X.
    """
    den_a, rows_a = a or (1, [])
    den_b, rows_b = b or (1, [])
    eqs = [{i: x * den_b for i, x in enumerate(col_a) if x}
           | {n + j: -y * den_a for j, y in enumerate(col_b) if y}
           for col_a, col_b in zip_longest(zip(*rows_a), zip(*rows_b),
                                           fillvalue=())]
    kernel = sparse_nullspace(eqs, n + len(rows_b))
    if len(kernel) != len(rows_b) \
            or not all(vec[n + j] for j, vec in enumerate(kernel)):
        return False
    return to_form([vec[:n] for vec in kernel])
