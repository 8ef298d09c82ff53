"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of ``fractions.Fraction``.  Everything
here is textbook Gaussian elimination; no floating point is allowed
anywhere in the package, since the verification criteria demand exact
equality of Laurent polynomials and module maps.

The two hot kernels skip zeros.  :func:`mat_mul` multiplies only
nonzero entries, and :func:`sparse_nullspace`, which solves the hom
systems, eliminates rows of dicts sparsest first and finds the pivots a
row meets through a min-heap instead of rescanning the row.  Its result
is the kernel read off the reduced row echelon form, which is unique,
so the row order changes the cost and never the basis.  Its two steps,
reducing one row into an echelon (:func:`_reduce_into`, which also says
whether the row was new) and back-substitution
(:func:`_back_substitute`), are shared with the construction of the
coinvariant algebras (``coinvariants.build_coinvariants``), so both
run one sparse elimination.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

__all__ = [
    'Matrix',
    'zeros', 'identity', 'mat_sub', 'mat_scale', 'mat_mul',
    'is_zero_matrix', 'rref', 'rank', 'nullspace', 'sparse_nullspace',
    'solve_matrix', 'invert', 'trace',
]

Matrix = list  # list[list[Fraction]]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a: Matrix) -> Matrix:
    c = _frac(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b with exact rational entries.

    Skips zeros on both sides: the nonzero entries of each row of b are
    listed once, and a row of a adds x * (row j of b) only where its
    entry x is nonzero.  Every output entry is a Fraction.
    """
    if a and b and len(a[0]) != len(b):
        raise ValueError(
            f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    if not a or not b:
        return zeros(len(a), len(b[0]) if b else 0)
    ncols = len(b[0])
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [Fraction(0)] * ncols
        for x, entries in zip(row, b_nonzero):
            if x:
                for j, y in entries:
                    acc[j] += x * y
        out.append(acc)
    return out


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


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


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


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
    """Solve a X = B column by column (any solution; free vars set to 0)."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    nrhs = len(b[0]) if b else 0
    aug = [list(a[i]) + list(b[i]) for i in range(nrows)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:ncols]) and any(x != 0 for x in row[ncols:]):
            raise ValueError("inconsistent linear system")
    x = zeros(ncols, nrhs)
    for i, p in enumerate(pivots):
        if p < ncols:
            for j in range(nrhs):
                x[p][j] = red[i][ncols + j]
    return x


def invert(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("cannot invert a non-square matrix")
    aug = [list(a[i]) + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def sparse_nullspace(rows: list, ncols: int) -> list:
    """Kernel basis of a sparse matrix given as dicts {col: Fraction}.

    Forward elimination (:func:`_reduce_into`) keeps a dict of pivot
    rows keyed by pivot column, and takes the rows sparsest first: a
    short row meets few pivots and makes short pivot rows, which keeps
    the fill-in of every later row small.  After full back-substitution
    (:func:`_back_substitute`) the pivot rows are the reduced row
    echelon form of the matrix, which its row space alone determines,
    so the returned basis does not depend on the order of the rows.
    The non-pivot columns parametrize the kernel, in increasing order.
    Intended for the large, very sparse intertwining systems of
    module-map solving, where dense elimination would be quadratically
    wasteful.
    """
    pivots: dict[int, dict] = {}
    for raw in sorted(rows, key=len):
        _reduce_into(pivots, {c: Fraction(v) for c, v in raw.items() if v})
    _back_substitute(pivots)
    basis = {}
    for f in range(ncols):
        if f not in pivots:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            basis[f] = vec
    for p, prow in pivots.items():
        for f, v in prow.items():
            if f != p:
                basis[f][p] = -v
    return list(basis.values())


def _reduce_into(pivots: dict, row: dict) -> bool:
    """Reduce a row into an echelon of pivot rows; True if it was new.

    ``pivots`` maps each pivot column to its row, a dict {col: Fraction}
    with entry 1 at the pivot and no columns below it; ``row`` is a
    dict without zero entries and is consumed.  The row is reduced
    against the pivots it meets, lowest column first, with a min-heap
    of its columns that are pivot columns.  A pivot row holds only
    columns >= its pivot, so a reduction step creates columns above the
    one it clears, the heap only grows upwards, and a column enters it
    only when fill-in creates it.  A nonzero remainder is normalized
    and stored as the pivot row of its lowest column.
    """
    heap = [c for c in row if c in pivots]
    heapq.heapify(heap)
    while heap:
        hit = heapq.heappop(heap)
        coeff = row.pop(hit, None)
        if coeff is None:  # cancelled by an earlier step
            continue
        for c2, v2 in pivots[hit].items():
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
    inv = Fraction(1) / row[p]
    pivots[p] = {c: v * inv for c, v in row.items()}
    return True


def _back_substitute(pivots: dict) -> None:
    """Clear every pivot column from the other pivot rows, in place.

    Afterwards the pivot rows are the reduced row echelon form of the
    rows that went in, which their span alone determines.
    """
    for p in sorted(pivots, reverse=True):
        prow = pivots[p]
        for q, qrow in pivots.items():
            if q >= p or p not in qrow:
                continue
            coeff = qrow.pop(p)
            for c2, v2 in prow.items():
                if c2 == p:
                    continue
                nv = qrow.get(c2, Fraction(0)) - coeff * v2
                if nv:
                    qrow[c2] = nv
                else:
                    qrow.pop(c2, None)
