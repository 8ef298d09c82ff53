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
systems, hom complexes, kernels) or through :func:`form_solve`, the
unique X with X A = B (inverses, maps out of a generator).
It eliminates rows of dicts by descending leading column, modulo the
prime p = 2^61 - 1 first, lifts the reduced rows to fractions and
checks the lift exactly in integers, else falls back to the same
elimination over Fraction; the argument is in its docstring.  Its two
steps, :func:`_reduce_into` and :func:`_back_substitute`, also build
the coinvariant algebras (``coinvariants.build_coinvariants``).

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

    Forward elimination (:func:`_reduce_into`) keeps a dict of pivot
    rows keyed by pivot column, and takes the rows by descending
    leading column, shorter first among equals.  A pivot row's pivot is
    never below the leading column of the row it came from, so every
    pivot found so far lies at or above the next row's leading column:
    unless that column is a pivot already, the row keeps its leading
    entry, is reduced only in its higher columns and becomes the pivot
    there.  ``smod.hom_space`` numbers its unknowns by degree block, so
    its systems are eliminated from the top degree down.  After full
    back-substitution (:func:`_back_substitute`) the pivot rows are
    the reduced row echelon form of the matrix, which its row space
    alone determines, so the returned basis does not depend on the
    order of the rows.
    The non-pivot columns parametrize the kernel, in increasing order:
    the vector of a free column f is 1 at f, 0 at the other free
    columns and minus the pivot rows' entries in column f elsewhere.

    The elimination runs modulo the prime p = 2^61 - 1 first
    (:func:`_modular_rref`): small integers instead of Fraction gcds.
    Every entry of the reduced pivot rows is lifted back to a fraction
    n/d with |n|, d <= 2^30 by rational reconstruction, and the lifted
    kernel vectors are checked exactly, in integers, against every
    input row.  An accepted lift is the exact answer.  The vector of a
    free column f mod p is 1 at f and supported on pivot columns below
    f; if it kills every row over Q, column f is a rational combination
    of earlier columns, so f is free over Q too.  The free columns mod
    p are thus among the free columns over Q, and there are at least as
    many of them (the rank mod p is at most the rank over Q), so the
    two sets agree; the kernel vectors that are the identity on the
    free columns are unique, so the lift is the basis read off the
    rational reduced row echelon form, Fraction for Fraction.  A
    denominator divisible by p, a residue that does not lift, or a
    lift that fails the check sends the system to the same elimination
    over Fraction instead, which always answers.

    Once the echelon mod p holds ncols pivots, the kernel is zero and
    the elimination stops: the remaining rows are not converted, and
    back-substitution, the lift and the check are skipped.  This is
    exact as well.  Every denominator met so far is invertible mod p,
    so a nonzero ncols-minor of the rows mod p is the residue of a
    nonzero rational minor; the rank over Q is at least the rank mod
    p, which is ncols, and the kernel over Q is zero.
    """
    rows = sorted(rows, key=lambda row: (-min(row, default=ncols), len(row)))
    pivots = _modular_rref(rows, ncols)
    if pivots is None:
        pivots = _rational_rref(rows)
    if len(pivots) == ncols:
        return []
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


def _rational_rref(rows: list) -> dict:
    """Reduced row echelon form of the rows over Fraction, as pivot rows."""
    pivots: dict[int, dict] = {}
    for raw in rows:
        _reduce_into(pivots, {c: Fraction(v) for c, v in raw.items() if v})
    _back_substitute(pivots)
    return pivots


_PRIME = (1 << 61) - 1
_LIFT_BOUND = 1 << 30


def _modular_rref(rows: list, ncols: int):
    """Reduced row echelon form of the rows, computed mod _PRIME.

    Returns the pivot rows with every entry lifted to a Fraction, once
    the kernel they describe is checked exactly against every row (see
    :func:`sparse_nullspace`), or None when any step fails.  Rows are
    converted and reduced one at a time, and the residues are dropped
    as soon as they are lifted.  As soon as there are ``ncols`` pivots
    the echelon is returned as it stands, residues unreduced: its size
    alone certifies that the kernel is zero.
    """
    inverses = {1: 1}
    pivots: dict[int, dict] = {}
    for raw in rows:
        row = {}
        for c, v in raw.items():
            den = v.denominator
            inv = inverses.get(den)
            if inv is None:
                if den % _PRIME == 0:
                    return None
                inv = inverses[den] = pow(den, -1, _PRIME)
            r = v.numerator * inv % _PRIME
            if r:
                row[c] = r
        if _reduce_into(pivots, row, _PRIME) and len(pivots) == ncols:
            return pivots
    _back_substitute(pivots, _PRIME)
    lifts: dict[int, Fraction] = {}
    for p, prow in pivots.items():
        for c, r in prow.items():
            value = lifts.get(r)
            if value is None:
                value = lifts[r] = _reconstruct(r)
                if value is None:
                    return None
            prow[c] = value
    del lifts
    return pivots if _kills_every_row(pivots, rows) else None


def _reconstruct(r: int):
    """The fraction n/d = r mod _PRIME with |n|, d <= _LIFT_BOUND, or None.

    Extended Euclid on (_PRIME, r), stopped at the first remainder
    within the bound; each remainder r_i satisfies r_i = t_i * r mod
    _PRIME, so r_i / t_i is the candidate.
    """
    r0, t0, r1, t1 = _PRIME, 0, r, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= _LIFT_BOUND:
        return None
    return Fraction(r1, t1)


def _kills_every_row(pivots: dict, rows: list) -> bool:
    """Whether every kernel vector read off the pivot rows kills every row.

    Exact and in integers: the kernel vector of each free column f is
    scaled by the lcm L_f of its denominators, each row by the lcm of
    its own, and the products are accumulated column by column.
    """
    scale: dict[int, int] = {}
    for p, prow in pivots.items():
        for f, v in prow.items():
            if f != p:
                scale[f] = lcm(scale.get(f, 1), v.denominator)
    # column c of the scaled kernel: {f: entry of vector f}
    columns = {p: {f: -v.numerator * (scale[f] // v.denominator)
                   for f, v in prow.items() if f != p}
               for p, prow in pivots.items()}
    for raw in rows:
        # a list, not a generator: unpacking a generator leaves its
        # resized argument tuples on the interpreter's free lists, which
        # raised the peak RSS of a verify-light sweep by 0.6-0.8 MB
        den = lcm(*[v.denominator for v in raw.values()])
        acc: dict[int, int] = {}
        for c, v in raw.items():
            x = v.numerator * (den // v.denominator)
            if not x:
                continue
            entries = columns.get(c)
            if entries is None:  # a free column: its own vector is 1 there
                acc[c] = acc.get(c, 0) + x * scale.get(c, 1)
            else:
                for f, y in entries.items():
                    acc[f] = acc.get(f, 0) + x * y
        if any(acc.values()):
            return False
    return True


def _reduce_into(pivots: dict, row: dict, _mod: int = 0) -> bool:
    """Reduce a row into an echelon of pivot rows; True if it was new.

    ``pivots`` maps each pivot column to its row, a dict {col: value}
    with entry 1 at the pivot and no columns below it; ``row`` is a
    dict without zero entries and is consumed.  The values are
    Fractions, or residues mod ``_mod`` when it is given.  The row is
    reduced against the pivots it meets, lowest column first, with a
    min-heap of its columns that are pivot columns.  A pivot row holds
    only columns >= its pivot, so a reduction step creates columns
    above the one it clears, the heap only grows upwards, and a column
    enters it only when fill-in creates it.  A nonzero remainder is
    normalized and stored as the pivot row of its lowest column.
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
            if _mod:
                nv %= _mod
            if nv:
                if c2 not in row and c2 in pivots:
                    heapq.heappush(heap, c2)
                row[c2] = nv
            else:
                del row[c2]
    if not row:
        return False
    p = min(row)
    if _mod:
        inv = pow(row[p], -1, _mod)
        pivots[p] = {c: v * inv % _mod for c, v in row.items()}
    else:
        inv = Fraction(1) / row[p]
        pivots[p] = {c: v * inv for c, v in row.items()}
    return True


def _back_substitute(pivots: dict, _mod: int = 0) -> None:
    """Clear every pivot column from the other pivot rows, in place.

    Afterwards the pivot rows are the reduced row echelon form of the
    rows that went in, which their span alone determines.  With
    ``_mod`` the values are residues modulo it, as in
    :func:`_reduce_into`.
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
                nv = qrow.get(c2, 0) - coeff * v2
                if _mod:
                    nv %= _mod
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
