"""Coinvariant algebras of Weyl groups and their parabolic subgroups.

C_I = S / (positive-degree W_I-invariants) is a graded algebra of total
dimension |W_I| whose graded dimension is the length generating
function of W_I; the full coinvariant algebra C is the case I = all
generators.  Cohomological degrees are used on the outside (variables
sit in degree 2), algebraic degrees internally (half of cohomological).

Construction is degree-truncated linear algebra: the invariant ideal
is accumulated as ideal_d = S_1 * ideal_{d-1} + invariants_d, with the
degree-d invariants obtained by Reynolds averaging of monomials over
W_I.  An element w sends x_j to the root in column j of its integer
matrix, so |W_I| times the average of a monomial is a sum of products
of powers of roots, expanded in ints.  By Chevalley's
theorem the invariants form a polynomial ring on rank-many
generators, and prod_i (1 - q^{d_i}) = P_{W_I}(q) (1 - q)^n
gives how many generators each degree has from the length generating
function P_{W_I}; monomials are averaged, in graded-lex order, only
until that many averages are new to the echelon, so most degrees
average nothing.  Each degree is reduced on integer rows, fraction-free,
with the sparse echelon that ``exactla.sparse_nullspace`` also uses,
and back-substituted into the reduced row echelon form (each row an
integer multiple of its reduced one), with graded-lex column order;
the quotient basis is the set of non-pivot monomials, and the
invariants kept are the exact averages.
The certificate: let J be the ideal the kept invariants generate.  The
rows of degree d span J_d over Q (the products x_i f, f a row of degree
d - 1, and |W_I| times each average tried, which is kept or lies in
the span already), and the echelon is exact, so it has dim J_d pivots.
J lies inside the invariant ideal I_W, so dim S_d / J_d is at least the
length count dim S_d / (I_W)_d; the graded dimensions are checked
against it, and equality in every degree makes J_d = (I_W)_d.  The
non-pivot monomials are a basis of S_d / J_d, as for any reduced row
echelon form.  The quotient provably vanishes above the length of the
longest element of W_I once it vanishes in the first degree past it
(the ideal then contains all of S_1 * S_d), so the truncation at top +
1 is exact.  Two counts follow: the basis has |W_I| monomials, the sum
of the length counts; and, since every fundamental degree is at most
top + 1, the kept invariants, each new modulo the earlier ones and
their multiples, are a minimal generating set of I_W, which has rank
members by Chevalley's theorem.

The module side works with the generators' action matrices and never
computes in the ring; it reads only the fundamental invariants, and
only to check that they act by zero on a newly built catalog entry.
So an algebra keeps just its certified basis monomials and
invariants, and the pipeline does not build one up front:
smod.AlgebraRecord calls build_coinvariants, certificate included,
the first time its invariants are read, that is once per algebra in a
run that builds a catalog, and never in a run that loads its catalogs
from the cache.  That run does not import this module either.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import RootSystem, WeylElement
from .errors import ConfigurationError, InternalCheckError
from .exactla import _back_substitute, _reduce_into
from .polynomials import Polynomial, PolyRing

__all__ = ['CoinvariantAlgebra', 'build_coinvariants',
           'restriction_surjection']


class CoinvariantAlgebra:
    """S modulo positive-degree W_I-invariants, as the build certified it.

    basis_by_algdeg holds the quotient basis monomials of each algebraic
    degree, and fundamental_invariants a minimal generating set of the
    invariant ideal (rank many); the module side reads only the latter.
    """

    def __init__(self, root_system: RootSystem, subset: tuple,
                 basis_by_algdeg: dict, fundamental_invariants: list):
        self.root_system = root_system
        self.subset = subset
        self.basis_by_algdeg = basis_by_algdeg
        self.fundamental_invariants = fundamental_invariants

    def dimension(self) -> int:
        return sum(len(b) for b in self.basis_by_algdeg.values())

    def graded_dims(self) -> dict[int, int]:
        """Keyed by cohomological degree."""
        return {2 * d: len(b) for d, b in self.basis_by_algdeg.items() if b}

    def __repr__(self):
        gens = ','.join(f's{i + 1}' for i in self.subset) or 'empty'
        return (f'CoinvariantAlgebra({self.root_system!r}, {{{gens}}}, '
                f'dim {self.dimension()})')


def _group_elements(rs: RootSystem, subset: tuple) -> list[WeylElement]:
    s = set(subset)
    return [w for w in rs.elements if set(w.word) <= s]


def _invariant_degrees(length_counts: dict, rank: int) -> dict[int, int]:
    """Number of fundamental invariants of W_I in each degree.

    Chevalley: prod_i (1 - q^{d_i}) = P_{W_I}(q) (1 - q)^rank, with
    P_{W_I} the length generating function (a trivial direction of a
    proper parabolic is a degree-1 invariant).  The lowest positive
    term -k q^d of the right-hand side says k invariants have degree d;
    dividing by (1 - q^d)^k and repeating peels off every degree.
    """
    poly = [length_counts.get(l, 0) for l in range(max(length_counts) + 1)]
    for _ in range(rank):
        poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
    degrees: dict[int, int] = {}
    while any(poly[1:]):
        d = next(i for i, c in enumerate(poly) if i and c)
        if poly[d] > 0:  # not a product of factors (1 - q^d)
            raise InternalCheckError(
                f"P_W(q) (1 - q)^{rank} has coefficient {poly[d]} at q^{d}, "
                f"so it gives no invariant degrees")
        degrees[d] = -poly[d]
        for _ in range(degrees[d]):
            for i in range(d, len(poly)):
                poly[i] += poly[i - d]
            del poly[len(poly) - d:]
    return degrees


def _root_power(root: tuple, e: int, powers: dict) -> dict:
    """(sum_r root[r] x_r)^e as {monomial: int}, kept in ``powers``."""
    key = (root, e)
    got = powers.get(key)
    if got is None:
        n = len(root)
        if e == 0:
            got = {(0,) * n: 1}
        else:
            got = {}
            for m, c in _root_power(root, e - 1, powers).items():
                for r, a in enumerate(root):
                    if a:
                        mm = m[:r] + (m[r] + 1,) + m[r + 1:]
                        got[mm] = got.get(mm, 0) + c * a
            got = {m: c for m, c in got.items() if c}
        powers[key] = got
    return got


def _average(columns: list, mono: tuple, powers: dict) -> dict:
    """|group| times the Reynolds average of a monomial, as {monomial: int}.

    ``columns`` holds, for each group element w, the images w x_j as
    integer root coordinates (the columns of w.matrix).  The sum is
    sum_w prod_j (w x_j)^{mono_j}, expanded in ints from the powers of
    each root (``powers``, kept across calls, since roots repeat across
    the group).
    """
    total: dict = {}
    for roots in columns:
        part = {(0,) * len(mono): 1}
        for root, e in zip(roots, mono):
            if not e:
                continue
            nxt: dict = {}
            for m1, c1 in part.items():
                for m2, c2 in _root_power(root, e, powers).items():
                    m = tuple([a + b for a, b in zip(m1, m2)])
                    nxt[m] = nxt.get(m, 0) + c1 * c2
            part = nxt
        for m, c in part.items():
            total[m] = total.get(m, 0) + c
    return {m: c for m, c in total.items() if c}


def build_coinvariants(rs: RootSystem, subset) -> CoinvariantAlgebra:
    """Construct C_I for I = subset (the full algebra when I is all).

    Degree by degree, the ideal is the span of S_1 * ideal_{d-1} and of
    Reynolds averages of monomials, taken in graded-lex order only
    until as many new invariants entered the echelon as
    :func:`_invariant_degrees` reads off the length generating
    function; a degree that needs none averages nothing.  Rows go
    through the sparse integer echelon of ``exactla``, each average as
    its integer multiple (:func:`_average`), and are back-substituted
    into the reduced row echelon form; its sparser rows make the next
    degree's rows cheaper to reduce.  An average that is new to the
    echelon is kept as the exact Polynomial.  Graded dimensions are
    asserted to match the length generating function, which certifies
    that the kept invariants generate the invariant ideal, that the
    non-pivot monomials are a basis, that there are rank invariants and
    that the total dimension is |W_I| (the module docstring has the
    argument).  The quotient is asserted to vanish in degree
    length(longest of W_I) + 1, which makes the truncation exact.
    """
    subset = tuple(sorted(set(subset)))
    if any(not 0 <= i < rs.rank for i in subset):
        raise ConfigurationError(
            f"subset {subset} out of range for rank {rs.rank}")
    ring = PolyRing(rs)
    group = _group_elements(rs, subset)
    order = len(group)
    length_counts: dict[int, int] = {}
    for w in group:
        length_counts[w.length] = length_counts.get(w.length, 0) + 1
    top = max(length_counts)
    needed = _invariant_degrees(length_counts, rs.rank)

    basis_by_algdeg: dict[int, list] = {0: [(0,) * rs.rank]}
    ideal_rows: list[dict] = []          # integer RREF rows of ideal_{d-1}
    fundamental: list[Polynomial] = []   # averages new to the echelon
    # w x_j is column j of w.matrix, a root in integer coordinates
    columns = [tuple(zip(*w.matrix)) for w in group]
    powers: dict = {}

    for d in range(1, top + 2):
        monos = ring.monomials_of_degree(d)
        col = {m: j for j, m in enumerate(monos)}
        pivots: dict[int, dict] = {}
        # S_1 * ideal_{d-1}
        for row in ideal_rows:
            for i in range(rs.rank):
                _reduce_into(pivots, {
                    col[m[:i] + (m[i] + 1,) + m[i + 1:]]: c
                    for m, c in row.items()})
        # Reynolds averages of degree-d monomials, until enough are new
        found = 0
        for m in monos:
            if found == needed.get(d, 0):
                break
            total = _average(columns, m, powers)
            if _reduce_into(pivots, {col[mm]: c for mm, c in total.items()}):
                fundamental.append(Polynomial(rs.rank, {
                    mm: Fraction(c, order) for mm, c in total.items()}))
                found += 1
        _back_substitute(pivots)
        basis = [m for j, m in enumerate(monos) if j not in pivots]
        expected = length_counts.get(d, 0)
        if len(basis) != expected:
            raise InternalCheckError(
                f"coinvariant dimension in degree {2 * d} is {len(basis)}, "
                f"expected {expected} from the length generating function")
        if d <= top:
            basis_by_algdeg[d] = basis
            ideal_rows = [{monos[j]: v for j, v in sorted(pivots[p].items())}
                          for p in sorted(pivots)]
    return CoinvariantAlgebra(rs, subset, basis_by_algdeg, fundamental)


def restriction_surjection(rs: RootSystem, subset,
                           source: CoinvariantAlgebra | None = None,
                           target: CoinvariantAlgebra | None = None):
    """The surjection C -> C_I as a smod.RestrictionMap.

    An algebra that is not given is built.
    """
    from .smod import RestrictionMap
    if source is None:
        source = build_coinvariants(rs, range(rs.rank))
    if target is None:
        target = build_coinvariants(rs, subset)
    return RestrictionMap(source, target)
