"""Coinvariant algebras of Weyl groups and their parabolic subgroups.

C_I = S / (positive-degree W_I-invariants) is a graded algebra of total
dimension |W_I| whose graded dimension is the length generating
function of W_I; the full coinvariant algebra C is the case I = all
generators.  Cohomological degrees are used on the outside (variables
sit in degree 2), algebraic degrees internally (half of cohomological).

Construction is degree-truncated linear algebra: the invariant ideal
is accumulated as ideal_d = S_1 * ideal_{d-1} + invariants_d, with the
degree-d invariants obtained by Reynolds averaging of monomials over
W_I.  Each degree is put in reduced row echelon form with graded-lex
column order; the quotient basis is the set of non-pivot monomials and
the normal form map rewrites each pivot monomial as a combination of
basis monomials.  The quotient provably vanishes above the length of
the longest element of W_I once it vanishes in the first degree past
it (the ideal then contains all of S_1 * S_d), so the truncation at
top + 1 is exact, and the graded dimensions are checked against the
Weyl group enumeration at construction time.

Demazure operators d_i for i in I descend to C_I by the twisted
Leibniz rule, giving the Frobenius splitting c = f + g * alpha_i with
f = (c + s_i c)/2 and g = d_i(c)/2 both s_i-invariant.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import RootSystem, WeylElement
from .errors import ConfigurationError, IncompatibilityError, InternalCheckError
from .exactla import rref
from .polynomials import Polynomial, PolyRing

__all__ = ['CoinvariantAlgebra', 'build_coinvariants',
           'restriction_surjection', 'RestrictionMap']


class CoinvariantAlgebra:
    """S modulo positive-degree W_I-invariants, with normal forms."""

    def __init__(self, root_system: RootSystem, subset: tuple,
                 top_algdeg: int,
                 basis_by_algdeg: dict,
                 pivot_rules: dict,
                 fundamental_invariants: list | None = None):
        self.root_system = root_system
        self.subset = subset
        self.ring = PolyRing(root_system)
        self.top_algdeg = top_algdeg
        self.basis_by_algdeg = basis_by_algdeg
        self.pivot_rules = pivot_rules
        # a minimal generating set of the invariant ideal (rank many)
        self.fundamental_invariants = fundamental_invariants or []

    # -- structure ---------------------------------------------------

    def dimension(self) -> int:
        return sum(len(b) for b in self.basis_by_algdeg.values())

    def graded_dims(self) -> dict[int, int]:
        """Keyed by cohomological degree."""
        return {2 * d: len(b) for d, b in self.basis_by_algdeg.items() if b}

    def basis_monomials(self, algdeg: int) -> list[tuple]:
        return self.basis_by_algdeg.get(algdeg, [])

    def basis_polys(self, algdeg: int) -> list[Polynomial]:
        return [Polynomial(self.ring.n, {m: Fraction(1)})
                for m in self.basis_monomials(algdeg)]

    # -- normal form and arithmetic ---------------------------------

    def nf(self, f: Polynomial) -> Polynomial:
        """Canonical representative supported on basis monomials."""
        out = Polynomial.zero(self.ring.n)
        for d, comp in f.homogeneous_components().items():
            if d > self.top_algdeg:
                continue
            rules = self.pivot_rules[d]
            basis = set(self.basis_by_algdeg[d])
            acc: dict[tuple, Fraction] = {}
            for mono, c in comp.terms.items():
                if mono in basis:
                    acc[mono] = acc.get(mono, Fraction(0)) + c
                else:
                    for bmono, r in rules[mono].items():
                        acc[bmono] = acc.get(bmono, Fraction(0)) + c * r
            out = out + Polynomial(self.ring.n, acc)
        return out

    def is_nf(self, f: Polynomial) -> bool:
        for d, comp in f.homogeneous_components().items():
            basis = set(self.basis_by_algdeg.get(d, ()))
            if not set(comp.terms) <= basis:
                return False
        return True

    def zero(self) -> Polynomial:
        return self.ring.zero()

    def one(self) -> Polynomial:
        return self.ring.one()

    def alpha(self, i: int) -> Polynomial:
        return self.nf(self.ring.variable(i))

    def multiply(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return self.nf(a * b)

    def coords(self, f: Polynomial, algdeg: int) -> list[Fraction]:
        """Coordinates of a normal-form homogeneous element."""
        comp = {m: c for m, c in f.terms.items() if sum(m) == algdeg}
        if len(comp) != len(f.terms):
            raise IncompatibilityError("element is not homogeneous")
        return [comp.get(m, Fraction(0)) for m in self.basis_monomials(algdeg)]

    # -- group action and Demazure operators ------------------------

    def _check_generator(self, i: int) -> None:
        if i not in self.subset:
            raise ConfigurationError(
                f"generator s{i + 1} does not act on this algebra "
                f"(subset {tuple(j + 1 for j in self.subset)})")

    def act_simple(self, i: int, f: Polynomial) -> Polynomial:
        self._check_generator(i)
        return self.nf(self.ring.apply_simple(i, f))

    def act(self, w: WeylElement, f: Polynomial) -> Polynomial:
        if not set(w.word) <= set(self.subset):
            raise ConfigurationError(
                f"{w!r} is not in the group acting on this algebra")
        return self.nf(self.ring.apply_weyl(w, f))

    def demazure(self, i: int, f: Polynomial) -> Polynomial:
        self._check_generator(i)
        return self.nf(self.ring.demazure(i, f))

    def frobenius_decompose(self, i: int,
                            c: Polynomial) -> tuple[Polynomial, Polynomial]:
        """(f, g) with c = f + g·alpha_i and both s_i-invariant.

        f = (c + s_i c)/2 and g = d_i(c)/2; the identity c = f + g
        alpha_i holds on the nose for polynomial representatives, hence
        in the algebra.
        """
        self._check_generator(i)
        s_c = self.ring.apply_simple(i, c)
        f = self.nf((c + s_c).scale(Fraction(1, 2)))
        g = self.nf(self.ring.demazure(i, c).scale(Fraction(1, 2)))
        return f, g

    def __repr__(self):
        gens = ','.join(f's{i + 1}' for i in self.subset) or 'empty'
        return (f'CoinvariantAlgebra({self.root_system!r}, {{{gens}}}, '
                f'dim {self.dimension()})')


def _group_elements(rs: RootSystem, subset: tuple) -> list[WeylElement]:
    s = set(subset)
    return [w for w in rs.elements if set(w.word) <= s]


def build_coinvariants(rs: RootSystem, subset) -> CoinvariantAlgebra:
    """Construct C_I for I = subset (the full algebra when I is all).

    Graded dimensions are asserted to match the length generating
    function of W_I, and the quotient is asserted to vanish in degree
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

    basis_by_algdeg: dict[int, list] = {0: [(0,) * rs.rank]}
    pivot_rules: dict[int, dict] = {0: {}}
    ideal_polys: list[Polynomial] = []   # spanning set in current degree
    fundamental: list[Polynomial] = []   # invariants not in S_1 * ideal

    for d in range(1, top + 2):
        monos = ring.monomials_of_degree(d)
        span: list[Polynomial] = []
        # S_1 * ideal_{d-1}
        for p in ideal_polys:
            for j in range(rs.rank):
                span.append(p * ring.variable(j))
        # a small echelon to spot which Reynolds averages are new
        echelon: dict[int, list] = {}

        def try_insert(vec) -> bool:
            vec = list(vec)
            for col in range(len(vec)):
                if not vec[col]:
                    continue
                if col in echelon:
                    c = vec[col]
                    vec = [x - c * y for x, y in zip(vec, echelon[col])]
                else:
                    inv = Fraction(1) / vec[col]
                    echelon[col] = [x * inv for x in vec]
                    return True
            return False

        for p in span:
            try_insert([p.coefficient(m) for m in monos])
        # Reynolds averages of degree-d monomials
        inv_factor = Fraction(1, order)
        for m in monos:
            mono_poly = Polynomial(rs.rank, {m: Fraction(1)})
            avg = Polynomial.zero(rs.rank)
            for w in group:
                avg = avg + ring.apply_weyl(w, mono_poly)
            avg = avg.scale(inv_factor)
            if avg.is_zero():
                continue
            span.append(avg)
            if try_insert([avg.coefficient(mm) for mm in monos]):
                fundamental.append(avg)
        rows = [[p.coefficient(m) for m in monos] for p in span]
        reduced, pivot_cols = rref(rows)
        basis = [m for j, m in enumerate(monos) if j not in pivot_cols]
        expected = length_counts.get(d, 0)
        if len(basis) != expected:
            raise InternalCheckError(
                f"coinvariant dimension in degree {2 * d} is {len(basis)}, "
                f"expected {expected} from the length generating function")
        rules: dict[tuple, dict] = {}
        for row_i, pc in enumerate(pivot_cols):
            row = reduced[row_i]
            rules[monos[pc]] = {
                monos[j]: -row[j]
                for j in range(len(monos))
                if j not in pivot_cols and row[j]}
        if d <= top:
            basis_by_algdeg[d] = basis
            pivot_rules[d] = rules
            ideal_polys = [
                Polynomial(rs.rank,
                           {monos[j]: reduced[row_i][j]
                            for j in range(len(monos)) if reduced[row_i][j]})
                for row_i, _ in enumerate(pivot_cols)]
    if len(fundamental) != rs.rank:
        raise InternalCheckError(
            f"found {len(fundamental)} fundamental invariants, "
            f"expected {rs.rank}")
    alg = CoinvariantAlgebra(rs, subset, top, basis_by_algdeg, pivot_rules,
                             fundamental)
    if alg.dimension() != order:
        raise InternalCheckError("total coinvariant dimension mismatch")
    return alg


class RestrictionMap:
    """The surjective degree-preserving ring map C -> C_I.

    Both algebras are quotients of the same polynomial ring, and the
    full invariant ideal is contained in the parabolic one, so sending
    a normal-form representative to its target normal form is a
    well-defined ring homomorphism.
    """

    def __init__(self, source: CoinvariantAlgebra,
                 target: CoinvariantAlgebra):
        if source.root_system is not target.root_system:
            raise IncompatibilityError(
                "restriction requires algebras over the same root system")
        if not set(target.subset) <= set(source.subset):
            raise IncompatibilityError(
                "restriction target must be a parabolic of the source")
        self.source = source
        self.target = target

    def __call__(self, f: Polynomial) -> Polynomial:
        return self.target.nf(f)

    def matrix_on_degree(self, algdeg: int) -> list[list[Fraction]]:
        """Columns are images of source basis elements."""
        cols = [self.target.coords(self(b), algdeg)
                for b in self.source.basis_polys(algdeg)]
        rows = len(self.target.basis_monomials(algdeg))
        return [[col[r] for col in cols] for r in range(rows)]


def restriction_surjection(rs: RootSystem, subset,
                           source: CoinvariantAlgebra | None = None,
                           target: CoinvariantAlgebra | None = None
                           ) -> RestrictionMap:
    if source is None:
        source = build_coinvariants(rs, range(rs.rank))
    if target is None:
        target = build_coinvariants(rs, subset)
    return RestrictionMap(source, target)
