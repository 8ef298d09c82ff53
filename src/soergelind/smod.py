"""Finite-dimensional evenly graded modules over a coinvariant algebra.

A module stores its graded dimensions and, for every polynomial
variable, the degree +2 action matrices between graded pieces; the full
algebra action is recovered by evaluating normal-form representatives.
The workhorses are:

  * induce_frobenius -- the functor C (x)_{C^s} (-), realized through
    the Frobenius splitting c = f + g alpha_s of the algebra: on the
    space (1 (x) M) + (alpha_s (x) M) (the second shifted up by 2) a
    ring element c acts by c(1 (x) m) = 1 (x) fm + alpha_s (x) gm and
    c(alpha_s (x) m) = 1 (x) alpha_s^2 g m + alpha_s (x) fm.
  * hom_space -- exact solution of the intertwining equations, degree
    block by degree block, through a sparse kernel computation.
  * decompose -- deterministic peeling of catalog summands.  A
    summand D_z<k> splits off M exactly when some pair of hom-basis
    maps D_z -> M -> D_z has a composite with nonzero trace; since
    End^0(D_z) = Q that composite is a scalar, the pair is rescaled
    to a split pair, and the rest is ker(proj).  The summands are
    either the ones the Hecke algebra predicts (b_y b_s = sum_z
    m_z b_z for theta_s D_y, hecke.wall_crossing_summands) or found
    by trying catalog entries at the bottom degree of what is left.
  * build_catalog -- the indecomposable modules D_y, one per group
    element: D_y is what is left of C (x)_{C^s} D_{ys} once the
    predicted shorter summands are peeled off.  Each entry is
    validated against the Kazhdan-Lusztig base: the graded character
    of D_y must equal the intersection-cohomology Poincare polynomial
    computed from the coefficients of b_y.

Everything is exact; no tolerances appear anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coinvariants import CoinvariantAlgebra, RestrictionMap
from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)
from .exactla import (identity as id_matrix, invert, is_zero_matrix, mat_mul,
                      mat_scale, mat_sub, rank, rref, sparse_nullspace, trace,
                      zeros)
from .hecke import kl_basis, wall_crossing_summands
from .polynomials import Polynomial

__all__ = [
    'GradedModule', 'ModuleMap', 'IndecomposableCatalog',
    'trivial_module', 'zero_module', 'induce_frobenius', 'bott_samelson',
    'restrict_module', 'direct_sum', 'hom_space', 'end_space',
    'action_of_polynomial', 'verify_relations', 'is_indecomposable',
    'decompose', 'is_isomorphic', 'build_catalog', 'expected_graded_dims',
]


def _mul(a, b, rows: int, cols: int):
    """a @ b with the output shape given explicitly.

    A matrix with zero rows is just [], which loses its column count,
    so products through a zero-dimensional graded piece need the shape
    supplied from the graded dimensions.
    """
    if not a or not b or not b[0]:
        return zeros(rows, cols)
    return mat_mul(a, b)


class GradedModule:
    """Evenly graded module given by dimensions and generator actions.

    actions maps (variable index, source degree) to the matrix of
    multiplication by that variable from degree d to degree d + 2;
    matrices for zero-dimensional source or target are omitted.
    """

    __slots__ = ('algebra', 'graded_dims', 'actions')

    def __init__(self, algebra: CoinvariantAlgebra, graded_dims: dict,
                 actions: dict):
        self.algebra = algebra
        self.graded_dims = {d: n for d, n in sorted(graded_dims.items()) if n}
        for d in self.graded_dims:
            if d % 2:
                raise ConfigurationError(
                    f"modules must be evenly graded; got degree {d}")
        self.actions = {}
        for (i, d), m in actions.items():
            rows = self.dim_at(d + 2)
            cols = self.dim_at(d)
            if rows == 0 or cols == 0:
                if not is_zero_matrix(m):
                    raise IncompatibilityError(
                        "nonzero action into a zero graded piece")
                continue
            if len(m) != rows or any(len(r) != cols for r in m):
                raise IncompatibilityError(
                    f"action matrix for variable {i} at degree {d} "
                    f"has wrong shape")
            self.actions[(i, d)] = m

    def dim_at(self, d: int) -> int:
        return self.graded_dims.get(d, 0)

    def total_dim(self) -> int:
        return sum(self.graded_dims.values())

    def degrees(self) -> list[int]:
        return sorted(self.graded_dims)

    def bottom_degree(self) -> int:
        return min(self.graded_dims)

    def is_zero(self) -> bool:
        return not self.graded_dims

    def action(self, i: int, d: int):
        m = self.actions.get((i, d))
        if m is None:
            return zeros(self.dim_at(d + 2), self.dim_at(d))
        return m

    def shift(self, k: int) -> 'GradedModule':
        """M<k>: degree d piece is the old degree d - k piece."""
        if k % 2:
            raise ConfigurationError("shifts must be even")
        return GradedModule(
            self.algebra,
            {d + k: n for d, n in self.graded_dims.items()},
            {(i, d + k): m for (i, d), m in self.actions.items()})

    def __repr__(self):
        return f'GradedModule(dims={self.graded_dims})'


def zero_module(algebra: CoinvariantAlgebra) -> GradedModule:
    return GradedModule(algebra, {}, {})


def trivial_module(algebra: CoinvariantAlgebra) -> GradedModule:
    """One-dimensional in degree 0; every variable acts by zero."""
    return GradedModule(algebra, {0: 1}, {})


def direct_sum(modules: list) -> tuple:
    """(sum, inclusions, projections) with block-diagonal actions."""
    if not modules:
        raise ConfigurationError("direct sum of no modules")
    algebra = modules[0].algebra
    dims: dict[int, int] = {}
    offsets = []
    for m in modules:
        if m.algebra is not algebra:
            raise IncompatibilityError("direct sum over mixed algebras")
        offsets.append({d: dims.get(d, 0) for d in m.graded_dims})
        for d, n in m.graded_dims.items():
            dims[d] = dims.get(d, 0) + n
    actions: dict = {}
    all_keys = {key for m in modules for key in m.actions}
    for (i, d) in all_keys:
        rows, cols = dims.get(d + 2, 0), dims.get(d, 0)
        big = zeros(rows, cols)
        for m, off in zip(modules, offsets):
            block = m.actions.get((i, d))
            if block is None:
                continue
            r0 = off.get(d + 2, 0)
            c0 = off.get(d, 0)
            for r, row in enumerate(block):
                for c, x in enumerate(row):
                    big[r0 + r][c0 + c] = x
        actions[(i, d)] = big
    total = GradedModule(algebra, dims, actions)
    incls, projs = [], []
    for m, off in zip(modules, offsets):
        inc_blocks, proj_blocks = {}, {}
        for d, n in m.graded_dims.items():
            big_n = dims[d]
            r0 = off[d]
            inc = zeros(big_n, n)
            proj = zeros(n, big_n)
            for k in range(n):
                inc[r0 + k][k] = Fraction(1)
                proj[k][r0 + k] = Fraction(1)
            inc_blocks[d] = inc
            proj_blocks[d] = proj
        incls.append(ModuleMap(m, total, 0, inc_blocks))
        projs.append(ModuleMap(total, m, 0, proj_blocks))
    return total, incls, projs


def induce_frobenius(i: int, module: GradedModule) -> GradedModule:
    """C (x)_{C^s} M for s = s_i, with the alpha_s row shifted up by 2."""
    alg = module.algebra
    if i not in alg.subset:
        raise ConfigurationError(
            f"generator s{i + 1} is not part of the module's algebra")
    cartan = alg.root_system.cartan
    dims: dict[int, int] = {}
    for d, n in module.graded_dims.items():
        dims[d] = dims.get(d, 0) + n          # 1 (x) M_d
        dims[d + 2] = dims.get(d + 2, 0) + n  # alpha (x) M_d
    actions: dict = {}
    degrees = sorted(dims)
    for j in range(alg.root_system.rank):
        g = Fraction(cartan[i][j], 2)

        def f_op(d):
            # operator of f_j = x_j - g * x_i on M at degree d
            return mat_sub(module.action(j, d),
                           mat_scale(g, module.action(i, d)))

        for d in degrees:
            cols_one = module.dim_at(d)       # 1 (x) M_d
            cols_al = module.dim_at(d - 2)    # alpha (x) M_{d-2}
            rows_one = module.dim_at(d + 2)
            rows_al = module.dim_at(d)
            if cols_one + cols_al == 0 or rows_one + rows_al == 0:
                continue
            big = zeros(rows_one + rows_al, cols_one + cols_al)
            if cols_one:
                fo = f_op(d)
                for r in range(rows_one):
                    for c in range(cols_one):
                        big[r][c] = fo[r][c]
                if g:
                    for c in range(cols_one):
                        big[rows_one + c][c] = g
            if cols_al:
                fo = f_op(d - 2)
                for r in range(rows_al):
                    for c in range(cols_al):
                        big[rows_one + r][cols_one + c] = fo[r][c]
                if g:
                    # alpha_i^2 * g acting M_{d-2} -> M_{d+2}
                    sq = _mul(module.action(i, d), module.action(i, d - 2),
                              rows_one, cols_al)
                    for r in range(rows_one):
                        for c in range(cols_al):
                            big[r][cols_one + c] = g * sq[r][c]
            actions[(j, d)] = big
    return GradedModule(alg, dims, actions)


def bott_samelson(algebra: CoinvariantAlgebra, word) -> GradedModule:
    """Iterated Frobenius induction starting from the trivial module.

    The first letter of the word is applied first, so the graded
    character picks up a factor (1 + q^2) per letter and the class
    multiplies by b_s on the right, letter by letter in word order.
    """
    module = trivial_module(algebra)
    for i in word:
        module = induce_frobenius(i, module)
    return module


def restrict_module(rmap: RestrictionMap, module: GradedModule) -> GradedModule:
    """Inflation along C -> C_I: same space, same generator matrices.

    Both algebras present their classes by the same ambient variables,
    and the surjection sends x_k to x_k, so the stored action data is
    literally reused; only the algebra reference changes.
    """
    if module.algebra is not rmap.target:
        raise IncompatibilityError(
            "module is not over the target of the restriction map")
    return GradedModule(rmap.source, dict(module.graded_dims),
                        dict(module.actions))


def action_of_polynomial(module: GradedModule, poly: Polynomial,
                         d: int):
    """Matrix of a homogeneous polynomial from degree d upward."""
    comps = poly.homogeneous_components()
    if len(comps) > 1:
        raise IncompatibilityError("polynomial action needs homogeneity")
    if not comps:
        return zeros(0, module.dim_at(d))
    (k, comp), = comps.items()
    out = None
    for mono, coeff in comp.terms.items():
        cur = id_matrix(module.dim_at(d))
        deg = d
        for var, e in enumerate(mono):
            for _ in range(e):
                cur = _mul(module.action(var, deg), cur,
                           module.dim_at(deg + 2), module.dim_at(d))
                deg += 2
        cur = mat_scale(coeff, cur)
        out = cur if out is None else [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(out, cur)]
    return out


def verify_relations(module: GradedModule) -> None:
    """Assert commutativity and that the invariant ideal acts by zero."""
    alg = module.algebra
    n = alg.root_system.rank
    for d in module.degrees():
        for i in range(n):
            for j in range(i + 1, n):
                shape = (module.dim_at(d + 4), module.dim_at(d))
                lhs = _mul(module.action(i, d + 2), module.action(j, d),
                           *shape)
                rhs = _mul(module.action(j, d + 2), module.action(i, d),
                           *shape)
                if lhs != rhs:
                    raise InternalCheckError(
                        f"variables x{i + 1}, x{j + 1} fail to commute "
                        f"at degree {d}")
    for f in alg.fundamental_invariants:
        for d in module.degrees():
            m = action_of_polynomial(module, f, d)
            if not is_zero_matrix(m):
                raise InternalCheckError(
                    f"invariant of degree {2 * f.total_degree()} acts "
                    f"nontrivially at degree {d}")


class ModuleMap:
    """Graded map of modules; degree k sends M_d to N_{d + k}."""

    __slots__ = ('source', 'target', 'degree', 'blocks')

    def __init__(self, source: GradedModule, target: GradedModule,
                 degree: int, blocks: dict):
        self.source = source
        self.target = target
        self.degree = degree
        self.blocks = {}
        for d, m in blocks.items():
            rows = target.dim_at(d + degree)
            cols = source.dim_at(d)
            if rows == 0 or cols == 0:
                continue
            if len(m) != rows or any(len(r) != cols for r in m):
                raise IncompatibilityError(
                    f"map block at degree {d} has wrong shape")
            self.blocks[d] = m

    @classmethod
    def identity(cls, module: GradedModule) -> 'ModuleMap':
        return cls(module, module, 0,
                   {d: id_matrix(n) for d, n in module.graded_dims.items()})

    @classmethod
    def zero(cls, source, target, degree=0) -> 'ModuleMap':
        return cls(source, target, degree, {})

    def block(self, d: int):
        m = self.blocks.get(d)
        if m is None:
            return zeros(self.target.dim_at(d + self.degree),
                         self.source.dim_at(d))
        return m

    def compose(self, other: 'ModuleMap') -> 'ModuleMap':
        """self after other."""
        if other.target is not self.source:
            raise IncompatibilityError("composition source/target mismatch")
        deg = self.degree + other.degree
        blocks = {}
        for d in other.source.degrees():
            blocks[d] = _mul(self.block(d + other.degree), other.block(d),
                             self.target.dim_at(d + deg),
                             other.source.dim_at(d))
        return ModuleMap(other.source, self.target, deg, blocks)

    def __add__(self, other: 'ModuleMap') -> 'ModuleMap':
        if (other.source is not self.source or other.target is not self.target
                or other.degree != self.degree):
            raise IncompatibilityError("cannot add incompatible maps")
        blocks = {}
        for d in set(self.blocks) | set(other.blocks):
            a, b = self.block(d), other.block(d)
            blocks[d] = [[x + y for x, y in zip(r1, r2)]
                         for r1, r2 in zip(a, b)]
        return ModuleMap(self.source, self.target, self.degree, blocks)

    def __sub__(self, other: 'ModuleMap') -> 'ModuleMap':
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> 'ModuleMap':
        c = Fraction(c)
        return ModuleMap(self.source, self.target, self.degree,
                         {d: mat_scale(c, m) for d, m in self.blocks.items()})

    def __neg__(self) -> 'ModuleMap':
        return self.scale(Fraction(-1))

    def is_zero(self) -> bool:
        return all(is_zero_matrix(m) for m in self.blocks.values())

    def __eq__(self, other):
        if not isinstance(other, ModuleMap):
            return NotImplemented
        if (self.source is not other.source
                or self.target is not other.target
                or self.degree != other.degree):
            return False
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("module maps are not hashable")

    def global_trace(self) -> Fraction:
        if self.source is not self.target or self.degree != 0:
            raise IncompatibilityError("trace needs a degree-0 endomorphism")
        return sum((trace(m) for m in self.blocks.values()), Fraction(0))

    def check_intertwines(self) -> bool:
        n = self.source.algebra.root_system.rank
        for i in range(n):
            for d in self.source.degrees():
                shape = (self.target.dim_at(d + self.degree + 2),
                         self.source.dim_at(d))
                lhs = _mul(self.target.action(i, d + self.degree),
                           self.block(d), *shape)
                rhs = _mul(self.block(d + 2), self.source.action(i, d),
                           *shape)
                if lhs != rhs:
                    return False
        return True

    def __repr__(self):
        return (f'ModuleMap(degree={self.degree}, '
                f'blocks at {sorted(self.blocks)})')


def hom_space(source: GradedModule, target: GradedModule,
              degree: int = 0) -> list[ModuleMap]:
    """Exact basis of module maps of the given degree.

    The intertwining conditions over all variables form one sparse
    homogeneous system in the block entries; its kernel basis is
    returned as maps.  Deterministic: variables and equations are
    enumerated in a fixed order.
    """
    if source.algebra is not target.algebra:
        raise IncompatibilityError("hom requires a common algebra")
    var_index: dict[tuple, int] = {}
    for d in source.degrees():
        rows = target.dim_at(d + degree)
        cols = source.dim_at(d)
        for r in range(rows):
            for c in range(cols):
                var_index[(d, r, c)] = len(var_index)
    nvars = len(var_index)
    eqs: list[dict] = []
    n = source.algebra.root_system.rank
    for i in range(n):
        for d in source.degrees():
            xn = target.action(i, d + degree)
            xm = source.action(i, d)
            rows_out = target.dim_at(d + degree + 2)
            cols = source.dim_at(d)
            mid_n = target.dim_at(d + degree)
            mid_m = source.dim_at(d + 2)
            for r in range(rows_out):
                for c in range(cols):
                    eq: dict[int, Fraction] = {}
                    for k in range(mid_n):
                        if xn[r][k]:
                            idx = var_index.get((d, k, c))
                            if idx is not None:
                                eq[idx] = eq.get(idx, Fraction(0)) + xn[r][k]
                    for k in range(mid_m):
                        if xm[k][c]:
                            idx = var_index.get((d + 2, r, k))
                            if idx is not None:
                                eq[idx] = eq.get(idx, Fraction(0)) - xm[k][c]
                    if eq:
                        eqs.append(eq)
    kernel = sparse_nullspace(eqs, nvars)
    maps = []
    for vec in kernel:
        blocks: dict[int, list] = {}
        for (d, r, c), idx in var_index.items():
            if vec[idx]:
                block = blocks.setdefault(
                    d, zeros(target.dim_at(d + degree), source.dim_at(d)))
                block[r][c] = vec[idx]
        maps.append(ModuleMap(source, target, degree, blocks))
    return maps


def end_space(module: GradedModule) -> list[ModuleMap]:
    return hom_space(module, module, 0)


def is_indecomposable(module: GradedModule) -> bool:
    """End^0 modulo its nilradical is one-dimensional.

    In characteristic zero the radical of End^0 is the radical of the
    trace form, so the certificate is rank(Gram matrix) == 1.
    """
    if module.is_zero():
        return False
    ends = end_space(module)
    gram = [[(a.compose(b)).global_trace() for b in ends] for a in ends]
    return rank(gram) == 1


def _restrict_to_subspace(module: GradedModule, basis: dict,
                          proj_rows: dict) -> tuple:
    """Present a graded C-stable subspace as a module of its own.

    basis[d] has the subspace basis as columns; proj_rows[d] maps the
    module onto coordinates in that basis, so proj . incl = id.
    Returns (module, incl, proj).
    """
    algebra = module.algebra
    dims = {d: len(b[0]) for d, b in basis.items() if b and b[0]}
    n = algebra.root_system.rank
    actions = {}
    for d in dims:
        for i in range(n):
            if dims.get(d + 2):
                big = _mul(module.action(i, d), basis[d],
                           module.dim_at(d + 2), dims[d])
                actions[(i, d)] = _mul(proj_rows[d + 2], big,
                                       dims[d + 2], dims[d])
    sub = GradedModule(algebra, dims, actions)
    incl = ModuleMap(sub, module, 0, {d: basis[d] for d in dims})
    proj = ModuleMap(module, sub, 0,
                     {d: proj_rows[d] for d in dims})
    return sub, incl, proj


def _pair_trace(p: ModuleMap, i: ModuleMap) -> Fraction:
    """Trace of p o i, without forming the composite."""
    total = Fraction(0)
    for d, ib in i.blocks.items():
        pb = p.blocks.get(d + i.degree)
        if pb is not None:
            total += sum(x * ib[c][r] for r, row in enumerate(pb)
                         for c, x in enumerate(row) if x)
    return total


def _split_pair(module: GradedModule, entry: GradedModule, k: int):
    """(incl, proj) splitting entry<k> off module, or None.

    End^0(entry) = Q, so p o i is a scalar for every pair of maps
    i: entry -> module of degree k and p back of degree -k, and entry<k>
    is a summand exactly when some such scalar is nonzero.  The trace
    pairing is bilinear, so a basis pair with nonzero trace exists
    then; its composite is checked to be that scalar.
    """
    ins = hom_space(entry, module, k)
    if not ins:
        return None
    outs = hom_space(module, entry, -k)
    for i in ins:
        for p in outs:
            c = _pair_trace(p, i)
            if c:
                c /= entry.total_dim()
                if p.compose(i) != ModuleMap.identity(entry).scale(c):
                    raise InternalCheckError(
                        "a catalog entry has degree-0 endomorphisms "
                        "beyond the scalars")
                return i, p.scale(1 / c)
    return None


def _complement(module: GradedModule, incl: ModuleMap, proj: ModuleMap):
    """ker(proj) as a module, for a split pair with proj o incl = id.

    Returns (rest, rest_incl, rest_proj); rest_proj projects along the
    image of incl, so incl o proj + rest_incl o rest_proj = id.  In each
    degree the kernel basis has a 1 in each free column of proj's
    echelon form, so the coordinates of a kernel vector are its free
    entries, and rest_proj is read off the rows of id - incl o proj.
    """
    basis, rows = {}, {}
    for d, n in module.graded_dims.items():
        p = proj.block(d)
        red, pivots = rref(p)
        free = [c for c in range(n) if c not in pivots]
        kernel = []
        for f in free:
            vec = [Fraction(0)] * n
            vec[f] = Fraction(1)
            for r, c in enumerate(pivots):
                vec[c] = -red[r][f]
            kernel.append(vec)
        basis[d] = [[vec[r] for vec in kernel] for r in range(n)]
        ip = _mul(incl.block(d - incl.degree), p, n, n)
        rows[d] = [[(1 if c == f else 0) - ip[f][c] for c in range(n)]
                   for f in free]
    return _restrict_to_subspace(module, basis, rows)


def decompose(module: GradedModule, entries: dict, summands=None) -> list:
    """Split a module into shifted catalog entries, deterministically.

    entries maps each y to its catalog module D_y.  Returns one item
    (z, k, incl, proj) per summand D_z<k>: incl: D_z -> module has
    degree k, proj its left inverse of degree -k, and the incl o proj
    add up to the identity of the module.  With summands, a list of
    (z, k), exactly those are peeled, in order, and one that does not
    split off raises InternalCheckError.  Without, the catalog is
    searched longest element first for an entry that splits off at the
    bottom degree of what is left; by Krull-Schmidt some entry does if
    what is left is a sum of catalog entries.  A nonzero rest that is
    not peeled comes last as (None, k, incl, proj), presented as a
    module of bottom degree 0 shifted by k.
    """
    result = []
    rest = module
    incl = proj = ModuleMap.identity(module)
    wanted = None if summands is None else list(summands)
    longest_first = sorted(entries, key=lambda w: (-w.length, w.word))
    while not rest.is_zero():
        if wanted is None:
            k = rest.bottom_degree()
            pair = None
            for z in longest_first:
                if all(rest.dim_at(d + k) >= n
                       for d, n in entries[z].graded_dims.items()):
                    pair = _split_pair(rest, entries[z], k)
                    if pair is not None:
                        break
            if pair is None:
                break
        elif not wanted:
            break
        else:
            z, k = wanted.pop(0)
            pair = _split_pair(rest, entries[z], k)
            if pair is None:
                raise InternalCheckError(
                    f"predicted summand D_{z!r}<{k}> does not split off "
                    f"a module with graded character {rest.graded_dims}")
        i, p = pair
        result.append((z, k, incl.compose(i), p.compose(proj)))
        rest, sub_incl, sub_proj = _complement(rest, i, p)
        incl, proj = incl.compose(sub_incl), sub_proj.compose(proj)
    if wanted:
        z, k = wanted[0]
        raise InternalCheckError(
            f"predicted summand D_{z!r}<{k}> is missing: nothing is left")
    if not rest.is_zero():
        k = rest.bottom_degree()
        left = rest.shift(-k)
        result.append((None, k,
                       ModuleMap(left, module, k,
                                 {d - k: b for d, b in incl.blocks.items()}),
                       ModuleMap(module, left, -k, proj.blocks)))
    if sum(p.target.total_dim() for _z, _k, _i, p in result) \
            != module.total_dim():
        raise InternalCheckError("decomposition loses dimensions")
    return result


def is_isomorphic(a: GradedModule, b: GradedModule):
    """An isomorphism a -> b, or None.

    Certified search: if some composition b -> a -> b of hom-basis
    elements has nonzero trace, a split pair exists; for the
    (absolutely) indecomposable modules this code meets, nonzero trace
    of tau . phi forces tau . phi invertible, and matching graded
    dimensions then force phi itself to be an isomorphism.  A few
    random combinations are tried for decomposable inputs.
    """
    if a.algebra is not b.algebra:
        raise IncompatibilityError("isomorphism test needs a common algebra")
    if a.graded_dims != b.graded_dims:
        return None
    if a.is_zero():
        return ModuleMap.zero(a, b, 0)
    fwd = hom_space(a, b, 0)
    bwd = hom_space(b, a, 0)
    if not fwd or not bwd:
        return None

    def verify(phi):
        try:
            inv_blocks = {d: invert(phi.block(d)) for d in a.degrees()}
        except ValueError:
            return None
        psi = ModuleMap(b, a, 0, inv_blocks)
        if not psi.check_intertwines():
            raise InternalCheckError("blockwise inverse fails to intertwine")
        return phi

    for phi in fwd:
        for tau in bwd:
            if tau.compose(phi).global_trace():
                got = verify(phi)
                if got is not None:
                    return got
    rng = random.Random(0xa17e)
    for _ in range(12):
        phi = ModuleMap.zero(a, b, 0)
        for e in fwd:
            phi = phi + e.scale(Fraction(rng.randint(-3, 3)))
        got = verify(phi)
        if got is not None:
            return got
    return None


def expected_graded_dims(w) -> dict[int, int]:
    """Graded dimensions of D_w predicted by Kazhdan-Lusztig data.

    The graded character of D_w is the intersection-cohomology
    Poincare polynomial of the Schubert variety of w,

        sum over z <= w of  q^(2 l(z)) P_{z,w}(q^2),

    which in terms of the self-dual basis coefficients
    h_{z,w} = sum_j c_j v^j reads sum_{z,j} c_j q^(l(w)+l(z)-j).
    It is palindromic; the naive substitution sum_z h_{z,w}(q^2) is
    not the graded character (the two differ at singular elements,
    first at s2 s1 s3 s2 in type A3).
    """
    total: dict[int, int] = {}
    lw = w.length
    for z, h in kl_basis(w).terms.items():
        for exp, c in h.terms.items():
            d = lw + z.length - exp
            if d < 0 or d % 2 or c.denominator != 1 or c < 0:
                raise InternalCheckError(
                    f"unexpected KL coefficient {h} at {z!r}")
            total[d] = total.get(d, 0) + int(c)
    return {d: n for d, n in sorted(total.items())}


class IndecomposableCatalog:
    """The indecomposables D_y, y in the algebra's Weyl group.

    The catalog also owns what is computed from its entries and reused
    by every complex over it: theta_splittings maps (s, y) to the
    splitting of theta_s D_y into entries (homotopy.theta_summands),
    and hom_bases maps (y, z, degree) to a basis of Hom(D_y, D_z) in
    that degree (homotopy's hom complexes).
    """

    def __init__(self, algebra: CoinvariantAlgebra, entries: dict,
                 provenance: dict):
        self.algebra = algebra
        self.entries = entries
        self.provenance = provenance
        self.theta_splittings: dict = {}
        self.hom_bases: dict = {}

    def elements(self) -> list:
        return sorted(self.entries, key=lambda w: (w.length, w.word))

    def entry(self, w) -> GradedModule:
        if w not in self.entries:
            raise ConfigurationError(f"{w!r} has no catalog entry")
        return self.entries[w]

    def identify(self, module: GradedModule):
        """(y, shift) with module isomorphic to D_y<shift>, or None."""
        if module.is_zero():
            return None
        k = module.bottom_degree()
        for w, d_w in self.entries.items():
            if d_w.graded_dims == {d - k: n
                                   for d, n in module.graded_dims.items()}:
                if is_isomorphic(module, d_w.shift(k)) is not None:
                    return (w, k)
        return None

    def __repr__(self):
        return (f'IndecomposableCatalog({self.algebra!r}, '
                f'{len(self.entries)} entries)')


def build_catalog(algebra: CoinvariantAlgebra) -> IndecomposableCatalog:
    """All D_y by increasing length, with Kazhdan-Lusztig validation.

    D_y is what is left of C (x)_{C^s} D_{ys} (s a descent) once the
    other summands b_{ys} b_s predicts are peeled off (decompose).  Hard
    checks on every entry: it is what is left in bottom degree 0, its
    degree-0 endomorphisms are the scalars, its graded dimensions equal
    the Kazhdan-Lusztig prediction, and the invariant ideal kills it.
    Every call builds afresh; induction keeps and caches the result.
    """
    rs = algebra.root_system
    members = [w for w in rs.elements if set(w.word) <= set(algebra.subset)]
    members.sort(key=lambda w: (w.length, w.word))
    entries: dict = {}
    provenance: dict = {}
    for w in members:
        if w.length == 0:
            entries[w] = trivial_module(algebra)
            provenance[w] = {'built_from': None}
            continue
        i = w.right_descents()[0]
        shorter = w * rs.simple_reflection(i)
        peeled = wall_crossing_summands(shorter, i)
        if (w, 0) not in peeled:
            raise InternalCheckError(
                f"b_{shorter!r} b_s{i + 1} does not contain b_{w!r}")
        peeled.remove((w, 0))
        pieces = decompose(induce_frobenius(i, entries[shorter]), entries,
                           peeled)
        if len(pieces) != len(peeled) + 1 or pieces[-1][:2] != (None, 0):
            raise InternalCheckError(
                f"peeling for {w!r} leaves no summand in degree 0")
        d_w = pieces[-1][2].source
        if len(end_space(d_w)) != 1:
            raise InternalCheckError(
                f"the module left for {w!r} is decomposable")
        expected = expected_graded_dims(w)
        if d_w.graded_dims != expected:
            raise InternalCheckError(
                f"graded character of D_{w!r} is {d_w.graded_dims}, "
                f"Kazhdan-Lusztig predicts {expected}")
        verify_relations(d_w)
        entries[w] = d_w
        provenance[w] = {
            'built_from': (shorter, i),
            'peeled': sorted(((z.word, k) for z, k in peeled)),
        }
    return IndecomposableCatalog(algebra, entries, provenance)
