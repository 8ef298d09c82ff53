"""Finite-dimensional evenly graded modules over a coinvariant algebra.

A module stores its graded dimensions and, for every polynomial
variable, the degree +2 action matrices between graded pieces; a
polynomial acts by the matching products of these matrices.
The workhorses are:

  * induce_frobenius -- the functor theta_s = C (x)_{C^s} (-), realized
    through the Frobenius splitting c = f + g alpha_s of the algebra:
    on the space (1 (x) M) + (alpha_s (x) M) (the second shifted up by
    2) a ring element c acts by c(1 (x) m) = 1 (x) fm + alpha_s (x) gm
    and c(alpha_s (x) m) = 1 (x) alpha_s^2 g m + alpha_s (x) fm;
    coev_map, unit_map and theta_of_map are written in that basis.
  * hom_space -- exact solution of the intertwining equations, degree
    block by degree block, through a sparse kernel computation.
  * decompose -- deterministic peeling of catalog summands.  A
    summand D_z<k> splits off M exactly when some pair of hom-basis
    maps D_z -> M -> D_z has a composite with nonzero trace; since
    End^0(D_z) = Q that composite is a scalar, the pair is rescaled
    to a split pair, and the rest is ker(proj).  The summands are
    either given or found by trying catalog entries at the bottom
    degree of what is left.
  * theta_summands -- the one split of theta_s D_y into the summands
    b_y b_s = sum_z m_z b_z predicts (hecke.wall_crossing_summands),
    kept in the catalog: build_catalog admits each entry through it,
    and homotopy's tensor steps and wall-crossings transport through it.
  * build_catalog -- the indecomposable modules D_y, one per group
    element: D_y is what is left of theta_s D_{ys} once the predicted
    shorter summands are peeled off (theta_summands).  Each entry is
    validated against the Kazhdan-Lusztig base: the graded character
    of D_y must equal the intersection-cohomology Poincare polynomial
    computed from the coefficients of b_y.

A module's algebra is read for root_system, subset and
fundamental_invariants only, and the invariants only by
verify_relations, when a catalog is built.  The pipeline gives modules
an AlgebraRecord, which builds its coinvariant algebra on that first
read; a coinvariants.CoinvariantAlgebra serves as well.

Everything is exact; no tolerances appear anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)
from .exactla import (_frac, identity as id_matrix, invert, is_zero_matrix,
                      mat_mul, mat_scale, mat_sub, rref, sparse_nullspace,
                      zeros)
from .hecke import kl_basis, wall_crossing_summands

__all__ = [
    'AlgebraRecord', 'GradedModule', 'ModuleMap', 'IndecomposableCatalog',
    'trivial_module', 'zero_module', 'induce_frobenius', 'coev_map',
    'unit_map', 'theta_of_map', 'bott_samelson', 'RestrictionMap',
    'restrict_module', 'direct_sum', 'hom_space', 'end_space',
    'verify_relations', 'decompose', 'is_isomorphic', 'theta_summands',
    'build_catalog', 'expected_graded_dims',
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


class AlgebraRecord:
    """C_I as the module side reads it, built on first use.

    root_system and subset are given; fundamental_invariants is built
    by coinvariants.build_coinvariants, and certified there, the first
    time it is read, and kept.  The module is imported at that point,
    so a run that loads its catalogs from the cache never imports it.
    """

    __slots__ = ('root_system', 'subset', '_invariants')

    def __init__(self, root_system, subset):
        self.root_system = root_system
        self.subset = tuple(sorted(subset))
        self._invariants = None  # not built yet

    @property
    def fundamental_invariants(self) -> list:
        if self._invariants is None:
            # imported here and looked up at call time, so a wrapper
            # bound on the module sees every build
            from . import coinvariants
            self._invariants = coinvariants.build_coinvariants(
                self.root_system, self.subset).fundamental_invariants
        return self._invariants

    def __repr__(self):
        gens = ','.join(f's{i + 1}' for i in self.subset) or 'empty'
        return f'AlgebraRecord({self.root_system!r}, {{{gens}}})'


def _integer_form(m) -> tuple:
    den = lcm(*{v.denominator for row in m for v in row if v})
    rows = [[(k, v.numerator * (den // v.denominator))
             for k, v in enumerate(row) if v] for row in m]
    cols = [[] for _ in m[0]]
    for r, row in enumerate(rows):
        for k, v in row:
            cols[k].append((r, v))
    return den, rows, cols


class GradedModule:
    """Evenly graded module given by dimensions and generator actions.

    actions maps (variable index, source degree) to the matrix of
    multiplication by that variable from degree d to degree d + 2;
    matrices for zero-dimensional source or target are omitted.
    Nothing changes actions after the constructor, so their integer
    form (_integer_actions) is kept from its first use on.
    """

    __slots__ = ('algebra', 'graded_dims', 'actions', '_integer')

    def __init__(self, algebra: AlgebraRecord, graded_dims: dict,
                 actions: dict):
        self.algebra = algebra
        self.graded_dims = {d: n for d, n in sorted(graded_dims.items()) if n}
        for d in self.graded_dims:
            if d % 2:
                raise ConfigurationError(
                    f"modules must be evenly graded; got degree {d}")
        self.actions = {}
        n = algebra.root_system.rank
        for (i, d), m in actions.items():
            if not 0 <= i < n:
                raise IncompatibilityError(
                    f"action of variable {i + 1} outside the {n} variables")
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
        self._integer = None  # built on first use

    def _integer_actions(self) -> dict:
        """(i, d) -> (den, rows, cols) for each stored action.

        den is the lcm of the matrix's denominators; rows and cols list
        the nonzero entries of den times the matrix, as (index, int)
        pairs, by row and by column.
        """
        if self._integer is None:
            self._integer = {key: _integer_form(m)
                             for key, m in self.actions.items()}
        return self._integer

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


def zero_module(algebra: AlgebraRecord) -> GradedModule:
    return GradedModule(algebra, {}, {})


def trivial_module(algebra: AlgebraRecord) -> GradedModule:
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


def coev_map(s: int, module: GradedModule, theta: GradedModule) -> ModuleMap:
    """m |-> (1/2)(1 (x) alpha_s m + alpha_s (x) m), a degree-2 map."""
    half = Fraction(1, 2)
    blocks = {}
    for d in module.degrees():
        rows_one = module.dim_at(d + 2)
        rows_al = module.dim_at(d)
        cols = module.dim_at(d)
        block = zeros(rows_one + rows_al, cols)
        xs = module.action(s, d)
        for r in range(rows_one):
            for c in range(cols):
                block[r][c] = half * xs[r][c]
        for c in range(cols):
            block[rows_one + c][c] = half
        blocks[d] = block
    return ModuleMap(module, theta, 2, blocks)


def unit_map(s: int, module: GradedModule, theta: GradedModule) -> ModuleMap:
    """m |-> 1 (x) m, the degree-0 adjunction unit.

    Degree d of theta_s M is (1 (x) M_d) + (alpha (x) M_{d-2}); the unit
    hits the first part identically.
    """
    blocks = {}
    for d in module.degrees():
        rows_one = module.dim_at(d)
        rows_al = module.dim_at(d - 2)
        cols = module.dim_at(d)
        block = zeros(rows_one + rows_al, cols)
        for c in range(cols):
            block[c][c] = Fraction(1)
        blocks[d] = block
    return ModuleMap(module, theta, 0, blocks)


def theta_of_map(s: int, phi: ModuleMap, theta_src: GradedModule,
                 theta_tgt: GradedModule) -> ModuleMap:
    """theta_s phi = id (x) phi, block-diagonal over the Frobenius basis."""
    src, tgt, k = phi.source, phi.target, phi.degree
    blocks = {}
    for d in theta_src.degrees():
        cols_one = src.dim_at(d)
        cols_al = src.dim_at(d - 2)
        rows_one = tgt.dim_at(d + k)
        rows_al = tgt.dim_at(d + k - 2)
        if cols_one + cols_al == 0 or rows_one + rows_al == 0:
            continue
        block = zeros(rows_one + rows_al, cols_one + cols_al)
        top = phi.block(d)
        for r in range(rows_one):
            for c in range(cols_one):
                block[r][c] = top[r][c]
        bot = phi.block(d - 2)
        for r in range(rows_al):
            for c in range(cols_al):
                block[rows_one + r][cols_one + c] = bot[r][c]
        blocks[d] = block
    return ModuleMap(theta_src, theta_tgt, k, blocks)


def bott_samelson(algebra: AlgebraRecord, word) -> GradedModule:
    """Iterated Frobenius induction starting from the trivial module.

    The first letter of the word is applied first, so the graded
    character picks up a factor (1 + q^2) per letter and the class
    multiplies by b_s on the right, letter by letter in word order.
    """
    module = trivial_module(algebra)
    for i in word:
        module = induce_frobenius(i, module)
    return module


class RestrictionMap:
    """The surjective degree-preserving ring map C -> C_I.

    Both algebras are quotients of the same polynomial ring, and the
    full invariant ideal is contained in the parabolic one, so x_k ->
    x_k is a well-defined ring homomorphism.  It is kept as its
    (source, target) pair, once both are checked to share one root
    system and the target's subset to lie inside the source's.
    """

    __slots__ = ('source', 'target')

    def __init__(self, source: AlgebraRecord, target: AlgebraRecord):
        if source.root_system is not target.root_system:
            raise IncompatibilityError(
                "restriction requires algebras over the same root system")
        if not set(target.subset) <= set(source.subset):
            raise IncompatibilityError(
                "restriction target must be a parabolic of the source")
        self.source = source
        self.target = target


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


def _polynomial_action(module: GradedModule, poly, d: int, products: dict):
    """Matrix of a homogeneous polynomials.Polynomial from degree d up.

    ``products`` maps each monomial met so far to its matrix out of
    degree d (:func:`_monomial_action`), so polynomials acting from the
    same degree pay for a common monomial once.
    """
    comps = poly.homogeneous_components()
    if len(comps) > 1:
        raise IncompatibilityError("polynomial action needs homogeneity")
    if not comps:
        return zeros(0, module.dim_at(d))
    (k, comp), = comps.items()
    out = None
    for mono, coeff in comp.terms.items():
        cur = mat_scale(coeff, _monomial_action(module, mono, d, products))
        out = cur if out is None else [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(out, cur)]
    return out


def _monomial_action(module: GradedModule, mono: tuple, d: int,
                     products: dict):
    """Matrix of a monomial from degree d upward, memoized in products.

    The variables act in index order, x_0 first.  A monomial is the
    variable of its last factor applied to its prefix, the monomial
    with that exponent lowered by one, so each monomial costs at most
    one matrix product.
    """
    m = products.get(mono)
    if m is not None:
        return m
    factors = [i for i, e in enumerate(mono) if e]
    if not factors:
        m = id_matrix(module.dim_at(d))
    else:
        last = factors[-1]
        prefix = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
        top = d + 2 * (sum(mono) - 1)
        m = module.action(last, top)
        if any(prefix):
            m = _mul(m, _monomial_action(module, prefix, d, products),
                     module.dim_at(top + 2), module.dim_at(d))
    products[mono] = m
    return m


def _degree_sets(module: GradedModule) -> tuple:
    """(generator degrees, socle degrees) of a module, decided exactly.

    d is a generator degree when the images x_j M_{d-2} do not span
    M_d, that is when the columns of the x_j out of degree d - 2, taken
    as rows, leave a kernel on M_d; d is a socle degree when the rows
    of the x_j out of degree d leave one, some nonzero vector of M_d
    killed by every x_j.  sparse_nullspace decides each exactly, and a
    full rank ends its elimination early.
    """
    acts = module._integer_actions()
    n = module.algebra.root_system.rank
    generators, socle = set(), set()
    for d, dim in module.graded_dims.items():
        for found, source, part in ((generators, d - 2, 2), (socle, d, 1)):
            rows = [dict(v) for i in range(n) if (i, source) in acts
                    for v in acts[(i, source)][part] if v]
            if len(rows) < dim or sparse_nullspace(rows, dim):
                found.add(d)
    return frozenset(generators), frozenset(socle)


def verify_relations(module: GradedModule) -> None:
    """Assert commutativity and that the invariant ideal acts by zero.

    Commutativity is checked in every degree, the invariants only out
    of the generator degrees (_degree_sets).  That certifies the
    same: once the variables commute, an invariant f that kills M_{d-2}
    kills every x_j M_{d-2}, and those span each degree that is not a
    generator degree.
    """
    _check_relations(module, _degree_sets(module)[0])


def _check_relations(module: GradedModule, generator_degrees) -> None:
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
    for d in sorted(generator_degrees):
        products: dict = {}
        for f in alg.fundamental_invariants:
            m = _polynomial_action(module, f, d, products)
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
        c = _frac(c)
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
    returned as maps.  The unknowns are numbered block by block, in
    increasing source degree: entry (r, c) of block d is
    base[d] + r * cols + c.  The equations are assembled from each
    module's integer actions (GradedModule._integer_actions), the
    equations of one (variable, degree) pair multiplied by the
    denominators of both actions, so :func:`sparse_nullspace` receives
    integer rows; a nonzero factor per equation leaves the kernel, and
    so the basis, as it is.  Deterministic: unknowns and equations are
    enumerated in a fixed order.
    """
    if source.algebra is not target.algebra:
        raise IncompatibilityError("hom requires a common algebra")
    base, nvars = {}, 0
    for d in source.degrees():
        base[d] = nvars
        nvars += target.dim_at(d + degree) * source.dim_at(d)
    xs, xt = source._integer_actions(), target._integer_actions()
    eqs: list[dict] = []
    n = source.algebra.root_system.rank
    for i in range(n):
        for d in source.degrees():
            xn = xt.get((i, d + degree))
            xm = xs.get((i, d))
            rows_out = target.dim_at(d + degree + 2)
            if not rows_out or (xn is None and xm is None):
                continue
            cols = source.dim_at(d)
            # (x f)[r][c] = sum_k xn[r][k] f_d[k][c] and
            # (f x)[r][c] = sum_k f_{d+2}[r][k] xm[k][c] meet no unknown
            # twice: the first side uses block d, the second block d + 2.
            # Each term is kept as (its unknown at c = 0 or r = 0,
            # coefficient), the equation scaled by both denominators.
            den_n, den_m = xn[0] if xn else 1, xm[0] if xm else 1
            left = [[(base[d] + k * cols, v * den_m) for k, v in row]
                    for row in xn[1]] if xn else [()] * rows_out
            if xm:
                cols_up = source.dim_at(d + 2)
                right = [[(base[d + 2] + k, -v * den_n) for k, v in col]
                         for col in xm[2]]
            else:
                cols_up, right = 0, [()] * cols
            for r in range(rows_out):
                up = r * cols_up
                for c in range(cols):
                    eq = {idx + c: v for idx, v in left[r]}
                    for idx, v in right[c]:
                        eq[idx + up] = v
                    if eq:
                        eqs.append(eq)
    kernel = sparse_nullspace(eqs, nvars)
    maps = []
    for vec in kernel:
        blocks: dict[int, list] = {}
        for d, start in base.items():
            rows, cols = target.dim_at(d + degree), source.dim_at(d)
            seg = vec[start:start + rows * cols]
            if any(seg):
                blocks[d] = [seg[r * cols:(r + 1) * cols]
                             for r in range(rows)]
        maps.append(ModuleMap(source, target, degree, blocks))
    return maps


def end_space(module: GradedModule) -> list[ModuleMap]:
    return hom_space(module, module, 0)


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


def is_isomorphic(a: GradedModule, b: GradedModule, entries: dict):
    """An isomorphism a -> b, or None, decided by Krull-Schmidt.

    entries maps each y to its catalog module D_y.  Both modules are
    split into shifted catalog entries (decompose), and they are
    isomorphic exactly when the same multiset of D_z<k> splits off
    both.  The isomorphism is the sum of incl_b o proj_a over matched
    summands, certified blockwise: every block is inverted, and both
    the map and its inverse must intertwine.  If exactly one side
    leaves a rest that no catalog entry peels, the two are not
    isomorphic; if both do, nothing here decides the question and
    InternalCheckError is raised rather than a guess.
    """
    if a.algebra is not b.algebra:
        raise IncompatibilityError("isomorphism test needs a common algebra")
    if a.graded_dims != b.graded_dims:
        return None
    sides = [decompose(m, entries) for m in (a, b)]
    rests = [bool(pieces) and pieces[-1][0] is None for pieces in sides]
    if all(rests):
        raise InternalCheckError(
            "neither module is a sum of catalog entries; "
            "their isomorphism is not decided")
    if any(rests):
        return None
    pieces_a, pieces_b = (sorted(pieces, key=lambda p: (p[0].word, p[1]))
                          for pieces in sides)
    if [p[:2] for p in pieces_a] != [p[:2] for p in pieces_b]:
        return None
    phi = ModuleMap.zero(a, b, 0)
    for piece_a, piece_b in zip(pieces_a, pieces_b):
        phi = phi + piece_b[2].compose(piece_a[3])
    try:
        inverse = ModuleMap(b, a, 0,
                            {d: invert(phi.block(d)) for d in a.degrees()})
    except ValueError:
        raise InternalCheckError(
            "matched summands give a map that is not invertible") from None
    if not (phi.check_intertwines() and inverse.check_intertwines()):
        raise InternalCheckError(
            "the isomorphism or its blockwise inverse fails to intertwine")
    return phi


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
    splitting of theta_s D_y into entries (theta_summands, which also
    admits the entries of a build), and hom_bases maps (y, z, degree)
    to a basis of Hom(D_y, D_z) in that degree (hom_basis; homotopy's
    hom complexes and the base case of induction read it), and
    degree_sets maps y to the generator and socle degrees of D_y
    (entry_degrees), which let hom_basis answer a space that vanishes
    for degree reasons without solving it.
    """

    def __init__(self, algebra: AlgebraRecord, entries: dict):
        self.algebra = algebra
        self.entries = entries
        self.theta_splittings: dict = {}
        self.hom_bases: dict = {}
        self.degree_sets: dict = {}

    def elements(self) -> list:
        return sorted(self.entries, key=lambda w: (w.length, w.word))

    def entry(self, w) -> GradedModule:
        if w not in self.entries:
            raise ConfigurationError(f"{w!r} has no catalog entry")
        return self.entries[w]

    def entry_degrees(self, y) -> tuple:
        """(generator degrees, socle degrees) of D_y, decided once."""
        sets = self.degree_sets.get(y)
        if sets is None:
            sets = self.degree_sets[y] = _degree_sets(self.entry(y))
        return sets

    def hom_basis(self, y, z, degree: int) -> list:
        """A basis of Hom(D_y, D_z) in degree `degree`, found once.

        The space is [] without a solve when no generator degree g of
        D_y has (D_z)_{g+degree} nonzero, or no socle degree s of D_z
        has (D_y)_{s-degree} nonzero: a nonzero map is nonzero on some
        generator, and the top degree of its image, a nonzero
        submodule, is killed by every variable, so it lies in the socle
        of D_z.
        """
        key = (y, z, degree)
        if key not in self.hom_bases:
            source, target = self.entry(y), self.entry(z)
            if (any(target.dim_at(g + degree)
                    for g in self.entry_degrees(y)[0])
                    and any(source.dim_at(s - degree)
                            for s in self.entry_degrees(z)[1])):
                self.hom_bases[key] = hom_space(source, target, degree)
            else:
                self.hom_bases[key] = []
        return self.hom_bases[key]

    def __repr__(self):
        return (f'IndecomposableCatalog({self.algebra!r}, '
                f'{len(self.entries)} entries)')


def _admit(catalog: IndecomposableCatalog, w, module: GradedModule) -> None:
    """Store module as D_w once End^0 = Q and the relations hold."""
    if len(end_space(module)) != 1:
        raise InternalCheckError(f"the module left for {w!r} is decomposable")
    sets = _degree_sets(module)
    _check_relations(module, sets[0])
    catalog.entries[w] = module
    catalog.degree_sets[w] = sets


def theta_summands(catalog: IndecomposableCatalog, s: int, y):
    """Split theta_s D_y into catalog summands, kept in theta_splittings.

    Returns (theta_module, pieces) where pieces is a list of
    (z, shift, incl, proj): incl is a degree-(shift) map D_z ->
    theta_module and proj its one-sided inverse of degree -shift.  The
    summands are the ones b_y b_s predicts, in its order, each peeled as
    a certified split pair (decompose), and nothing may be left over.
    If s is an ascent of y, D_ys<0> is what is left, which must have the
    Kazhdan-Lusztig graded dimensions of D_ys.  Without an entry for ys
    (build_catalog) it is admitted as D_ys; with an entry of equal
    action matrices the identity matches the two, so a reloaded catalog
    splits exactly as the build did; otherwise a split pair is solved.
    """
    cache = catalog.theta_splittings
    key = (s, y)
    if key in cache:
        return cache[key]
    theta = induce_frobenius(s, catalog.entry(y))
    predicted = wall_crossing_summands(y, s)
    if y.has_right_descent(s):
        pieces = decompose(theta, catalog.entries, predicted)
        if pieces and pieces[-1][0] is None:
            raise InternalCheckError(
                f"theta_s{s + 1} D_{y!r} has a summand with graded "
                f"character {pieces[-1][2].source.graded_dims} beyond "
                f"b_y b_s")
    else:
        ys = y * y.root_system.simple_reflection(s)
        pieces = decompose(theta, catalog.entries,
                           [t for t in predicted if t != (ys, 0)])
        expected = expected_graded_dims(ys)
        if (ys, 0) not in predicted or not pieces \
                or pieces[-1][:2] != (None, 0) \
                or pieces[-1][2].source.graded_dims != expected:
            raise InternalCheckError(
                f"theta_s{s + 1} D_{y!r} leaves no D_{ys!r}<0> of graded "
                f"character {expected} beside the rest of b_y b_s")
        _none, _k, incl, proj = pieces.pop()
        rest = incl.source
        entry = catalog.entries.get(ys)
        if entry is None:
            _admit(catalog, ys, rest)
        elif rest.actions == entry.actions:
            incl = ModuleMap(entry, theta, 0, incl.blocks)
            proj = ModuleMap(theta, entry, 0, proj.blocks)
        else:
            pair = _split_pair(rest, entry, 0)
            if pair is None:
                raise InternalCheckError(
                    f"predicted summand D_{ys!r}<0> does not split off "
                    f"theta_s{s + 1} D_{y!r}")
            incl, proj = incl.compose(pair[0]), pair[1].compose(proj)
        pieces.insert(predicted.index((ys, 0)), (ys, 0, incl, proj))
    cache[key] = (theta, pieces)
    return cache[key]


def build_catalog(algebra: AlgebraRecord) -> IndecomposableCatalog:
    """All D_y by increasing length, with Kazhdan-Lusztig validation.

    D_e is the trivial module, and theta_summands(catalog, s, ws), s
    the first right descent of w, admits D_w as what is left of theta_s
    D_{ws} in bottom degree 0.  Hard checks on every entry: its graded
    dimensions equal the Kazhdan-Lusztig prediction, its degree-0
    endomorphisms are the scalars, and the invariant ideal kills it.
    Every call builds afresh; induction keeps and caches the result.
    """
    rs = algebra.root_system
    members = [w for w in rs.elements if set(w.word) <= set(algebra.subset)]
    members.sort(key=lambda w: (w.length, w.word))
    catalog = IndecomposableCatalog(algebra, {})
    for w in members:
        if w.length == 0:
            catalog.entries[w] = trivial_module(algebra)
        else:
            i = w.right_descents()[0]
            theta_summands(catalog, i, w * rs.simple_reflection(i))
    return catalog
