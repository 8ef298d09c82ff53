"""Finite-dimensional evenly graded modules over a coinvariant algebra.

A module stores its graded dimensions and, for every polynomial
variable, the degree +2 action matrices between graded pieces; a
polynomial acts by the matching products of these matrices.  A module
map stores one block per degree.  Both are built from, and keep, each
matrix as its integer form (exactla.to_form: one int matrix over one
positive denominator, in lowest terms), so map arithmetic, intertwining
checks and the builders below run in ints, and two maps are equal
exactly when their forms are.  Every elimination solves on forms
(exactla.form_solve and sparse_nullspace).  Matrices of Fractions come
in only from the cache file, where serialize.module_from_json validates
them, and the strings of the cache file and JSON reports are written
from the forms.
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
  * map_from_generator -- the map out of a cyclic catalog entry (one
    generated by a one-dimensional bottom degree) fixed by the image of
    its generator through the sections of the entry's presentation,
    certified by intertwining; the catalog's maps_from takes it where
    that image has one coordinate, and hom_space for every other hom
    space.
  * theta_summands -- the one split of theta_s D_y into the summands
    b_y b_s = sum_z m_z b_z predicts (hecke.wall_crossing_summands),
    kept in the catalog: build_catalog admits each entry through it,
    and homotopy's tensor steps and wall-crossings transport through it.
    A descent split theta_s D_y = D_y<0> + D_y<2> is written down from
    the multiplication, its section and the coevaluation; an ascent
    peels the shorter summands by decompose.
  * match_entry -- an isomorphism between a catalog entry and a module
    of its graded dimensions: the identity when the action matrices
    agree, else the one map of Hom^0(entry, module) if it inverts.
    theta_summands matches the rest of an ascent split to its entry
    through it, and induction the inflation of D^I_x to D_x.
  * build_catalog -- the indecomposable modules D_y, one per group
    element: D_y is what is left of theta_s D_{ys} once the predicted
    shorter summands are peeled off (theta_summands), s the descent
    that predicts the fewest, or the twist of an earlier D_v along a
    diagram automorphism sigma with y = sigma(v).  Each entry is
    validated against the Kazhdan-Lusztig base: the graded character
    of D_y must equal the intersection-cohomology Poincare polynomial
    computed from the coefficients of b_y.

A module's algebra is read for root_system, subset and
fundamental_invariants only, and the invariants only by
check_relations, when the catalog admits an entry.  The pipeline gives
modules an AlgebraRecord, which builds its coinvariant algebra on that
first read; a coinvariants.CoinvariantAlgebra serves as well.

Everything is exact; no tolerances appear anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)
from .exactla import (_frac, form_add, form_mul, form_scale, form_solve,
                      id_form, normal, place, sparse_nullspace, to_form)
from .hecke import expected_graded_dims, wall_crossing_summands
from .presentation import check_relations, present

__all__ = [
    'AlgebraRecord', 'GradedModule', 'ModuleMap', 'IndecomposableCatalog',
    'trivial_module', 'twist', 'induce_frobenius', 'coev_map', 'unit_map',
    'mult_map', 'theta_of_map', 'RestrictionMap', 'restrict_module',
    'direct_sum', 'hom_space', 'end_space', 'map_from_generator',
    'decompose', 'is_isomorphic', 'match_entry', 'theta_summands',
    'build_catalog',
]


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


class GradedModule:
    """Evenly graded module given by dimensions and generator actions.

    forms maps each (variable index, source degree) to the integer form
    (exactla.to_form) of multiplication by that variable from degree d
    to degree d + 2, None for a zero matrix; matrices for
    zero-dimensional source or target are omitted.  The constructor
    takes the forms as they are (serialize.module_from_json validates a
    module read from a file), and nothing changes them afterwards.
    """

    __slots__ = ('algebra', 'graded_dims', 'forms')

    def __init__(self, algebra: AlgebraRecord, graded_dims: dict,
                 forms: dict):
        self.algebra, self.forms = algebra, forms
        self.graded_dims = {d: n for d, n in sorted(graded_dims.items()) if n}

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

    def shift(self, k: int) -> 'GradedModule':
        """M<k>: degree d piece is the old degree d - k piece."""
        if k % 2:
            raise ConfigurationError("shifts must be even")
        return GradedModule(
            self.algebra,
            {d + k: n for d, n in self.graded_dims.items()},
            {(i, d + k): m for (i, d), m in self.forms.items()})

    def __repr__(self):
        return f'GradedModule(dims={self.graded_dims})'


def trivial_module(algebra: AlgebraRecord) -> GradedModule:
    """One-dimensional in degree 0; every variable acts by zero."""
    return GradedModule(algebra, {0: 1}, {})


def twist(module: GradedModule, sigma: tuple) -> GradedModule:
    """sigma^*M for a diagram automorphism sigma that fixes the subset of
    the module's algebra: x_{sigma(j)} acts as x_j acts on M, by the same
    matrices.  It sends theta_s to theta_{sigma(s)} and D_v to
    D_{sigma(v)}."""
    return GradedModule(module.algebra, module.graded_dims,
                        {(sigma[j], d): f
                         for (j, d), f in module.forms.items()})


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
    actions = {(i, d): place(dims.get(d + 2, 0), dims.get(d, 0),
                             [(off[d + 2], off[d], m.forms[(i, d)])
                              for m, off in zip(modules, offsets)
                              if (i, d) in m.forms])
               for (i, d) in {key for m in modules for key in m.forms}}
    total = GradedModule(algebra, dims, actions)
    incls, projs = [], []
    for m, off in zip(modules, offsets):
        incls.append(ModuleMap(m, total, 0, {
            d: place(dims[d], n, [(off[d], 0, id_form(n))])
            for d, n in m.graded_dims.items()}))
        projs.append(ModuleMap(total, m, 0, {
            d: place(n, dims[d], [(0, off[d], id_form(n))])
            for d, n in m.graded_dims.items()}))
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
    acts = module.forms
    degrees = sorted(dims)
    halves = [Fraction(cartan[i][j], 2) for j in range(alg.root_system.rank)]
    # alpha_i^2 on M_{d-2} -> M_{d+2}, and f_j = x_j - g_j x_i on M_d,
    # each formed once
    squares = {d: form_mul(acts.get((i, d)), acts.get((i, d - 2)))
               for d in degrees}
    f_ops = {(j, d): form_add(acts.get((j, d)),
                              form_scale(-g, acts.get((i, d))))
             for j, g in enumerate(halves) for d in module.graded_dims}
    actions: dict = {}
    for j, g in enumerate(halves):
        for d in degrees:
            cols_one = module.dim_at(d)       # 1 (x) M_d
            cols_al = module.dim_at(d - 2)    # alpha (x) M_{d-2}
            rows_one = module.dim_at(d + 2)
            rows_al = module.dim_at(d)
            if cols_one + cols_al == 0 or rows_one + rows_al == 0:
                continue
            # alpha_i^2 * g acting M_{d-2} -> M_{d+2} in the top right
            actions[(j, d)] = place(rows_one + rows_al, cols_one + cols_al, [
                (0, 0, f_ops.get((j, d))),
                (rows_one, 0, form_scale(g, id_form(cols_one))),
                (rows_one, cols_one, f_ops.get((j, d - 2))),
                (0, cols_one, form_scale(g, squares[d]))])
    return GradedModule(alg, dims, actions)


def coev_map(s: int, module: GradedModule, theta: GradedModule) -> ModuleMap:
    """m |-> (1/2)(1 (x) alpha_s m + alpha_s (x) m), a degree-2 map."""
    half = Fraction(1, 2)
    blocks = {}
    for d, n in module.graded_dims.items():
        rows_one = module.dim_at(d + 2)
        blocks[d] = form_scale(half, place(rows_one + n, n, [
            (0, 0, module.forms.get((s, d))), (rows_one, 0, id_form(n))]))
    return ModuleMap(module, theta, 2, blocks)


def unit_map(module: GradedModule, theta: GradedModule) -> ModuleMap:
    """m |-> 1 (x) m, the degree-0 adjunction unit.

    Degree d of theta_s M is (1 (x) M_d) + (alpha (x) M_{d-2}); the unit
    hits the first part identically.
    """
    return ModuleMap(module, theta, 0, {
        d: place(n + module.dim_at(d - 2), n, [(0, 0, id_form(n))])
        for d, n in module.graded_dims.items()})


def mult_map(s: int, module: GradedModule, theta: GradedModule) -> ModuleMap:
    """c (x) m |-> cm, the degree-0 multiplication theta_s M -> M.

    In the Frobenius basis 1 (x) m |-> m and alpha_s (x) m |-> alpha_s m.
    """
    return ModuleMap(theta, module, 0, {
        d: place(n, n + module.dim_at(d - 2), [
            (0, 0, id_form(n)), (0, n, module.forms.get((s, d - 2)))])
        for d, n in module.graded_dims.items()})


def theta_of_map(phi: ModuleMap, theta_src: GradedModule,
                 theta_tgt: GradedModule) -> ModuleMap:
    """theta_s phi = id (x) phi, block-diagonal over the Frobenius basis."""
    src, tgt, k = phi.source, phi.target, phi.degree
    blocks = {}
    for d in theta_src.degrees():
        rows_one = tgt.dim_at(d + k)
        blocks[d] = place(rows_one + tgt.dim_at(d + k - 2),
                          src.dim_at(d) + src.dim_at(d - 2), [
                              (0, 0, phi.forms.get(d)),
                              (rows_one, src.dim_at(d), phi.forms.get(d - 2))])
    return ModuleMap(theta_src, theta_tgt, k, blocks)


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
    return GradedModule(rmap.source, module.graded_dims, module.forms)


class ModuleMap:
    """Graded map of modules; degree k sends M_d to N_{d + k}.

    The constructor takes the blocks M_d -> N_{d + k} as integer forms
    (exactla.to_form), None for a zero block, and forms keeps the
    nonzero ones.  The form of a matrix is unique, so the arithmetic
    below runs in ints, and two maps are equal exactly when their forms
    are.
    """

    __slots__ = ('source', 'target', 'degree', 'forms')

    def __init__(self, source: GradedModule, target: GradedModule,
                 degree: int, forms: dict):
        self.source, self.target, self.degree = source, target, degree
        self.forms = {d: f for d, f in forms.items() if f is not None}

    @classmethod
    def identity(cls, module: GradedModule) -> 'ModuleMap':
        return cls(module, module, 0,
                   {d: id_form(n) for d, n in module.graded_dims.items()})

    @classmethod
    def zero(cls, source, target, degree=0) -> 'ModuleMap':
        return cls(source, target, degree, {})

    def compose(self, other: 'ModuleMap') -> 'ModuleMap':
        """self after other."""
        if other.target is not self.source:
            raise IncompatibilityError("composition source/target mismatch")
        return ModuleMap(
            other.source, self.target, self.degree + other.degree,
            {d: form_mul(self.forms.get(d + other.degree), f)
             for d, f in other.forms.items()})

    def __add__(self, other: 'ModuleMap') -> 'ModuleMap':
        if (other.source is not self.source or other.target is not self.target
                or other.degree != self.degree):
            raise IncompatibilityError("cannot add incompatible maps")
        return ModuleMap(
            self.source, self.target, self.degree,
            {d: form_add(self.forms.get(d), other.forms.get(d))
             for d in self.forms.keys() | other.forms.keys()})

    def __sub__(self, other: 'ModuleMap') -> 'ModuleMap':
        return self + other.scale(-1)

    def scale(self, c) -> 'ModuleMap':
        c = _frac(c)
        return ModuleMap(self.source, self.target, self.degree,
                         {d: form_scale(c, f) for d, f in self.forms.items()})

    def __neg__(self) -> 'ModuleMap':
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not self.forms

    def __eq__(self, other):
        if not isinstance(other, ModuleMap):
            return NotImplemented
        return (self.source is other.source and self.target is other.target
                and self.degree == other.degree and self.forms == other.forms)

    def check_intertwines(self) -> bool:
        src, tgt, k = self.source.forms, self.target.forms, self.degree
        for i in range(self.source.algebra.root_system.rank):
            for d in self.source.degrees():
                if form_mul(tgt.get((i, d + k)), self.forms.get(d)) \
                        != form_mul(self.forms.get(d + 2), src.get((i, d))):
                    return False
        return True

    def __repr__(self):
        return (f'ModuleMap(degree={self.degree}, '
                f'blocks at {sorted(self.forms)})')


def hom_space(source: GradedModule, target: GradedModule,
              degree: int = 0) -> list[ModuleMap]:
    """Exact basis of module maps of the given degree.

    The intertwining conditions over all variables form one sparse
    homogeneous system in the block entries; its kernel basis is
    returned as maps.  The unknowns are numbered block by block, in
    increasing source degree: entry (r, c) of block d is
    base[d] + r * cols + c.  The equations are assembled from the
    integer forms of both modules' actions, the equations of one
    (variable, degree) pair multiplied by the denominators of both
    actions, so :func:`sparse_nullspace` receives integer rows; a
    nonzero factor per equation leaves the kernel, and so the basis, as
    it is.  Deterministic: unknowns and equations are enumerated in a
    fixed order.
    """
    if source.algebra is not target.algebra:
        raise IncompatibilityError("hom requires a common algebra")
    base, nvars = {}, 0
    for d in source.degrees():
        base[d] = nvars
        nvars += target.dim_at(d + degree) * source.dim_at(d)
    xs, xt = source.forms, target.forms
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
            left = [[(base[d] + k * cols, v * den_m)
                     for k, v in enumerate(row) if v]
                    for row in xn[1]] if xn else [()] * rows_out
            if xm:
                cols_up = source.dim_at(d + 2)
                right = [[(base[d + 2] + k, -v * den_n)
                          for k, v in enumerate(col) if v]
                         for col in zip(*xm[1])]
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
        blocks = {}
        for d, start in base.items():
            rows, cols = target.dim_at(d + degree), source.dim_at(d)
            blocks[d] = to_form([vec[k:k + cols] for k in
                                 range(start, start + rows * cols, cols)])
        maps.append(ModuleMap(source, target, degree, blocks))
    return maps


def map_from_generator(catalog: 'IndecomposableCatalog', y,
                       target: GradedModule, degree: int,
                       image) -> ModuleMap | None:
    """The degree-`degree` map out of the cyclic D_y with m_0 |-> image,
    a vector of target_{b + degree} (b the bottom of D_y), or None: f_d =
    R_d P_d for R_d = [Y_j f_{d-2}]_j and (S_d, P_d) the record of D_y's
    presentation, None at the first degree where f_d S_d != R_d.  A map
    found is certified by check_intertwines; one that fails it raises,
    since then the record is wrong."""
    source, record = catalog.entry(y), catalog.presentation(y)[2]
    n, bottom = source.algebra.root_system.rank, source.bottom_degree()
    blocks = {bottom: to_form([[v] for v in image])}
    for d in range(bottom + 2, max(source.graded_dims) + 4, 2):
        low = source.dim_at(d - 2)
        images = place(target.dim_at(d + degree), n * low, [
            (0, j * low, form_mul(target.forms.get((j, d - 2 + degree)),
                                  blocks[d - 2])) for j in range(n)])
        stacked, section = record.get(d, (None, None))
        blocks[d] = form_mul(images, section)
        if form_mul(blocks[d], stacked) != images:
            return None
    phi = ModuleMap(source, target, degree, blocks)
    if not phi.check_intertwines():
        raise InternalCheckError(f"a map out of D_{y!r} fails to intertwine")
    return phi


def end_space(module: GradedModule) -> list[ModuleMap]:
    return hom_space(module, module, 0)


def _pair_trace(p: ModuleMap, i: ModuleMap) -> Fraction:
    """Trace of p o i, without forming the composite."""
    total = Fraction(0)
    for d, (den, ib) in i.forms.items():
        pb = p.forms.get(d + i.degree)
        if pb is not None:
            total += Fraction(sum(x * y for row, col in zip(pb[1], zip(*ib))
                                  for x, y in zip(row, col)), pb[0] * den)
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
    degree the kernel vectors of proj (sparse_nullspace) are 1 at one
    free column each, their last nonzero entry, and 0 at the others, so
    rest_proj is read off the free rows of id - incl o proj.  The rest
    acts by rest_proj o x o rest_incl.
    """
    dims, basis, rows = {}, {}, {}
    for d, n in module.graded_dims.items():
        _den, block = proj.forms.get(d) or (1, [])
        kernel = sparse_nullspace(
            [{c: x for c, x in enumerate(row) if x} for row in block], n)
        if not kernel:
            continue
        free = [max(c for c, x in enumerate(vec) if x) for vec in kernel]
        dims[d] = len(free)
        basis[d] = to_form(list(zip(*kernel)))
        den, rest = form_add(id_form(n), form_scale(-1, form_mul(
            incl.forms.get(d - incl.degree), proj.forms.get(d))))
        rows[d] = normal(den, [rest[f] for f in free])
    actions = {(i, d): form_mul(rows[d + 2],
                                form_mul(module.forms.get((i, d)), basis[d]))
               for d in dims if d + 2 in dims
               for i in range(module.algebra.root_system.rank)}
    sub = GradedModule(module.algebra, dims, actions)
    return (sub, ModuleMap(sub, module, 0, basis),
            ModuleMap(module, sub, 0, rows))


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
                                 {d - k: f for d, f in incl.forms.items()}),
                       ModuleMap(module, left, -k, proj.forms)))
    if sum(p.target.total_dim() for _z, _k, _i, p in result) \
            != module.total_dim():
        raise InternalCheckError("decomposition loses dimensions")
    return result


def _inverse(phi: ModuleMap):
    """The blockwise inverse of a degree-0 map between modules of equal
    graded dimensions (form_solve), or None when a block is singular."""
    forms = {d: form_solve(phi.forms.get(d), id_form(n), n)
             for d, n in phi.source.graded_dims.items()}
    if any(f is False for f in forms.values()):
        return None
    return ModuleMap(phi.target, phi.source, 0, forms)


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
    inverse = _inverse(phi)
    if inverse is None:
        raise InternalCheckError(
            "matched summands give a map that is not invertible")
    if not (phi.check_intertwines() and inverse.check_intertwines()):
        raise InternalCheckError(
            "the isomorphism or its blockwise inverse fails to intertwine")
    return phi


class IndecomposableCatalog:
    """The indecomposables D_y, y in the algebra's Weyl group.

    entries is a read-only view of the catalog's copy of the entries
    given, and admit is its one writer.  The catalog also owns what is
    computed from its entries and reused by every complex over it:
    theta_splittings maps (s, y) to the splitting of theta_s D_y into
    entries (theta_summands, which also admits the entries of a
    build), and hom_bases maps (y, z, degree) to a basis of Hom(D_y,
    D_z) in that degree (hom_basis; homotopy's hom complexes and the
    base case of induction read it), and presentations maps y to the
    presentation of D_y (presentation): its generator and socle
    degrees, which let hom_basis answer a space that vanishes for
    degree reasons without solving it, and for a cyclic D_y the record
    that fixes a map out of it by the image of its generator (maps_from
    reads it when that image has one coordinate).
    """

    def __init__(self, algebra: AlgebraRecord, entries: dict):
        self.algebra = algebra
        self._entries = dict(entries)
        self.entries = MappingProxyType(self._entries)
        self.theta_splittings: dict = {}
        self.hom_bases: dict = {}
        self.presentations: dict = {}

    def elements(self) -> list:
        return sorted(self.entries, key=lambda w: (w.length, w.word))

    def entry(self, w) -> GradedModule:
        if w not in self._entries:
            raise ConfigurationError(f"{w!r} has no catalog entry")
        return self._entries[w]

    def presentation(self, y) -> tuple:
        """The presentation of D_y (present), computed once."""
        if y not in self.presentations:
            self.presentations[y] = present(self.entry(y))
        return self.presentations[y]

    def is_cyclic(self, y) -> bool:
        """Whether D_y is generated by a one-dimensional bottom degree."""
        return self.presentation(y)[2] is not None

    def maps_from(self, y, target: GradedModule, degree: int) -> list:
        """A basis of Hom(D_y, target) in degree `degree`.  For a cyclic
        D_y with target_{b + degree} one-dimensional (b the bottom of
        D_y) it is the map m_0 |-> 1, if there is one
        (map_from_generator); every other space is solved by hom_space."""
        source = self.entry(y)
        if self.is_cyclic(y) \
                and target.dim_at(source.bottom_degree() + degree) == 1:
            phi = map_from_generator(self, y, target, degree, [1])
            return [] if phi is None else [phi]
        return hom_space(source, target, degree)

    def hom_basis(self, y, z, degree: int) -> list:
        """A basis of Hom(D_y, D_z) in degree `degree`, found once.

        The space is [] without a solve when no generator degree g of
        D_y has (D_z)_{g+degree} nonzero, or no socle degree s of D_z
        has (D_y)_{s-degree} nonzero: a nonzero map is nonzero on some
        generator, and the top degree of its image, a nonzero
        submodule, is killed by every variable, so it lies in the socle
        of D_z.  Otherwise it is solved by maps_from.
        """
        key = (y, z, degree)
        if key not in self.hom_bases:
            source, target = self.entry(y), self.entry(z)
            if (any(target.dim_at(g + degree)
                    for g in self.presentation(y)[0])
                    and any(source.dim_at(s - degree)
                            for s in self.presentation(z)[1])):
                self.hom_bases[key] = self.maps_from(y, target, degree)
            else:
                self.hom_bases[key] = []
        return self.hom_bases[key]

    def admit(self, w, module: GradedModule | None = None,
              twin=None) -> None:
        """Store module as D_w once End^0 = Q and the relations hold.

        The one writer of entries.  End^0 = Q is proven for a cyclic
        module (present) and solved for (end_space) otherwise, and a
        built entry keeps its presentation.  With twin = (v, sigma), w =
        sigma(v), D_w is twist(D_v, sigma) instead: its graded dimensions
        are checked against the Kazhdan-Lusztig prediction for w, which
        no theta_summands compared, and End^0 = Q is D_v's certificate,
        since a map commutes with every x_j on D_v exactly when it
        commutes with every x_{sigma(j)} on the twist: the same
        matrices, so the same equations and solutions.  Its relations
        are D_v's for the same reason, so check_relations runs on built
        entries only: f acts on the twist as sigma^-1(f) (x_j ->
        x_{sigma^-1(j)}) acts on D_v, and sigma, preserving the Cartan
        matrix and I, maps the invariant ideal of C_I to itself.  A
        twin's presentation is read off its own matrices when first
        asked for.
        """
        if twin is None:
            presented = present(module)
            if presented[2] is None and len(end_space(module)) != 1:
                raise InternalCheckError(
                    f"the module left for {w!r} is decomposable")
            check_relations(module, presented[0])
            self.presentations[w] = presented
        else:
            v, sigma = twin
            module = twist(self.entry(v), sigma)
            expected = expected_graded_dims(w)
            if module.graded_dims != expected:
                raise InternalCheckError(
                    f"the twin D_{w!r} of D_{v!r} has graded character "
                    f"{module.graded_dims}; Kazhdan-Lusztig predicts "
                    f"{expected}")
        self._entries[w] = module

    def __repr__(self):
        return (f'IndecomposableCatalog({self.algebra!r}, '
                f'{len(self._entries)} entries)')


def _descent_pieces(catalog: IndecomposableCatalog, s: int, y,
                    theta: GradedModule) -> list:
    """theta_s D_y = D_y<0> + D_y<2> for s a right descent of y.

    mult (c (x) m |-> cm) projects onto D_y<0>.  Its section sigma, with
    mult o sigma = id, is the one basis map of Hom^0(D_y, theta)
    (maps_from), rescaled.  incl2 = coev - sigma o mult o coev includes
    D_y<2>; the projections are the rows of the blockwise inverse of
    [sigma | incl2].  sigma is a module map by construction; incl2 and
    proj2 must intertwine.
    """
    entry = catalog.entry(y)
    mult = mult_map(s, entry, theta)
    maps = catalog.maps_from(y, theta, 0)
    sigma = maps[0] if len(maps) == 1 else None
    if sigma is not None:
        c = _pair_trace(mult, sigma) / entry.total_dim()
        sigma = sigma.scale(1 / c) if c else None
    if sigma is None or mult.compose(sigma) != ModuleMap.identity(entry):
        raise InternalCheckError(
            f"theta_s{s + 1} D_{y!r} has no section of its multiplication")
    coev = coev_map(s, entry, theta)
    incl2 = coev - sigma.compose(mult.compose(coev))
    proj0, proj2 = {}, {}
    for d, n in theta.graded_dims.items():
        top = entry.dim_at(d)
        inverse = form_solve(place(n, n, [(0, 0, sigma.forms.get(d)),
                                          (0, top, incl2.forms.get(d - 2))]),
                             id_form(n), n)
        if inverse is False:
            raise InternalCheckError(
                f"D_{y!r}<0> + D_{y!r}<2> does not map onto theta_s{s + 1} "
                f"D_{y!r}")
        den, rows = inverse
        proj0[d], proj2[d] = normal(den, rows[:top]), normal(den, rows[top:])
    proj0 = ModuleMap(theta, entry, 0, proj0)
    proj2 = ModuleMap(theta, entry, -2, proj2)
    if not (incl2.check_intertwines() and proj2.check_intertwines()):
        raise InternalCheckError(
            f"the split of theta_s{s + 1} D_{y!r} fails to intertwine")
    return [(y, 0, sigma, proj0), (y, 2, incl2, proj2)]


def match_entry(catalog: IndecomposableCatalog, z, module: GradedModule):
    """(iso, inverse) between D_z and module, or None.

    Checked in this order: unequal graded dimensions give None; equal
    action matrices give the identity maps; otherwise Hom^0(D_z,
    module) (maps_from) must be one map with a blockwise inverse: if
    module = D_z, that space is End^0(D_z) = Q.
    """
    if module.algebra is not catalog.algebra:
        raise IncompatibilityError("matching an entry needs a common algebra")
    entry = catalog.entry(z)
    if module.graded_dims != entry.graded_dims:
        return None
    if module.forms == entry.forms:
        forms = {d: id_form(n) for d, n in entry.graded_dims.items()}
        return (ModuleMap(entry, module, 0, forms),
                ModuleMap(module, entry, 0, forms))
    maps = catalog.maps_from(z, module, 0)
    inverse = _inverse(maps[0]) if len(maps) == 1 else None
    return None if inverse is None else (maps[0], inverse)


def theta_summands(catalog: IndecomposableCatalog, s: int, y):
    """Split theta_s D_y into catalog summands, kept in theta_splittings.

    Returns (theta_module, pieces) where pieces is a list of
    (z, shift, incl, proj): incl is a degree-(shift) map D_z ->
    theta_module and proj its one-sided inverse of degree -shift, in the
    order b_y b_s predicts.  For a descent s of y, b_y b_s must read
    D_y<0> + D_y<2>, split by explicit maps (_descent_pieces).  For an
    ascent the other predicted summands are peeled as certified split
    pairs (decompose), and what is left must have the Kazhdan-Lusztig
    graded dimensions of D_ys.  Without an entry for ys (build_catalog)
    it is admitted as D_ys; otherwise match_entry matches the two, by
    the identity when their action matrices agree, so a reloaded
    catalog splits exactly as the build did.
    """
    cache = catalog.theta_splittings
    key = (s, y)
    if key in cache:
        return cache[key]
    theta = induce_frobenius(s, catalog.entry(y))
    predicted = wall_crossing_summands(y, s)
    if y.has_right_descent(s):
        pieces = _descent_pieces(catalog, s, y, theta)
    else:
        ys = y * y.root_system.simple_reflection(s)
        pieces = decompose(theta, catalog.entries,
                           [t for t in predicted if t != (ys, 0)])
        expected = expected_graded_dims(ys)
        if not pieces or pieces[-1][:2] != (None, 0) \
                or pieces[-1][2].source.graded_dims != expected:
            raise InternalCheckError(
                f"theta_s{s + 1} D_{y!r} leaves no D_{ys!r}<0> of graded "
                f"character {expected} beside the rest of b_y b_s")
        _none, _k, incl, proj = pieces.pop()
        if ys not in catalog.entries:
            catalog.admit(ys, incl.source)
        else:
            pair = match_entry(catalog, ys, incl.source)
            if pair is None:
                raise InternalCheckError(
                    f"predicted summand D_{ys!r}<0> does not split off "
                    f"theta_s{s + 1} D_{y!r}")
            incl, proj = incl.compose(pair[0]), pair[1].compose(proj)
        pieces.insert(predicted.index((ys, 0)), (ys, 0, incl, proj))
    cache[key] = (theta, pieces)
    return cache[key]


def build_catalog(algebra: AlgebraRecord) -> IndecomposableCatalog:
    """All D_y by increasing (length, word), with Kazhdan-Lusztig
    validation.

    D_e is the trivial module.  A member w = sigma(v), for v earlier and
    sigma a diagram automorphism of the root system with sigma(I) = I,
    is admitted as twist(D_v, sigma) (admit).  Every other w is admitted
    by theta_summands(catalog, s, ws) as what is left of theta_s D_{ws}
    in bottom degree 0, s the right descent of w whose b_{ws} b_s
    predicts the fewest summands (wall_crossing_summands), the first
    among equals: each other summand is peeled through solved hom
    spaces.  Hard checks on every entry: its graded dimensions equal the
    Kazhdan-Lusztig prediction, its degree-0 endomorphisms are the
    scalars (proven for a cyclic entry, solved for the others, carried
    over to a twin), and the invariant ideal kills it (checked, or
    carried over to a twin).
    Every call builds afresh; induction keeps and caches the result.
    """
    rs = algebra.root_system
    subset = set(algebra.subset)
    members = [w for w in rs.elements if set(w.word) <= subset]
    members.sort(key=lambda w: (w.length, w.word))
    # (sigma, sigma^-1) for each automorphism that fixes I
    automorphisms = [(sigma, tuple(map(sigma.index, range(rs.rank))))
                     for sigma in rs.diagram_automorphisms
                     if {sigma[i] for i in subset} == subset]
    catalog = IndecomposableCatalog(algebra, {})
    for w in members:
        twin = next(((v, sigma) for sigma, inverse in automorphisms
                     if (v := rs.apply_automorphism(inverse, w))
                     in catalog.entries), None)
        if w.length == 0:
            catalog.admit(w, trivial_module(algebra))
        elif twin is not None:
            catalog.admit(w, twin=twin)
        else:
            i = min(w.right_descents(), key=lambda i: len(
                wall_crossing_summands(w * rs.simple_reflection(i), i)))
            theta_summands(catalog, i, w * rs.simple_reflection(i))
    return catalog
