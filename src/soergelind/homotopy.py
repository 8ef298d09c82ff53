"""Bounded complexes of shifted catalog modules and the Rouquier step.

A complex is stored formally: each cohomological term is a list of
(y, k) pairs meaning D_y<k>, and each differential is a sparse matrix
of components, where the component from D_a<k> to D_b<l> is kept as a
degree-(k - l) map of the unshifted catalog entries.  This makes
Gaussian elimination combinatorial; raw modules are assembled from the
catalog only when a computation genuinely needs them.

The two-term complex

    X<2>  --(1/2)(1 (x) alpha_s . m  +  alpha_s (x) m)-->  theta_s X

(sources in relative degree -1, the Frobenius induction theta_s in
relative degree 0) is the tensor step; iterating it along an
admissible chain is how induced complexes are produced.  The vertical
map is the coevaluation of the Frobenius self-adjunction -- the unit
m |-> 1 (x) m has internal degree 0 and cannot connect the shifted
rows, so the degree-2 coevaluation is the faithful reading.  Signs:
the inner differential is negated on the shifted row, the vertical
map keeps the calibrated sign; d^2 = 0 is asserted after every
assembly.

K_0 classes live in the Hecke algebra: a summand D_y<k> in
cohomological degree i contributes (-1)^i v^(k + len(y)) b_y, the
exponent measuring the shift against the self-dual centering of D_y
(see k0_class).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)
from .exactla import invert, sparse_nullspace, rank, zeros
from .hecke import HeckeElement, kl_basis, wall_crossing_summands
from .laurent import LaurentPoly
from .smod import (GradedModule, IndecomposableCatalog, ModuleMap, decompose,
                   direct_sum, hom_space, induce_frobenius)

__all__ = [
    'FormalComplex', 'one_term_complex', 'complex_from_module',
    'direct_sum_complexes', 'theta_summands', 'coev_map', 'unit_map',
    'theta_of_map', 'tensor_rouquier', 'theta_complex', 'gaussian_eliminate',
    'is_minimal', 'k0_class', 'hom_complex_basis', 'hom_complex_vanishing',
    'complexes_isomorphic',
]


class FormalComplex:
    """Cochain complex of shifted catalog entries.

    terms[i] is a tuple of (y, shift) pairs; diffs[i] maps (row, col)
    to the component ModuleMap from terms[i][col] to terms[i+1][row],
    stored between unshifted entries with degree shift_col - shift_row.
    """

    __slots__ = ('catalog', 'terms', 'diffs')

    def __init__(self, catalog: IndecomposableCatalog, terms: dict,
                 diffs: dict, check: bool = True):
        self.catalog = catalog
        self.terms = {i: tuple(t) for i, t in sorted(terms.items()) if t}
        self.diffs = {}
        for i, comps in diffs.items():
            keep = {}
            for (b, a), phi in comps.items():
                if phi.is_zero():
                    continue
                keep[(b, a)] = phi
            if keep:
                self.diffs[i] = keep
        if check:
            self._validate()

    def _validate(self):
        for i, comps in self.diffs.items():
            src = self.terms.get(i, ())
            tgt = self.terms.get(i + 1, ())
            for (b, a), phi in comps.items():
                ya, ka = src[a]
                yb, kb = tgt[b]
                if phi.source is not self.catalog.entry(ya) \
                        or phi.target is not self.catalog.entry(yb):
                    raise IncompatibilityError(
                        "differential component references a module "
                        "outside the catalog")
                if phi.degree != ka - kb:
                    raise IncompatibilityError(
                        f"component degree {phi.degree} does not match "
                        f"shifts {ka} -> {kb}")
        self.verify_d_squared()

    def verify_d_squared(self):
        for i in self.diffs:
            nxt = self.diffs.get(i + 1)
            if not nxt:
                continue
            tgt2 = self.terms.get(i + 2, ())
            src = self.terms.get(i, ())
            totals: dict[tuple, ModuleMap] = {}
            for (c, m2), psi in nxt.items():
                for (m1, a), phi in self.diffs[i].items():
                    if m1 != m2:
                        continue
                    comp = psi.compose(phi)
                    if (c, a) in totals:
                        totals[(c, a)] = totals[(c, a)] + comp
                    else:
                        totals[(c, a)] = comp
            for (c, a), comp in totals.items():
                if not comp.is_zero():
                    raise InternalCheckError(
                        f"d o d != 0 from position {i} summand "
                        f"{src[a]} to {tgt2[c]}")

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[int]:
        return sorted(self.terms)

    def summands(self, i: int) -> tuple:
        return self.terms.get(i, ())

    def component(self, i: int, b: int, a: int) -> ModuleMap:
        comps = self.diffs.get(i, {})
        phi = comps.get((b, a))
        if phi is not None:
            return phi
        ya, ka = self.terms[i][a]
        yb, kb = self.terms[i + 1][b]
        return ModuleMap.zero(self.catalog.entry(ya),
                              self.catalog.entry(yb), ka - kb)

    def term_module(self, i: int):
        """Assemble the term as one module: (module, inclusions, projections)."""
        parts = [self.catalog.entry(y).shift(k)
                 for (y, k) in self.terms.get(i, ())]
        if not parts:
            return None
        return direct_sum(parts)

    def to_json(self) -> dict:
        terms = {
            str(i): [{'word': [j + 1 for j in y.word], 'shift': k}
                     for (y, k) in summands]
            for i, summands in self.terms.items()}
        diffs = {}
        for i, comps in self.diffs.items():
            entries = []
            for (b, a), phi in sorted(comps.items()):
                entries.append({
                    'from': a, 'to': b,
                    'blocks': {str(d): [[str(x) for x in row] for row in m]
                               for d, m in sorted(phi.blocks.items())}})
            diffs[str(i)] = entries
        return {'terms': terms, 'differentials': diffs}

    def __repr__(self):
        shape = {i: len(t) for i, t in self.terms.items()}
        return f'FormalComplex(summands per degree {shape})'


def one_term_complex(catalog: IndecomposableCatalog, summands,
                     degree: int = 0) -> FormalComplex:
    return FormalComplex(catalog, {degree: tuple(summands)}, {})


def complex_from_module(catalog: IndecomposableCatalog,
                        module: GradedModule,
                        degree: int = 0) -> FormalComplex:
    """Decompose a module into catalog summands placed in one degree."""
    pieces = decompose(module, catalog.entries)
    if pieces and pieces[-1][0] is None:
        left = pieces[-1][2].source
        raise InternalCheckError(
            f"a summand with graded character {left.graded_dims} (shifted "
            f"by {pieces[-1][1]}) matches no catalog entry")
    summands = sorted(((z, k) for z, k, _i, _p in pieces),
                      key=lambda t: (t[1], t[0].length, t[0].word))
    return one_term_complex(catalog, summands, degree)


def direct_sum_complexes(x: FormalComplex, y: FormalComplex) -> FormalComplex:
    """Degreewise direct sum with block-diagonal differentials."""
    if x.catalog is not y.catalog:
        raise ConfigurationError(
            "direct sum needs complexes over the same catalog")
    terms = {}
    for i in set(x.terms) | set(y.terms):
        terms[i] = tuple(x.terms.get(i, ())) + tuple(y.terms.get(i, ()))
    diffs: dict = {}
    for i, blocks in x.diffs.items():
        diffs.setdefault(i, {}).update(blocks)
    for i, blocks in y.diffs.items():
        row_off = len(x.terms.get(i + 1, ()))
        col_off = len(x.terms.get(i, ()))
        for (b, a), phi in blocks.items():
            diffs.setdefault(i, {})[(b + row_off, a + col_off)] = phi
    return FormalComplex(x.catalog, terms, diffs)


# ---------------------------------------------------------------------------
# theta_s on catalog summands, with cached splittings


def theta_summands(catalog: IndecomposableCatalog, s: int, y):
    """Split theta_s D_y into catalog summands, cached.

    Returns (theta_module, pieces) where pieces is a list of
    (z, shift, incl, proj): incl is a degree-(shift) map D_z ->
    theta_module and proj its one-sided inverse of degree -shift.  The
    summands are the ones b_y b_s predicts, in its order; each is
    peeled as a certified split pair, and nothing may be left over.
    The result is kept in the catalog's theta_splittings.
    """
    cache = catalog.theta_splittings
    key = (s, y)
    if key in cache:
        return cache[key]
    theta = induce_frobenius(s, catalog.entry(y))
    pieces = decompose(theta, catalog.entries, wall_crossing_summands(y, s))
    if pieces and pieces[-1][0] is None:
        raise InternalCheckError(
            f"theta_s{s + 1} D_{y!r} has a summand with graded character "
            f"{pieces[-1][2].source.graded_dims} beyond b_y b_s")
    cache[key] = (theta, pieces)
    return cache[key]


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


def _vertical_component(catalog, s, y, kind):
    """The chosen adjunction map D_y -> theta_s D_y for the tensor step.

    The map must actually be a module map; the unit m |-> 1 (x) m is
    only linear over the invariants, so that candidate fails here --
    which is the honest reason the degree-0 calibration point dies.
    """
    theta, _pieces = theta_summands(catalog, s, y)
    entry = catalog.entry(y)
    if kind == 'coev':
        vert = coev_map(s, entry, theta)
    elif kind == 'unit':
        vert = unit_map(s, entry, theta)
    elif kind == 'zero':
        return ModuleMap.zero(entry, theta, -2)
    else:
        raise ConfigurationError(f"unknown vertical map kind {kind!r}")
    if not vert.check_intertwines():
        raise IncompatibilityError(
            f"the {kind} map D_y -> theta D_y is not a module map")
    return vert


def tensor_rouquier(s: int, cpx: FormalComplex, shift: int = 2,
                    sign: int = 1, kind: str = 'coev') -> FormalComplex:
    """One Rouquier tensor step: totalize  X<shift> -> theta_s X.

    The X row sits in relative degree -1 with its inner differential
    negated; the theta_s row keeps the inner differential (transported
    through the cached splittings); the vertical map is sign * (the
    adjunction map of the given kind).  Defaults are the calibrated
    convention.  d^2 = 0 is verified by the constructor.
    """
    catalog = cpx.catalog
    new_terms: dict[int, list] = {}
    # index maps: at total degree i, first the X^{i+1}<shift> summands,
    # then the theta-splittings of X^i summands in order.
    theta_offsets: dict[int, list] = {}
    for i in set(list(cpx.terms)) | {j - 1 for j in cpx.terms}:
        row = [(y, k + shift) for (y, k) in cpx.summands(i + 1)]
        offs = []
        for (y, k) in cpx.summands(i):
            offs.append(len(row))
            _theta, pieces = theta_summands(catalog, s, y)
            row.extend((z, m + k) for (z, m, _, _) in pieces)
        if row:
            new_terms[i] = row
            theta_offsets[i] = offs
    new_diffs: dict[int, dict] = {i: {} for i in new_terms}
    for i, comps in new_diffs.items():
        # negated inner differential on the shifted row
        for (b, a), phi in cpx.diffs.get(i + 1, {}).items():
            _add_component(comps, b, a, -phi)
        # vertical adjunction maps: summand a of X^{i+1} at level i maps
        # into the theta block of the same summand at level i + 1
        for a, (y, k) in enumerate(cpx.summands(i + 1)):
            vert = _vertical_component(catalog, s, y, kind)
            _theta, pieces = theta_summands(catalog, s, y)
            base = theta_offsets[i + 1][a]
            for j, (z, m, _incl, proj) in enumerate(pieces):
                comp = proj.compose(vert).scale(Fraction(sign))
                _add_component(comps, base + j, a, comp)
        # transported inner differential on the theta row
        if cpx.diffs.get(i):
            _add_theta_row(comps, s, cpx, i, theta_offsets[i],
                           theta_offsets[i + 1])
    return FormalComplex(catalog, new_terms, new_diffs)


def theta_complex(s: int, cpx: FormalComplex) -> FormalComplex:
    """Term-wise Frobenius induction of a complex (no totalization)."""
    catalog = cpx.catalog
    new_terms: dict[int, list] = {}
    offsets: dict[int, list] = {}
    for i, summands in cpx.terms.items():
        row = []
        offs = []
        for (y, k) in summands:
            offs.append(len(row))
            _theta, pieces = theta_summands(catalog, s, y)
            row.extend((z, m + k) for (z, m, _, _) in pieces)
        new_terms[i] = row
        offsets[i] = offs
    new_diffs: dict[int, dict] = {i: {} for i in cpx.diffs}
    for i, comps in new_diffs.items():
        _add_theta_row(comps, s, cpx, i, offsets[i], offsets[i + 1])
    return FormalComplex(catalog, new_terms, new_diffs)


def _add_component(comps: dict, b: int, a: int, phi: ModuleMap) -> None:
    """Accumulate phi into the differential component (b, a)."""
    if phi.is_zero():
        return
    comps[(b, a)] = comps[(b, a)] + phi if (b, a) in comps else phi


def _add_theta_row(comps: dict, s: int, cpx: FormalComplex, i: int,
                   src_offsets: list, tgt_offsets: list) -> None:
    """Accumulate theta_s d^i of cpx, split into catalog summands.

    Each component phi: D_ya -> D_yb becomes theta_s phi cut by the
    cached splittings; the summands of theta_s D_ya start at column
    src_offsets[a], those of theta_s D_yb at row tgt_offsets[b].
    """
    catalog = cpx.catalog
    for (b, a), phi in cpx.diffs[i].items():
        ya, _ka = cpx.summands(i)[a]
        yb, _kb = cpx.summands(i + 1)[b]
        theta_a, pieces_a = theta_summands(catalog, s, ya)
        theta_b, pieces_b = theta_summands(catalog, s, yb)
        big = theta_of_map(s, phi, theta_a, theta_b)
        for ja, (_za, _ma, incl_a, _pa) in enumerate(pieces_a):
            half = big.compose(incl_a)
            for jb, (_zb, _mb, _ib, proj_b) in enumerate(pieces_b):
                _add_component(comps, tgt_offsets[b] + jb,
                               src_offsets[a] + ja, proj_b.compose(half))


# ---------------------------------------------------------------------------
# minimization


def _find_iso_component(cpx: FormalComplex):
    for i in sorted(cpx.diffs):
        src = cpx.summands(i)
        tgt = cpx.summands(i + 1)
        for (b, a), phi in sorted(cpx.diffs[i].items()):
            if src[a] != tgt[b]:
                continue
            try:
                inv_blocks = {d + phi.degree: invert(phi.block(d))
                              for d in phi.source.degrees()}
            except ValueError:
                continue
            inv = ModuleMap(phi.target, phi.source, -phi.degree, inv_blocks)
            return i, b, a, phi, inv
    return None


def gaussian_eliminate(cpx: FormalComplex) -> FormalComplex:
    """Strip isomorphism components until the complex is minimal.

    Standard elimination: if the differential at position i contains an
    isomorphism phi between summand a and summand b, both are removed
    and the remaining components pick up the correction
    -gamma phi^{-1} beta.  The K_0 class is preserved; this is asserted
    on every call.  Elimination preserves d^2 = 0, so the intermediate
    complexes are built unchecked and only the result is validated.
    """
    before = k0_class(cpx)
    current = cpx
    while True:
        found = _find_iso_component(current)
        if found is None:
            break
        i, b, a, phi, phi_inv = found
        src = current.summands(i)
        tgt = current.summands(i + 1)
        keep_src = [j for j in range(len(src)) if j != a]
        keep_tgt = [j for j in range(len(tgt)) if j != b]
        src_index = {old: new for new, old in enumerate(keep_src)}
        tgt_index = {old: new for new, old in enumerate(keep_tgt)}
        terms = {j: list(t) for j, t in current.terms.items()}
        terms[i] = [src[j] for j in keep_src]
        terms[i + 1] = [tgt[j] for j in keep_tgt]
        diffs = {}
        for j, comps in current.diffs.items():
            if j == i:
                out = {(bb, aa): psi for (bb, aa), psi in comps.items()
                       if aa != a and bb != b}
                # correction -gamma phi^{-1} beta for every row with a
                # component gamma out of a and every column with a
                # component beta into b; it may create new components
                betas = [(aa, beta) for (bb, aa), beta in comps.items()
                         if bb == b and aa != a]
                for (bb, aa), gamma in comps.items():
                    if aa != a or bb == b or not betas:
                        continue
                    gamma_phi_inv = gamma.compose(phi_inv)
                    for col, beta in betas:
                        corr = gamma_phi_inv.compose(beta)
                        key = (bb, col)
                        out[key] = out[key] - corr if key in out else -corr
                diffs[j] = {(tgt_index[bb], src_index[aa]): psi
                            for (bb, aa), psi in out.items()}
            elif j == i - 1:
                out = {}
                for (bb, aa), psi in comps.items():
                    if bb == a:
                        continue
                    out[(src_index[bb], aa)] = psi
                if out:
                    diffs[j] = out
            elif j == i + 1:
                out = {}
                for (bb, aa), psi in comps.items():
                    if aa == b:
                        continue
                    out[(bb, tgt_index[aa])] = psi
                if out:
                    diffs[j] = out
            else:
                diffs[j] = dict(comps)
        current = FormalComplex(current.catalog, terms, diffs, check=False)
    if current is not cpx:
        current._validate()
    after = k0_class(current)
    if before != after:
        raise InternalCheckError(
            "gaussian elimination changed the K_0 class")
    return current


def is_minimal(cpx: FormalComplex) -> bool:
    return _find_iso_component(cpx) is None


def k0_class(cpx: FormalComplex) -> HeckeElement:
    """Sum of (-1)^i v^(k + len(y)) b_y over all summands D_y<k> in degree i.

    The exponent k + len(y) measures the shift of D_y<k> against the
    self-dual placement of D_y (centered in degree len(y)), with the
    Laurent variable the one-step grading shift.  Centering is what
    makes the class multiplicative: a wall-crossing of the whole
    complex multiplies the class by v.b_s on the nose, because the
    summands of a crossed indecomposable sit symmetrically around the
    new center and mirror the Kazhdan-Lusztig coefficients exactly.
    Measuring shifts from the bottom degree instead would break this at
    the first singular Schubert class, where an off-center summand pair
    survives minimization.
    """
    rs = cpx.catalog.algebra.root_system
    total = HeckeElement(rs, {})
    for i, summands in cpx.terms.items():
        for (y, k) in summands:
            if k % 2:
                raise InternalCheckError("odd internal shift in a complex")
            coeff = LaurentPoly({k + y.length: Fraction((-1) ** (i % 2))})
            total = total + kl_basis(y).scale(coeff)
    return total


# ---------------------------------------------------------------------------
# hom complexes, in hom-basis coordinates


def _hom_basis(catalog, y_src, y_tgt, degree):
    cache = catalog.hom_bases
    key = (y_src, y_tgt, degree)
    if key not in cache:
        cache[key] = hom_space(catalog.entry(y_src), catalog.entry(y_tgt),
                               degree)
    return cache[key]


def _flatten(phi: ModuleMap, degrees) -> list:
    out = []
    for d in degrees:
        for row in phi.block(d):
            out.extend(row)
    return out


def _coords_in_basis(phi: ModuleMap, basis: list, degrees) -> list:
    """Exact coordinates of phi in a hom-space basis."""
    if not basis:
        if phi.is_zero():
            return []
        raise InternalCheckError("map outside the empty hom space")
    cols = [_flatten(b, degrees) for b in basis]
    target = _flatten(phi, degrees)
    n = len(basis)
    # solve the overdetermined system by Gaussian elimination
    rows = [[cols[j][r] for j in range(n)] + [target[r]]
            for r in range(len(target))]
    piv = []
    rix = 0
    for c in range(n):
        p = None
        for r in range(rix, len(rows)):
            if rows[r][c]:
                p = r
                break
        if p is None:
            piv.append(None)
            continue
        rows[rix], rows[p] = rows[p], rows[rix]
        lead = rows[rix][c]
        rows[rix] = [x / lead for x in rows[rix]]
        for r in range(len(rows)):
            if r != rix and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rix])]
        piv.append(rix)
        rix += 1
    coords = [Fraction(0)] * n
    for c in range(n):
        if piv[c] is not None:
            coords[c] = rows[piv[c]][n]
    # consistency: rows past the pivots must have zero RHS
    for r in range(rix, len(rows)):
        if rows[r][n]:
            raise InternalCheckError("map outside its hom space span")
    return coords


class _HomGrid:
    """Indexing of summand-to-summand hom bases between two complexes.

    relative_degree h means maps X^i -> Y^{i+h}; unknowns are the
    hom-basis coefficients of every component.
    """

    def __init__(self, x: FormalComplex, y: FormalComplex,
                 relative_degree: int):
        self.x = x
        self.y = y
        self.h = relative_degree
        self.catalog = x.catalog
        self.slots = []        # (i, a, b, basis, degrees)
        self.offset = {}
        n = 0
        for i in x.terms:
            for a, (ya, ka) in enumerate(x.summands(i)):
                for b, (yb, kb) in enumerate(y.summands(i + self.h)):
                    basis = _hom_basis(self.catalog, ya, yb, ka - kb)
                    if not basis:
                        continue
                    degrees = self.catalog.entry(ya).degrees()
                    self.offset[(i, a, b)] = n
                    self.slots.append((i, a, b, basis, degrees))
                    n += len(basis)
        self.size = n

    def assemble(self, vec, i):
        """The full map X^i -> Y^{i+h} encoded by coefficient vector vec."""
        xs = self.x.summands(i)
        ys = self.y.summands(i + self.h)
        comps = {}
        for (j, a, b, basis, _degs) in self.slots:
            if j != i:
                continue
            base = self.offset[(i, a, b)]
            total = None
            for t, bmap in enumerate(basis):
                c = vec[base + t]
                if c:
                    piece = bmap.scale(c)
                    total = piece if total is None else total + piece
            if total is not None:
                comps[(b, a)] = total
        return comps, xs, ys


def _chain_map_rows(grid: _HomGrid):
    """Sparse equations saying  d_Y f = (-1)^h f d_X  componentwise."""
    x, y, h = grid.x, grid.y, grid.h
    catalog = grid.catalog
    rows = []
    sign = Fraction((-1) ** (h % 2))
    for i in x.terms:
        for a, (ya, ka) in enumerate(x.summands(i)):
            for b2, (yb2, kb2) in enumerate(y.summands(i + h + 1)):
                # contributions: d_Y o f  via Y-summand b at level i+h,
                # and f o d_X via X-summand a2 at level i+1
                contributions = []
                for b, (yb, kb) in enumerate(y.summands(i + h)):
                    dcomp = y.diffs.get(i + h, {}).get((b2, b))
                    if dcomp is None:
                        continue
                    base = grid.offset.get((i, a, b))
                    if base is None:
                        continue
                    basis = _hom_basis(catalog, ya, yb, ka - kb)
                    for t, bmap in enumerate(basis):
                        contributions.append(
                            (base + t, dcomp.compose(bmap)))
                for a2, (ya2, ka2) in enumerate(x.summands(i + 1)):
                    dcomp = x.diffs.get(i, {}).get((a2, a))
                    if dcomp is None:
                        continue
                    base = grid.offset.get((i + 1, a2, b2))
                    if base is None:
                        continue
                    basis = _hom_basis(catalog, ya2, yb2, ka2 - kb2)
                    for t, bmap in enumerate(basis):
                        contributions.append(
                            (base + t,
                             bmap.compose(dcomp).scale(-sign)))
                if not contributions:
                    continue
                tgt_basis = _hom_basis(catalog, ya, yb2, ka - kb2)
                degrees = catalog.entry(ya).degrees()
                # each contribution is a map D_{ya} -> D_{yb2}; expand in
                # the slot basis and emit one sparse row per coordinate
                slot_rows: dict[int, dict] = {}
                for col, psi in contributions:
                    coords = _coords_in_basis(psi, tgt_basis, degrees)
                    for t, cval in enumerate(coords):
                        if cval:
                            slot_rows.setdefault(t, {})
                            slot_rows[t][col] = \
                                slot_rows[t].get(col, Fraction(0)) + cval
                for t, row in slot_rows.items():
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        rows.append(row)
    return rows


def hom_complex_basis(x: FormalComplex, y: FormalComplex,
                      relative_degree: int = 0):
    """(grid, chain-map coefficient vectors) for maps X -> Y[h]."""
    grid = _HomGrid(x, y, relative_degree)
    rows = _chain_map_rows(grid)
    kernel = sparse_nullspace(rows, grid.size)
    return grid, kernel


def hom_complex_vanishing(x: FormalComplex, y: FormalComplex) -> bool:
    """True iff every degree-0 chain map X -> Y is null-homotopic."""
    if x.is_zero() or y.is_zero():
        return True
    grid, chain_maps = hom_complex_basis(x, y, 0)
    if not chain_maps:
        return True
    hgrid = _HomGrid(x, y, -1)
    catalog = x.catalog
    # boundary of a homotopy: f = d_Y h + h d_X, expressed in the
    # degree-0 grid's coordinates
    columns = []
    for e in range(hgrid.size):
        vec = [Fraction(0)] * hgrid.size
        vec[e] = Fraction(1)
        coeffs = [Fraction(0)] * grid.size
        for i in x.terms:
            comps, xs, ys = hgrid.assemble(vec, i)
            for (b, a), hmap in comps.items():
                ya, ka = xs[a]
                # d_Y o h piece
                for b2 in range(len(y.summands(i))):
                    dcomp = y.diffs.get(i - 1, {}).get((b2, b))
                    if dcomp is None:
                        continue
                    psi = dcomp.compose(hmap)
                    base = grid.offset.get((i, a, b2))
                    if base is None:
                        if not psi.is_zero():
                            raise InternalCheckError(
                                "homotopy boundary leaves the hom grid")
                        continue
                    yb2, kb2 = y.summands(i)[b2]
                    basis = _hom_basis(catalog, ya, yb2, ka - kb2)
                    degrees = catalog.entry(ya).degrees()
                    for t, cval in enumerate(
                            _coords_in_basis(psi, basis, degrees)):
                        coeffs[base + t] += cval
        for i in x.terms:
            # h o d_X piece: h at level i+1 composed with d_X^i
            comps, xs2, ys2 = hgrid.assemble(vec, i + 1) \
                if (i + 1) in x.terms else ({}, (), ())
            if not comps:
                continue
            for (b, a2), hmap in comps.items():
                for a, (ya, ka) in enumerate(x.summands(i)):
                    dcomp = x.diffs.get(i, {}).get((a2, a))
                    if dcomp is None:
                        continue
                    psi = hmap.compose(dcomp)
                    base = grid.offset.get((i, a, b))
                    if base is None:
                        if not psi.is_zero():
                            raise InternalCheckError(
                                "homotopy boundary leaves the hom grid")
                        continue
                    yb, kb = y.summands(i)[b]
                    basis = _hom_basis(catalog, ya, yb, ka - kb)
                    degrees = catalog.entry(ya).degrees()
                    for t, cval in enumerate(
                            _coords_in_basis(psi, basis, degrees)):
                        coeffs[base + t] += cval
        columns.append(coeffs)
    if not columns:
        return False
    boundary = [[col[r] for col in columns] for r in range(grid.size)]
    return rank(boundary) == len(chain_maps)


def complexes_isomorphic(x: FormalComplex, y: FormalComplex,
                         seed: int = 0) -> bool:
    """Isomorphism test for minimal complexes over the same catalog.

    Necessary condition first: identical multisets of summands per
    degree.  Then a chain map with invertible assembled blocks is
    searched among basis elements and seeded random combinations; for
    minimal complexes this decides homotopy equivalence.
    """
    if x.catalog is not y.catalog:
        raise IncompatibilityError("complexes over different catalogs")
    for i in set(x.terms) | set(y.terms):
        if sorted(((w.word, k) for (w, k) in x.summands(i))) != \
                sorted(((w.word, k) for (w, k) in y.summands(i))):
            return False
    if x.is_zero():
        return True
    grid, chain_maps = hom_complex_basis(x, y, 0)
    if not chain_maps:
        return False

    def invertible(vec) -> bool:
        for i in x.terms:
            comps, xs, ys = grid.assemble(vec, i)
            parts_x = [x.catalog.entry(w).shift(k) for (w, k) in xs]
            parts_y = [y.catalog.entry(w).shift(k) for (w, k) in ys]
            dims_x: dict[int, int] = {}
            for p in parts_x:
                for d, nd in p.graded_dims.items():
                    dims_x[d] = dims_x.get(d, 0) + nd
            for d, total in dims_x.items():
                big = zeros(total, total)
                roff = 0
                for b, py in enumerate(parts_y):
                    coff = 0
                    for a, px in enumerate(parts_x):
                        comp = comps.get((b, a))
                        if comp is not None:
                            wa, ka = xs[a]
                            block = comp.block(d - ka)
                            for r in range(len(block)):
                                for c in range(len(block[0])):
                                    big[roff + r][coff + c] = block[r][c]
                        coff += px.dim_at(d)
                    roff += py.dim_at(d)
                try:
                    invert(big)
                except ValueError:
                    return False
        return True

    for vec in chain_maps:
        if invertible(vec):
            return True
    rng = random.Random(0xc0de ^ seed)
    for _ in range(16):
        combo = [Fraction(0)] * grid.size
        for vec in chain_maps:
            c = Fraction(rng.randint(-3, 3))
            if c:
                combo = [u + c * v for u, v in zip(combo, vec)]
        if invertible(combo):
            return True
    return False
