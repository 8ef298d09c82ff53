"""Bounded complexes of shifted catalog modules and the Rouquier step.

A complex is stored formally: each cohomological term is a list of
(y, k) pairs meaning D_y<k>, and each differential is a sparse matrix
of components, where the component from D_a<k> to D_b<l> is kept as a
degree-(k - l) map of the unshifted catalog entries.  This makes
Gaussian elimination combinatorial: it runs in one pass over the
summands' original indices and builds one complex at the end.  Raw
modules are assembled from the catalog only when a computation
genuinely needs them.

The two-term complex

    X<2>  --(1/2)(1 (x) alpha_s . m  +  alpha_s (x) m)-->  theta_s X

(sources in relative degree -1, the Frobenius induction theta_s in
relative degree 0) is the tensor step; iterating it along an
admissible chain is how induced complexes are produced.  The vertical
map is the coevaluation of the Frobenius self-adjunction -- the unit
m |-> 1 (x) m has internal degree 0 and cannot connect the shifted
rows, so the degree-2 coevaluation is the faithful reading; the
shift of the tensor step selects the map, and calibration fixes the
shift at 2.  Signs: the inner differential is negated on the shifted
row, the vertical map keeps the calibrated sign; every complex is
validated, d^2 = 0 included, when it is constructed.

K_0 classes live in the Hecke algebra: a summand D_y<k> in
cohomological degree i contributes (-1)^i v^(k + len(y)) b_y, the
exponent measuring the shift against the self-dual centering of D_y
(see k0_class).

Maps between two complexes X and Y form the hom complex Hom^*(X, Y):
Hom^h collects the maps X^i -> Y^{i+h}, written summand by summand in
the catalog's hom bases, and its differential is
D_h f = d_Y f - (-1)^h f d_X.  The chain maps are ker D_0 and the
null-homotopic maps im D_{-1}; every chain map is null-homotopic iff
the two have the same dimension (hom_complex_vanishing).  One function
builds D_h for both.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)
from .exactla import invert, solve_matrix, sparse_nullspace
from .hecke import HeckeElement, kl_basis
from .laurent import LaurentPoly
from .smod import (GradedModule, IndecomposableCatalog, ModuleMap, coev_map,
                   decompose, direct_sum, theta_of_map, theta_summands,
                   unit_map)

__all__ = [
    'FormalComplex', 'one_term_complex', 'complex_from_module',
    'direct_sum_complexes', 'tensor_rouquier', 'theta_complex',
    'gaussian_eliminate', 'is_minimal', 'k0_class', 'hom_complex_basis',
    'hom_complex_vanishing', 'complexes_isomorphic',
]


class FormalComplex:
    """Cochain complex of shifted catalog entries.

    terms[i] is a tuple of (y, shift) pairs; diffs[i] maps (row, col)
    to the component ModuleMap from terms[i][col] to terms[i+1][row],
    stored between unshifted entries with degree shift_col - shift_row.
    The constructor drops empty terms and zero components and validates
    every complex it builds, d^2 = 0 included.  Nothing changes a
    complex after that, so k0_class keeps its class on it.
    """

    __slots__ = ('catalog', 'terms', 'diffs', '_k0')

    def __init__(self, catalog: IndecomposableCatalog, terms: dict,
                 diffs: dict):
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
        self._validate()
        self._k0 = None  # the K_0 class, once k0_class computes it

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
# the Rouquier tensor step and term-wise theta_s, through the catalog's
# theta splittings


def _vertical_component(catalog, s, y, shift):
    """The adjunction map D_y -> theta_s D_y that the shift selects.

    A shift of 2 takes the degree-2 coevaluation, 0 the unit
    m |-> 1 (x) m, and -2 the zero map; these are the three points of
    the calibration grid, and any other shift raises
    ConfigurationError.  The map must actually be a module map: the
    unit is only linear over the invariants, so it fails here -- which
    is the honest reason the degree-0 calibration point dies.
    """
    theta, _pieces = theta_summands(catalog, s, y)
    entry = catalog.entry(y)
    if shift == 2:
        vert = coev_map(s, entry, theta)
    elif shift == 0:
        vert = unit_map(s, entry, theta)
    elif shift == -2:
        return ModuleMap.zero(entry, theta, -2)
    else:
        raise ConfigurationError(
            f"no vertical map for the tensor step with shift {shift}")
    if not vert.check_intertwines():
        raise IncompatibilityError(
            f"the degree-{shift} map D_y -> theta D_y is not a module map")
    return vert


def tensor_rouquier(s: int, cpx: FormalComplex, shift: int = 2,
                    sign: int = 1) -> FormalComplex:
    """One Rouquier tensor step: totalize  X<shift> -> theta_s X.

    The X row sits in relative degree -1 with its inner differential
    negated; the theta_s row keeps the inner differential (transported
    through the cached splittings); the vertical map is sign * (the
    adjunction map the shift selects, see _vertical_component).  The
    defaults are the calibrated convention.  d^2 = 0 is verified by the
    constructor.
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
            vert = _vertical_component(catalog, s, y, shift)
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


def _find_iso_component(terms: dict, diffs: dict):
    """(i, b, a, phi^{-1}) for the first invertible component phi of d^i
    from summand a to summand b, or None.

    terms[i] holds the summands at i, as a tuple or as a dict keyed by
    stable indices, which diffs uses too; indices are tried in order.
    """
    for i in sorted(diffs):
        src, tgt = terms.get(i, ()), terms.get(i + 1, ())
        for (b, a), phi in sorted(diffs[i].items()):
            if src[a] != tgt[b]:
                continue
            try:
                inv_blocks = {d + phi.degree: invert(phi.block(d))
                              for d in phi.source.degrees()}
            except ValueError:
                continue
            return i, b, a, ModuleMap(phi.target, phi.source, -phi.degree,
                                      inv_blocks)
    return None


def gaussian_eliminate(cpx: FormalComplex) -> FormalComplex:
    """Strip isomorphism components until the complex is minimal.

    Standard elimination: if the differential at position i contains an
    isomorphism phi from summand a to summand b, both are removed and
    the components from the other summands of position i to the other
    summands of position i + 1 pick up the correction -gamma phi^{-1}
    beta.  The pass works in place on the summands' original indices,
    which keep their order as summands go, and builds one complex at
    the end; its constructor checks d^2 = 0.  A complex with nothing to
    eliminate is returned as it is.  The K_0 class is preserved; this is
    asserted whenever something was eliminated.
    """
    found = _find_iso_component(cpx.terms, cpx.diffs)
    if found is None:
        return cpx
    before = k0_class(cpx)
    terms = {i: dict(enumerate(t)) for i, t in cpx.terms.items()}
    diffs = {i: dict(comps) for i, comps in cpx.diffs.items()}
    while found is not None:
        i, b, a, phi_inv = found
        comps = diffs[i]
        # gamma: out of a into another row; beta: from another column into b
        betas = [(col, beta) for (row, col), beta in comps.items()
                 if row == b and col != a]
        gammas = [(row, gamma) for (row, col), gamma in comps.items()
                  if col == a and row != b] if betas else []
        del terms[i][a], terms[i + 1][b]
        # drop every component into or out of summands a and b
        for j, into, out_of in ((i - 1, a, None), (i, b, a),
                                (i + 1, None, b)):
            at_j = diffs.get(j, {})
            for key in [k for k in at_j if k[0] == into or k[1] == out_of]:
                del at_j[key]
        for row, gamma in gammas:
            gamma_phi_inv = gamma.compose(phi_inv)
            for col, beta in betas:
                corr = gamma_phi_inv.compose(beta)
                key = (row, col)
                total = comps[key] - corr if key in comps else -corr
                if total.is_zero():
                    comps.pop(key, None)
                else:
                    comps[key] = total
        found = _find_iso_component(terms, diffs)
    index = {i: {old: new for new, old in enumerate(t)}
             for i, t in terms.items()}
    current = FormalComplex(
        cpx.catalog, {i: tuple(t.values()) for i, t in terms.items()},
        {j: {(index[j + 1][b], index[j][a]): phi
             for (b, a), phi in comps.items()}
         for j, comps in diffs.items()})
    if k0_class(current) != before:
        raise InternalCheckError(
            "gaussian elimination changed the K_0 class")
    return current


def is_minimal(cpx: FormalComplex) -> bool:
    return _find_iso_component(cpx.terms, cpx.diffs) is None


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
    if cpx._k0 is not None:
        return cpx._k0
    rs = cpx.catalog.algebra.root_system
    # the signed powers of v collected per y, so each b_y is added once
    coeffs: dict = {}
    for i, summands in cpx.terms.items():
        sign = (-1) ** (i % 2)
        for (y, k) in summands:
            if k % 2:
                raise InternalCheckError("odd internal shift in a complex")
            powers = coeffs.setdefault(y, {})
            powers[k + y.length] = powers.get(k + y.length, 0) + sign
    total = HeckeElement(rs, {})
    for y, powers in coeffs.items():
        total = total + kl_basis(y).scale(LaurentPoly(powers))
    cpx._k0 = total
    return total


# ---------------------------------------------------------------------------
# hom complexes, in hom-basis coordinates


def _coords_in_basis(maps: list, basis: list) -> list:
    """Exact coordinates of each of maps in a hom-space basis.

    A map outside the span of the basis raises InternalCheckError.
    """
    if not basis:
        if all(phi.is_zero() for phi in maps):
            return [[] for _ in maps]
        raise InternalCheckError("map outside the empty hom space")
    degrees = basis[0].source.degrees()
    flat = [[v for d in degrees for row in m.block(d) for v in row]
            for m in basis + maps]
    # one equation per matrix entry; an entry zero in every map is void
    system = [r for r in zip(*flat) if any(r)]
    n = len(basis)
    try:
        solution = solve_matrix([r[:n] for r in system],
                                [r[n:] for r in system])
    except ValueError:
        raise InternalCheckError("map outside its hom space span") from None
    return [list(coords) for coords in zip(*solution)]


class _HomGrid:
    """Indexing of summand-to-summand hom bases between two complexes.

    Relative degree h means maps X^i -> Y^{i+h}; unknowns are the
    hom-basis coefficients of every component.
    """

    def __init__(self, x: FormalComplex, y: FormalComplex, h: int):
        self.catalog = x.catalog
        self.slots = []        # (i, a, b, basis)
        self.offset = {}
        n = 0
        for i in x.terms:
            for a, (ya, ka) in enumerate(x.summands(i)):
                for b, (yb, kb) in enumerate(y.summands(i + h)):
                    basis = self.catalog.hom_basis(ya, yb, ka - kb)
                    if not basis:
                        continue
                    self.offset[(i, a, b)] = n
                    self.slots.append((i, a, b, basis))
                    n += len(basis)
        self.size = n


def _hom_differential(x: FormalComplex, y: FormalComplex, h: int):
    """The differential D f = d_Y f - (-1)^h f d_X on Hom^h(X, Y).

    Returns the grid of Hom^h and one sparse column per unknown: D f of
    that basis map f, keyed by (i, a, b, t) for basis map t of
    Hom(X^i_a, Y^{i+h+1}_b).  A target basis is fetched only for a
    slot that some nonzero composite reaches.
    """
    grid = _HomGrid(x, y, h)
    sign = Fraction(1 if h % 2 else -1)
    columns = [{} for _ in range(grid.size)]
    for (i, a, b, basis) in grid.slots:
        # f: X^i_a -> Y^{i+h}_b reaches X^i_a -> Y^{i+h+1}_b2 through
        # d_Y, and X^{i-1}_a0 -> Y^{i+h}_b through d_X
        landings = [((i, a, b2), 1, [d.compose(f) for f in basis])
                    for (b2, b1), d in y.diffs.get(i + h, {}).items()
                    if b1 == b]
        landings += [((i - 1, a0, b), sign, [f.compose(d) for f in basis])
                     for (a1, a0), d in x.diffs.get(i - 1, {}).items()
                     if a1 == a]
        for (j, p, q), c, maps in landings:
            if all(m.is_zero() for m in maps):
                continue
            yp, kp = x.summands(j)[p]
            yq, kq = y.summands(j + h + 1)[q]
            target = grid.catalog.hom_basis(yp, yq, kp - kq)
            for e, coords in enumerate(_coords_in_basis(maps, target),
                                       grid.offset[(i, a, b)]):
                col = columns[e]
                for t, v in enumerate(coords):
                    if v:
                        col[(j, p, q, t)] = col.get((j, p, q, t), 0) + c * v
    return grid, columns


def _kernel(columns: list) -> list:
    """Kernel basis of the sparse matrix with the given columns."""
    rows: dict = {}
    for e, col in enumerate(columns):
        for key, v in col.items():
            if v:
                rows.setdefault(key, {})[e] = v
    return sparse_nullspace(list(rows.values()), len(columns))


def hom_complex_basis(x: FormalComplex, y: FormalComplex,
                      relative_degree: int = 0):
    """(grid, chain-map coefficient vectors) for maps X -> Y[h]: ker D_h."""
    grid, columns = _hom_differential(x, y, relative_degree)
    return grid, _kernel(columns)


def hom_complex_vanishing(x: FormalComplex, y: FormalComplex) -> bool:
    """True iff every degree-0 chain map X -> Y is null-homotopic."""
    if x.is_zero() or y.is_zero():
        return True
    _grid, chain_maps = hom_complex_basis(x, y, 0)
    if not chain_maps:
        return True
    _hgrid, columns = _hom_differential(x, y, -1)
    # im D_{-1} lies in ker D_0, so it is all of it iff the dimensions agree
    return len(columns) - len(_kernel(columns)) == len(chain_maps)


def _determinant(matrix: list):
    """Determinant by Laplace expansion along the first row.

    Entries may be any ring elements with +, -, * and is_zero; the
    matrix is square and not empty.
    """
    if len(matrix) == 1:
        return matrix[0][0]
    total = matrix[0][0] - matrix[0][0]
    for c, entry in enumerate(matrix[0]):
        if not entry.is_zero():
            minor = [row[:c] + row[c + 1:] for row in matrix[1:]]
            term = entry * _determinant(minor)
            total = total - term if c % 2 else total + term
    return total


def complexes_isomorphic(x: FormalComplex, y: FormalComplex) -> bool:
    """Isomorphism test for minimal complexes over the same catalog.

    Necessary condition first: identical multisets of summands per
    degree.  For minimal complexes homotopy equivalence is isomorphism,
    and a chain map is invertible iff, in each degree i and for each
    summand type D_z<k>, the square matrix of its components between
    the copies of D_z<k> in X^i and in Y^i is invertible: every other
    component lies in the radical.  Those components are scalars,
    since End^0(D_z) = Q, and each is the chain-map coordinate of its
    slot.  So an isomorphism exists iff no block determinant, taken as
    a polynomial in the coefficients of a chain-map basis, is the zero
    polynomial; the determinants are expanded exactly.
    """
    from .polynomials import Polynomial

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
    n = len(chain_maps)
    monomials = [tuple(int(u == t) for u in range(n)) for t in range(n)]
    for i in x.terms:
        copies: dict = {}
        for a, summand in enumerate(x.summands(i)):
            copies.setdefault(summand, ([], []))[0].append(a)
        for b, summand in enumerate(y.summands(i)):
            copies[summand][1].append(b)
        for (z, _k), (xs, ys) in copies.items():
            if len(grid.catalog.hom_basis(z, z, 0)) != 1:
                raise InternalCheckError(
                    f"the hom basis of End^0(D_{z!r}) does not hold "
                    f"exactly one map")
            block = [[Polynomial(n, {mono: vec[grid.offset[(i, a, b)]]
                                     for mono, vec in zip(monomials,
                                                          chain_maps)})
                      for a in xs] for b in ys]
            if _determinant(block).is_zero():
                return False
    return True
