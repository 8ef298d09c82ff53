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

(sources in relative degree -1, the theta row theta_complex builds in
relative degree 0) is the tensor step: the cone of the vertical map.
Iterating it along an admissible chain is how induced complexes are
produced.  The step keeps its row minimized on X, where wall_crossed
finds it for the cone identity of the wall checks, so each row is
built once per complex and s.  The vertical map is the
coevaluation of the Frobenius self-adjunction -- the unit
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
writes the equations D_h f = 0 for both, one per matrix entry of the
composites, so only the bases of Hom^h are ever fetched.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)
from .exactla import sparse_nullspace
from .hecke import HeckeElement, kl_basis
from .laurent import LaurentPoly
from .serialize import matrix_to_json
from .smod import (GradedModule, IndecomposableCatalog, ModuleMap, coev_map,
                   decompose, theta_of_map, theta_summands, unit_map)

__all__ = [
    'FormalComplex', 'one_term_complex', 'complex_from_module',
    'tensor_rouquier', 'theta_complex', 'wall_crossed', 'gaussian_eliminate',
    'is_minimal', 'k0_class', 'hom_complex_basis', 'hom_complex_vanishing',
    'complexes_isomorphic',
]


class FormalComplex:
    """Cochain complex of shifted catalog entries.

    terms[i] is a tuple of (y, shift) pairs; diffs[i] maps (row, col)
    to the component ModuleMap from terms[i][col] to terms[i+1][row],
    stored between unshifted entries with degree shift_col - shift_row.
    The constructor drops empty terms and zero components and validates
    every complex it builds, d^2 = 0 included.  Nothing changes a
    complex after that, so k0_class keeps its class on it and
    wall_crossed its minimized theta rows.
    """

    __slots__ = ('catalog', 'terms', 'diffs', '_k0', '_crossed')

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
        self._crossed = {}  # s -> the minimized theta row, see wall_crossed

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

    def summands(self, i: int) -> tuple:
        return self.terms.get(i, ())

    def terms_json(self) -> dict:
        return {str(i): [{'word': [j + 1 for j in y.word], 'shift': k}
                         for (y, k) in summands]
                for i, summands in self.terms.items()}

    def to_json(self) -> dict:
        diffs = {}
        for i, comps in self.diffs.items():
            entries = []
            for (b, a), phi in sorted(comps.items()):
                tgt, k = phi.target, phi.degree
                # every block between nonzero pieces, zero blocks included
                entries.append({
                    'from': a, 'to': b,
                    'blocks': {str(d): matrix_to_json(phi.forms.get(d),
                                                      tgt.dim_at(d + k), n)
                               for d, n in phi.source.graded_dims.items()
                               if tgt.dim_at(d + k)}})
            diffs[str(i)] = entries
        return {'terms': self.terms_json(), 'differentials': diffs}

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
        vert = unit_map(entry, theta)
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
    """One Rouquier tensor step: the cone of X<shift> -> theta_complex(s, X).

    Degree i holds X^{i+1}<shift>, inner differential negated, then the
    row's summands, its components copied at an offset.  Only the
    vertical components are new: sign * (the adjunction map the shift
    selects, _vertical_component), cut by the cached splittings.  The
    defaults are the calibrated convention.  The row is kept minimized
    on X for wall_crossed.  The constructor verifies d^2 = 0.
    """
    catalog = cpx.catalog
    row = theta_complex(s, cpx)
    if s not in cpx._crossed:
        cpx._crossed[s] = gaussian_eliminate(row)
    new_terms: dict[int, list] = {}
    new_diffs: dict[int, dict] = {}
    for i in set(cpx.terms) | {j - 1 for j in cpx.terms}:
        shifted, below = cpx.summands(i + 1), len(cpx.summands(i + 2))
        new_terms[i] = [(y, k + shift) for (y, k) in shifted] \
            + list(row.summands(i))
        comps = new_diffs[i] = {key: -phi for key, phi
                                in cpx.diffs.get(i + 1, {}).items()}
        # summand a of X^{i+1} maps into its theta block at i + 1, which
        # comes after the summands of X^{i+2}
        base = below
        for a, (y, _k) in enumerate(shifted):
            vert = _vertical_component(catalog, s, y, shift)
            _theta, pieces = theta_summands(catalog, s, y)
            for j, (_z, _m, _incl, proj) in enumerate(pieces):
                comps[(base + j, a)] = proj.compose(vert).scale(
                    Fraction(sign))
            base += len(pieces)
        for (b, a), phi in row.diffs.get(i, {}).items():
            comps[(b + below, a + len(shifted))] = phi
    return FormalComplex(catalog, new_terms, new_diffs)


def theta_complex(s: int, cpx: FormalComplex) -> FormalComplex:
    """Term-wise Frobenius induction of a complex (no totalization).

    Each summand D_y<k> becomes the summands of theta_s D_y, shifted by
    k, in the order of the cached splitting.  Each component
    phi: D_ya -> D_yb becomes theta_s phi cut by the splittings.  This
    is the only code that builds a theta row.
    """
    catalog = cpx.catalog
    new_terms: dict[int, list] = {}
    offsets: dict[int, list] = {}
    for i, summands in cpx.terms.items():
        row = new_terms[i] = []
        offs = offsets[i] = []
        for (y, k) in summands:
            offs.append(len(row))
            _theta, pieces = theta_summands(catalog, s, y)
            row.extend((z, m + k) for (z, m, _, _) in pieces)
    new_diffs: dict[int, dict] = {}
    for i, diff in cpx.diffs.items():
        comps = new_diffs[i] = {}
        for (b, a), phi in diff.items():
            theta_a, pieces_a = theta_summands(catalog, s,
                                               cpx.summands(i)[a][0])
            theta_b, pieces_b = theta_summands(catalog, s,
                                               cpx.summands(i + 1)[b][0])
            big = theta_of_map(phi, theta_a, theta_b)
            for ja, (_za, _ma, incl_a, _pa) in enumerate(pieces_a):
                half = big.compose(incl_a)
                for jb, (_zb, _mb, _ib, proj_b) in enumerate(pieces_b):
                    comps[(offsets[i + 1][b] + jb, offsets[i][a] + ja)] = \
                        proj_b.compose(half)
    return FormalComplex(catalog, new_terms, new_diffs)


def wall_crossed(s: int, cpx: FormalComplex) -> FormalComplex:
    """The minimized theta_s X: the row the tensor step kept on X, or
    else one built, minimized and kept here."""
    crossed = cpx._crossed.get(s)
    if crossed is None:
        crossed = cpx._crossed[s] = gaussian_eliminate(theta_complex(s, cpx))
    return crossed


# ---------------------------------------------------------------------------
# minimization


def _find_iso_component(terms: dict, diffs: dict):
    """(i, b, a, c) for the first component phi = c id of d^i from
    summand a to an equal summand b, or None.

    terms[i] holds the summands at i, as a tuple or as a dict keyed by
    stable indices, which diffs uses too; indices are tried in order.
    Such a phi is a nonzero element of End^0(D_z) = Q, an isomorphism;
    one that is not c id raises InternalCheckError.
    """
    for i in sorted(diffs):
        src, tgt = terms.get(i, ()), terms.get(i + 1, ())
        for (b, a), phi in sorted(diffs[i].items()):
            if src[a] != tgt[b]:
                continue
            den, rows = (phi.forms.get(phi.source.bottom_degree())
                         or (1, [[0]]))
            c = Fraction(rows[0][0], den)
            if phi != ModuleMap.identity(phi.source).scale(c):
                raise InternalCheckError(
                    f"a component on D_{src[a][0]!r} is not a scalar")
            return i, b, a, c
    return None


def gaussian_eliminate(cpx: FormalComplex) -> FormalComplex:
    """Strip isomorphism components until the complex is minimal.

    Standard elimination: if the differential at position i contains an
    isomorphism phi from summand a to summand b, both are removed and
    the components from the other summands of position i to the other
    summands of position i + 1 pick up the correction -gamma phi^{-1}
    beta, which is -(1/c) gamma beta since phi = c id.  The pass works
    in place on the summands' original indices, which keep their order
    as summands go, and builds one complex at the end; its constructor
    checks d^2 = 0.  A complex with nothing to eliminate is returned as
    it is.  The K_0 class is kept by construction: each step removes
    only equal summands D_z<k> in adjacent degrees, whose classes
    cancel, and the tests check this.
    """
    found = _find_iso_component(cpx.terms, cpx.diffs)
    if found is None:
        return cpx
    terms = {i: dict(enumerate(t)) for i, t in cpx.terms.items()}
    diffs = {i: dict(comps) for i, comps in cpx.diffs.items()}
    while found is not None:
        i, b, a, c = found
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
            gamma_c = gamma.scale(Fraction(-1) / c)
            for col, beta in betas:
                corr = gamma_c.compose(beta)
                key = (row, col)
                total = comps[key] + corr if key in comps else corr
                if total.is_zero():
                    comps.pop(key, None)
                else:
                    comps[key] = total
        found = _find_iso_component(terms, diffs)
    index = {i: {old: new for new, old in enumerate(t)}
             for i, t in terms.items()}
    return FormalComplex(
        cpx.catalog, {i: tuple(t.values()) for i, t in terms.items()},
        {j: {(index[j + 1][b], index[j][a]): phi
             for (b, a), phi in comps.items()}
         for j, comps in diffs.items()})


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
    # the signed powers of v times h_{z,y}, in one table per z
    table: dict = {}
    for i, summands in cpx.terms.items():
        sign = (-1) ** (i % 2)
        for (y, k) in summands:
            if k % 2:
                raise InternalCheckError("odd internal shift in a complex")
            for z, h in kl_basis(y).terms.items():
                row = table.setdefault(z, {})
                for e, c in h.terms.items():
                    e += k + y.length
                    row[e] = row.get(e, 0) + sign * c
    cpx._k0 = HeckeElement(rs, {z: LaurentPoly(row)
                                for z, row in table.items()})
    return cpx._k0


# ---------------------------------------------------------------------------
# hom complexes, on the hom bases of Hom^h


class _HomGrid:
    """Indexing of summand-to-summand hom bases between two complexes.

    Relative degree h means maps X^i -> Y^{i+h}; unknowns are the
    hom-basis coefficients of every component.
    """

    def __init__(self, x: FormalComplex, y: FormalComplex, h: int):
        self.slots = []        # (i, a, b, basis)
        self.offset = {}
        n = 0
        for i in x.terms:
            for a, (ya, ka) in enumerate(x.summands(i)):
                for b, (yb, kb) in enumerate(y.summands(i + h)):
                    basis = x.catalog.hom_basis(ya, yb, ka - kb)
                    if not basis:
                        continue
                    self.offset[(i, a, b)] = n
                    self.slots.append((i, a, b, basis))
                    n += len(basis)
        self.size = n


def _hom_equations(x: FormalComplex, y: FormalComplex, h: int):
    """The equations D f = d_Y f - (-1)^h f d_X = 0 on Hom^h(X, Y).

    Returns the grid of Hom^h and one sparse row per matrix entry that
    D f can reach, keyed by (j, p, q, d, r, c): entry (r, c) of block d
    of the component X^j_p -> Y^{j+h+1}_q.  Its value at each unknown is
    that entry of the basis map's composite, times the composite's sign
    in D f.  D f is zero exactly when every entry is, so the kernel
    needs no basis of Hom^{h+1}.
    """
    grid = _HomGrid(x, y, h)
    sign = 1 if h % 2 else -1
    rows: dict = {}
    for (i, a, b, basis) in grid.slots:
        # f: X^i_a -> Y^{i+h}_b reaches X^i_a -> Y^{i+h+1}_b2 through
        # d_Y, and X^{i-1}_a0 -> Y^{i+h}_b through d_X
        landings = [((i, a, b2), 1, [d.compose(f) for f in basis])
                    for (b2, b1), d in y.diffs.get(i + h, {}).items()
                    if b1 == b]
        landings += [((i - 1, a0, b), sign, [f.compose(d) for f in basis])
                     for (a1, a0), d in x.diffs.get(i - 1, {}).items()
                     if a1 == a]
        for slot, c, maps in landings:
            for e, m in enumerate(maps, grid.offset[(i, a, b)]):
                for d, (den, block) in m.forms.items():
                    for r, line in enumerate(block):
                        for col, v in enumerate(line):
                            if v:
                                rows.setdefault((*slot, d, r, col), {})[e] = \
                                    c * v if den == 1 else Fraction(c * v, den)
    return grid, list(rows.values())


def hom_complex_basis(x: FormalComplex, y: FormalComplex,
                      relative_degree: int = 0):
    """(grid, chain-map coefficient vectors) for maps X -> Y[h]: ker D_h."""
    grid, rows = _hom_equations(x, y, relative_degree)
    return grid, sparse_nullspace(rows, grid.size)


def hom_complex_vanishing(x: FormalComplex, y: FormalComplex) -> bool:
    """True iff every degree-0 chain map X -> Y is null-homotopic."""
    if x.is_zero() or y.is_zero():
        return True
    _grid, chain_maps = hom_complex_basis(x, y, 0)
    if not chain_maps:
        return True
    grid, homotopies = hom_complex_basis(x, y, -1)
    # im D_{-1} lies in ker D_0, so it is all of it iff the dimensions agree
    return grid.size - len(homotopies) == len(chain_maps)


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
            if len(x.catalog.hom_basis(z, z, 0)) != 1:
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
