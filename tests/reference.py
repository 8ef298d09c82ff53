"""Reference implementations that only the tests run.

  * admissible_chains -- an exhaustive search over reduced words; it
    checks coxeter.admissible_chain and the chains induction.induce takes.
  * induce_module -- ind_w of any module, from scratch along the chain;
    it checks the complexes induction.induce stores, and direct sums.
  * direct_sum_complexes -- builds the complexes that check
    homotopy.gaussian_eliminate, k0_class and complexes_isomorphic.
  * verify_relations -- the check the catalog's admit makes
    (check_relations out of present), for modules built elsewhere.
  * degree_sets, generator_data -- the generator and socle degrees of a
    module from one elimination each, and the generator record of a
    cyclic module through the inverse of the Gram matrix S_d S_d^T;
    they check presentation.present, which reads both off the kernel of
    [S_d | -I].
  * rational_coinvariants -- the coinvariant build with its own echelon
    over Fraction (_fraction_reduce_into, _fraction_back_substitute,
    pivots scaled to 1); it checks the integer echelon of
    build_coinvariants and shares no elimination code with it.
  * first_descent_catalog -- every D_w built from the first right
    descent of w, with no twist along a diagram automorphism; it checks
    the twins and the descent choice of smod.build_catalog.
  * module_of, map_of -- a module or map from Fraction matrices, through
    exactla.to_form; action_of, actions_of, block_of and blocks_of read
    the matrices back through exactla.from_form.  The package builds
    and reads modules and maps in integer forms only.
  * rank -- the rank of a Fraction matrix by the dense rref; it checks
    the degree sets of presentation.present.

smod.is_isomorphic, homotopy.complex_from_module and
complexes_isomorphic, induction.induce_all, hecke.hecke_multiply,
coinvariants.restriction_surjection and exactla's dense rref,
nullspace, invert, solve_matrix and mat_mul serve the tests as
references too, but stay in src/: perfbench/spans.py wraps each by
name and fails when one is bound nowhere.  They wait for ROADMAP
items 15 and then 9.
"""

from fractions import Fraction

from soergelind.coinvariants import _average, _invariant_degrees
from soergelind.errors import ConfigurationError, InternalCheckError
from soergelind.exactla import (form_mul, form_solve, from_form, id_form,
                                place, rref, sparse_nullspace, to_form)
from soergelind.homotopy import FormalComplex, complex_from_module
from soergelind.induction import _resolve_chain, _tensor_step
from soergelind.polynomials import Polynomial, PolyRing
from soergelind.presentation import check_relations, present
from soergelind.smod import (GradedModule, IndecomposableCatalog,
                             ModuleMap, restrict_module, theta_summands,
                             trivial_module)


def admissible_chains(datum, w) -> list[tuple]:
    """All admissible chains for w in lexicographic order (may be empty).

    Depth first over reduced words, trying the left descents of what
    remains in increasing order, and keeping a letter only when the
    prefix it makes is a minimal representative.
    """
    rs = datum.root_system

    def extend(prefix, rest):
        if not datum.is_min_rep(prefix):
            return []
        if rest.length == 0:
            return [()]
        return [(i,) + tail
                for i in filter(rest.has_left_descent, range(rs.rank))
                for tail in extend(prefix * rs.simple_reflection(i),
                                   rs.simple_reflection(i) * rest)]

    return extend(rs.identity, w)


def induce_module(setup, module, w, chain=None) -> FormalComplex:
    """Minimized ind_w of any module over the parabolic algebra,
    computed from scratch along the chain."""
    chain = _resolve_chain(setup, w, chain)
    inflated = restrict_module(setup.rmap, module)
    cpx = complex_from_module(setup.catalog, inflated)
    for s in chain:
        cpx = _tensor_step(s, cpx)
    return cpx


def direct_sum_complexes(x: FormalComplex, y: FormalComplex) -> FormalComplex:
    """Degreewise direct sum with block-diagonal differentials."""
    if x.catalog is not y.catalog:
        raise ConfigurationError(
            "direct sum needs complexes over the same catalog")
    terms = {i: tuple(x.terms.get(i, ())) + tuple(y.terms.get(i, ()))
             for i in set(x.terms) | set(y.terms)}
    diffs = {i: dict(blocks) for i, blocks in x.diffs.items()}
    for i, blocks in y.diffs.items():
        row_off = len(x.terms.get(i + 1, ()))
        col_off = len(x.terms.get(i, ()))
        for (b, a), phi in blocks.items():
            diffs.setdefault(i, {})[(b + row_off, a + col_off)] = phi
    return FormalComplex(x.catalog, terms, diffs)


def degree_sets(module) -> tuple:
    """(generator degrees, socle degrees) of a module, decided exactly.

    d is a generator degree when the images x_j M_{d-2} do not span
    M_d, that is when the columns of the x_j out of degree d - 2, taken
    as rows, leave a kernel on M_d; d is a socle degree when the rows
    of the x_j out of degree d leave one, some nonzero vector of M_d
    killed by every x_j.
    """
    acts = module.forms
    n = module.algebra.root_system.rank
    generators, socle = set(), set()
    for d, dim in module.graded_dims.items():
        for found, source, by_cols in ((generators, d - 2, True),
                                       (socle, d, False)):
            rows = [{k: v for k, v in enumerate(vec) if v}
                    for i in range(n) if acts.get((i, source))
                    for vec in (zip(*acts[(i, source)][1]) if by_cols
                                else acts[(i, source)][1]) if any(vec)]
            if len(rows) < dim or sparse_nullspace(rows, dim):
                found.add(d)
    return frozenset(generators), frozenset(socle)


def generator_data(module) -> dict:
    """{d: (S_d, P_d)} for each degree d above the bottom.

    S_d = [X_0 | ... | X_{n-1}] holds the actions out of degree d - 2
    and P_d = S_d^T (S_d S_d^T)^-1, the Gram matrix S_d S_d^T inverted
    by form_solve; over Q it has the rank of S_d.  InternalCheckError
    unless every Gram matrix is invertible and S_d P_d = I, with a
    one-dimensional bottom degree, that is unless the module is cyclic.
    """
    n = module.algebra.root_system.rank
    bottom, *higher = module.degrees()
    record = {}
    for d in higher:
        dim, low = module.dim_at(d), module.dim_at(d - 2)
        stacked = place(dim, n * low, [
            (0, j * low, module.forms.get((j, d - 2))) for j in range(n)])
        columns = stacked and (stacked[0],
                               [list(col) for col in zip(*stacked[1])])
        inverse = stacked and form_solve(form_mul(stacked, columns),
                                         id_form(dim), dim)
        if not inverse:
            raise InternalCheckError("the module is not cyclic")
        record[d] = stacked, form_mul(columns, inverse)
    if module.dim_at(bottom) != 1 or any(
            form_mul(*record[d]) != id_form(module.dim_at(d)) for d in higher):
        raise InternalCheckError("the module is not cyclic")
    return record


def verify_relations(module) -> None:
    """Assert commutativity and that the invariant ideal acts by zero,
    the invariants checked out of the generator degrees (present)."""
    check_relations(module, present(module)[0])


def rational_coinvariants(rs, subset) -> tuple:
    """(basis_by_algdeg, fundamental invariants) of C_I, the echelon of
    each degree kept over Fraction: ideal_d = S_1 * ideal_{d-1} plus the
    Reynolds averages of monomials, in graded-lex order, until as many
    are new as the length generating function says."""
    ring = PolyRing(rs)
    group = [w for w in rs.elements if set(w.word) <= set(subset)]
    counts = {}
    for w in group:
        counts[w.length] = counts.get(w.length, 0) + 1
    needed = _invariant_degrees(counts, rs.rank)
    columns = [tuple(zip(*w.matrix)) for w in group]
    basis, fundamental, ideal_rows, powers = {0: [(0,) * rs.rank]}, [], [], {}
    for d in range(1, max(counts) + 2):
        monos = ring.monomials_of_degree(d)
        col = {m: j for j, m in enumerate(monos)}
        pivots = {}
        for row in ideal_rows:
            for i in range(rs.rank):
                _fraction_reduce_into(pivots, {
                    col[m[:i] + (m[i] + 1,) + m[i + 1:]]: c
                    for m, c in row.items()})
        found = 0
        for m in monos:
            if found == needed.get(d, 0):
                break
            avg = Polynomial(rs.rank, {
                mm: Fraction(c, len(group))
                for mm, c in _average(columns, m, powers).items()})
            if _fraction_reduce_into(pivots, {
                    col[mm]: c for mm, c in avg.terms.items()}):
                fundamental.append(avg)
                found += 1
        _fraction_back_substitute(pivots)
        if d in counts:
            basis[d] = [m for j, m in enumerate(monos) if j not in pivots]
        ideal_rows = [{monos[j]: v for j, v in pivots[p].items()}
                      for p in sorted(pivots)]
    return basis, fundamental


def _fraction_reduce_into(pivots: dict, row: dict) -> bool:
    """Reduce a row of Fractions into an echelon whose pivot rows
    {col: Fraction} have entry 1 at the pivot and no columns below it,
    lowest pivot column first; True if a nonzero remainder became a new
    pivot row.  The row is consumed."""
    row = {c: Fraction(v) for c, v in row.items() if v}
    while True:
        hit = min((c for c in row if c in pivots), default=None)
        if hit is None:
            break
        coeff = row.pop(hit)
        for c, v in pivots[hit].items():
            if c != hit:
                nv = row.get(c, 0) - coeff * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    if not row:
        return False
    p = min(row)
    pivots[p] = {c: v / row[p] for c, v in row.items()}
    return True


def _fraction_back_substitute(pivots: dict) -> None:
    """Clear every pivot column from the other pivot rows, top pivot
    first, which leaves the reduced row echelon form."""
    for p in sorted(pivots, reverse=True):
        for q, qrow in pivots.items():
            if q < p and p in qrow:
                coeff = qrow.pop(p)
                for c, v in pivots[p].items():
                    if c != p:
                        nv = qrow.get(c, 0) - coeff * v
                        if nv:
                            qrow[c] = nv
                        else:
                            qrow.pop(c, None)


def first_descent_catalog(algebra) -> IndecomposableCatalog:
    """Every D_w, by increasing (length, word), as what is left of
    theta_s D_{ws} for s the first right descent of w."""
    rs = algebra.root_system
    catalog = IndecomposableCatalog(algebra, {})
    members = sorted((w for w in rs.elements
                      if set(w.word) <= set(algebra.subset)),
                     key=lambda w: (w.length, w.word))
    for w in members:
        if not w.length:
            catalog.admit(w, trivial_module(algebra))
        else:
            s = w.right_descents()[0]
            theta_summands(catalog, s, w * rs.simple_reflection(s))
    return catalog


def module_of(algebra, graded_dims: dict, actions: dict) -> GradedModule:
    """The module whose (variable, degree) actions are these matrices."""
    return GradedModule(algebra, graded_dims,
                        {key: to_form(m) for key, m in actions.items()})


def map_of(source, target, degree: int, blocks: dict) -> ModuleMap:
    """The map whose block out of each degree d is blocks[d]."""
    return ModuleMap(source, target, degree,
                     {d: to_form(m) for d, m in blocks.items()})


def action_of(module, i: int, d: int) -> list:
    """The matrix of x_{i+1} from degree d to degree d + 2."""
    return from_form(module.forms.get((i, d)), module.dim_at(d + 2),
                     module.dim_at(d))


def actions_of(module) -> dict:
    """The matrix of every action the module keeps a form for."""
    return {key: action_of(module, *key) for key in module.forms}


def block_of(phi, d: int) -> list:
    """The matrix of phi from degree d of its source."""
    return from_form(phi.forms.get(d), phi.target.dim_at(d + phi.degree),
                     phi.source.dim_at(d))


def blocks_of(phi) -> dict:
    """Every block of phi between nonzero pieces, zero blocks included."""
    return {d: block_of(phi, d) for d in phi.source.degrees()
            if phi.target.dim_at(d + phi.degree)}


def rank(a: list) -> int:
    """The rank of a Fraction matrix, by the dense rref."""
    return len(rref(a)[1])
