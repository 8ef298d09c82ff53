"""Reference implementations that only the tests run.

  * admissible_chains -- an exhaustive search over reduced words; it
    checks coxeter.admissible_chain and the chains induction.induce takes.
  * induce_module -- ind_w of any module, from scratch along the chain;
    it checks the complexes induction.induce stores, and direct sums.
  * direct_sum_complexes -- builds the complexes that check
    homotopy.gaussian_eliminate, k0_class and complexes_isomorphic.
  * verify_relations -- the check the catalog's admit makes
    (check_relations out of degree_sets), for modules built elsewhere.

smod.is_isomorphic, homotopy.complex_from_module and
complexes_isomorphic, induction.induce_all, hecke.hecke_multiply,
coinvariants.restriction_surjection and exactla's dense rref,
nullspace, invert, solve_matrix and mat_mul serve the tests as
references too, but stay in src/: perfbench/spans.py wraps each by
name and fails when one is bound nowhere.  They wait for ROADMAP
items 15 and then 9.
"""

from soergelind.errors import ConfigurationError
from soergelind.homotopy import FormalComplex, complex_from_module
from soergelind.induction import _resolve_chain, _tensor_step
from soergelind.presentation import check_relations, degree_sets
from soergelind.smod import restrict_module


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


def verify_relations(module) -> None:
    """Assert commutativity and that the invariant ideal acts by zero,
    the invariants checked out of the generator degrees (degree_sets)."""
    check_relations(module, degree_sets(module)[0])
