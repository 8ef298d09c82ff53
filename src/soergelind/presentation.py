"""What the action matrices of a graded module present.

A smod.GradedModule is given by its graded dimensions and the matrices
of the variables between its degrees.  This module reads off that
presentation, exactly and in integers (the actions' integer forms):

  * present -- the generator degrees (where the variables' images from
    below do not span), the socle degrees (where some vector is killed
    by every variable) and, for a cyclic module (generated by a
    one-dimensional bottom degree, so its degree-0 endomorphisms are
    the scalars), the sections that fix a map out of it by the image of
    its generator, off the elimination that decides each degree;
  * check_relations -- that the variables commute and the invariant
    ideal of the coinvariant algebra acts by zero, each invariant
    applied as a product of the action forms (exactla's form kernels).
"""

from __future__ import annotations

from math import lcm

from .errors import IncompatibilityError, InternalCheckError
from .exactla import (form_mul, id_form, normal, place, sparse_nullspace,
                      to_form)

__all__ = ['present', 'check_relations']


def _monomial_form(module, mono: tuple, d: int, products: dict):
    """The form of a monomial's action out of degree d, None for zero.

    The variables act in index order, x_0 first: a monomial is the
    action form of its last factor's variable times the form of its
    prefix, the monomial with that exponent lowered by one.
    ``products`` keeps every monomial met so far, so polynomials acting
    from the same degree pay for a common monomial once.
    """
    if mono not in products:
        last = max(i for i, e in enumerate(mono) if e)
        prefix = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
        x = module.forms.get((last, d + 2 * (sum(mono) - 1)))
        products[mono] = form_mul(
            x, _monomial_form(module, prefix, d, products)) \
            if x and any(prefix) else x
    return products[mono]


def _polynomial_form(module, poly, d: int, products: dict):
    """The form of a homogeneous polynomials.Polynomial's action out of
    degree d, None exactly when the polynomial kills M_d: the sum of its
    terms' monomial forms (:func:`_monomial_form`, whose ``products`` it
    shares), each an integer multiple at one common denominator, put in
    lowest terms once.
    """
    if len(poly.homogeneous_components()) > 1:
        raise IncompatibilityError("polynomial action needs homogeneity")
    terms = [(coeff, form) for mono, coeff in poly.terms.items()
             for form in [_monomial_form(module, mono, d, products)] if form]
    if not terms:
        return None
    den = lcm(*[coeff.denominator * form[0] for coeff, form in terms])
    total = [[0] * module.dim_at(d) for _ in range(
        module.dim_at(d + 2 * poly.total_degree()))]
    for coeff, (form_den, rows) in terms:
        k = coeff.numerator * (den // (coeff.denominator * form_den))
        for acc, row in zip(total, rows):
            for j, x in enumerate(row):
                if x:
                    acc[j] += k * x
    return normal(den, total)


def present(module) -> tuple:
    """(generator degrees, socle degrees, record) of a module.

    d is a socle degree when the rows of the x_j out of degree d leave
    a kernel on M_d (sparse_nullspace), some vector killed by every x_j.
    The bottom degree is a generator degree, and so is a d above it
    that nothing maps into, or where the last dim M_d kernel vectors
    (p, q) of [S_d | -den I] (S_d p = q; S_d = [X_0 | ... | X_{n-1}],
    the actions out of d - 2, over den) have q-parts other than I.
    Otherwise their p-parts, nonzero only at S_d's pivot columns, are a
    section P_d with S_d P_d = I (else InternalCheckError).  A cyclic
    module (generated by a one-dimensional bottom m_0) has the record
    {d: (S_d, P_d)}, any other None; a map f out of it has f_d = [Y_j
    f_{d-2}]_j P_d for any section, and f(m_0) in Q m_0 if f is in End^0.
    """
    acts = module.forms
    n = module.algebra.root_system.rank
    socle = set()
    for d, dim in module.graded_dims.items():
        rows = [{k: v for k, v in enumerate(vec) if v}
                for i in range(n) if acts.get((i, d))
                for vec in acts[(i, d)][1] if any(vec)]
        if len(rows) < dim or sparse_nullspace(rows, dim):
            socle.add(d)
    bottom, *higher = module.degrees()
    generators, record = {bottom}, {}
    for d in higher:
        dim, low = module.dim_at(d), module.dim_at(d - 2)
        stacked = place(dim, n * low, [
            (0, j * low, acts.get((j, d - 2))) for j in range(n)])
        den, rows = stacked or (1, [])
        kernel = rows and sparse_nullspace(
            [{c: x for c, x in enumerate(row) if x} | {n * low + r: -den}
             for r, row in enumerate(rows)], n * low + dim)[-dim:]
        if [vec[n * low:] for vec in kernel] != id_form(dim)[1]:
            generators.add(d)
            continue
        record[d] = stacked, to_form(list(zip(*[v[:n * low] for v in kernel])))
        if form_mul(*record[d]) != id_form(dim):
            raise InternalCheckError(
                f"the section into degree {d} is no right inverse")
    cyclic = len(generators) == 1 and module.dim_at(bottom) == 1
    return generators, socle, record if cyclic else None


def check_relations(module, generator_degrees) -> None:
    """Assert commutativity and that the invariant ideal acts by zero.

    Commutativity is checked in every degree, the invariants only out
    of generator_degrees (present).  That certifies the same: once
    the variables commute, an invariant f that kills M_{d-2} kills every
    x_j M_{d-2}, and those span each degree that is not a generator
    degree.
    """
    acts = module.forms
    if not acts:  # every variable acts by 0, so every invariant does
        return
    n = module.algebra.root_system.rank
    for d in module.degrees():
        for i in range(n):
            for j in range(i + 1, n):
                if form_mul(acts.get((i, d + 2)), acts.get((j, d))) \
                        != form_mul(acts.get((j, d + 2)), acts.get((i, d))):
                    raise InternalCheckError(
                        f"variables x{i + 1}, x{j + 1} fail to commute "
                        f"at degree {d}")
    for d in sorted(generator_degrees):
        products: dict = {}
        for f in module.algebra.fundamental_invariants:
            if _polynomial_form(module, f, d, products) is not None:
                raise InternalCheckError(
                    f"invariant of degree {2 * f.total_degree()} acts "
                    f"nontrivially at degree {d}")
