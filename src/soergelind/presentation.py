"""What the action matrices of a graded module present.

A smod.GradedModule is given by its graded dimensions and the matrices
of the variables between its degrees.  This module reads off that
presentation, exactly and in integers (the actions' integer forms):

  * degree_sets -- the generator degrees (where the variables' images
    from below do not span) and the socle degrees (where some vector is
    killed by every variable);
  * is_cyclic -- whether the module is generated by a one-dimensional
    bottom degree, which makes its degree-0 endomorphisms the scalars;
  * generator_data -- right inverses of the actions from below, which
    fix a map out of a cyclic module by the image of its generator;
  * check_relations -- that the variables commute and the invariant
    ideal of the coinvariant algebra acts by zero, each invariant
    applied as a product of the action forms (exactla's form kernels).
"""

from __future__ import annotations

from math import lcm

from .errors import IncompatibilityError, InternalCheckError
from .exactla import (form_mul, id_form, normal, place, sparse_nullspace,
                      to_form)

__all__ = ['degree_sets', 'is_cyclic', 'generator_data', 'check_relations']


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


def degree_sets(module) -> tuple:
    """(generator degrees, socle degrees) of a module, decided exactly.

    d is a generator degree when the images x_j M_{d-2} do not span
    M_d, that is when the columns of the x_j out of degree d - 2, taken
    as rows, leave a kernel on M_d; d is a socle degree when the rows
    of the x_j out of degree d leave one, some nonzero vector of M_d
    killed by every x_j.  sparse_nullspace decides each exactly, and a
    full rank ends its elimination early.
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


def check_relations(module, generator_degrees) -> None:
    """Assert commutativity and that the invariant ideal acts by zero.

    Commutativity is checked in every degree, the invariants only out
    of generator_degrees (degree_sets).  That certifies the same: once
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


def is_cyclic(module, generator_degrees) -> bool:
    """Whether module is generated by a one-dimensional bottom degree.

    generator_degrees are the module's (degree_sets); the bottom degree
    is always one of them.  A degree-0 endomorphism f of a cyclic module
    is a scalar: f(m_0) lies in the bottom degree, Q m_0, and m_0
    generates.
    """
    return (len(generator_degrees) == 1
            and module.dim_at(module.bottom_degree()) == 1)


def generator_data(module) -> dict:
    """{d: (S_d, P_d)} for each degree d above the bottom.

    S_d = [X_0 | ... | X_{n-1}] holds the actions out of degree d - 2;
    P_d is E = S_d[:, J_d]^-1 in the rows J_d, S_d's pivot columns.
    [S_d | I] reduces to [E S_d | E], so sparse_nullspace's vector of
    I's column j is -(column j of E) on J_d and 0 on S_d's other
    columns.  InternalCheckError unless S_d P_d = I: then the module is
    cyclic, and a map f out of it has f_d = [Y_j f_{d-2}]_j P_d.
    """
    n = module.algebra.root_system.rank
    bottom, *higher = module.degrees()
    record = {}
    for d in higher:
        dim, low = module.dim_at(d), module.dim_at(d - 2)
        stacked = place(dim, n * low, [
            (0, j * low, module.forms.get((j, d - 2))) for j in range(n)])
        den, rows = stacked or (1, [[0] * n * low] * dim)
        kernel = sparse_nullspace(
            [{c: x for c, x in enumerate(row) if x} | {n * low + r: den}
             for r, row in enumerate(rows)], n * low + dim)
        record[d] = (stacked, to_form([[-vec[c] for vec in kernel[-dim:]]
                                       for c in range(n * low)]))
    if module.dim_at(bottom) != 1 or any(
            form_mul(*record[d]) != id_form(module.dim_at(d)) for d in higher):
        raise InternalCheckError("the module is not cyclic")
    return record
