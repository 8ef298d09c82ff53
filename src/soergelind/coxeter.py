"""Finite Weyl groups acting on the dual Cartan space by exact matrices.

A root system is presented in the basis of simple roots, so the
reflection s_i sends alpha_j to alpha_j - a_{ij} alpha_i where a_{ij} =
<alpha_j, alpha_i^vee> is a Cartan matrix entry.  Every group element is
an integer matrix in this basis; equality of elements is equality of
matrices, and the length of an element is its inversion count, the
number of positive roots it sends negative.  The group is enumerated
once by breadth-first closure over right multiplication by generators,
which also hands every element a lexicographically least reduced word.
A diagram automorphism, a permutation sigma of the simple reflections
with a_{sigma(i) sigma(j)} = a_{ij}, is an automorphism of W; each root
system lists its own (``diagram_automorphisms``).

Generator indices are 0-based everywhere in code; serialized words are
1-based, matching the usual s_1, ..., s_n labelling.
"""

from __future__ import annotations

import itertools

from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)

__all__ = [
    'RootSystem', 'WeylElement', 'ParabolicDatum', 'build_root_system',
    'enumerate_group', 'admissible_chain', 'build_parabolic',
    'WEYL_ORDER_CAP',
]

WEYL_ORDER_CAP = 1152

_MIN_RANK = {'A': 1, 'B': 2, 'C': 2, 'D': 4}


def _validate_type_rank(cartan_type: str, rank: int) -> None:
    if cartan_type not in ('A', 'B', 'C', 'D', 'G', 'F'):
        raise ConfigurationError(f"unsupported Cartan type {cartan_type!r}")
    if cartan_type in ('G', 'F'):
        need = 2 if cartan_type == 'G' else 4
        if rank != need:
            raise ConfigurationError(
                f"type {cartan_type} requires rank {need}, got {rank}")
    elif rank < _MIN_RANK[cartan_type]:
        raise ConfigurationError(
            f"type {cartan_type} requires rank >= {_MIN_RANK[cartan_type]}, "
            f"got {rank}")


def _cartan_matrix(cartan_type: str, rank: int) -> list[list[int]]:
    _validate_type_rank(cartan_type, rank)
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def chain(until: int) -> None:
        for i in range(until):
            A[i][i + 1] = -1
            A[i + 1][i] = -1

    if cartan_type == 'A':
        chain(rank - 1)
    elif cartan_type in ('B', 'C'):
        chain(rank - 2)
        # last root is short for B, long for C
        if cartan_type == 'B':
            A[rank - 2][rank - 1] = -1
            A[rank - 1][rank - 2] = -2
        else:
            A[rank - 2][rank - 1] = -2
            A[rank - 1][rank - 2] = -1
    elif cartan_type == 'D':
        chain(rank - 2)
        A[rank - 3][rank - 1] = -1
        A[rank - 1][rank - 3] = -1
    elif cartan_type == 'G':
        A[0][1] = -1
        A[1][0] = -3
    elif cartan_type == 'F':
        chain(2)
        A[2][3] = -1
        A[3][2] = -1
        A[1][2] = -1
        A[2][1] = -2
    return A


def _diagram_automorphisms(cartan) -> tuple:
    """Every permutation sigma but the identity with a_{sigma(i) sigma(j)}
    = a_{ij}, as the tuple (sigma(0), ..., sigma(n - 1)).

    Backtracking over the simple reflections: sigma(i) is tried only
    among the images not yet taken whose Cartan entries with the
    earlier images match, so a complete assignment has been checked
    against every entry of the Cartan matrix (the diagonal is 2).
    """
    n = len(cartan)
    found = []

    def extend(images):
        i = len(images)
        if i == n:
            found.append(tuple(images))
            return
        for k in range(n):
            if k not in images and all(
                    cartan[k][images[j]] == cartan[i][j]
                    and cartan[images[j]][k] == cartan[j][i]
                    for j in range(i)):
                extend(images + [k])

    extend([])
    return tuple(sigma for sigma in found if sigma != tuple(range(n)))


def _fundamental_degrees(cartan_type: str, rank: int):
    """The degrees of the basic invariants, whose product is the order
    of the Weyl group, listed lazily: a huge rank costs nothing here."""
    if cartan_type == 'A':
        return range(2, rank + 2)
    if cartan_type in ('B', 'C'):
        return range(2, 2 * rank + 1, 2)
    if cartan_type == 'D':
        return itertools.chain((rank,), range(2, 2 * rank - 1, 2))
    return {'G': (2, 6), 'F': (2, 6, 8, 12)}[cartan_type]


class RootSystem:
    """A finite root system with its Weyl group.

    The interesting state is the Cartan matrix and the reflection
    matrices of the simple generators; the element registry (canonical
    matrix -> WeylElement) is filled in lazily by :func:`enumerate_group`,
    and the Kazhdan-Lusztig elements b_w (kl_table, w -> b_w) by
    :func:`soergelind.hecke.kl_basis`.  diagram_automorphisms lists the
    permutations of the simple reflections, but the identity, that
    preserve the Cartan matrix (:func:`_diagram_automorphisms`).
    """

    def __init__(self, cartan_type: str, rank: int):
        self.cartan_type = str(cartan_type).upper()
        self.rank = rank
        self.cartan = _cartan_matrix(self.cartan_type, rank)
        self.diagram_automorphisms = _diagram_automorphisms(self.cartan)
        # column j of reflection_matrices[i] is s_i(alpha_j)
        self.reflection_matrices = []
        for i in range(rank):
            m = [[1 if r == c else 0 for c in range(rank)] for r in range(rank)]
            for j in range(rank):
                m[i][j] -= self.cartan[i][j]
            self.reflection_matrices.append(tuple(tuple(row) for row in m))
        self.positive_roots = self._positive_roots()
        self._registry: dict[tuple, 'WeylElement'] | None = None
        self._elements: list['WeylElement'] | None = None
        self.kl_table: dict = {}

    def _positive_roots(self) -> list[tuple[int, ...]]:
        seen = {tuple(1 if i == j else 0 for j in range(self.rank))
                for i in range(self.rank)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for root in frontier:
                for m in self.reflection_matrices:
                    img = tuple(sum(m[r][c] * root[c] for c in range(self.rank))
                                for r in range(self.rank))
                    if img not in seen and all(x >= 0 for x in img):
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return sorted(seen)

    @property
    def elements(self) -> list['WeylElement']:
        if self._elements is None:
            enumerate_group(self)
        return self._elements

    def element_from_matrix(self, matrix: tuple) -> 'WeylElement':
        if self._registry is None:
            enumerate_group(self)
        try:
            return self._registry[matrix]
        except KeyError:
            raise IncompatibilityError("matrix is not a Weyl group element "
                                       "of this root system") from None

    def element_from_word(self, word) -> 'WeylElement':
        w = self.identity
        for i in word:
            w = w * self.simple_reflection(i)
        return w

    def apply_automorphism(self, sigma: tuple,
                           w: 'WeylElement') -> 'WeylElement':
        """sigma(w) for a diagram automorphism sigma: the element whose
        word is sigma applied letter by letter to a reduced word of w."""
        return self.element_from_word([sigma[i] for i in w.word])

    def simple_reflection(self, i: int) -> 'WeylElement':
        if not 0 <= i < self.rank:
            raise ConfigurationError(
                f"generator index {i} out of range for rank {self.rank}")
        return self.element_from_matrix(self.reflection_matrices[i])

    @property
    def identity(self) -> 'WeylElement':
        return self.element_from_matrix(
            tuple(tuple(1 if i == j else 0 for j in range(self.rank))
                  for i in range(self.rank)))

    def __repr__(self):
        return f'RootSystem({self.cartan_type}{self.rank})'


def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Validate (type, rank) and construct the root system.

    Supported: A (rank >= 1), B and C (rank >= 2), D (rank >= 4),
    G2 and F4, subject to the Weyl group order cap of 1152.
    """
    cartan_type = str(cartan_type).upper()
    _validate_type_rank(cartan_type, rank)
    order = 1
    for degree in _fundamental_degrees(cartan_type, rank):
        order *= degree
        if order > WEYL_ORDER_CAP:  # each degree is >= 2: a few steps
            raise ConfigurationError(
                f"the Weyl group of {cartan_type}{rank} has order above "
                f"the supported cap {WEYL_ORDER_CAP}")
    return RootSystem(cartan_type, rank)


def _matmul(a: tuple, b: tuple) -> tuple:
    """The product of two integer matrices given as tuples of rows."""
    cols = list(zip(*b))
    return tuple([tuple([sum([x * y for x, y in zip(row, col)])
                         for col in cols]) for row in a])


class WeylElement:
    """A Weyl group element: an integer matrix in the simple root basis.

    The inverse matrix, the length and a lexicographically least
    reduced word are fixed at enumeration time, which also sets
    ``index``, the element's position in ``rs.elements``.  What depends
    only on the matrix is computed once, at construction: the hash,
    ``hash((matrix,))``, a value of the matrix alone and so the same in
    every process, and the right and left descent flags, read from the
    signs of the columns of ``matrix`` and ``inv_matrix``.  Equality
    compares the matrices.  Products are kept in a memo keyed by the
    right factor's ``index``, filled on first use; the root-system check
    comes first, since elements of two groups can share an index.  An
    element made outside the enumeration has index None, and products
    with it on the right are not kept.
    """

    __slots__ = ('root_system', 'matrix', 'inv_matrix', 'length', 'word',
                 'index', '_hash', '_right', '_left', '_products')

    def __init__(self, root_system: RootSystem, matrix: tuple,
                 inv_matrix: tuple, length: int, word: tuple):
        self.root_system = root_system
        self.matrix = matrix
        self.inv_matrix = inv_matrix
        self.length = length
        self.word = word
        self.index = None
        self._hash = hash((matrix,))
        # s_i is a right descent iff w(alpha_i), column i, is negative,
        # a left descent iff w^{-1}(alpha_i) is
        self._right = tuple(all(x <= 0 for x in col) for col in zip(*matrix))
        self._left = tuple(all(x <= 0 for x in col)
                           for col in zip(*inv_matrix))
        self._products: dict[int, WeylElement] = {}

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return self._hash

    def _check_same_group(self, other: 'WeylElement') -> None:
        if self.root_system is not other.root_system:
            raise IncompatibilityError(
                "cannot combine elements of different Weyl groups")

    def __mul__(self, other: 'WeylElement') -> 'WeylElement':
        self._check_same_group(other)
        got = self._products.get(other.index)
        if got is None:
            got = self.root_system.element_from_matrix(
                _matmul(self.matrix, other.matrix))
            if other.index is not None:
                self._products[other.index] = got
        return got

    def apply(self, vector):
        """Image of a vector written in simple root coordinates."""
        n = self.root_system.rank
        return tuple([sum([self.matrix[r][c] * vector[c] for c in range(n)])
                      for r in range(n)])

    def has_right_descent(self, i: int) -> bool:
        """True iff l(w s_i) < l(w), i.e. w(alpha_i) is a negative root."""
        return self._right[i]

    def has_left_descent(self, i: int) -> bool:
        """True iff l(s_i w) < l(w), i.e. w^{-1}(alpha_i) is negative."""
        return self._left[i]

    def right_descents(self) -> list[int]:
        return [i for i, d in enumerate(self._right) if d]

    def inversion_count(self) -> int:
        neg = 0
        for root in self.root_system.positive_roots:
            img = self.apply(root)
            if all(x <= 0 for x in img) and any(x < 0 for x in img):
                neg += 1
        return neg

    def __repr__(self):
        if not self.word:
            return 'e'
        return '*'.join(f's{i + 1}' for i in self.word)

    def word_1based(self) -> list[int]:
        return [i + 1 for i in self.word]


def enumerate_group(rs: RootSystem) -> list[WeylElement]:
    """All elements by breadth-first closure, sorted by (length, word).

    Each element receives its lexicographically least reduced word and
    its index in that order, and the bookkeeping length of every element
    is checked against its inversion count.
    """
    if rs._elements is not None:
        return rs._elements
    n = rs.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    registry: dict[tuple, WeylElement] = {}
    e = WeylElement(rs, ident, ident, 0, ())
    registry[ident] = e
    level = [e]
    while level:
        nxt: dict[tuple, WeylElement] = {}
        for w in sorted(level, key=lambda x: x.word):
            for i in range(n):
                if w.has_right_descent(i):
                    continue
                refl = rs.reflection_matrices[i]
                prod = _matmul(w.matrix, refl)
                if prod in registry or prod in nxt:
                    continue
                # (w s_i)^{-1} = s_i w^{-1}, reflections being involutions
                nxt[prod] = WeylElement(rs, prod, _matmul(refl, w.inv_matrix),
                                        w.length + 1, w.word + (i,))
        registry.update(nxt)
        level = list(nxt.values())
    elements = sorted(registry.values(), key=lambda w: (w.length, w.word))
    for w in elements:
        if w.length != w.inversion_count():
            raise InternalCheckError(
                f"length bookkeeping broken at {w!r}: "
                f"{w.length} != inversion count {w.inversion_count()}")
        if _matmul(w.matrix, w.inv_matrix) != ident:
            raise InternalCheckError(f"inverse bookkeeping broken at {w!r}")
    for k, w in enumerate(elements):
        w.index = k
    rs._registry = registry
    rs._elements = elements
    return elements


class ParabolicDatum:
    """A standard parabolic subgroup W_I with its minimal coset data.

    min_reps are the shortest representatives of the right cosets
    W_I \\ W: the elements w with l(s_i w) > l(w) for every i in I.
    Every element of W factors uniquely as x * u with x in W_I and
    u in min_reps, lengths adding.
    """

    def __init__(self, root_system: RootSystem, subset: tuple[int, ...]):
        rs = root_system
        if any(not 0 <= i < rs.rank for i in subset):
            raise ConfigurationError(
                f"parabolic subset {subset} out of range for rank {rs.rank}")
        self.root_system = rs
        self.subset = tuple(sorted(set(subset)))
        self.elements_WI = [w for w in rs.elements
                            if set(w.word) <= set(self.subset)]
        self.min_reps = [w for w in rs.elements if self.is_min_rep(w)]
        if len(self.elements_WI) * len(self.min_reps) != len(rs.elements):
            raise InternalCheckError("coset decomposition has wrong size")

    def is_min_rep(self, w: WeylElement) -> bool:
        return not any(w.has_left_descent(i) for i in self.subset)

    def __repr__(self):
        gens = ','.join(f's{i + 1}' for i in self.subset) or 'empty'
        return f'ParabolicDatum({self.root_system!r}, {{{gens}}})'


def build_parabolic(rs: RootSystem, subset) -> ParabolicDatum:
    return ParabolicDatum(rs, tuple(subset))


def admissible_chain(datum: ParabolicDatum, w: WeylElement):
    """The least reduced word of w all of whose left-to-right prefixes
    are minimal coset representatives, or None if w is not one.

    Every reduced word of a minimal representative qualifies (the prefix
    property of W^I; Bjorner-Brenti, Combinatorics of Coxeter Groups,
    2.4): if w = s_1 ... s_n and u = s_1 ... s_j had l(s_i u) < l(u) for
    an i in I, then l(s_i w) <= l(s_i u) + n - j < l(w), and s_i would
    be a left descent of w.  So the least is w.word, the
    lexicographically least reduced word enumerate_group assigns.
    """
    return w.word if datum.is_min_rep(w) else None
