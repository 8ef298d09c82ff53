"""Finite Weyl groups acting on the dual Cartan space by exact matrices.

A root system is presented in the basis of simple roots, so the
reflection s_i sends alpha_j to alpha_j - a_{ij} alpha_i where a_{ij} =
<alpha_j, alpha_i^vee> is a Cartan matrix entry.  Every group element is
an integer matrix in this basis; equality of elements is equality of
matrices, and the length of an element is its inversion count, the
number of positive roots it sends negative.  The group is enumerated
once by breadth-first closure over right multiplication by generators,
which also hands every element a lexicographically least reduced word.

Generator indices are 0-based everywhere in code; serialized words are
1-based, matching the usual s_1, ..., s_n labelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigurationError, IncompatibilityError

__all__ = [
    'RootSystem', 'WeylElement', 'ParabolicDatum', 'build_root_system',
    'enumerate_group', 'admissible_chain', 'admissible_chains',
    'build_parabolic', 'WEYL_ORDER_CAP',
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


def _weyl_order(cartan_type: str, rank: int) -> int:
    if cartan_type == 'A':
        return math.factorial(rank + 1)
    if cartan_type in ('B', 'C'):
        return 2 ** rank * math.factorial(rank)
    if cartan_type == 'D':
        return 2 ** (rank - 1) * math.factorial(rank)
    if cartan_type == 'G':
        return 12
    if cartan_type == 'F':
        return 1152
    raise AssertionError(cartan_type)


class RootSystem:
    """A finite root system with its Weyl group.

    The interesting state is the Cartan matrix and the reflection
    matrices of the simple generators; the element registry (canonical
    matrix -> WeylElement) is filled in lazily by :func:`enumerate_group`,
    and the Kazhdan-Lusztig elements b_w (kl_table, w -> b_w) by
    :func:`soergelind.hecke.kl_basis`.
    """

    def __init__(self, cartan_type: str, rank: int):
        self.cartan_type = str(cartan_type).upper()
        self.rank = rank
        self.cartan = _cartan_matrix(self.cartan_type, rank)
        self.simple_roots = [
            [Fraction(1) if i == j else Fraction(0) for j in range(rank)]
            for i in range(rank)]
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

    def to_json(self) -> dict:
        return {
            'type': self.cartan_type,
            'rank': self.rank,
            'cartan_matrix': [list(row) for row in self.cartan],
            'simple_roots': [[str(x) for x in root]
                             for root in self.simple_roots],
        }


def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Validate (type, rank) and construct the root system.

    Supported: A (rank >= 1), B and C (rank >= 2), D (rank >= 4),
    G2 and F4, subject to the Weyl group order cap of 1152.
    """
    cartan_type = str(cartan_type).upper()
    _validate_type_rank(cartan_type, rank)
    order = _weyl_order(cartan_type, rank)
    if order > WEYL_ORDER_CAP:
        raise ConfigurationError(
            f"Weyl group of {cartan_type}{rank} has order {order}, "
            f"above the supported cap {WEYL_ORDER_CAP}")
    return RootSystem(cartan_type, rank)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: an integer matrix in the simple root basis.

    The inverse matrix, the length and a lexicographically least
    reduced word are cached at enumeration time; equality and hashing
    only look at the matrix itself.
    """
    root_system: RootSystem = field(compare=False, repr=False)
    matrix: tuple
    inv_matrix: tuple = field(compare=False, repr=False)
    length: int = field(compare=False)
    word: tuple = field(compare=False)

    def _check_same_group(self, other: 'WeylElement') -> None:
        if self.root_system is not other.root_system:
            raise IncompatibilityError(
                "cannot combine elements of different Weyl groups")

    def __mul__(self, other: 'WeylElement') -> 'WeylElement':
        self._check_same_group(other)
        n = self.root_system.rank
        prod = tuple(
            tuple(sum(self.matrix[r][k] * other.matrix[k][c] for k in range(n))
                  for c in range(n))
            for r in range(n))
        return self.root_system.element_from_matrix(prod)

    def inverse(self) -> 'WeylElement':
        return self.root_system.element_from_matrix(self.inv_matrix)

    def apply(self, vector):
        """Image of a vector written in simple root coordinates."""
        n = self.root_system.rank
        return tuple(sum(self.matrix[r][c] * vector[c] for c in range(n))
                     for r in range(n))

    def has_right_descent(self, i: int) -> bool:
        """True iff l(w s_i) < l(w), i.e. w(alpha_i) is a negative root."""
        col = tuple(self.matrix[r][i] for r in range(self.root_system.rank))
        return all(x <= 0 for x in col)

    def has_left_descent(self, i: int) -> bool:
        """True iff l(s_i w) < l(w), i.e. w^{-1}(alpha_i) is negative."""
        col = tuple(self.inv_matrix[r][i]
                    for r in range(self.root_system.rank))
        return all(x <= 0 for x in col)

    def right_descents(self) -> list[int]:
        return [i for i in range(self.root_system.rank)
                if self.has_right_descent(i)]

    def left_descents(self) -> list[int]:
        return [i for i in range(self.root_system.rank)
                if self.has_left_descent(i)]

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

    Each element receives its lexicographically least reduced word, and
    the bookkeeping length of every element is checked against its
    inversion count.
    """
    if rs._elements is not None:
        return rs._elements
    n = rs.rank

    def matmul(a, b):
        return tuple(
            tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
            for r in range(n))

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
                prod = matmul(w.matrix, refl)
                if prod in registry or prod in nxt:
                    continue
                # (w s_i)^{-1} = s_i w^{-1}, reflections being involutions
                nxt[prod] = WeylElement(rs, prod, matmul(refl, w.inv_matrix),
                                        w.length + 1, w.word + (i,))
        registry.update(nxt)
        level = list(nxt.values())
    elements = sorted(registry.values(), key=lambda w: (w.length, w.word))
    for w in elements:
        if w.length != w.inversion_count():
            raise AssertionError(
                f"length bookkeeping broken at {w!r}: "
                f"{w.length} != inversion count {w.inversion_count()}")
        if matmul(w.matrix, w.inv_matrix) != ident:
            raise AssertionError(f"inverse bookkeeping broken at {w!r}")
    rs._registry = registry
    rs._elements = elements
    return elements


@dataclass
class ParabolicDatum:
    """A standard parabolic subgroup W_I with its minimal coset data.

    min_reps are the shortest representatives of the right cosets
    W_I \\ W: the elements w with l(s_i w) > l(w) for every i in I.
    Every element of W factors uniquely as x * u with x in W_I and
    u in min_reps, lengths adding.
    """
    root_system: RootSystem
    subset: tuple[int, ...]
    elements_WI: list[WeylElement] = field(default_factory=list)
    min_reps: list[WeylElement] = field(default_factory=list)

    def __post_init__(self):
        rs = self.root_system
        if any(not 0 <= i < rs.rank for i in self.subset):
            raise ConfigurationError(
                f"parabolic subset {self.subset} out of range "
                f"for rank {rs.rank}")
        self.subset = tuple(sorted(set(self.subset)))
        if not self.elements_WI:
            self.elements_WI = [w for w in rs.elements
                                if set(w.word) <= set(self.subset)]
            self.min_reps = [w for w in rs.elements if self.is_min_rep(w)]
            if len(self.elements_WI) * len(self.min_reps) != len(rs.elements):
                raise AssertionError("coset decomposition has wrong size")

    def is_min_rep(self, w: WeylElement) -> bool:
        return not any(w.has_left_descent(i) for i in self.subset)

    def __repr__(self):
        gens = ','.join(f's{i + 1}' for i in self.subset) or 'empty'
        return f'ParabolicDatum({self.root_system!r}, {{{gens}}})'


def build_parabolic(rs: RootSystem, subset) -> ParabolicDatum:
    return ParabolicDatum(rs, tuple(subset))


def admissible_chain(datum: ParabolicDatum, w: WeylElement):
    """A reduced word of w all of whose left-to-right prefixes are
    minimal coset representatives, or None when no such word exists.

    Existence is not assumed; the search is exhaustive over reduced
    words (depth first, so the returned word is lexicographically
    least among admissible ones).
    """
    rs = datum.root_system
    if not datum.is_min_rep(w):
        return None

    def extend(prefix: WeylElement, remaining: WeylElement):
        if remaining.length == 0:
            return ()
        for i in remaining.left_descents():
            nxt = prefix * rs.simple_reflection(i)
            if nxt.length == prefix.length + 1 and datum.is_min_rep(nxt):
                tail = extend(nxt, rs.simple_reflection(i) * remaining)
                if tail is not None:
                    return (i,) + tail
        return None

    return extend(rs.identity, w)


def admissible_chains(datum: ParabolicDatum, w: WeylElement) -> list[tuple]:
    """All admissible chains for w (may be empty)."""
    rs = datum.root_system
    if not datum.is_min_rep(w):
        return []
    out = []

    def extend(prefix, remaining, acc):
        if remaining.length == 0:
            out.append(tuple(acc))
            return
        for i in remaining.left_descents():
            nxt = prefix * rs.simple_reflection(i)
            if nxt.length == prefix.length + 1 and datum.is_min_rep(nxt):
                extend(nxt, rs.simple_reflection(i) * remaining, acc + [i])

    extend(rs.identity, w, [])
    return sorted(out)
