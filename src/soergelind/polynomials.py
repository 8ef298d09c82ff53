"""Exact multivariate polynomials with a Weyl group action.

S is the symmetric algebra on the span of the simple roots; the
variable x_i is the simple root alpha_i, so the generator s_i acts by
the substitution x_j -> x_j - a_{ij} x_i (Cartan matrix entry), and a
general group element acts through its integer matrix.  The Demazure
operator is d_i(f) = (f - s_i f)/x_i; the numerator always lies in the
monomial ideal (x_i), so the division is a plain exponent shift.

Polynomials are dicts from exponent tuples to Fractions; a coefficient
given as anything but an int or a Fraction is a TypeError.  The
algebraic degree here is half the cohomological degree used elsewhere.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import RootSystem, WeylElement
from .errors import IncompatibilityError, InternalCheckError
from .exactla import _frac

__all__ = ['Polynomial', 'PolyRing', 'demazure']


class Polynomial:
    """Element of Q[x_1..x_n], exponent-tuple keyed, no zero terms."""

    __slots__ = ('n', 'terms')

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict[tuple, Fraction] = {}
        for mono, c in (terms or {}).items():
            c = _frac(c)
            if c:
                self.terms[tuple(mono)] = c

    @classmethod
    def zero(cls, n: int) -> 'Polynomial':
        return cls(n)

    @classmethod
    def const(cls, n: int, c) -> 'Polynomial':
        return cls(n, {(0,) * n: c})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: 'Polynomial') -> None:
        if self.n != other.n:
            raise IncompatibilityError("polynomial rank mismatch")

    def __add__(self, other: 'Polynomial') -> 'Polynomial':
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(self.n, out)

    def __neg__(self) -> 'Polynomial':
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: 'Polynomial') -> 'Polynomial':
        return self + (-other)

    def scale(self, c) -> 'Polynomial':
        c = _frac(c)
        return Polynomial(self.n, {m: x * c for m, x in self.terms.items()})

    def __mul__(self, other: 'Polynomial') -> 'Polynomial':
        self._check(other)
        out: dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple([a + b for a, b in zip(m1, m2)])
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.n, out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def homogeneous_components(self) -> dict[int, 'Polynomial']:
        comps: dict[int, dict] = {}
        for m, c in self.terms.items():
            comps.setdefault(sum(m), {})[m] = c
        return {d: Polynomial(self.n, t) for d, t in sorted(comps.items())}

    def coefficient(self, mono) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def substitute_linear(self, matrix) -> 'Polynomial':
        """x_j -> sum_r matrix[r][j] x_r, applied multiplicatively."""
        n = self.n
        images = [Polynomial(n, {tuple(1 if r == k else 0 for k in range(n)):
                                 Fraction(matrix[r][j])
                                 for r in range(n) if matrix[r][j]})
                  for j in range(n)]
        power_cache: list[dict[int, Polynomial]] = [
            {0: Polynomial.const(n, 1)} for _ in range(n)]

        def power(j: int, e: int) -> 'Polynomial':
            cache = power_cache[j]
            if e not in cache:
                cache[e] = power(j, e - 1) * images[j]
            return cache[e]

        out = Polynomial.zero(n)
        for mono, c in self.terms.items():
            part = Polynomial.const(n, c)
            for j, e in enumerate(mono):
                if e:
                    part = part * power(j, e)
            out = out + part
        return out

    def divide_by_variable(self, i: int) -> 'Polynomial':
        out = {}
        for m, c in self.terms.items():
            if m[i] < 1:
                raise InternalCheckError(
                    f"polynomial not divisible by x_{i + 1}: monomial {m}")
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c
        return Polynomial(self.n, out)

    def __repr__(self):
        if not self.terms:
            return '0'
        bits = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            c = self.terms[m]
            vars_part = '*'.join(
                f'x{j + 1}' + (f'^{e}' if e > 1 else '')
                for j, e in enumerate(m) if e)
            if not vars_part:
                bits.append(str(c))
            elif c == 1:
                bits.append(vars_part)
            elif c == -1:
                bits.append('-' + vars_part)
            else:
                bits.append(f'{c}*{vars_part}')
        return ' + '.join(bits).replace('+ -', '- ')


class PolyRing:
    """Q[x_1..x_n] together with the Weyl group action by substitution."""

    def __init__(self, root_system: RootSystem):
        self.root_system = root_system
        self.n = root_system.rank

    def one(self) -> Polynomial:
        return Polynomial.const(self.n, 1)

    def const(self, c) -> Polynomial:
        return Polynomial.const(self.n, c)

    def variable(self, i: int) -> Polynomial:
        mono = tuple(int(j == i) for j in range(self.n))
        return Polynomial(self.n, {mono: 1})

    def apply_simple(self, i: int, f: Polynomial) -> Polynomial:
        return f.substitute_linear(self.root_system.reflection_matrices[i])

    def apply_weyl(self, w: WeylElement, f: Polynomial) -> Polynomial:
        return f.substitute_linear(w.matrix)

    def monomials_of_degree(self, d: int) -> list[tuple]:
        """All exponent tuples of total degree d, graded-lex sorted."""
        out: list[tuple] = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                out.append(prefix + (remaining,))
                return
            for e in range(remaining, -1, -1):
                rec(prefix + (e,), remaining - e, slots - 1)

        rec((), d, self.n)
        return out


def demazure(ring: PolyRing, i: int, f: Polynomial) -> Polynomial:
    """(f - s_i f) / x_i; drops algebraic degree by one."""
    return (f - ring.apply_simple(i, f)).divide_by_variable(i)
