"""Laurent polynomials in one variable v with exact rational coefficients.

These are the scalars of the Hecke algebra and of every decategorified
class in the package.  Coefficients are Fractions (integers in practice;
halves can appear transiently in Frobenius bookkeeping but never in a
verified class).  The bar involution v -> 1/v is just negation of
exponents.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ['LaurentPoly']


def _coeff(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class LaurentPoly:
    """A Laurent polynomial sum_k c_k v^k, stored as {k: c_k} without zeros."""

    __slots__ = ('terms',)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _coeff(c)
                if c != 0:
                    data[int(k)] = data.get(int(k), Fraction(0)) + c
        self.terms = {k: c for k, c in data.items() if c != 0}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> 'LaurentPoly':
        return cls()

    @classmethod
    def one(cls) -> 'LaurentPoly':
        return cls({0: 1})

    @classmethod
    def v(cls, k: int = 1, coeff=1) -> 'LaurentPoly':
        return cls({k: coeff})

    @classmethod
    def const(cls, c) -> 'LaurentPoly':
        return cls({0: c})

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return LaurentPoly(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[int, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return LaurentPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    @staticmethod
    def _coerce(x) -> 'LaurentPoly':
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot combine LaurentPoly with {type(x).__name__}")

    # -- involutions and evaluation ----------------------------------

    def bar(self) -> 'LaurentPoly':
        """The involution v -> v^(-1)."""
        return LaurentPoly({-k: c for k, c in self.terms.items()})

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        total = Fraction(0)
        for k, c in self.terms.items():
            total += c * x ** k
        return total

    def shift(self, k: int) -> 'LaurentPoly':
        """Multiply by v^k."""
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_coefficient(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def in_positive_v_lattice(self) -> bool:
        """True when the polynomial lies in v Z[v] with nonneg coefficients."""
        return all(k >= 1 and c.denominator == 1 and c >= 0
                   for k, c in self.terms.items())

    def max_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    # -- comparisons and display -------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return '0'
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            cs = str(c.numerator) if c.denominator == 1 else str(c)
            if k == 0:
                parts.append(cs)
            else:
                vs = 'v' if k == 1 else f'v^{k}'
                parts.append(vs if cs == '1' else f'-{vs}' if cs == '-1'
                             else f'{cs}*{vs}')
        out = ' + '.join(parts)
        return out.replace('+ -', '- ')

    # -- serialization -----------------------------------------------

    def to_json(self) -> dict:
        return {str(k): str(c) for k, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, data: dict) -> 'LaurentPoly':
        return cls({int(k): Fraction(c) for k, c in data.items()})
