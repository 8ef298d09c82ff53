"""Laurent polynomials in one variable v with integer coefficients.

These are the scalars of the Hecke algebra over Z[v, v^-1] and of every
decategorified class in the package: every Kazhdan-Lusztig polynomial
and every verified class has integer coefficients, so the Hecke side
computes in Python ints.  A coefficient is a Python int and nothing
else; a Fraction, a float, a bool or a string is a TypeError.  Zero
coefficients are dropped on the way in and after every sum, so equal
polynomials have equal terms.  The bar involution v -> 1/v is just
negation of exponents.
"""

from __future__ import annotations

__all__ = ['LaurentPoly']


def _coeff(c) -> int:
    """c, when it is an int (and not a bool); else a TypeError."""
    if type(c) is not int:
        raise TypeError(f"a Laurent coefficient is an int, not {c!r}")
    return c


def _nonzero(sums: dict) -> dict:
    """The nonzero entries of a dict of sums."""
    return {k: c for k, c in sums.items() if c}


class LaurentPoly:
    """A Laurent polynomial sum_k c_k v^k, stored as {k: c_k} without zeros."""

    __slots__ = ('terms',)

    def __init__(self, terms: dict | None = None):
        self.terms = {int(k): c for k, c in (terms or {}).items()
                      if _coeff(c)}

    @classmethod
    def _of(cls, terms: dict) -> 'LaurentPoly':
        """The polynomial with these terms, already nonzero ints."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> 'LaurentPoly':
        return cls()

    @classmethod
    def one(cls) -> 'LaurentPoly':
        return cls({0: 1})

    @classmethod
    def v(cls, k: int = 1, coeff: int = 1) -> 'LaurentPoly':
        return cls({k: coeff})

    @classmethod
    def const(cls, c: int) -> 'LaurentPoly':
        return cls({0: c})

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly._of(_nonzero(out))

    def __neg__(self):
        return LaurentPoly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly._of(_nonzero(out))

    @staticmethod
    def _coerce(x) -> 'LaurentPoly':
        if isinstance(x, LaurentPoly):
            return x
        return LaurentPoly.const(x)

    # -- involutions -------------------------------------------------

    def bar(self) -> 'LaurentPoly':
        """The involution v -> v^(-1)."""
        return LaurentPoly._of({-k: c for k, c in self.terms.items()})

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_coefficient(self) -> int:
        return self.terms.get(0, 0)

    def in_positive_v_lattice(self) -> bool:
        """True when the polynomial lies in v Z[v] with nonneg coefficients."""
        return all(k >= 1 and c >= 0 for k, c in self.terms.items())

    # -- comparisons and display -------------------------------------

    def __eq__(self, other):
        if type(other) is int:
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return '0'
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            cs = str(c)
            if k == 0:
                parts.append(cs)
            else:
                vs = 'v' if k == 1 else f'v^{k}'
                parts.append(vs if cs == '1' else f'-{vs}' if cs == '-1'
                             else f'{cs}*{vs}')
        out = ' + '.join(parts)
        return out.replace('+ -', '- ')
