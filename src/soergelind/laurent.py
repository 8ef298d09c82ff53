"""Laurent polynomials in one variable v with exact rational coefficients.

These are the scalars of the Hecke algebra and of every decategorified
class in the package.  A coefficient is stored as an ``int`` when it is
integral and as a ``Fraction`` otherwise; every Kazhdan-Lusztig
coefficient and every verified class is integral, so the Hecke side
computes in Python ints, and halves that appear in Frobenius
bookkeeping stay exact.  Coefficients are normalized on the way in and
after every sum, so equal polynomials have equal terms; anything other
than an int or a Fraction (a float, a bool, a string) is a TypeError.
The bar involution v -> 1/v is just negation of exponents.

The catalog cache writes rationals as the strings
:func:`fraction_to_str` writes, "p" or "p/q" in lowest terms, and
:func:`fraction_from_str` accepts exactly those strings and nothing
else.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ['LaurentPoly', 'fraction_to_str', 'fraction_from_str']


def fraction_to_str(c) -> str:
    """"p", or "p/q" with q > 1 in lowest terms."""
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else (
        f'{c.numerator}/{c.denominator}')


def fraction_from_str(s: str) -> Fraction:
    """The Fraction that fraction_to_str writes as s.

    Any other input raises: a non-string (a JSON number or bool) with
    TypeError, any other string ("1.5", "1e3", " 1", "2/4", "1/0")
    with ValueError.
    """
    if not isinstance(s, str):
        raise TypeError(f"a fraction must be a string, not {s!r}")
    try:
        value = Fraction(s)
    except ZeroDivisionError:
        value = None
    # Fraction also reads decimals, exponents, spaces and underscores;
    # only the canonical spelling comes back unchanged
    if value is None or fraction_to_str(value) != s:
        raise ValueError(f"{s!r} is not a fraction in lowest terms")
    return value


def _coeff(c):
    """c as an exact coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(
        f"a Laurent coefficient is an int or a Fraction, not {c!r}")


def _normalized(sums: dict) -> dict:
    """The nonzero entries of a dict of sums, each through _coeff."""
    return {k: _coeff(c) for k, c in sums.items() if c}


class LaurentPoly:
    """A Laurent polynomial sum_k c_k v^k, stored as {k: c_k} without zeros."""

    __slots__ = ('terms',)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _coeff(c)
                if c:
                    k = int(k)
                    data[k] = data.get(k, 0) + c
        self.terms = _normalized(data)

    @classmethod
    def _of(cls, terms: dict) -> 'LaurentPoly':
        """The polynomial with these terms, already normalized and nonzero."""
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
            out[k] = out.get(k, 0) + c
        return LaurentPoly._of(_normalized(out))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return LaurentPoly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly._of(_normalized(out))

    def __rmul__(self, other):
        return self.__mul__(other)

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
        return LaurentPoly._of({-k: c for k, c in self.terms.items()})

    def evaluate(self, x) -> Fraction:
        x = Fraction(_coeff(x))
        total = Fraction(0)
        for k, c in self.terms.items():
            total += c * x ** k
        return total

    def shift(self, k: int) -> 'LaurentPoly':
        """Multiply by v^k."""
        return LaurentPoly._of({e + k: c for e, c in self.terms.items()})

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_coefficient(self):
        return self.terms.get(0, 0)

    def in_positive_v_lattice(self) -> bool:
        """True when the polynomial lies in v Z[v] with nonneg coefficients."""
        return all(k >= 1 and type(c) is int and c >= 0
                   for k, c in self.terms.items())

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
            cs = str(c)
            if k == 0:
                parts.append(cs)
            else:
                vs = 'v' if k == 1 else f'v^{k}'
                parts.append(vs if cs == '1' else f'-{vs}' if cs == '-1'
                             else f'{cs}*{vs}')
        out = ' + '.join(parts)
        return out.replace('+ -', '- ')
