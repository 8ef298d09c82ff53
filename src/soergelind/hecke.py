"""Hecke algebra of a finite Weyl group, in Soergel's normalization.

The standard basis {H_w} satisfies H_s^2 = (v^{-1} - v) H_s + H_e, so
the Kazhdan-Lusztig generator is b_s = H_s + v, and bar(H_s) = H_s^{-1}
= H_s + (v - v^{-1}) H_e.  Bar is the semilinear ring homomorphism with
v -> v^{-1} and H_w -> (H_{w^{-1}})^{-1}; the KL basis element b_w is
the unique bar-invariant element of H_w + sum_{x<w} v Z[v] H_x.

b_w is computed by multiplying b_s along a reduced word and stripping
lower KL terms with nonzero constant coefficient, highest length first.
Coefficient positivity (h_{x,w} in Z_{>=0}[v]) is asserted on every
computed element; in the Weyl group types supported here a violation
can only mean an arithmetic bug.

For a standard parabolic W_I the same recursion, run on an element of
W_I, never leaves W_I (descents of x in W_I lie in I by the subword
property), and produces the KL polynomials of W_I itself.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import ParabolicDatum, RootSystem, WeylElement
from .errors import ConfigurationError, IncompatibilityError, InternalCheckError
from .laurent import LaurentPoly

__all__ = [
    'HeckeElement', 'hecke_unit', 'hecke_standard', 'hecke_multiply',
    'kl_basis', 'wall_crossing_summands', 'parabolic_kl', 'predicted_class',
    'bar_involution',
]


class HeckeElement:
    """A Z[v, v^{-1}]-linear combination of standard basis elements H_w."""

    __slots__ = ('root_system', 'terms')

    def __init__(self, root_system: RootSystem, terms=None):
        self.root_system = root_system
        clean: dict[WeylElement, LaurentPoly] = {}
        for w, c in (terms or {}).items():
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.const(c)
            if not c.is_zero():
                clean[w] = c
        self.terms = clean

    def coefficient(self, w: WeylElement) -> LaurentPoly:
        return self.terms.get(w, LaurentPoly.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: 'HeckeElement') -> None:
        if self.root_system is not other.root_system:
            raise IncompatibilityError(
                "cannot combine Hecke elements over different Weyl groups")

    def __add__(self, other: 'HeckeElement') -> 'HeckeElement':
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, LaurentPoly.zero()) + c
        return HeckeElement(self.root_system, out)

    def __sub__(self, other: 'HeckeElement') -> 'HeckeElement':
        return self + (-other)

    def __neg__(self) -> 'HeckeElement':
        return HeckeElement(self.root_system,
                            {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> 'HeckeElement':
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly.const(c)
        return HeckeElement(self.root_system,
                            {w: coeff * c for w, coeff in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return hecke_multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return (self.root_system is other.root_system
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def bar(self) -> 'HeckeElement':
        return bar_involution(self)

    def evaluate_at_one(self) -> dict[WeylElement, Fraction]:
        return {w: c.evaluate(Fraction(1)) for w, c in self.terms.items()}

    def support_sorted(self) -> list[WeylElement]:
        return sorted(self.terms, key=lambda w: (w.length, w.word))

    def __repr__(self):
        if not self.terms:
            return '0'
        bits = []
        for w in self.support_sorted():
            c = self.terms[w]
            name = 'H_e' if w.length == 0 else 'H_' + ''.join(
                str(i + 1) for i in w.word)
            if c == LaurentPoly.one():
                bits.append(name)
            else:
                bits.append(f'({c})*{name}')
        return ' + '.join(bits)

    def to_json(self) -> dict:
        return {'terms': [
            {'word': w.word_1based(), 'poly': self.terms[w].to_json()}
            for w in self.support_sorted()]}

    @classmethod
    def from_json(cls, root_system: RootSystem, data: dict) -> 'HeckeElement':
        terms = {}
        for entry in data['terms']:
            w = root_system.element_from_word(
                [i - 1 for i in entry['word']])
            terms[w] = LaurentPoly.from_json(entry['poly'])
        return cls(root_system, terms)


def hecke_unit(rs: RootSystem) -> HeckeElement:
    return HeckeElement(rs, {rs.identity: LaurentPoly.one()})


def hecke_standard(w: WeylElement) -> HeckeElement:
    return HeckeElement(w.root_system, {w: LaurentPoly.one()})


def _times_generator(a: HeckeElement, i: int) -> HeckeElement:
    """Right multiplication by H_{s_i} in the standard basis."""
    rs = a.root_system
    s = rs.simple_reflection(i)
    out: dict[WeylElement, LaurentPoly] = {}

    def bump(w, c):
        out[w] = out.get(w, LaurentPoly.zero()) + c

    vinv_minus_v = LaurentPoly.v(-1) - LaurentPoly.v(1)
    for u, c in a.terms.items():
        us = u * s
        if us.length > u.length:
            bump(us, c)
        else:
            bump(u, c * vinv_minus_v)
            bump(us, c)
    return HeckeElement(rs, out)


def hecke_multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the Hecke algebra; associative with unit H_e."""
    a._check(b)
    rs = a.root_system
    total = HeckeElement(rs, {})
    for y, c in b.terms.items():
        part = a
        for i in y.word:
            part = _times_generator(part, i)
        total = total + part.scale(c)
    return total


def bar_involution(a: HeckeElement) -> HeckeElement:
    """v -> v^{-1}, H_w -> (H_{w^{-1}})^{-1}; a ring homomorphism."""
    rs = a.root_system
    # bar(H_s) = H_s^{-1} = H_s + (v - v^{-1}) H_e
    total = HeckeElement(rs, {})
    for w, c in a.terms.items():
        part = hecke_unit(rs)
        for i in w.word:
            s = rs.simple_reflection(i)
            bar_hs = HeckeElement(rs, {
                s: LaurentPoly.one(),
                rs.identity: LaurentPoly.v(1) - LaurentPoly.v(-1)})
            part = hecke_multiply(part, bar_hs)
        total = total + part.scale(c.bar())
    return total


def kl_basis(w: WeylElement) -> HeckeElement:
    """The Kazhdan-Lusztig basis element b_w.

    Recursion: b_w = b_{ws} b_s - sum of m_x b_x over the x < w whose
    coefficient in the product has a nonzero constant term, largest
    length first.  Every coefficient of the result is checked to lie
    in v Z_{>=0}[v] (with the leading coefficient exactly 1).  The
    result is kept in the root system's kl_table.
    """
    rs = w.root_system
    cache = rs.kl_table
    if w in cache:
        return cache[w]
    if w.length == 0:
        b = hecke_unit(rs)
    else:
        i = w.right_descents()[0]
        s = rs.simple_reflection(i)
        b_s = HeckeElement(rs, {s: LaurentPoly.one(),
                                rs.identity: LaurentPoly.v(1)})
        b = hecke_multiply(kl_basis(w * s), b_s)
        while True:
            junk = [x for x, c in b.terms.items()
                    if x != w and c.constant_coefficient() != 0]
            if not junk:
                break
            x = max(junk, key=lambda u: (u.length, u.word))
            m = b.coefficient(x).constant_coefficient()
            b = b - kl_basis(x).scale(m)
    if b.coefficient(w) != LaurentPoly.one():
        raise InternalCheckError(f"KL element for {w!r} has bad leading term")
    for x, c in b.terms.items():
        if x == w:
            continue
        if not c.in_positive_v_lattice():
            raise InternalCheckError(
                f"KL coefficient h_{{{x!r},{w!r}}} = {c} is not in vZ>=0[v]")
    cache[w] = b
    return b


def wall_crossing_summands(y: WeylElement, i: int) -> list:
    """The summands (z, k) of theta_s D_y predicted by b_y b_s, s = s_i.

    Expands b_y b_s = sum_z m_z(v) b_z by peeling the longest term.  A
    term c v^j b_z stands for c copies of D_z<k> with
    k = l(y) + 1 + j - l(z): a summand's shift measures its distance
    from the self-dual centering, and one wall-crossing moves the
    center up by one.  A summand of multiplicity c appears c times; the
    list is sorted by (k, l(z), word of z).
    """
    rs = y.root_system
    prod = hecke_multiply(kl_basis(y), kl_basis(rs.simple_reflection(i)))
    out = []
    while prod.terms:
        z = max(prod.terms, key=lambda u: (u.length, u.word))
        m_z = prod.terms[z]
        for j, c in m_z.terms.items():
            if c.denominator != 1 or c < 0:
                raise InternalCheckError(
                    f"b_y b_s has coefficient {m_z} at b_{z!r}")
            out.extend([(z, y.length + 1 + j - z.length)] * int(c))
        prod = prod - kl_basis(z).scale(m_z)
    return sorted(out, key=lambda t: (t[1], t[0].length, t[0].word))


def parabolic_kl(datum: ParabolicDatum, x: WeylElement) -> dict:
    """Standard-basis coefficients of b_x computed inside W_I.

    For x in W_I the full-group KL recursion never leaves W_I, and the
    KL polynomials of the parabolic subgroup agree with the restricted
    ones, so this is the honest W_I computation presented through the
    ambient group's elements.
    """
    if not set(x.word) <= set(datum.subset):
        raise ConfigurationError(
            f"{x!r} is not in the parabolic subgroup on {datum.subset}")
    b = kl_basis(x)
    wi = set(datum.elements_WI)
    if not set(b.terms) <= wi:
        raise InternalCheckError(
            "KL recursion escaped the parabolic subgroup")
    return dict(b.terms)


def predicted_class(datum: ParabolicDatum, x: WeylElement,
                    w: WeylElement) -> HeckeElement:
    """The decategorified prediction sum_z h_{z,x}(v) H_{zw}.

    x must lie in W_I and w must be a minimal coset representative;
    then every product zw has length(z) + length(w), so the terms are
    standard basis elements with their honest lengths.
    """
    if not datum.is_min_rep(w):
        raise ConfigurationError(
            f"{w!r} is not a minimal coset representative for {datum!r}")
    rs = datum.root_system
    coeffs = parabolic_kl(datum, x)
    terms = {}
    for z, h in coeffs.items():
        zw = z * w
        if zw.length != z.length + w.length:
            raise InternalCheckError(
                f"lengths fail to add for {z!r} * {w!r}")
        terms[zw] = h
    return HeckeElement(rs, terms)
