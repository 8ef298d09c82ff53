"""Hecke algebra of a finite Weyl group, in Soergel's normalization.

The standard basis {H_w} satisfies H_s^2 = (v^{-1} - v) H_s + H_e, so
the Kazhdan-Lusztig generator is b_s = H_s + v, and bar(H_s) = H_s^{-1}
= H_s + (v - v^{-1}) H_e.  Bar is the semilinear ring homomorphism with
v -> v^{-1} and H_w -> (H_{w^{-1}})^{-1}; the KL basis element b_w is
the unique bar-invariant element of H_w + sum_{x<w} v Z[v] H_x.

b_w is computed from b_{ws} for a right descent s of w: the product
b_{ws} b_s = b_{ws} H_s + v b_{ws} takes one right multiplication by
H_s, and lower KL terms with nonzero constant coefficient are stripped
from it, highest length first.  All coefficients are integer Laurent
polynomials; evaluate_at_one specializes an element at v = 1.
Coefficient positivity (h_{x,w} in Z_{>=0}[v]) is asserted on every
computed element; in the Weyl group types supported here a violation
can only mean an arithmetic bug.

For a standard parabolic W_I the same recursion, run on an element of
W_I, never leaves W_I (descents of x in W_I lie in I by the subword
property), and produces the KL polynomials of W_I itself.

Two readings off the KL table feed the module side's checks:
wall_crossing_summands reads the summands of theta_s D_y off the
mu-coefficients of b_y, and expected_graded_dims the graded character
of D_w off b_w.
"""

from __future__ import annotations

from .coxeter import ParabolicDatum, RootSystem, WeylElement
from .errors import ConfigurationError, IncompatibilityError, InternalCheckError
from .laurent import LaurentPoly

__all__ = [
    'HeckeElement', 'hecke_unit', 'hecke_standard', 'hecke_multiply',
    'kl_basis', 'wall_crossing_summands', 'expected_graded_dims',
    'parabolic_kl', 'predicted_class', 'bar_involution',
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

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return (self.root_system is other.root_system
                and self.terms == other.terms)

    def evaluate_at_one(self) -> dict[WeylElement, int]:
        """The specialization v = 1: each coefficient's sum of terms."""
        return {w: sum(c.terms.values()) for w, c in self.terms.items()}

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
    length first, where b_{ws} b_s = b_{ws} H_s + v b_{ws} for the
    first right descent s of w.  Every coefficient of the result is
    checked to lie in v Z_{>=0}[v] (with the leading coefficient
    exactly 1).  The result is kept in the root system's kl_table.
    """
    rs = w.root_system
    cache = rs.kl_table
    if w in cache:
        return cache[w]
    if w.length == 0:
        b = hecke_unit(rs)
    else:
        i = w.right_descents()[0]
        # b_{ws} b_s, with b_s = H_s + v
        b_ws = kl_basis(w * rs.simple_reflection(i))
        b = _times_generator(b_ws, i) + b_ws.scale(LaurentPoly.v(1))
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

    For ys < y, b_y b_s = (v + v^{-1}) b_y; otherwise b_y b_s = b_{ys}
    + sum of mu(z, y) b_z over z < y with zs < z, mu(z, y) the
    coefficient of v in h_{z,y}.  A term v^j b_z stands for D_z<k> with
    k = l(y) + 1 + j - l(z): a summand's shift measures its distance
    from the self-dual centering, and one wall-crossing moves the
    center up by one.  A summand of multiplicity c appears c times; the
    list is sorted by (k, l(z), word of z).
    """
    if y.has_right_descent(i):
        return [(y, 0), (y, 2)]
    out = [(y * y.root_system.simple_reflection(i), 0)]
    for z, h in kl_basis(y).terms.items():
        if z.has_right_descent(i) and z != y:
            out.extend([(z, y.length + 1 - z.length)] * h.terms.get(1, 0))
    return sorted(out, key=lambda t: (t[1], t[0].length, t[0].word))


def expected_graded_dims(w) -> dict[int, int]:
    """Graded dimensions of D_w predicted by Kazhdan-Lusztig data.

    The graded character of D_w is the intersection-cohomology
    Poincare polynomial of the Schubert variety of w,

        sum over z <= w of  q^(2 l(z)) P_{z,w}(q^2),

    which in terms of the self-dual basis coefficients
    h_{z,w} = sum_j c_j v^j reads sum_{z,j} c_j q^(l(w)+l(z)-j).
    It is palindromic; the naive substitution sum_z h_{z,w}(q^2) is
    not the graded character (the two differ at singular elements,
    first at s2 s1 s3 s2 in type A3).
    """
    total: dict[int, int] = {}
    lw = w.length
    for z, h in kl_basis(w).terms.items():
        for exp, c in h.terms.items():
            d = lw + z.length - exp
            if d < 0 or d % 2 or c < 0:
                raise InternalCheckError(
                    f"unexpected KL coefficient {h} at {z!r}")
            total[d] = total.get(d, 0) + c
    return {d: n for d, n in sorted(total.items())}


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
