"""Parabolic induction of indecomposable modules, verified on K_0.

For a subset I of the simple reflections, the parabolic coinvariant
algebra C_I is a quotient of the full one, so a C_I-module inflates to
a C-module with the same matrices.  Given x in W_I and a minimal coset
representative w with an admissible chain s_1 ... s_n (every prefix a
minimal representative), the induced object is the minimized complex

    ind_w D^I_x  =  minimize( R_{s_n} (x) ... (x) R_{s_1} (x) infl D^I_x ),

tensoring left to right along the chain.  Its class in the Hecke
algebra is predicted exactly:

    k0( ind_w D^I_x )  =  v^(len(x) + len(w)) . sum_z  h_{z,x}(v) . H_{zw},

because one tensor step multiplies the class by v.H_s on the nose
(k0_class measures shifts against the self-dual centering, which turns
each wall-crossing into multiplication by v.b_s), and the standard
terms H_{zw'} compose length-additively along an admissible chain.
The global monomial v^(len(x) + len(w)) is the accumulated centering
shift -- one v per chain letter plus v^len(x) from the inflated start
-- and is reported separately so the normalized class can be compared
directly against the character prediction.  Everything here is checked
at that K_0 level, with explicit module isomorphisms where the
underlying facts live at the module level: inflation of D^I_x is D_x
(the base case; Krull-Schmidt against the catalog gives the map), and
inflation commutes with the wall-crossing functor of any generator
inside I (the canonical map, the identity on the Frobenius basis).

The grading dictionary between module shifts and powers of v is not a
matter of taste: exactly one shift exponent in {-2, 0, 2} admits a
genuine module map as the vertical differential of the two-term tensor
complex and reproduces v.H_s on K_0.  calibrate_shift finds it by
exhaustive grid search (the overall sign is a gauge: the two choices
differ only by the sign of d^{-1}, and the positive one is fixed by
convention).  Inflation sends D^I_x to D_x, so ind_w D^I_x does not
depend on I: induced complexes are stored once per root system, keyed
by (x, chain prefix).
"""

from __future__ import annotations

import os
import time
from collections import namedtuple

from .coxeter import (WeylElement, admissible_chain, build_parabolic,
                      build_root_system)
from .errors import (CalibrationError, ConfigurationError,
                     IncompatibilityError, InternalCheckError)
from .exactla import identity
from .hecke import HeckeElement, hecke_standard, kl_basis, predicted_class
from .homotopy import (FormalComplex, complex_from_module,
                       gaussian_eliminate, hom_complex_vanishing, k0_class,
                       one_term_complex, tensor_rouquier, theta_complex)
from .laurent import LaurentPoly
from .serialize import catalog_cache_path, load_cached_catalog, store_catalog
from .smod import (AlgebraRecord, IndecomposableCatalog, ModuleMap,
                   RestrictionMap, build_catalog, direct_sum,
                   induce_frobenius, is_isomorphic, restrict_module)

__all__ = [
    'CalibrationRecord', 'calibrate_shift', 'InductionSetup', 'make_setup',
    'induce', 'induce_module', 'induce_all', 'VerificationReport',
    'verify_induced_class', 'verify_base_case', 'verify_theta_restriction',
    'verify_wall_crossing', 'verify_hom_vanishing', 'hom_positive_control',
    'wall_crossing_triples', 'proper_subsets', 'corpus_groups', 'run_group',
    'run_corpus',
]


class CalibrationRecord(namedtuple('CalibrationRecord', 'shift sign')):
    """Global dictionary between internal shifts and powers of v."""
    __slots__ = ()


DEFAULT_RECORD = CalibrationRecord(shift=2, sign=1)

# root systems calibrate_shift derives the record on, in this order
CALIBRATION_SYSTEMS = (('A', 1), ('A', 2))


# ---------------------------------------------------------------------------
# setups: one registry entry per root system


def _provide_catalog(algebra, cache_dir,
                     catalog: IndecomposableCatalog | None = None
                     ) -> IndecomposableCatalog:
    """The catalog of `algebra`: the one given, a cached one, or a new one.

    This is the one place that decides "load, else build and store".
    Without a catalog in hand it is loaded from cache_dir, or built and
    stored there.  A catalog in hand (one built earlier without a cache
    directory, for instance by calibration) is stored when its file is
    missing from cache_dir.
    """
    if not cache_dir:
        return catalog or build_catalog(algebra)
    if catalog is None:
        catalog = load_cached_catalog(algebra, cache_dir)
        if catalog is not None:
            return catalog
        catalog = build_catalog(algebra)
    elif os.path.exists(catalog_cache_path(cache_dir, algebra.root_system,
                                           algebra.subset)):
        return catalog
    store_catalog(catalog, cache_dir)
    return catalog


class _FullSide:
    """A root system, its full coinvariant algebra, catalog and induced
    complexes.

    Calibration and every parabolic setup over the root system share
    it, so the full catalog, its theta splittings and its hom bases are
    made once per process; setups maps a sorted subset to its setup.
    The algebra is an AlgebraRecord: building the catalog builds and
    certifies the coinvariant algebra once, and loading the catalog
    from the cache builds none.  induced maps (x, chain prefix) to the
    minimized complex ind D^I_x along that prefix, the same for every
    subset I with x in W_I; it is filled by induce.
    """

    def __init__(self, family: str, rank: int):
        self.family, self.rank = family, rank
        self.rs = build_root_system(family, rank)
        self.algebra = AlgebraRecord(self.rs, range(self.rs.rank))
        self.catalog: IndecomposableCatalog | None = None
        self.setups: dict = {}
        self.induced: dict = {}


_SYSTEMS: dict = {}


def _full_side(family: str, rank: int, cache_dir=None) -> _FullSide:
    side = _SYSTEMS.get((family, rank))
    if side is None:
        side = _SYSTEMS[(family, rank)] = _FullSide(family, rank)
    side.catalog = _provide_catalog(side.algebra, cache_dir, side.catalog)
    return side


class InductionSetup:
    """A parabolic subset of a root system, with both catalogs.

    side is the root system's _FullSide, which owns the full catalog
    and the induced complexes.  chains maps w to its least admissible
    chain, or to None when w has none; least_chain fills it.
    """

    def __init__(self, side: _FullSide, subset, cache_dir=None):
        self.side = side
        self.family, self.rank = side.family, side.rank
        self.subset = tuple(sorted(subset))
        rs = self.rs = side.rs
        if not set(self.subset) <= set(range(rs.rank)):
            raise ConfigurationError(
                f"subset {self.subset} outside the generator range")
        self.algebra = side.algebra
        self.catalog = side.catalog
        self.sub_algebra = AlgebraRecord(rs, self.subset)
        self.sub_catalog = _provide_catalog(self.sub_algebra, cache_dir)
        self.datum = build_parabolic(rs, self.subset)
        self.rmap = RestrictionMap(self.algebra, self.sub_algebra)
        self.chains: dict = {}

    def parabolic_elements(self) -> list[WeylElement]:
        return sorted(self.datum.elements_WI,
                      key=lambda u: (u.length, u.word))

    def coset_reps(self) -> list[WeylElement]:
        return sorted(self.datum.min_reps, key=lambda u: (u.length, u.word))

    def least_chain(self, w: WeylElement):
        """The least admissible chain of w, or None; searched once."""
        if w not in self.chains:
            self.chains[w] = admissible_chain(self.datum, w)
        return self.chains[w]

    def admissible_reps(self) -> list[WeylElement]:
        """The coset representatives with an admissible chain, in
        coset_reps order."""
        return [w for w in self.coset_reps()
                if self.least_chain(w) is not None]

    def instance(self, **extra) -> dict:
        base = {'family': self.family, 'rank': self.rank,
                'parabolic': [i + 1 for i in self.subset]}
        base.update(extra)
        return base

    def __repr__(self):
        return (f'InductionSetup({self.family}{self.rank}, '
                f'I={[i + 1 for i in self.subset]})')


def make_setup(family: str, rank: int, subset,
               cache_dir=None) -> InductionSetup:
    """The setup of (family, rank, subset), made once per process.

    A setup made earlier is returned again; with a cache directory, its
    catalogs are stored there if their files are missing.
    """
    side = _full_side(family, rank, cache_dir)
    key = tuple(sorted(subset))
    setup = side.setups.get(key)
    if setup is None:
        setup = side.setups[key] = InductionSetup(side, key, cache_dir)
    else:
        _provide_catalog(setup.sub_algebra, cache_dir, setup.sub_catalog)
    return setup


# ---------------------------------------------------------------------------
# calibration


def _calibrate_on(family: str, rank: int):
    """Survivors of the (shift, sign) grid on one root system."""
    side = _full_side(family, rank)
    rs, catalog = side.rs, side.catalog
    e = rs.identity
    v = LaurentPoly({1: 1})
    base = one_term_complex(catalog, [(e, 0)])
    # sanity independent of the grid: plain wall-crossing categorifies
    # multiplication by v.b_s
    for s in range(rs.rank):
        plain = gaussian_eliminate(theta_complex(s, base))
        if k0_class(plain) != kl_basis(rs.simple_reflection(s)).scale(v):
            raise CalibrationError(
                "plain wall-crossing of the trivial module does not "
                "categorify the Kazhdan-Lusztig generator")
    survivors = []
    outputs = {}
    for shift in (-2, 0, 2):
        for sign in (1, -1):
            per_s = []
            ok = True
            for s in range(rs.rank):
                try:
                    cpx = gaussian_eliminate(tensor_rouquier(
                        s, base, shift=shift, sign=sign))
                except (IncompatibilityError, InternalCheckError):
                    ok = False
                    break
                target = hecke_standard(rs.simple_reflection(s)).scale(v)
                if k0_class(cpx) != target:
                    ok = False
                    break
                per_s.append(cpx)
            if ok:
                survivors.append((shift, sign))
                outputs[(shift, sign)] = per_s
    return survivors, outputs


def _sign_flipped(plus: FormalComplex, minus: FormalComplex) -> bool:
    """The same terms, in degrees -1 and 0 only, and each component of
    d^{-1} in minus is minus the same component in plus."""
    d_plus, d_minus = plus.diffs.get(-1, {}), minus.diffs.get(-1, {})
    return (plus.terms == minus.terms and set(plus.terms) <= {-1, 0}
            and d_plus.keys() == d_minus.keys()
            and all(d_minus[key] == -phi for key, phi in d_plus.items()))


def calibrate_shift() -> CalibrationRecord:
    """Determine the unique shift exponent, fixing the sign gauge.

    Grid search over shift in {-2, 0, 2} and sign in {+1, -1} on the
    rank-1 system: a grid point survives when the vertical map of the
    two-term tensor complex is an actual module map of the right degree
    and the minimized complex has class v.H_s (one factor of v per
    chain letter; see the module docstring).  Exactly one shift must
    survive.  Both signs survive -- conjugating one row by -1 is
    invisible to K_0 -- so the minimized complexes are checked to have
    the same terms and opposite d^{-1} (_sign_flipped): then -1 on
    degree -1 plus the identity on degree 0 is an isomorphism, and the
    positive sign is recorded.  The whole derivation is then repeated
    on the rank-2 system and must give the same record.
    """
    records = []
    for family, rank in CALIBRATION_SYSTEMS:
        survivors, outputs = _calibrate_on(family, rank)
        shifts = sorted({a for a, _ in survivors})
        if len(shifts) != 1:
            raise CalibrationError(
                f"calibration on {family}{rank} admits shifts {shifts}; "
                f"expected exactly one (survivors: {survivors})")
        a = shifts[0]
        if (a, 1) not in survivors:
            raise CalibrationError(
                f"positive sign not among survivors on {family}{rank}")
        if (a, -1) in survivors:
            for plus, minus in zip(outputs[(a, 1)], outputs[(a, -1)]):
                if not _sign_flipped(plus, minus):
                    raise CalibrationError(
                        "the two sign choices do not differ by the sign "
                        "of d^-1; the sign is not a gauge here")
        records.append(CalibrationRecord(shift=a, sign=1))
    if records[0] != records[1]:
        raise CalibrationError(
            f"re-derivation disagrees: {records[0]} vs {records[1]}")
    return records[0]


# ---------------------------------------------------------------------------
# induction


def _resolve_chain(setup: InductionSetup, w: WeylElement, chain):
    if chain is None:
        chain = setup.least_chain(w)
        if chain is None:
            word = ' '.join(str(i) for i in w.word_1based()) or 'e'
            subset = ','.join(str(i + 1) for i in setup.subset)
            raise ConfigurationError(
                f"w = {word} is not a minimal representative with an "
                f"admissible chain for I = {{{subset}}}")
        return chain
    chain = tuple(chain)
    if len(chain) != w.length:
        raise ConfigurationError("chain length differs from the length "
                                 "of w; the word is not reduced")
    prefix = setup.rs.identity
    for i in chain:
        if not 0 <= i < setup.rs.rank:
            raise ConfigurationError(f"chain letter {i} out of range")
        prefix = prefix * setup.rs.simple_reflection(i)
        if not setup.datum.is_min_rep(prefix):
            raise ConfigurationError(
                f"chain prefix {prefix!r} is not a minimal representative")
    if prefix != w:
        raise ConfigurationError("chain does not multiply to w")
    return chain


def _tensor_step(s: int, cpx: FormalComplex) -> FormalComplex:
    """One minimized tensor step, with the calibrated shift and sign."""
    return gaussian_eliminate(tensor_rouquier(
        s, cpx, shift=DEFAULT_RECORD.shift, sign=DEFAULT_RECORD.sign))


def induce_module(setup: InductionSetup, module, w: WeylElement,
                  chain=None) -> FormalComplex:
    """Minimized ind_w of any module over the parabolic algebra,
    computed from scratch along the chain."""
    chain = _resolve_chain(setup, w, chain)
    inflated = restrict_module(setup.rmap, module)
    cpx = complex_from_module(setup.catalog, inflated)
    for s in chain:
        cpx = _tensor_step(s, cpx)
    return cpx


def induce(setup: InductionSetup, x: WeylElement, w: WeylElement,
           chain=None) -> FormalComplex:
    """Minimized ind_w D^I_x along `chain`, by default the least
    admissible chain of w.

    Inflation sends D^I_x to D_x (verify_base_case certifies it), so the
    complex depends only on x and the chain.  It is kept in the root
    system's store, setup.side.induced, under (x, chain prefix) and
    shared by every parabolic subset.  The start (x, ()) is made once by
    inflating D^I_x (induce_module), and each prefix missing from the
    store costs one tensor step from the prefix before it.
    """
    chain = _resolve_chain(setup, w, chain)
    start = setup.sub_catalog.entry(x)  # refuses x outside W_I
    store = setup.side.induced
    if (x, ()) not in store:
        store[(x, ())] = induce_module(setup, start, setup.rs.identity, ())
    for n, s in enumerate(chain):
        if (x, chain[:n + 1]) not in store:
            store[(x, chain[:n + 1])] = _tensor_step(s, store[(x, chain[:n])])
    return store[(x, chain)]


def induce_all(setup: InductionSetup) -> dict:
    """{(x, w): ind_w D^I_x} for every x in W_I and every w with an
    admissible chain."""
    return {(x, w): induce(setup, x, w)
            for x, w in induced_class_instances(setup)}


# ---------------------------------------------------------------------------
# verification reports


class VerificationReport:
    """The outcome of one check; reports are equal when all fields are."""

    def __init__(self, instance: dict, status: str,
                 computed_class: str | None = None,
                 predicted_class: str | None = None, timing: float = 0.0,
                 complex_summary: dict | None = None,
                 details: dict | None = None):
        self.instance = instance
        self.status = status
        self.computed_class = computed_class
        self.predicted_class = predicted_class
        self.timing = timing
        self.complex_summary = complex_summary
        self.details = {} if details is None else details

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ', '.join(f'{k}={v!r}' for k, v in vars(self).items())
        return f'VerificationReport({fields})'

    def ok(self) -> bool:
        return self.status == 'pass'

    def to_json(self) -> dict:
        return {'instance': self.instance, 'status': self.status,
                'computed_class': self.computed_class,
                'predicted_class': self.predicted_class,
                'timing': self.timing,
                'complex_summary': self.complex_summary,
                'details': self.details}

    @classmethod
    def from_json(cls, data: dict) -> 'VerificationReport':
        return cls(instance=data['instance'], status=data['status'],
                   computed_class=data.get('computed_class'),
                   predicted_class=data.get('predicted_class'),
                   timing=data.get('timing', 0.0),
                   complex_summary=data.get('complex_summary'),
                   details=data.get('details', {}))


def _summary(cpx: FormalComplex) -> dict:
    return {'terms': cpx.to_json()['terms']}


def _mass(element: HeckeElement) -> dict:
    """v = 1 specialization with exact zeros dropped."""
    return {u: c for u, c in element.evaluate_at_one().items() if c}


def _shadow(element: HeckeElement) -> dict:
    return {' '.join(str(i + 1) for i in u.word) or 'e': str(c)
            for u, c in sorted(_mass(element).items(),
                               key=lambda t: (t[0].length, t[0].word))}


def verify_induced_class(setup: InductionSetup, x: WeylElement,
                         w: WeylElement, chain=None) -> VerificationReport:
    """Exact identity k0(ind_w D^I_x) = v^(lx+lw) sum_z h_{z,x} H_{zw}.

    The reported classes are normalized by the global centering shift
    v^(len(x)+len(w)), so they read as the bare character prediction.
    The ungraded (v = 1) specialization is recorded separately in the
    details, so the character-level identity can be audited on its own.
    """
    t0 = time.perf_counter()
    chain = _resolve_chain(setup, w, chain)
    cpx = induce(setup, x, w, chain)
    computed = k0_class(cpx)
    predicted = predicted_class(setup.datum, x, w)
    shift = x.length + w.length
    normalized = computed.scale(LaurentPoly({-shift: 1}))
    graded_equal = computed == predicted.scale(LaurentPoly({shift: 1}))
    ungraded_equal = _mass(computed) == _mass(predicted)
    status = 'pass' if graded_equal else 'fail'
    details = {'graded_equal': graded_equal,
               'ungraded_equal': ungraded_equal,
               'global_shift': shift}
    if not graded_equal:
        details['difference'] = str(normalized - predicted)
        details['computed_shadow'] = _shadow(computed)
        details['predicted_shadow'] = _shadow(predicted)
    return VerificationReport(
        instance=setup.instance(x=x.word_1based(), w=w.word_1based(),
                                chain=[i + 1 for i in chain]),
        status=status, computed_class=str(normalized),
        predicted_class=str(predicted),
        timing=time.perf_counter() - t0, complex_summary=_summary(cpx),
        details=details)


def verify_base_case(setup: InductionSetup) -> VerificationReport:
    """Inflation sends D^I_x to D_x, and hom dimensions match.

    Checks an explicit isomorphism infl(D^I_x) = D_x for every x in the
    parabolic subgroup: is_isomorphic decomposes both sides against D_x
    alone, and the matched summands give the map, which is certified
    blockwise.  D_x always peels off itself, so an inflation that is not
    D_x leaves a rest on one side only and is reported as a failure.
    Offering no other catalog entry keeps each member to one split pair
    per side.  Then it compares the full matrices of degree-0 hom
    dimensions over W_I x W_I on both sides (the finite shadow of full
    faithfulness).
    """
    t0 = time.perf_counter()
    members = setup.parabolic_elements()
    failures = []
    for x in members:
        inflated = restrict_module(setup.rmap, setup.sub_catalog.entry(x))
        target = setup.catalog.entry(x)
        if is_isomorphic(inflated, target, {x: target}) is None:
            failures.append({
                'x': x.word_1based(),
                'inflated_dims': dict(inflated.graded_dims),
                'catalog_dims': dict(target.graded_dims)})
    sub_dims = [[len(setup.sub_catalog.hom_basis(a, b, 0))
                 for b in members] for a in members]
    full_dims = [[len(setup.catalog.hom_basis(a, b, 0))
                  for b in members] for a in members]
    if sub_dims != full_dims:
        failures.append({'hom_matrix_sub': sub_dims,
                         'hom_matrix_full': full_dims})
    return VerificationReport(
        instance=setup.instance(),
        status='pass' if not failures else 'fail',
        timing=time.perf_counter() - t0,
        details={'members': len(members), 'hom_matrix': sub_dims,
                 'failures': failures})


def verify_theta_restriction(setup: InductionSetup, s: int
                             ) -> VerificationReport:
    """Inflation commutes with wall-crossing inside the parabolic.

    For s in I the two composites C (x)_{C^s} infl(-) and
    infl(C_I (x)_{C_I^s} -) are checked to agree up to explicit
    isomorphism on every catalog module and on one shifted direct sum.
    Both have the Frobenius basis (1 (x) M_d) + (alpha_s (x) M_{d-2}),
    and the isomorphism checked is the canonical one, the identity on
    that basis: it must intertwine the two actions.
    """
    if s not in setup.subset:
        raise ConfigurationError(
            f"generator {s + 1} is not in the parabolic subset")
    t0 = time.perf_counter()
    tests = []
    for y in setup.sub_catalog.elements():
        tests.append((y.word_1based(), setup.sub_catalog.entry(y)))
    elems = setup.sub_catalog.elements()
    a = setup.sub_catalog.entry(elems[-1]).shift(2)
    b = setup.sub_catalog.entry(elems[0])
    summed, _incls, _projs = direct_sum([a, b])
    tests.append(('shifted direct sum', summed))
    failures = []
    for label, module in tests:
        via_sub = restrict_module(setup.rmap, induce_frobenius(s, module))
        via_full = induce_frobenius(s, restrict_module(setup.rmap, module))
        if via_sub.graded_dims != via_full.graded_dims:
            failures.append({'module': label, 'reason': 'graded dims',
                             'sub_dims': dict(via_sub.graded_dims),
                             'full_dims': dict(via_full.graded_dims)})
            continue
        canonical = ModuleMap(via_sub, via_full, 0,
                              {d: identity(n)
                               for d, n in via_sub.graded_dims.items()})
        if not canonical.check_intertwines():
            failures.append({'module': label, 'reason': 'no isomorphism'})
    return VerificationReport(
        instance=setup.instance(s=s + 1),
        status='pass' if not failures else 'fail',
        timing=time.perf_counter() - t0,
        details={'modules_tested': len(tests), 'failures': failures})


def _require_wall_hypotheses(setup, w, s):
    ws = w * setup.rs.simple_reflection(s)
    if ws.length <= w.length or not setup.datum.is_min_rep(ws):
        raise ConfigurationError(
            "wall-crossing needs ws longer than w and ws a minimal "
            "representative")
    return ws


def verify_wall_crossing(setup: InductionSetup, x: WeylElement,
                         w: WeylElement, s: int) -> VerificationReport:
    """K_0 cone identity for one wall-crossing step.

    class(minimized theta_s ind_w D^I_x)
        = v^2 . class(ind_w D^I_x) + class(ind_{ws} D^I_x),

    together with the v = 1 mass check, where both identities use
    honestly minimized complexes.  (Crossing the whole complex
    multiplies its class by v.b_s = v^2 + v.H_s, and the v.H_s part is
    exactly the next induction step.)
    """
    t0 = time.perf_counter()
    ws = _require_wall_hypotheses(setup, w, s)
    base = induce(setup, x, w)
    crossed = gaussian_eliminate(theta_complex(s, base))
    lhs = k0_class(crossed)
    cls_w = k0_class(base)
    cls_ws = k0_class(induce(setup, x, ws))
    rhs = cls_w.scale(LaurentPoly({2: 1})) + cls_ws
    graded_equal = lhs == rhs
    mass_equal = _mass(lhs) == _mass(cls_w + cls_ws)
    details = {'graded_equal': graded_equal, 'mass_equal': mass_equal}
    if not (graded_equal and mass_equal):
        details['crossed_class'] = str(lhs)
        details['ind_w_class'] = str(cls_w)
        details['ind_ws_class'] = str(cls_ws)
    return VerificationReport(
        instance=setup.instance(x=x.word_1based(), w=w.word_1based(),
                                s=s + 1),
        status='pass' if graded_equal and mass_equal else 'fail',
        computed_class=str(lhs), predicted_class=str(rhs),
        timing=time.perf_counter() - t0,
        complex_summary=_summary(crossed), details=details)


def verify_hom_vanishing(setup: InductionSetup, x: WeylElement,
                         y: WeylElement, w: WeylElement, s: int
                         ) -> VerificationReport:
    """No nonzero chain maps up to homotopy from ind_w to ind_{ws}."""
    t0 = time.perf_counter()
    ws = _require_wall_hypotheses(setup, w, s)
    src = induce(setup, x, w)
    tgt = induce(setup, y, ws)
    vanishes = hom_complex_vanishing(src, tgt)
    return VerificationReport(
        instance=setup.instance(x=x.word_1based(), y=y.word_1based(),
                                w=w.word_1based(), s=s + 1),
        status='pass' if vanishes else 'fail',
        timing=time.perf_counter() - t0,
        details={'vanishes': vanishes})


def hom_positive_control(setup: InductionSetup, x: WeylElement,
                         w: WeylElement) -> VerificationReport:
    """The identity chain map is seen: Hom(ind_w D, ind_w D) != 0."""
    t0 = time.perf_counter()
    cpx = induce(setup, x, w)
    vanishes = hom_complex_vanishing(cpx, cpx)
    return VerificationReport(
        instance=setup.instance(x=x.word_1based(), w=w.word_1based(),
                                control='identity'),
        status='pass' if not vanishes else 'fail',
        timing=time.perf_counter() - t0,
        details={'vanishes': vanishes})


# ---------------------------------------------------------------------------
# corpus enumeration and runners


def proper_subsets(rank: int) -> list[tuple]:
    """Every proper subset of the generators, smallest first."""
    out = []
    for mask in range((1 << rank) - 1):
        out.append(tuple(i for i in range(rank) if mask >> i & 1))
    out.sort(key=lambda t: (len(t), t))
    return out


CORPUS_FULL = (('A', 2), ('B', 2), ('A', 3))
CORPUS_QUICK = (('A', 1), ('A', 2))


def corpus_groups(scope: str = 'full') -> list[tuple]:
    """(family, rank, subset) triples of the verification corpus."""
    if scope == 'full':
        systems = CORPUS_FULL
    elif scope == 'quick':
        systems = CORPUS_QUICK
    else:
        raise ConfigurationError(f"unknown corpus scope {scope!r}")
    return [(family, rank, subset) for family, rank in systems
            for subset in proper_subsets(rank)]


def induced_class_instances(setup: InductionSetup) -> list[tuple]:
    return [(x, w) for x in setup.parabolic_elements()
            for w in setup.admissible_reps()]


def wall_crossing_triples(setup: InductionSetup) -> list[tuple]:
    """(x, w, s) with w admissible, ws a longer minimal representative."""
    out = []
    for x in setup.parabolic_elements():
        for w in setup.admissible_reps():
            for s in range(setup.rs.rank):
                ws = w * setup.rs.simple_reflection(s)
                if ws.length > w.length and setup.datum.is_min_rep(ws):
                    out.append((x, w, s))
    return out


def run_group(family: str, rank: int, subset,
              checks=('induced', 'base', 'theta', 'wall', 'hom'),
              cache_dir=None) -> dict:
    """All requested verifications for one (family, rank, subset)."""
    setup = make_setup(family, rank, subset, cache_dir)
    induce_all(setup)
    out: dict = {name: [] for name in checks}
    if 'induced' in out:
        for x, w in induced_class_instances(setup):
            out['induced'].append(verify_induced_class(setup, x, w))
    if 'base' in out:
        out['base'].append(verify_base_case(setup))
    if 'theta' in out:
        for s in setup.subset:
            out['theta'].append(verify_theta_restriction(setup, s))
    if 'wall' in out:
        for x, w, s in wall_crossing_triples(setup):
            out['wall'].append(verify_wall_crossing(setup, x, w, s))
    if 'hom' in out:
        members = setup.parabolic_elements()
        seen = set()
        for x, w, s in wall_crossing_triples(setup):
            if (w, s) in seen:
                continue
            seen.add((w, s))
            for a in members:
                for b in members:
                    out['hom'].append(
                        verify_hom_vanishing(setup, a, b, w, s))
        if members:
            e = setup.rs.identity
            out['hom'].append(hom_positive_control(setup, members[0], e))
    return out


def _run_group_task(args):
    family, rank, subset, checks, cache_dir = args
    return run_group(family, rank, subset, checks, cache_dir)


def run_corpus(scope: str = 'full', jobs: int = 1,
               checks=('induced', 'base', 'theta', 'wall', 'hom'),
               cache_dir=None) -> dict:
    """The full verification sweep, merged deterministically.

    Groups (one per parabolic subset) are independent; with jobs > 1
    they run in separate processes and the reports are merged in group
    order, so the output is stable across job counts.  A worker process
    that dies raises InternalCheckError.
    """
    groups = corpus_groups(scope)
    merged: dict = {name: [] for name in checks}
    if jobs <= 1:
        results = [run_group(f, r, subset, checks, cache_dir)
                   for f, r, subset in groups]
    else:
        # imported here: it loads multiprocessing, which only --jobs needs
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        tasks = [(f, r, subset, checks, cache_dir) for f, r, subset in groups]
        # the fork start method starts every worker at once
        try:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(tasks))) as pool:
                results = list(pool.map(_run_group_task, tasks))
        except BrokenProcessPool as exc:
            raise InternalCheckError(
                f"a verification worker died: {exc}") from None
    for result in results:
        for name in checks:
            merged[name].extend(result.get(name, []))
    return merged
