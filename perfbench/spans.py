"""Span tracer: self time per public function of each layer.

The tracer replaces public functions of the `soergelind` modules by
wrappers.  Several modules bind the same function under their own
name (`from .smod import hom_space`), so every binding of the original
object in every loaded `soergelind` module is replaced, not only the
defining one; two methods are wrapped on their classes.

Time is charged in slices.  At every span entry and exit the time
since the previous event goes to the span on top of the stack (or to
no span, when the stack is empty).  Each slice is cut at the probe
samples it contains, the kernel runs are left out, and every piece is
booked under the probe interval it lies in, so the rollup can rescale
it by that interval's rate.  A span's self time is what was charged to
it; inclusive tags (a corpus group, a check kind, the theta layer)
also receive every slice charged while they are open.  Spans are not
kept individually: a run makes millions of calls into exact linear
algebra.
"""

from __future__ import annotations

import functools
import os
import sys

from probe import clock, interval_rates

NONE = '(none)'


class Tracer:
    def __init__(self, samples: list, clock=clock):
        self.clock = clock
        self.samples = samples
        self.stack: list = []
        self.open_tags: dict = {}
        self.self_raw: dict = {}
        self.tag_raw: dict = {}
        self.calls: dict = {}
        self.tag_calls: dict = {}
        self.counts: dict = {}
        self.maxima: dict = {}
        self.started = self.clock()
        self._last = self.started
        self._k = len(samples)

    # -- accounting --------------------------------------------------

    def _charge(self) -> None:
        k = len(self.samples)
        now = self.clock()
        t = self._last
        pieces = []
        for j in range(self._k, k):
            start, end = self.samples[j]
            if end <= t:
                continue
            if start > t:
                pieces.append((j, start - t))
            t = end
        if now > t:
            pieces.append((k, now - t))
        self._last = now
        self._k = k
        name = self.stack[-1] if self.stack else NONE
        for book, key in [(self.self_raw, name)] + [
                (self.tag_raw, tag) for tag in self.open_tags]:
            slots = book.setdefault(key, {})
            for j, dt in pieces:
                slots[j] = slots.get(j, 0.0) + dt

    def enter(self, name: str, tag: str | None = None) -> None:
        self._charge()
        self.stack.append(name)
        self.calls[name] = self.calls.get(name, 0) + 1
        if tag is not None:
            self.open_tags[tag] = self.open_tags.get(tag, 0) + 1
            self.tag_calls[tag] = self.tag_calls.get(tag, 0) + 1

    def exit(self, tag: str | None = None) -> None:
        self._charge()
        self.stack.pop()
        if tag is not None:
            depth = self.open_tags[tag] - 1
            if depth:
                self.open_tags[tag] = depth
            else:
                del self.open_tags[tag]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def top(self) -> str:
        return self.stack[-1] if self.stack else NONE

    # -- wrapping ----------------------------------------------------

    def wrap(self, fn, name, tag=None, on_enter=None, on_exit=None):
        """A wrapper of fn recording span `name`; tag may be a function
        of the call's arguments, on_enter(args) runs before the span
        opens and on_exit(args, result) after it closes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            label = tag(*args, **kwargs) if callable(tag) else tag
            tracer.enter(name, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(label)
            if on_exit is not None:
                on_exit(args, result)
            return result

        self.calls.setdefault(name, 0)
        self.self_raw.setdefault(name, {})
        if isinstance(tag, str):
            self.tag_calls.setdefault(tag, 0)
            self.tag_raw.setdefault(tag, {})
        return wrapper

    def close(self) -> None:
        """Charge the time up to now; call just before the stop sample."""
        self._charge()

    def rollup(self) -> dict:
        """Reference-clock self times, tag times, calls and counters."""
        rates = interval_rates(self.samples)
        last = len(rates) - 1

        def ref(slots):
            return sum(dt * rates[min(max(j, 1), last)]
                       for j, dt in slots.items())

        return {'self_s': {name: ref(slots)
                           for name, slots in self.self_raw.items()},
                'tag_s': {tag: ref(slots)
                          for tag, slots in self.tag_raw.items()},
                'calls': dict(self.calls), 'tag_calls': dict(self.tag_calls),
                'started': self.started, 'counts': dict(self.counts),
                'maxima': dict(self.maxima)}


def _replace_everywhere(original, wrapper) -> int:
    """Rebind every module-level name bound to `original`."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == 'soergelind'
                               or mod_name.startswith('soergelind.')):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def _terms_size(cpx) -> int:
    return sum(len(summands) for summands in cpx.terms.values())


def _group_tag(family, rank, subset, *rest, **kwargs) -> str:
    label = ''.join(str(i + 1) for i in subset) or 'none'
    return f'induction.group.{family}{rank}-I{label}'


COUNTERS = ('exactla.sparse_nullspace.unknowns',
            'exactla.sparse_nullspace.max_unknowns',
            'smod.hom_space.kernel_dim', 'smod.decompose.hom_space_calls',
            'smod.decompose.summands', 'homotopy.theta_summands.misses',
            'homotopy.gaussian_eliminate.summands_removed',
            'serialize.load_cached_catalog.bytes',
            'serialize.store_catalog.bytes')


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark names."""
    import soergelind.cli  # noqa: F401  (loads every layer)
    from soergelind import (coinvariants, coxeter, exactla, hecke, homotopy,
                            induction, serialize, smod)

    def fn(module, attr, **kw):
        original = getattr(module, attr)
        short = module.__name__.rsplit('.', 1)[1]
        wrapper = tracer.wrap(original, f'{short}.{attr}', **kw)
        if not _replace_everywhere(original, wrapper):
            raise RuntimeError(f'{short}.{attr} is bound nowhere')

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, **kw))

    for attr in ('build_root_system', 'build_parabolic', 'enumerate_group',
                 'admissible_chain'):
        fn(coxeter, attr)
    for attr in ('kl_basis', 'parabolic_kl', 'predicted_class',
                 'hecke_multiply'):
        fn(hecke, attr)
    for attr in ('build_coinvariants', 'restriction_surjection'):
        fn(coinvariants, attr)

    def nullspace_size(args, result):
        tracer.count('exactla.sparse_nullspace.unknowns', args[1])
        tracer.maximum('exactla.sparse_nullspace.max_unknowns', args[1])

    fn(exactla, 'sparse_nullspace', on_exit=nullspace_size)
    for attr in ('mat_mul', 'rref', 'nullspace', 'invert', 'solve_matrix'):
        fn(exactla, attr)

    def hom_result(args, result):
        tracer.count('smod.hom_space.kernel_dim', len(result))
        if 'smod.decompose' in tracer.open_tags:
            tracer.count('smod.decompose.hom_space_calls')

    def decompose_enter(args):
        if tracer.top() == 'homotopy.theta_summands':
            tracer.count('homotopy.theta_summands.misses')

    def decompose_result(args, result):
        tracer.count('smod.decompose.summands', len(result))

    fn(smod, 'hom_space', on_exit=hom_result)
    fn(smod, 'decompose', tag='smod.decompose', on_enter=decompose_enter,
       on_exit=decompose_result)
    fn(smod, 'is_isomorphic')
    fn(smod, 'build_catalog', tag='smod.build_catalog')
    for attr in ('induce_frobenius', 'restrict_module', 'direct_sum'):
        fn(smod, attr)
    method(smod.ModuleMap, 'compose', 'smod.compose')

    fn(homotopy, 'theta_summands', tag='homotopy.theta_summands')

    def eliminated(args, result):
        tracer.count('homotopy.gaussian_eliminate.summands_removed',
                     _terms_size(args[0]) - _terms_size(result))

    fn(homotopy, 'gaussian_eliminate', on_exit=eliminated)
    for attr in ('tensor_rouquier', 'theta_complex', 'hom_complex_vanishing',
                 'k0_class', 'complex_from_module', 'complexes_isomorphic'):
        fn(homotopy, attr)
    method(homotopy.FormalComplex, 'verify_d_squared',
           'homotopy.verify_d_squared')

    for attr in ('make_setup', 'induce_all', 'induce', 'calibrate_shift'):
        fn(induction, attr)
    fn(induction, 'run_group', tag=_group_tag)
    for group in induction.corpus_groups('full'):
        tag = _group_tag(*group)
        tracer.tag_calls.setdefault(tag, 0)
        tracer.tag_raw.setdefault(tag, {})
    for key in COUNTERS:
        tracer.counts.setdefault(key, 0)
    for attr, kind in (('verify_induced_class', 'induced'),
                       ('verify_base_case', 'base'),
                       ('verify_theta_restriction', 'theta'),
                       ('verify_wall_crossing', 'wall'),
                       ('verify_hom_vanishing', 'hom'),
                       ('hom_positive_control', 'hom')):
        fn(induction, attr, tag=f'induction.check.{kind}')

    def loaded(args, result):
        if result:
            algebra, cache_dir = args[0], args[1]
            path = serialize.catalog_cache_path(
                cache_dir, algebra.root_system, algebra.subset)
            tracer.count('serialize.load_cached_catalog.bytes',
                         os.path.getsize(path))

    def stored(args, result):
        tracer.count('serialize.store_catalog.bytes', os.path.getsize(result))

    fn(serialize, 'load_cached_catalog', on_exit=loaded)
    fn(serialize, 'store_catalog', on_exit=stored)
    fn(serialize, 'dump_json')
