"""Exact JSON round-trips for modules, catalogs, and reports.

All rational numbers are serialized as "p/q" strings (plain "p" when
the denominator is 1) so that nothing ever passes through floating
point.  Catalog files carry enough data to rebuild every
indecomposable without re-running the Bott-Samelson splittings: the
graded dimensions and the generator action matrices.  Cache files are
named by a content hash of the root datum, so stale files from a
different Cartan matrix or subset can never be picked up by accident.
A cache file that cannot be read (not JSON, or JSON of the wrong
shape) counts as a miss, with a warning; one that reads but fails
validation is an error.  Files are replaced atomically, so concurrent
writers of the same file leave one complete copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction

from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)
from .smod import (GradedModule, IndecomposableCatalog, expected_graded_dims)

__all__ = [
    'fraction_to_str', 'fraction_from_str', 'matrix_to_json',
    'matrix_from_json', 'module_to_json', 'module_from_json',
    'catalog_to_json', 'catalog_from_json', 'content_key',
    'catalog_cache_path', 'load_cached_catalog', 'store_catalog',
    'dump_json',
]


def fraction_to_str(c: Fraction) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else (
        f'{c.numerator}/{c.denominator}')


def fraction_from_str(s: str) -> Fraction:
    return Fraction(s)


def matrix_to_json(m) -> list:
    return [[fraction_to_str(x) for x in row] for row in m]


def matrix_from_json(data) -> list:
    return [[fraction_from_str(x) for x in row] for row in data]


def module_to_json(module: GradedModule) -> dict:
    return {
        'dims': {str(d): n for d, n in sorted(module.graded_dims.items())},
        'actions': [
            {'var': i + 1, 'degree': d, 'matrix': matrix_to_json(m)}
            for (i, d), m in sorted(module.actions.items())],
    }


def module_from_json(algebra, data: dict) -> GradedModule:
    dims = {int(d): n for d, n in data['dims'].items()}
    actions = {(entry['var'] - 1, entry['degree']):
               matrix_from_json(entry['matrix'])
               for entry in data['actions']}
    return GradedModule(algebra, dims, actions)


def catalog_to_json(catalog: IndecomposableCatalog) -> dict:
    rs = catalog.algebra.root_system
    return {
        'family': rs.cartan_type,
        'rank': rs.rank,
        'parabolic': [i + 1 for i in sorted(catalog.algebra.subset)],
        'entries': [
            {'word': w.word_1based(), **module_to_json(catalog.entry(w))}
            for w in catalog.elements()],
    }


def catalog_from_json(algebra, data: dict) -> IndecomposableCatalog:
    rs = algebra.root_system
    if (data['family'] != rs.cartan_type or data['rank'] != rs.rank
            or tuple(i - 1 for i in data['parabolic'])
            != tuple(sorted(algebra.subset))):
        raise InternalCheckError(
            "catalog file does not describe this algebra")
    entries = {}
    provenance = {}
    for item in data['entries']:
        w = rs.element_from_word([i - 1 for i in item['word']])
        module = module_from_json(algebra, item)
        if module.graded_dims != expected_graded_dims(w):
            raise InternalCheckError(
                f"cached entry for {w!r} has graded character "
                f"{module.graded_dims}; Kazhdan-Lusztig predicts "
                f"{expected_graded_dims(w)}")
        entries[w] = module
        provenance[w] = {'built_from': 'cache'}
    return IndecomposableCatalog(algebra, entries, provenance)


# ---------------------------------------------------------------------------
# cache directory layout: one file per (family, rank, subset)


def content_key(rs, subset) -> str:
    payload = json.dumps({
        'family': rs.cartan_type, 'rank': rs.rank,
        'cartan': [list(row) for row in rs.cartan],
        'parabolic': sorted(subset),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def catalog_cache_path(cache_dir: str, rs, subset) -> str:
    tag = ''.join(str(i + 1) for i in sorted(subset)) or 'none'
    name = (f'catalog-{rs.cartan_type}{rs.rank}-I{tag}-'
            f'{content_key(rs, subset)}.json')
    return os.path.join(cache_dir, name)


def load_cached_catalog(algebra, cache_dir: str):
    """The algebra's catalog from cache_dir, or None on a miss.

    A file that is not JSON, or JSON of the wrong shape, is a miss and
    is reported on stderr; a readable file that fails validation
    raises.
    """
    path = catalog_cache_path(cache_dir, algebra.root_system,
                              algebra.subset)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        return catalog_from_json(algebra, data)
    except (ConfigurationError, IncompatibilityError):
        raise
    except (ValueError, KeyError, TypeError) as exc:
        print(f'warning: unreadable cache file {path} '
              f'({type(exc).__name__}: {exc}); rebuilding it',
              file=sys.stderr)
        return None


def store_catalog(catalog: IndecomposableCatalog, cache_dir: str) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    path = catalog_cache_path(cache_dir, catalog.algebra.root_system,
                              catalog.algebra.subset)
    dump_json(catalog_to_json(catalog), path)
    return path


def dump_json(data, path: str) -> None:
    """Write data to path through a temporary file in the same directory.

    The file appears complete or not at all, and a failed write leaves
    an older file in place.
    """
    tmp = f'{path}.{os.getpid()}.tmp'
    try:
        with open(tmp, 'w') as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write('\n')
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
