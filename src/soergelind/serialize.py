"""Exact JSON round-trips for modules, catalogs, and reports.

All rational numbers are serialized as "p/q" strings in lowest terms
(plain "p" when the denominator is 1) so that nothing ever passes
through floating point, and only those strings are read back: a JSON
number or any other string in their place makes the file unreadable.
Catalog files carry enough data to rebuild every indecomposable
without re-running the Bott-Samelson splittings: the graded dimensions
and the generator action matrices.  Cache files are named by a
content hash of the root datum, so stale files from a different Cartan
matrix or subset can never be picked up by accident.  A cache file
that cannot be read (not JSON, JSON nested too deeply to parse, JSON of
the wrong shape, or an entry that does not decode) counts as a miss,
with a warning; one that reads but fails validation is an error, and
so is a cache path the system refuses to read or write (a directory in
the file's place, for instance).  Files are replaced atomically, so
concurrent writers of the same file leave one complete copy.
"""

from __future__ import annotations

import functools
import json
import os
import sys

from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)
from .laurent import fraction_from_str, fraction_to_str
from .smod import (GradedModule, IndecomposableCatalog, expected_graded_dims)

__all__ = [
    'fraction_to_str', 'fraction_from_str', 'matrix_to_json',
    'matrix_from_json', 'module_to_json', 'module_from_json',
    'catalog_to_json', 'catalog_from_json', 'content_key',
    'catalog_cache_path', 'load_cached_catalog', 'store_catalog',
    'dump_json',
]


def matrix_to_json(m) -> list:
    return [[fraction_to_str(x) for x in row] for row in m]


def matrix_from_json(data, decode=fraction_from_str) -> list:
    return [[decode(x) for x in row] for row in data]


def module_to_json(module: GradedModule) -> dict:
    return {
        'dims': {str(d): n for d, n in sorted(module.graded_dims.items())},
        'actions': [
            {'var': i + 1, 'degree': d, 'matrix': matrix_to_json(m)}
            for (i, d), m in sorted(module.actions.items())],
    }


def module_from_json(algebra, data: dict,
                     decode=fraction_from_str) -> GradedModule:
    dims = {int(d): n for d, n in data['dims'].items()}
    actions = {(entry['var'] - 1, entry['degree']):
               matrix_from_json(entry['matrix'], decode)
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
    members = {w for w in rs.elements if set(w.word) <= set(algebra.subset)}
    # each distinct entry string is decoded once per file, and the
    # immutable Fraction shared by every matrix that holds it
    decode = functools.cache(fraction_from_str)
    entries = {}
    for item in data['entries']:
        w = rs.element_from_word([i - 1 for i in item['word']])
        if w not in members or w in entries:
            raise InternalCheckError(
                f"catalog file has a stray or second entry for {w!r}")
        module = module_from_json(algebra, item, decode)
        if module.graded_dims != expected_graded_dims(w):
            raise InternalCheckError(
                f"cached entry for {w!r} has graded character "
                f"{module.graded_dims}; Kazhdan-Lusztig predicts "
                f"{expected_graded_dims(w)}")
        entries[w] = module
    if len(entries) != len(members):
        raise InternalCheckError(
            f"catalog file has {len(entries)} of the {len(members)} entries")
    return IndecomposableCatalog(algebra, entries)


# ---------------------------------------------------------------------------
# cache directory layout: one file per (family, rank, subset)


def content_key(rs, subset) -> str:
    # the builtin SHA-256 (named _sha2 from Python 3.12) spares a query
    # the OpenSSL library that hashlib loads
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    payload = json.dumps({
        'family': rs.cartan_type, 'rank': rs.rank,
        'cartan': [list(row) for row in rs.cartan],
        'parabolic': sorted(subset),
    }, sort_keys=True)
    return sha256(payload.encode()).hexdigest()[:16]


def catalog_cache_path(cache_dir: str, rs, subset) -> str:
    tag = ''.join(str(i + 1) for i in sorted(subset)) or 'none'
    name = (f'catalog-{rs.cartan_type}{rs.rank}-I{tag}-'
            f'{content_key(rs, subset)}.json')
    return os.path.join(cache_dir, name)


def load_cached_catalog(algebra, cache_dir: str):
    """The algebra's catalog from cache_dir, or None on a miss.

    A file that is not JSON (or nested too deeply to parse), or JSON of
    the wrong shape, is a miss and is reported on stderr; a readable
    file that fails validation raises InternalCheckError, and a path
    that cannot be read ConfigurationError.
    """
    path = catalog_cache_path(cache_dir, algebra.root_system,
                              algebra.subset)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        return catalog_from_json(algebra, data)
    except (ConfigurationError, IncompatibilityError) as exc:
        raise InternalCheckError(
            f"cache file {path} does not decode: {exc}") from exc
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read cache file {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f'warning: unreadable cache file {path} '
              f'({type(exc).__name__}: {exc}); rebuilding it',
              file=sys.stderr)
        return None


def store_catalog(catalog: IndecomposableCatalog, cache_dir: str) -> str:
    """Write the catalog's cache file; an OSError is ConfigurationError."""
    path = catalog_cache_path(cache_dir, catalog.algebra.root_system,
                              catalog.algebra.subset)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        dump_json(catalog_to_json(catalog), path)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot store cache file {path}: {exc}") from exc
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
