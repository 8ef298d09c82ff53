"""Exact JSON round-trips for modules, catalogs, and reports.

All rational numbers are serialized as "p/q" strings in lowest terms
(plain "p" when the denominator is 1) so that nothing ever passes
through floating point.  This module owns that codec:
:func:`fraction_to_str` writes the canonical strings (and
:func:`matrix_to_json` the same strings straight from the ints of an
integer form, as module actions and map blocks are kept), and
:func:`fraction_from_str` reads back exactly those and nothing else,
so a JSON number or any other string in their place makes the file
unreadable.
Catalog files carry enough data to rebuild every indecomposable
without re-running the Bott-Samelson splittings: the graded dimensions
and the generator action matrices.  Cache files are named by a content
hash of the root datum, so stale files from a different Cartan matrix
or subset can never be picked up by accident.  A cache file that
cannot be read (not JSON, JSON nested too deeply to parse, JSON of the
wrong shape, or an entry that does not decode) counts as a miss, with
a warning, and is rebuilt; one that reads but fails validation is an
error that names the file, and so is a cache path the system refuses
to read or write (a directory in the file's place, for instance).
:func:`module_from_json` is where a module's data are validated: even
degrees, variables of the algebra, and action matrices of the shape
of their pieces, zero into or out of a zero piece.  The
shape is strict: where the format has a list or an object the file
must have one, every integer field (rank, parabolic, word letters,
dimensions, var, degree) must be a JSON integer, so an equal float or
a boolean there is the wrong shape, a dims key must be an integer in
canonical decimal form ("2", not "02" or " 2"), and a module has one
action per (var, degree).  Files are replaced atomically, so
concurrent writers of the same file leave one complete copy.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction
from math import gcd

from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError)
from .exactla import to_form
from .hecke import expected_graded_dims
from .smod import GradedModule, IndecomposableCatalog

__all__ = [
    'fraction_to_str', 'fraction_from_str', 'matrix_to_json',
    'matrix_from_json', 'module_to_json', 'module_from_json',
    'catalog_to_json', 'catalog_from_json', 'content_key',
    'catalog_cache_path', 'load_cached_catalog', 'store_catalog',
    'dump_json',
]


def _typed(x, kind):
    """x, when its type is kind; else the file has the wrong shape."""
    if type(x) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, not {x!r}")
    return x


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
    _typed(s, str)
    try:
        value = Fraction(s)
    except ZeroDivisionError:
        value = None
    # Fraction also reads decimals, exponents, spaces and underscores;
    # only the canonical spelling comes back unchanged
    if value is None or fraction_to_str(value) != s:
        raise ValueError(f"{s!r} is not a fraction in lowest terms")
    return value


def _degree(key: str) -> int:
    """A dims key: an integer in canonical decimal form."""
    d = int(key)
    if str(d) != key:
        raise ValueError(f"dims key {key!r} is not a canonical integer")
    return d


def _ratio_str(x: int, den: int) -> str:
    """fraction_to_str(Fraction(x, den)), from the ints alone."""
    g = gcd(x, den)
    return str(x // g) if g == den else f'{x // g}/{den // g}'


def matrix_to_json(form, nrows: int, ncols: int) -> list:
    """The strings of the matrix of an integer form (exactla.to_form),
    all "0" for None, written straight from its ints."""
    if form is None:
        return [['0'] * ncols for _ in range(nrows)]
    den, rows = form
    return [[_ratio_str(x, den) for x in row] for row in rows]


def matrix_from_json(data, decode=fraction_from_str) -> list:
    # the type comes first: a cached decode hashes its argument
    return [[decode(_typed(x, str)) for x in _typed(row, list)]
            for row in _typed(data, list)]


def module_to_json(module: GradedModule) -> dict:
    return {
        'dims': {str(d): n for d, n in sorted(module.graded_dims.items())},
        'actions': [
            {'var': i + 1, 'degree': d,
             'matrix': matrix_to_json(form, module.dim_at(d + 2),
                                      module.dim_at(d))}
            for (i, d), form in sorted(module.forms.items())],
    }


def module_from_json(algebra, data: dict,
                     decode=fraction_from_str) -> GradedModule:
    """The module of a file entry, once its data fit its algebra.

    Every action matrix is decoded first; then nonzero dimensions must
    sit in even degrees (ConfigurationError), and each action must be of
    a variable of the algebra, zero into or out of a zero piece, and
    else of the shape of its pieces (IncompatibilityError).  A zero
    action between nonzero pieces is kept as a None form, as the
    builders keep it, so a file reads back to the module it was written
    from.
    """
    dims = {_degree(d): _typed(n, int)
            for d, n in _typed(data['dims'], dict).items()}
    actions = {}
    for entry in _typed(data['actions'], list):
        key = (_typed(entry['var'], int) - 1, _typed(entry['degree'], int))
        if key in actions:
            raise ValueError(f"a second action of variable {key[0] + 1} "
                             f"at degree {key[1]}")
        actions[key] = matrix_from_json(entry['matrix'], decode)
    for d in sorted(dims):
        if dims[d] and d % 2:
            raise ConfigurationError(
                f"modules must be evenly graded; got degree {d}")
    n = algebra.root_system.rank
    forms = {}
    for (i, d), m in actions.items():
        if not 0 <= i < n:
            raise IncompatibilityError(
                f"action of variable {i + 1} outside the {n} variables")
        rows, cols = dims.get(d + 2, 0), dims.get(d, 0)
        if rows == 0 or cols == 0:
            if any(x for row in m for x in row):
                raise IncompatibilityError(
                    "nonzero action into a zero graded piece")
            continue
        if len(m) != rows or any(len(r) != cols for r in m):
            raise IncompatibilityError(
                f"action matrix for variable {i + 1} at degree {d} "
                f"has wrong shape")
        forms[(i, d)] = to_form(m)
    return GradedModule(algebra, dims, forms)


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
    rank = _typed(data['rank'], int)
    subset = tuple(_typed(i, int) - 1
                   for i in _typed(data['parabolic'], list))
    if (data['family'] != rs.cartan_type or rank != rs.rank
            or subset != tuple(sorted(algebra.subset))):
        raise InternalCheckError(
            "catalog file does not describe this algebra")
    members = {w for w in rs.elements if set(w.word) <= set(algebra.subset)}
    # each distinct entry string is decoded once per file, and the
    # immutable Fraction shared by every matrix that holds it
    decode = functools.cache(fraction_from_str)
    entries = {}
    for item in _typed(data['entries'], list):
        w = rs.element_from_word([_typed(i, int) - 1
                                  for i in _typed(item['word'], list)])
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
    file that fails validation (an entry that module_from_json or
    catalog_from_json refuses) raises InternalCheckError naming the
    file, and a path that cannot be read ConfigurationError.
    """
    path = catalog_cache_path(cache_dir, algebra.root_system,
                              algebra.subset)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        return catalog_from_json(algebra, data)
    except (ConfigurationError, IncompatibilityError,
            InternalCheckError) as exc:
        raise InternalCheckError(
            f"cache file {path} fails validation: {exc}") from exc
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

    The file appears complete or not at all, a failed write leaves an
    older file in place, and a symlink is followed to the file it names.
    """
    path = os.path.realpath(path)
    tmp = f'{path}.{os.getpid()}.tmp'
    try:
        with open(tmp, 'w') as fh:
            # one line: without indent, json.dumps runs the C encoder
            fh.write(json.dumps(data, sort_keys=True) + '\n')
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
