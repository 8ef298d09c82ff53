"""Command-line front end.

Four subcommands: `group` prints Weyl-group data, `kl` prints a
Kazhdan-Lusztig basis element, `indw` runs one parabolic induction and
compares the computed class against the character prediction, and
`verify` runs the verification sweep over the whole corpus.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 internal assertion failure.  The cache directory (--cache-dir, or
the SOERGELIND_CACHE_DIR environment variable) stores one catalog file
per root datum so repeated runs skip the Bott-Samelson splittings.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .coxeter import RootSystem, build_root_system, build_parabolic, \
    admissible_chain
from .errors import (CalibrationError, ConfigurationError,
                     IncompatibilityError, InternalCheckError)
from .hecke import kl_basis
from .homotopy import k0_class
from .induction import (CALIBRATION_SYSTEMS, DEFAULT_RECORD, calibrate_shift,
                        make_setup, induce, verify_induced_class, run_corpus)
from .serialize import dump_json

__all__ = ['main', 'build_parser', 'parse_word']


def parse_word(rs: RootSystem, text: str):
    """A reduced group element from "s2 s1"- or "2 1"-style text.

    The word is validated letter by letter and the element is returned
    with its canonical reduced word, so non-reduced input is accepted
    but never used verbatim.
    """
    letters = []
    for token in text.split():
        tok = token.lower().lstrip('s')
        if not tok.isdigit():
            raise ConfigurationError(f"cannot read generator {token!r}")
        i = int(tok)
        if not 1 <= i <= rs.rank:
            raise ConfigurationError(
                f"generator {token!r} out of range 1..{rs.rank}")
        letters.append(i - 1)
    w = rs.identity
    for i in letters:
        w = w * rs.simple_reflection(i)
    return w


def _parse_parabolic(arg: str, rank: int) -> tuple:
    if not arg:
        return ()
    out = []
    for piece in arg.split(','):
        piece = piece.strip()
        if not piece.isdigit() or not 1 <= int(piece) <= rank:
            raise ConfigurationError(
                f"parabolic index {piece!r} out of range 1..{rank}")
        out.append(int(piece) - 1)
    return tuple(sorted(set(out)))


def _word_str(w) -> str:
    return ' '.join(str(i) for i in w.word_1based()) or 'e'


def cmd_group(args) -> int:
    rs = build_root_system(args.type, args.rank)
    print(f'W({args.type}{args.rank}): {len(rs.elements)} elements')
    lengths = sorted(w.length for w in rs.elements)
    print(f'lengths: {lengths}')
    longest = max(rs.elements, key=lambda w: w.length)
    print(f'longest element: {_word_str(longest)}')
    if args.parabolic is not None:
        subset = _parse_parabolic(args.parabolic, rs.rank)
        datum = build_parabolic(rs, subset)
        reps = sorted(datum.min_reps, key=lambda u: (u.length, u.word))
        label = ','.join(str(i + 1) for i in subset) or 'empty'
        print(f'W^I for I={{{label}}}: {len(reps)} minimal representatives')
        for u in reps:
            print(f'  {_word_str(u)}')
    return 0


def cmd_kl(args) -> int:
    rs = build_root_system(args.type, args.rank)
    w = parse_word(rs, args.w)
    element = kl_basis(w)
    print(f'b_{_word_str(w).replace(" ", "")} = {element!r}')
    return 0


def cmd_indw(args) -> int:
    subset_arg = args.parabolic if args.parabolic is not None else ''
    subset = _parse_parabolic(subset_arg, args.rank)
    setup = make_setup(args.type, args.rank, subset, args.cache_dir)
    rs = setup.rs
    x = parse_word(rs, args.x) if args.x else rs.identity
    w = parse_word(rs, args.w)
    if x not in setup.datum.elements_WI:
        raise ConfigurationError(
            f"x = {_word_str(x)} does not lie in the parabolic subgroup")
    chain = admissible_chain(setup.datum, w)
    if chain is None:
        raise ConfigurationError(
            f"w = {_word_str(w)} is not a minimal representative with an "
            f"admissible chain")
    report = verify_induced_class(setup, x, w)
    cpx = induce(setup, x, w)
    print(f'ind_[{_word_str(w)}] D^I_[{_word_str(x)}]  '
          f'(chain {" ".join(str(i + 1) for i in chain)})')
    for i in sorted(cpx.terms):
        bits = ', '.join(f'D_[{_word_str(y)}]<{k}>'
                         for y, k in cpx.terms[i])
        print(f'  degree {i}: {bits}')
    print(f'computed class:  {report.computed_class}')
    print(f'predicted class: {report.predicted_class}')
    print(f'status: {report.status}')
    if args.json:
        dump_json({'report': report.to_json(), 'complex': cpx.to_json()},
                  args.json)
    return 0 if report.ok() else 1


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.cache_dir:
        # calibration runs on the full catalogs of these root systems:
        # load them from the cache directory, or store them there
        for family, rank in CALIBRATION_SYSTEMS:
            make_setup(family, rank, (), args.cache_dir)
    record = calibrate_shift()
    print(f'calibration: shift={record.shift} sign={record.sign}')
    if record != DEFAULT_RECORD:
        raise CalibrationError(
            f"calibration gives {record}, but the sweep induces with "
            f"{DEFAULT_RECORD}")
    results = run_corpus(args.corpus, jobs=args.jobs,
                         cache_dir=args.cache_dir)
    names = {'induced': 'induced classes', 'base': 'base cases',
             'theta': 'wall-crossing restriction', 'wall': 'cone identity',
             'hom': 'hom vanishing'}
    all_ok = True
    for check, reports in results.items():
        bad = [r for r in reports if not r.ok()]
        all_ok = all_ok and not bad
        status = 'ok' if not bad else f'{len(bad)} FAILED'
        print(f'{names.get(check, check)}: {len(reports)} checks, {status}')
        for r in bad[:5]:
            print(f'  FAIL {r.instance}')
    print(f'total time: {time.perf_counter() - t0:.1f}s')
    if args.json:
        dump_json({
            'corpus': args.corpus,
            'calibration': {'shift': record.shift, 'sign': record.sign},
            'checks': {check: [r.to_json() for r in reports]
                       for check, reports in results.items()},
            'summary': {check: {'run': len(reports),
                                'failed': sum(not r.ok() for r in reports)}
                        for check, reports in results.items()},
        }, args.json)
    return 0 if all_ok else 1


def _add_root_flags(sub, parabolic=False):
    sub.add_argument('--type', required=True, type=str.upper,
                     choices=['A', 'B', 'C', 'D', 'G', 'F'])
    sub.add_argument('--rank', required=True, type=int)
    if parabolic:
        sub.add_argument('--parabolic', default=None,
                         help='comma-separated 1-based generator indices')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='soergelind',
        description='graded parabolic induction for Soergel modules')
    default_cache = os.environ.get('SOERGELIND_CACHE_DIR')
    subs = parser.add_subparsers(dest='command', required=True)

    p = subs.add_parser('group', help='Weyl group summary')
    _add_root_flags(p, parabolic=True)
    p.set_defaults(func=cmd_group)

    p = subs.add_parser('kl', help='Kazhdan-Lusztig basis element')
    _add_root_flags(p)
    p.add_argument('--w', required=True, help='reduced word, e.g. "1 2 1"')
    p.set_defaults(func=cmd_kl)

    p = subs.add_parser('indw', help='induce one module and verify its class')
    _add_root_flags(p, parabolic=True)
    p.add_argument('--x', default='', help='element of W_I (default e)')
    p.add_argument('--w', required=True, help='minimal coset representative')
    p.add_argument('--json', default=None, help='write a JSON report here')
    p.add_argument('--cache-dir', default=default_cache)
    p.set_defaults(func=cmd_indw)

    p = subs.add_parser('verify', help='run the verification sweep')
    p.add_argument('--corpus', default='full', choices=['full', 'quick'])
    p.add_argument('--jobs', type=int, default=1)
    p.add_argument('--json', default=None, help='write a JSON report here')
    p.add_argument('--cache-dir', default=default_cache)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f'usage error: {exc}', file=sys.stderr)
        return 2
    except (InternalCheckError, IncompatibilityError,
            CalibrationError) as exc:
        print(f'internal assertion failed: {exc}', file=sys.stderr)
        return 3


if __name__ == '__main__':
    sys.exit(main())
