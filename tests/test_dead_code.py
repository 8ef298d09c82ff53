"""Every method and private function of the package is read somewhere.

A method that no code reads, neither the package nor its tests nor the
benchmark, is dead weight: it has to be kept correct and compiled by
every process.  A method counts as read when its name appears as an
attribute (`x.name`) or as the name string of a `getattr`, `setattr`,
`hasattr` or `delattr` call in `src/`, `tests/` or `perfbench/`.
Dunder methods are read by the interpreter and are not checked.  A
private module-level function (`def _name`) counts as read when its
name appears outside its own body: as a name, an attribute, an
imported name or a string of its own.  A public function must run
(see TEST_ONLY for the references only the tests read).
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / 'src' / 'soergelind'
ATTR_CALLS = {'getattr', 'setattr', 'hasattr', 'delattr'}


def parsed(directory):
    return [ast.parse(path.read_text(), str(path))
            for path in sorted(directory.rglob('*.py'))]


def read_names(trees) -> set:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ATTR_CALLS and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def test_every_method_is_read_somewhere():
    package = parsed(PACKAGE)
    names = read_names(package + parsed(ROOT / 'tests')
                       + parsed(ROOT / 'perfbench'))
    unread = sorted(
        f'{cls.name}.{item.name}'
        for tree in package for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith('__') and item.name.endswith('__'))
        and item.name not in names)
    assert unread == []


def named(node) -> Counter:
    """How often each name appears under node, as a name, an attribute,
    an imported name or a whole string."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def test_every_private_function_is_read_outside_itself():
    package = parsed(PACKAGE)
    everywhere = Counter()
    for tree in package + parsed(ROOT / 'tests') + parsed(ROOT / 'perfbench'):
        everywhere.update(named(tree))
    unread = sorted(
        func.name for tree in package for func in tree.body
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and func.name.startswith('_') and not func.name.endswith('__')
        and everywhere[func.name] == named(func)[func.name])
    assert unread == []


# public names only the tests read, each with the code it checks
TEST_ONLY = {
    'hecke.bar_involution': 'hecke.kl_basis, whose b_w are bar-invariant',
    'homotopy.is_minimal': 'homotopy.gaussian_eliminate',
    'polynomials.demazure': 'polynomials.PolyRing.apply_simple',
    'polynomials.PolyRing.apply_weyl': 'coinvariants._average',
    'polynomials.PolyRing.variable': 'coinvariants.build_coinvariants',
}


def loaded(node) -> Counter:
    """How often each name is loaded under node, bare or as attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute))
                   and isinstance(sub.ctx, ast.Load))


def defined(prefix, body):
    """(qualified name, def) of each function in body and its classes."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from defined(f'{prefix}.{node.name}', node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f'{prefix}.{node.name}', node


def test_every_public_function_runs_or_is_declared():
    """Each is loaded by src/ outside its own body (not as an `__all__`
    string or an import) or named by perfbench's code, or else is a row
    of TEST_ONLY; a row that is read, or gone, fails.  Names are matched,
    not bindings: one that something else shares (`rank`) passes."""
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob('*.py'))}
    in_src = sum(map(loaded, modules.values()), Counter())
    in_bench = sum((named(ast.parse(path.read_text()))
                    for path in (ROOT / 'perfbench').glob('*.py')
                    if not path.name.startswith('test_')), Counter())
    unread = sorted(
        name for module, tree in modules.items()
        for name, func in defined(module, tree.body)
        if not func.name.startswith('_') and not in_bench[func.name]
        and in_src[func.name] == loaded(func)[func.name])
    assert unread == sorted(TEST_ONLY)
