"""Every name a package module imports is used in that module, and every
function or class it defines is used somewhere.

AST scans in place of a linter: a module's imported names must appear as
a name somewhere in its body, or be listed in its ``__all__`` (a
re-export).  ``__init__.py`` re-exports by design and is skipped.  A
module-level definition must be referenced from the package, the tests,
the scripts or the benchmark, or be listed in ``__all__``; a method that
is not a dunder method must be referenced there as an attribute.  Every
parameter of a package function or lambda is read in its body.  The
exact-arithmetic modules hold no true division, which would turn int
scalars into floats.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperhomology"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | _exported(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {
        name: line for name, line in _imported(tree).items() if name not in _used(tree)
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


ROOT = PACKAGE.parent.parent
SEARCHED = ("src", "tests", "scripts", "bench")


def _python_files():
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not any(part.startswith(".") for part in path.relative_to(ROOT).parts):
                yield path


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names a module uses, and the subset it uses as attributes.  Both
    count the parts of dotted strings (the benchmark's tracer names its
    targets so); the names also count identifiers and imported names."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.update(p for p in node.value.split(".") if p.isidentifier())
    return names | attributes, attributes


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(definition, is a method): module-level functions and classes, and
    the methods of those classes other than dunder methods, which the
    language calls by protocol."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITIONS) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield member, True


def test_no_dead_definitions():
    """Every module-level function or class of the package is referenced
    somewhere in src/, tests/, scripts/ or bench/, or listed in __all__;
    every method of its classes is referenced there as an attribute."""
    referenced, attributes = set(), set()
    for path in _python_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        names, attrs = _references(tree)
        referenced |= names | _exported(tree)
        attributes |= attrs
    dead = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in MODULES
        for node, is_method in _definitions(ast.parse(path.read_text()))
        if node.name not in (attributes if is_method else referenced)
    ]
    assert not dead, f"defined but never referenced: {dead}"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    """A parameter that its function never reads (``del`` is not a read) is
    a knob that does nothing; ``self`` and ``cls`` are exempt."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, FUNCTIONS):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for statement in body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{getattr(node, 'name', 'lambda')}:{node.lineno} {name}"
            for name in params
            if name not in read and name not in ("self", "cls")
        ]
    assert not unread, f"{path.name} has parameters that are never read: {unread}"


EXACT = ("linalg.py", "chains.py", "homology.py")


@pytest.mark.parametrize("name", EXACT)
def test_no_true_division_in_exact_modules(name):
    """A stray ``/`` on two int scalars gives a float and an inexact rank;
    exact code divides with ``//`` or ``Fraction``."""
    path = PACKAGE / name
    divisions = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert not divisions, f"{name} divides with '/' on lines {divisions}"


def _trees():
    for path in MODULES + [PACKAGE / "__init__.py"]:
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_function_takes_a_cap():
    """A cap is read from its environment variable where it is checked
    (``errors.check_cap``), not passed down through the signatures."""
    capped = [
        f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, FUNCTIONS)
        for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if a.arg == "cap"
    ]
    assert not capped, f"functions with a cap parameter: {capped}"


def test_only_errors_reads_the_environment():
    readers = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        if path.name != "errors.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        or isinstance(node, ast.alias) and node.name in ("environ", "getenv")
    ]
    assert not readers, f"the environment is read outside errors.py: {readers}"


def test_resource_cap_errors_come_from_check_cap():
    def raised(tree):
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ResourceCapError"
        ]

    outside = []
    for path, tree in _trees():
        inside = [
            line
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "check_cap"
            for line in raised(node)
        ]
        if path.name != "errors.py":
            inside = []
        outside += [f"{path.name}:{line}" for line in raised(tree) if line not in inside]
    assert not outside, f"ResourceCapError raised outside errors.check_cap: {outside}"
