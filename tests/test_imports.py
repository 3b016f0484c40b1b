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


def _calls_outside(name: str, module: str, function: str, text: str = "") -> list[str]:
    """Where a call to ``name`` whose source holds ``text`` is made outside
    the function ``function`` of the module file ``module``."""

    def calls(tree):
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
            and text in ast.unparse(node)
        ]

    outside = []
    for path, tree in _trees():
        inside = [
            line
            for node in ast.walk(tree)
            if path.name == module and isinstance(node, ast.FunctionDef) and node.name == function
            for line in calls(node)
        ]
        outside += [f"{path.name}:{line}" for line in calls(tree) if line not in inside]
    return outside


def test_resource_cap_errors_come_from_check_cap():
    outside = _calls_outside("ResourceCapError", "errors.py", "check_cap")
    assert not outside, f"ResourceCapError raised outside errors.check_cap: {outside}"


def test_square_zero_failures_come_from_check_square_zero():
    """One routine checks d d = 0 and certifies its failure, for every complex."""
    outside = _calls_outside(
        "InvariantViolation", "chains.py", "_check_square_zero", "boundary squared is nonzero"
    )
    assert not outside, f"d d != 0 failure built outside chains._check_square_zero: {outside}"


def test_cycle_bases_are_built_only_for_representatives():
    """Induced ranks are counted from the echelons Inf and Sup keep, so
    ``kernel_basis`` serves only ``betti(representatives=True)``."""
    outside = _calls_outside("kernel_basis", "homology.py", "betti")
    assert not outside, f"kernel_basis called outside homology.betti: {outside}"


def test_boundary_columns_are_built_from_faces_in_two_places():
    """With no ambient, from face tuples (``chains._edge_chains``), and for a
    filtration of simplices, from integer ranks (``filtration._rank_basis``);
    inside an ambient its columns are read, so no path rebuilds them."""
    outside = _calls_outside("_integer_columns", "chains.py", "_edge_chains")
    assert not outside, f"_integer_columns called elsewhere: {sorted(outside)}"


def test_reports_have_one_emit_path():
    """``json.dumps`` with ``indent`` runs the pure-Python encoder; reports
    and hypergraphs are written by ``jsonio._encode`` instead."""
    indented = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert not indented, f"json.dumps with indent: {indented}"
    tree = ast.parse((PACKAGE / "jsonio.py").read_text())
    emitters = {
        node.name: {getattr(c.func, "id", None) for c in ast.walk(node) if isinstance(c, ast.Call)}
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("to_json", "emit_hypergraph")
    }
    assert emitters.keys() == {"to_json", "emit_hypergraph"}
    assert all("_encode" in calls for calls in emitters.values()), emitters


def _defaulted(args: ast.arguments) -> list[ast.arg]:
    """The parameters that have a default value."""
    positional = args.posonlyargs + args.args
    keyword = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[len(positional) - len(args.defaults) :] + keyword


def test_inf_and_sup_come_from_one_elimination_loop():
    """``_outside_echelon`` is called at one site, the loop that both
    assemblers read, and the per-kind builders are gone: no function of
    the package is named for them, and no ``eliminated`` parameter has a
    default under which a builder would eliminate again."""
    nodes = [(path.name, node) for path, tree in _trees() for node in ast.walk(tree)]
    calls = [
        f"{name}:{node.lineno}"
        for name, node in nodes
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_outside_echelon"
    ]
    assert len(calls) == 1, calls
    builders = ("largest_inside", "smallest_containing", "_embedded")
    defined = [
        f"{name}:{node.lineno}"
        for name, node in nodes
        if isinstance(node, DEFINITIONS) and node.name in builders
    ]
    assert not defined, defined
    defaulted = [
        f"{name}:{node.lineno}"
        for name, node in nodes
        if isinstance(node, FUNCTIONS) and "eliminated" in (a.arg for a in _defaulted(node.args))
    ]
    assert not defaulted, defaulted


def test_persistent_betti_picks_one_of_two_filtered_bases():
    """One whole ``build_filtration`` takes the simplex basis of its pair
    steps, and any other nested steps the echelon basis of their Inf (or Sup)
    complexes; ``persistent_betti`` alone picks, and no route maps the edges
    of hand-built steps to simplex ranks."""
    outside = [
        site
        for name in ("_rank_basis", "_echelon_basis")
        for site in _calls_outside(name, "filtration.py", "persistent_betti")
    ]
    assert not outside, f"a filtered basis built outside filtration.persistent_betti: {outside}"
    defined = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS) and node.name == "_hypergraph_ranks"
    ]
    assert not defined, defined
