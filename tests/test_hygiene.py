"""Source hygiene of the package: every imported name is used, no module
imports another module's private name, every public function, class and
method is used by the program, only the DSL module builds identity trees
(everything else states a law as .idl text), only structures decides laws,
and every method the benchmark tracer patches still exists."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from importlib import resources
from pathlib import Path

import pytest


def package_sources():
    folder = resources.files("bihomcheck")
    return sorted(
        (p for p in folder.iterdir() if p.name.endswith(".py")), key=lambda p: p.name
    )


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names quoted in annotations, such as -> "Scalar"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", package_sources(), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom x import y, z\nprint(y)\n") == [
        "os (line 1)", "z (line 2)",
    ]


def private_imports(source: str) -> list:
    """Names starting with an underscore, but not dunders, that the source
    imports from another module, as 'name (line n)'."""
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )


@pytest.mark.parametrize("path", package_sources(), ids=lambda p: p.name)
def test_no_private_imports(path):
    """A name a module shares is public: an underscore name is the module's
    own, and a change to it cannot break another module."""
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from . import __version__\n"
        "from .structures import Report, _predicate_id\n"
        "def f():\n    from .engine import _plan as plan\n"
    )
    assert private_imports(source) == ["_plan (line 5)", "_predicate_id (line 3)"]


def nodes_outside(tree, skip=None):
    """Every node of tree outside the subtree skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def names_used(tree, skip=None) -> set:
    """Every name and attribute read in tree, outside the subtree skip."""
    out = set()
    for node in nodes_outside(tree, skip):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def attributes_read(tree, skip=None) -> set:
    return {n.attr for n in nodes_outside(tree, skip) if isinstance(n, ast.Attribute)}


def unused_definitions(package: dict, others) -> list:
    """'module.name' of each public top-level function or class of the
    package modules ({file name: source}) that no other code reads: neither
    the rest of the package nor the sources in others."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    read = {name: names_used(tree) for name, tree in trees.items()}
    outside = set().union(*(names_used(ast.parse(source)) for source in others))
    unused = []
    for file_name, tree in trees.items():
        elsewhere = outside.union(*(r for name, r in read.items() if name != file_name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere and node.name not in names_used(tree, skip=node):
                unused.append(f"{file_name.removesuffix('.py')}.{node.name}")
    return sorted(unused)


# public definitions that no program path calls, each with why it stays
UNUSED_ALLOWED = {
    "dsl.print_identity": "the printer half of parse∘print, which the DSL tests round-trip",
}


def program_sources() -> tuple:
    """({file name: source} of the package, [sources of perfbench/ and
    scripts/])."""
    root = Path(__file__).resolve().parents[1]
    package = {p.name: p.read_text(encoding="utf-8") for p in package_sources()}
    others = [
        p.read_text(encoding="utf-8")
        for folder in ("perfbench", "scripts")
        for p in sorted((root / folder).glob("*.py"))
    ]
    return package, others


def test_public_definitions_are_used():
    """Every public function and class is used by the package, the benchmark
    (perfbench/) or the scripts, so src/ holds no second entry point kept
    only for tests."""
    assert unused_definitions(*program_sources()) == sorted(UNUSED_ALLOWED)


def test_scan_sees_an_unused_definition():
    package = {
        "m.py": "def used():\n    return 1\n\n"
        "def unused():\n    return unused()\n\n"
        "class _Private:\n    pass\n\nx = used()\n",
        "n.py": "class Kept:\n    pass\n",
    }
    assert unused_definitions(package, ["y = Kept()"]) == ["m.unused"]
    assert unused_definitions(package, ["import m\nm.unused()"]) == ["n.Kept"]


def unused_methods(package: dict, others) -> list:
    """'module.Class.method' of each public method of a package class whose
    name no code reads as an attribute: neither the package, outside the
    method itself, nor the sources in others. The scan goes by name only, so
    a method hides from it while another class's attribute of the same name
    is read (LinMap.zero behind Scalar.zero, MultiOp.is_zero behind
    Scalar.is_zero)."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    read = {name: attributes_read(tree) for name, tree in trees.items()}
    outside = set().union(*(attributes_read(ast.parse(source)) for source in others))
    unused = []
    for file_name, tree in trees.items():
        elsewhere = outside.union(*(r for name, r in read.items() if name != file_name))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")
                    and node.name not in elsewhere
                    and node.name not in attributes_read(tree, skip=node)
                ):
                    unused.append(f"{file_name.removesuffix('.py')}.{cls.name}.{node.name}")
    return sorted(unused)


# public methods that no program path reads, each with why it stays
UNUSED_METHODS_ALLOWED = {
    "linear.LinMap.apply": "perfbench/tracer.py METHODS wraps it by name",
    "linear.MultiOp.apply": "perfbench/tracer.py METHODS wraps it by name",
}


def test_public_methods_are_used():
    """Every public method of a package class is read as an attribute by
    the package, the benchmark or the scripts, so no method is kept only
    for tests."""
    assert unused_methods(*program_sources()) == sorted(UNUSED_METHODS_ALLOWED)


def test_scan_sees_an_unused_method():
    package = {
        "m.py": "class A:\n"
        "    def used(self):\n        return 1\n\n"
        "    def for_tests(self):\n        return 2\n\n"
        "    def recursive(self):\n        return self.recursive()\n\n"
        "    def _private(self):\n        return 3\n\n"
        "    def zero(self):\n        return 0\n\n"
        "x = A().used()\n",
        "n.py": "class B:\n    def zero(self):\n        return 0\n\ny = B().zero()\n",
    }
    # A.zero hides behind the read of B's zero: the scan's limit
    assert unused_methods(package, []) == ["m.A.for_tests", "m.A.recursive"]
    assert unused_methods(package, ["A().for_tests()"]) == ["m.A.recursive"]


AST_NODES = {"Var", "MapApply", "OpApply", "CycSum", "Identity"}


def ast_constructions(source: str) -> list:
    """Calls that build a DSL tree node directly, as 'Name (line n)'."""
    return sorted(
        f"{node.func.id} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in AST_NODES
    )


@pytest.mark.parametrize(
    "path", [p for p in package_sources() if p.name != "dsl.py"], ids=lambda p: p.name
)
def test_laws_are_written_as_text(path):
    assert ast_constructions(path.read_text(encoding="utf-8")) == []


def test_scan_sees_a_tree_construction():
    source = "x = OpApply('mul', (Var('x'), Var('y')))\nok = isinstance(x, OpApply)\n"
    assert ast_constructions(source) == ["OpApply (line 1)", "Var (line 1)", "Var (line 1)"]


def check_identity_calls(source: str) -> list:
    """Calls of check_identity, by name or as an attribute, as 'line n'."""
    return sorted(
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "check_identity"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "check_identity"
        )
    )


@pytest.mark.parametrize(
    "path", [p for p in package_sources() if p.name != "structures.py"], ids=lambda p: p.name
)
def test_laws_are_decided_by_check_definition(path):
    """structures.check_definition is the one runner of laws, construction
    hypotheses included, so no other module calls check_identity."""
    assert check_identity_calls(path.read_text(encoding="utf-8")) == []


def test_scan_sees_a_check_identity_call():
    source = (
        "from .engine import check_identity\n"
        "v = check_identity(law, bundle, 'x')\n"
        "w = engine.check_identity(law, bundle)\n"
        "hyp.check_identity(law, bundle, 'y')\n"
        "ok = callable(check_identity)\n"
    )
    assert check_identity_calls(source) == ["line 2", "line 3", "line 4"]


def tracer_methods():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.METHODS


@pytest.mark.parametrize("target", tracer_methods(), ids=".".join)
def test_tracer_targets_exist(target):
    """`perfbench/run.py --trace 1` wraps these class attributes by name; a
    rename would break the traced benchmark without failing any other test."""
    module_name, class_name, method = target
    module = importlib.import_module(f"bihomcheck.{module_name}")
    assert callable(getattr(getattr(module, class_name), method))
