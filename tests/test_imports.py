"""Every import in the package is used, and so is every top-level
function and class. No linter ships with the project, so this walks each
module's syntax tree with ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphkd"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_nodes(scope):
    """The nodes inside ``scope``, in source order, leaving out the bodies
    of the functions it defines."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, FUNCTIONS):
            yield from _scope_nodes(child)


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that nothing else in their scope reads: the
    module for an import outside every function, else the function whose
    body holds it."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        bound = {}
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused += [f"{name} (line {line})" for name, line in bound.items() if name not in read]
    return unused


def test_finds_an_unused_import():
    source = "import json\nimport os\nfrom x import a, b as c\nprint(os.sep, c)\n"
    assert unused_imports(source) == ["json (line 1)", "a (line 3)"]
    # An import in a function counts for that function only, and one under
    # an ``if`` for the module.
    source = ("import typing\nif typing.TYPE_CHECKING:\n    import csv\n\n"
              "def f():\n    import re\n    from . import y, z\n    return y\n\n"
              "def g():\n    return re.sub\n")
    assert unused_imports(source) == ["csv (line 3)", "re (line 6)", "z (line 7)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def _names_read(node) -> set[str]:
    """Every name ``node`` can reach a definition by: identifiers, attribute
    names, imported names, and strings that are identifiers (the benchmark's
    tracer rebinds functions by module and name)."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            names.add(n.value)
    return names


def unreferenced_definitions(modules: dict[str, str], users: list[str]) -> list[str]:
    """Top-level functions and classes of ``modules`` (name -> source) that
    nothing refers to outside their own definition: no other top-level
    statement of ``modules`` and nothing in ``users`` (sources)."""
    statements = [(name, node) for name, source in modules.items()
                  for node in ast.parse(source).body]
    reads = [_names_read(node) for _, node in statements]
    outside = set().union(*(_names_read(ast.parse(source)) for source in users))
    return [f"{name}.{node.name}" for i, (name, node) in enumerate(statements)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in outside
            and not any(node.name in read for j, read in enumerate(reads) if j != i)]


def test_finds_a_dead_definition():
    modules = {"a": "def used():\n    pass\n\n"
                    "def dead():\n    dead()\n\n"
                    "class Kept:\n    pass\n\n"
                    "def named():\n    pass\n",
               "b": "from .a import used\nused()\n"}
    users = ["WRAPPED = [('a', 'named')]\nimport a\na.Kept()\n"]
    assert unreferenced_definitions(modules, users) == ["a.dead"]


def test_no_dead_top_level_definition():
    """A definition that only tests reach is dead: the package and the
    benchmark are the only users that count."""
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    users = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unreferenced_definitions(modules, users) == []
