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


# Defaulted parameters that no call in the package or the benchmark passes,
# and why each one may stay a parameter.
EXEMPT_DEFAULTS = {
    # numpy's PCG64 calls it, through the ISeedSequence protocol.
    "_SeedWords.generate_state(dtype)",
}


def _defaulted(func, skip_first: bool) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of ``func`` that has a default;
    the position is None for keyword-only parameters. A method's first
    parameter is not counted in the positions."""
    args = func.args
    positional = [*args.posonlyargs, *args.args][1 if skip_first else 0:]
    found = [(a.arg, i) for i, a in enumerate(positional)
             if i >= len(positional) - len(args.defaults)]
    found += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args[:position + 1]))


def unpassed_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """"Function(parameter)" for each defaulted parameter of a function or
    method of ``modules`` (name -> source) that no call in ``modules`` or
    ``callers`` (sources) passes, by position or by keyword. Calls are
    matched by name: ``f(...)`` and ``x.f(...)`` both call every ``f``, and
    a class's name calls its ``__init__``."""
    calls: dict[str, list[ast.Call]] = {}
    for source in [*modules.values(), *callers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for source in modules.values():
        tree = ast.parse(source)
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, FUNCTIONS)}
        for func in ast.walk(tree):
            if not isinstance(func, FUNCTIONS):
                continue
            cls = owner.get(id(func))
            method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list)
            called = cls.name if method and func.name == "__init__" else func.name
            label = f"{cls.name}.{func.name}" if cls else func.name
            for name, position in _defaulted(func, method):
                if not any(_passes(call, name, position) for call in calls.get(called, [])):
                    unpassed.append(f"{label}({name})")
    return [entry for entry in unpassed if entry not in EXEMPT_DEFAULTS]


def test_finds_a_default_that_no_call_passes():
    modules = {"a": "def f(x, y=1, *, z=2):\n    pass\n\n"
                    "def g(x, y=1):\n    pass\n\n"
                    "class C:\n    def __init__(self, a=0, b=1):\n        pass\n\n"
                    "    def m(self, c=0):\n        pass\n\n"
                    "f(0, z=3)\ng(*[1, 2])\n",
               "b": "from .a import C\nC(5)\nC(b=2).m(1)\n"}
    assert unpassed_defaults(modules, []) == ["f(y)"]
    assert unpassed_defaults(modules, ["f(1, 2)\n"]) == []


def test_every_default_is_passed_somewhere():
    """A default that every caller leaves alone is a constant: the package
    and the benchmark are the only callers that count."""
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    users = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unpassed_defaults(modules, users) == []
