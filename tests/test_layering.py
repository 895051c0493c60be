"""The package's modules form layers: each imports only from lower layers,
at module level or inside functions, so there are no import cycles; and the
third-party modules they import are exactly the ``[project] dependencies``
of ``pyproject.toml`` (numpy alone), so a run and a spanning-tree check
work without scipy. No module of the package or of its tests imports a name
it never reads, and every function, class and method the package defines is
read somewhere in it, or is listed with the reason it stays. In ``cli``
only ``main`` turns a failure into an exit code."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "consensuslab"

LAYERS = [
    ("exceptions",),
    ("graphs", "sim"),
    ("operators", "metrics"),
    ("dynamics",),
    ("scenario",),
    ("config", "presets"),
    ("cli",),
]
LAYER = {module: rank for rank, modules in enumerate(LAYERS) for module in modules}


def imports(tree):
    """(imported module, line, inside a function) of every import in ``tree``;
    a package-relative module is named without the package prefix."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.Import):
            found.extend((alias.name, node.lineno, in_function) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None:
                found.append((node.module, node.lineno, in_function))
            else:  # from . import a, b
                found.extend((alias.name, node.lineno, in_function) for alias in node.names)
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return found


def parsed(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


def intra_package(module):
    """Layered module names this module imports, with their lines."""
    found = []
    for name, line, _ in imports(parsed(module)):
        name = name.removeprefix("consensuslab.")
        if name in LAYER:
            found.append((name, line))
    return found


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_only_lower_layers(module):
    upward = [(name, line) for name, line in intra_package(module)
              if LAYER[name] >= LAYER[module]]
    assert not upward, f"{module} imports from its own or a higher layer: {upward}"


def test_the_guard_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    from .cli import main\n    import scipy.linalg\n")
    assert imports(tree) == [("cli", 2, True), ("scipy.linalg", 3, True)]
    assert imports(ast.parse("from . import dynamics, sim\n")) == [
        ("dynamics", 1, False), ("sim", 1, False)]


@pytest.mark.parametrize("module", sorted(LAYER) + ["__init__"])
def test_scipy_imported_only_inside_functions(module):
    at_import = [(name, line) for name, line, in_function in imports(parsed(module))
                 if name.split(".")[0] == "scipy" and not in_function]
    assert not at_import, f"{module} imports scipy at import time: {at_import}"


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = {re.match(r"[\w.-]+", dep)[0]
                    for dep in tomllib.load(f)["project"]["dependencies"]}
    own = set(LAYER) | {"consensuslab", "__future__"}
    found = {name.split(".")[0] for module in sorted(LAYER) + ["__init__"]
             for name, *_ in imports(parsed(module))} - own - set(sys.stdlib_module_names)
    assert found == declared == {"numpy"}


def test_runs_without_scipy():
    # A conventional-delayed run reads held samples; the spanning-tree check
    # at the largest agent count takes the most products.
    code = ("import dataclasses, sys\n"
            "sys.modules['scipy'] = None\n"
            "from consensuslab import graphs, presets, scenario\n"
            "sc = dataclasses.replace(presets.gps_fig3(), controller='conventional-delayed',"
            " t_end=1.0)\n"
            "scenario.simulate_scenario(sc)\n"
            "print(graphs.spanning_tree_check(graphs.path_graph(graphs.MAX_AGENTS)).roots)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(0,)"


def unused_imports(tree):
    """(name, line) of every name an import in ``tree`` binds and no
    expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((name, line) for name, line in bound.items() if name not in read)


def test_the_unused_import_guard_sees_bound_names():
    tree = ast.parse("import os.path\nfrom . import a as b, c\n\ndef f():\n    return os.sep, c\n")
    assert unused_imports(tree) == [("b", 2)]


@pytest.mark.parametrize(
    "path", [PACKAGE / f"{module}.py" for module in sorted(LAYER)]
    + sorted(Path(__file__).parent.glob("*.py")), ids=lambda path: path.stem)
def test_every_imported_name_is_read(path):
    unused = unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.stem} imports names it never reads: {unused}"


# Definitions that no module of the package reads, each with its reason.
UNREAD_KEPT = {
    "cli._ArgumentParser.error": "argparse calls it",
    "dynamics.compositional_controller": "the reference implementation the tests "
                                         "compare the cascade field against",
    "graphs.spanning_tree_check": "the spectral oracle's input",
    "graphs.ReachabilityReport.has_spanning_tree": "the spectral oracle's input",
    "sim.HistoryBuffer.state_at": "a perfbench tracer target",
    "sim.FunctionView": "the history view for a caller's own function",
}


def definitions(tree):
    """(qualified name, name) of every top-level function and class in
    ``tree`` and of every non-dunder method of those classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{item.name}", item.name) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not (item.name.startswith("__") and item.name.endswith("__")))
    return found


def read_names(tree):
    """Every name ``tree`` reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unread_definitions(trees):
    """Qualified names, module first, of the definitions in ``trees`` (module
    -> tree) that none of them reads."""
    read = set().union(*map(read_names, trees.values()))
    return sorted(f"{module}.{qualified}" for module, tree in trees.items()
                  for qualified, name in definitions(tree) if name not in read)


def test_the_unread_definition_guard_sees_functions_and_methods():
    trees = {"a": ast.parse("def used():\n    pass\n\ndef unused():\n    pass\n\n"
                            "class C:\n    def __init__(self):\n        pass\n\n"
                            "    def m(self):\n        pass\n\n    def n(self):\n        pass\n"),
             "b": ast.parse("from .a import used\n\nused()\nobj.m\nn = 1\n")}
    assert unread_definitions(trees) == ["a.C", "a.C.n", "a.unused"]


def test_every_definition_is_read_or_kept_for_a_reason():
    unread = unread_definitions({module: parsed(module) for module in sorted(LAYER)})
    assert unread == sorted(UNREAD_KEPT), "unread definitions differ from UNREAD_KEPT"


EXIT_MESSAGES = ("configuration error:", "could not write outputs:")


def exit_mappings(tree):
    """Name of the enclosing function, once per occurrence, of every return
    of exit code 1 or 3 (alone or first in a tuple) and every string that
    holds an exit message; a nested function counts for each enclosing one."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            value = node.value if isinstance(node, ast.Return) else None
            if isinstance(value, ast.Tuple) and value.elts:
                value = value.elts[0]
            if isinstance(value, ast.Constant) and type(value.value) is int:
                if value.value in (1, 3):
                    found.append(func.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if any(text in node.value for text in EXIT_MESSAGES):
                    found.append(func.name)
    return found


def test_the_exit_code_guard_sees_returns_and_messages():
    tree = ast.parse("def run():\n    return 3, None\n\ndef check():\n"
                     "    print(f'configuration error: {1}')\n    return True\n")
    assert exit_mappings(tree) == ["run", "check"]


def test_only_main_maps_failures_to_exit_codes():
    found = exit_mappings(parsed("cli"))
    assert set(found) == {"main"}, f"cli functions besides main map exit codes: {found}"
