"""The import structure of the package, read from its source with ``ast``.

No function imports, so every dependency between modules shows at the top of a file; the
module-level imports among ``dsetree`` modules form no cycle; ``ptrees`` (signatures,
trees and their enumeration) reaches neither the Hopf algebra nor the cut table; and ``dse``
(the solver) imports neither algebra, only the cut table and the linear combinations it returns.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dsetree"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def package_modules(node) -> set[str]:
    """The ``dsetree`` modules that an import statement names; ``__init__`` stands for the package."""
    if isinstance(node, ast.Import):
        paths = [alias.name.split(".") for alias in node.names]
        return {path[1] if len(path) > 1 else "__init__" for path in paths if path[0] == "dsetree"}
    if node.level == 0 and (node.module or "").split(".")[0] != "dsetree":
        return set()
    module = (node.module or "").removeprefix("dsetree").lstrip(".")
    return {module} if module else {a.name if a.name in MODULES else "__init__" for a in node.names}


def imports(tree) -> list[tuple[int, bool, set[str]]]:
    """Per import statement: its line, whether a function body holds it, and the ``dsetree`` modules it names."""
    found, stack = [], [(tree, False)]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append((node.lineno, inside, package_modules(node)))
        stack += ((child, inside or isinstance(node, FUNCTIONS)) for child in ast.iter_child_nodes(node))
    return found


def test_no_function_body_imports():
    inside = {name: sorted(line for line, nested, _ in imports(tree) if nested) for name, tree in MODULES.items()}
    assert {name: lines for name, lines in inside.items() if lines} == {}


def test_module_level_imports_form_no_cycle():
    graph = {
        name: set().union(*(names for _, nested, names in imports(tree) if not nested)) - {name}
        for name, tree in MODULES.items()
    }
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_ptrees_imports_neither_hopf_nor_table():
    reached = set().union(*(names for _, _, names in imports(MODULES["ptrees"])))
    assert {"errors", "trees"} <= reached
    assert not reached & {"hopf", "table"}


def test_dse_imports_neither_hopf_nor_opbialg():
    reached = set().union(*(names for _, _, names in imports(MODULES["dse"])))
    assert {"linear", "table"} <= reached
    assert not reached & {"hopf", "opbialg"}
