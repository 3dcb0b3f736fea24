"""Source hygiene of the library, checked with the standard library's ast."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nervelab"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads.

    A name counts as read anywhere in the module (scopes are not told
    apart), and names listed in ``__all__`` count as read.
    """
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unused = [(line, name) for name, line in imported.items() if name not in read]
    return [f"line {line}: {name}" for line, name in sorted(unused)]


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Mapping, Optional\nx: Optional[int] = None\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: Mapping"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


ROOT = SRC.parent.parent
CODE = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py"))]


def unreferenced_definitions(modules: dict[str, ast.Module], scanned: list[ast.Module]) -> list[str]:
    """Top-level functions and classes of ``modules`` whose name no code in
    ``scanned`` reads outside the definition itself.

    A name counts as read wherever it appears as a name, an attribute or an
    imported name; a definition's own body does not count, so a function
    that only calls itself is unreferenced.
    """
    defined = {
        (label, node.name): node
        for label, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    inside = {id(inner): node.name for node in defined.values() for inner in ast.walk(node)}
    read: dict[str, set[str]] = {}
    for tree in scanned:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                read.setdefault(name, set()).add(inside.get(id(node), ""))
    return [f"{label}: {name}" for (label, name) in sorted(defined)
            if not read.get(name, set()) - {name}]


def test_scan_sees_an_unreferenced_definition():
    lib = ast.parse("def used():\n    pass\n\ndef dead():\n    return dead()\n\nclass Kept:\n    pass\n")
    user = ast.parse("from lib import used\nimport lib\nused()\nlib.Kept()\n")
    assert unreferenced_definitions({"lib": lib}, [lib, user]) == ["lib: dead"]


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CODE}
    library = {path.name: tree for path, tree in trees.items() if path.parent == SRC}
    assert unreferenced_definitions(library, list(trees.values())) == []
