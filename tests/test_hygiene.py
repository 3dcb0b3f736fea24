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
