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


def nested_imports(tree: ast.Module) -> list[str]:
    """Imports that are not statements of the module body: inside a
    function, a class or a compound statement."""
    top = {id(node) for node in tree.body}
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def test_scan_sees_a_nested_import():
    tree = ast.parse("import os\n\ndef f():\n    from math import gcd\n    return gcd\n\n"
                     "if os:\n    import sys\n")
    assert nested_imports(tree) == ["line 4", "line 8"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert nested_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


ROOT = SRC.parent.parent
CODE = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py"))]


def unreferenced_definitions(modules: dict[str, ast.Module], scanned: list[ast.Module]) -> list[str]:
    """Top-level functions and classes of ``modules``, and the methods and
    properties of those classes other than dunders, whose name no code in
    ``scanned`` reads outside the definition itself.

    A function or class counts as read wherever its name appears as a
    name, an attribute or an imported name; a method only where an
    attribute of its name is read, so a local of the same spelling does
    not hide it.  A definition's own body does not count, so a function
    that only calls itself is unreferenced.  A method is known by its name
    alone: reading an attribute of that name on anything counts.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined: dict[tuple[str, str], ast.AST] = {}
    for label, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined[(label, node.name)] = node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, functions) and not member.name.startswith("__"):
                        defined[(label, f"{node.name}.{member.name}")] = member
    inside: dict[int, set[tuple[str, str]]] = {}
    for key, node in defined.items():
        for inner in ast.walk(node):
            inside.setdefault(id(inner), set()).add(key)
    # read[(name, is_attribute)] lists the definitions around each read
    read: dict[tuple[str, bool], list[set[tuple[str, str]]]] = {}
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
                read.setdefault((name, isinstance(node, ast.Attribute)), []).append(inside.get(id(node), set()))

    def reads(qual: str) -> list[set[tuple[str, str]]]:
        name = qual.split(".")[-1]
        return read.get((name, True), []) + ([] if "." in qual else read.get((name, False), []))

    return [f"{label}: {qual}" for (label, qual) in sorted(defined)
            if all((label, qual) in where for where in reads(qual))]


def test_scan_sees_an_unreferenced_definition():
    lib = ast.parse(
        "def used():\n    pass\n\n"
        "def dead():\n    return dead()\n\n"
        "class Kept:\n"
        "    def __repr__(self):\n        return ''\n\n"
        "    def called(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 0\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def dead_method(self):\n        return self.dead_method()\n\n"
        "    def shadowed(self):\n        return 2\n"
    )
    user = ast.parse("from lib import used\nimport lib\nused()\nlib.Kept().called()\nlib.Kept().size\n"
                     "shadowed = 1\nprint(shadowed)\n")
    assert unreferenced_definitions({"lib": lib}, [lib, user]) == [
        "lib: Kept.dead_method", "lib: Kept.shadowed", "lib: dead"]


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CODE}
    library = {path.name: tree for path, tree in trees.items() if path.parent == SRC}
    assert unreferenced_definitions(library, list(trees.values())) == []


# The definitions of src/ that no code in src/ reads, only the tests or
# perfbench: public entry points and report fields kept for users and
# oracles.  A new one fails here until it is listed on purpose.
TEST_ONLY = [
    "cat.py: count_functors", "cat.py: find_cat_iso",
    "corpus.py: localizer_universe", "corpus.py: localizer_universe_2",
    "corpus.py: nonthin_two_categories", "corpus.py: simplicial_objects", "corpus.py: two_categories",
    "homology.py: ChainComplex.boundary", "homology.py: EvidenceReport.all_pass",
    "homology.py: EvidenceReport.verdict", "homology.py: HomologyReport.betti",
    "homology.py: HomologyReport.torsion", "homology.py: SmithNormalForm.verify",
    "lifting.py: FactorizationReport.composite_equals_input",
    "serialize.py: tfun_to_doc", "serialize.py: universe_to_doc",
    "simplicial.py: count_maps", "simplicial.py: disjoint_union", "simplicial.py: empty_simplicial_set",
    "simplicial.py: find_simplicial_iso", "simplicial.py: simplex_map",
    "subdivision.py: ex_map", "subdivision.py: transpose_from_ex",
    "twocat.py: as_two_functor", "twocat.py: component_category", "twocat.py: component_functor",
    "twocat.py: component_transpose", "twocat.py: count_two_functors", "twocat.py: find_2cat_iso",
    "twocat.py: inclusion_transpose",
]


def test_test_only_definitions_are_listed():
    library = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(library, list(library.values())) == TEST_ONLY
