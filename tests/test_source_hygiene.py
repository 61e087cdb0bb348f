"""Static checks over the library source, by AST.

Soundness guards must hold under ``python -O``, which strips ``assert``
statements, so the library raises explicitly instead; so do the test
oracles, whose asserts pytest does not rewrite.  A module-level import that
the module never reads is dead weight and hides real dependencies.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "aplab"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _module_imports(tree):
    """Names bound by the module's top-level imports, except __future__."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES + [TESTS / "oracles.py"], ids=lambda p: p.name)
def test_no_assert_statements(path):
    hits = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert hits == [], f"{path.name}: assert at lines {hits}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in _module_imports(tree).items() if name not in read}
    assert unused == {}, f"{path.name}: unused imports {unused}"
