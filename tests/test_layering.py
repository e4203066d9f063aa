"""The import structure of the package, read from its source with ``ast``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "latcong").glob("*.py"))
# Each module imports only modules before it in this list.
LAYERS = ["lattice", "congruences", "tables", "polynomials", "sugeno", "compat"]


def _tree(name):
    path = SOURCES[0].parent / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_body_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{inner.lineno} in {node.name}"
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


@pytest.mark.parametrize("index", range(len(LAYERS)), ids=LAYERS)
def test_layers_import_in_one_direction(index):
    imported = {node.module for node in ast.walk(_tree(LAYERS[index]))
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert not imported & set(LAYERS[index:])
