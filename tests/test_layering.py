"""The import structure of the package, read from its source with ``ast``."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "latcong").glob("*.py"))
# Each module imports only modules before it in this list.
LAYERS = ["lattice", "congruences", "tables", "polynomials", "sugeno", "compat",
          "constructions", "verify"]
# Imported but never used, on purpose: perfbench's
# test_install_rebinds_every_import_and_dispatch_table checks that its
# tracer rebinds these two names in ``verify``.
UNUSED_ON_PURPOSE = {("verify", "is_monotone"), ("verify", "is_compatible")}
# Public functions behind an ``lru_cache``; perfbench reads this one's
# ``cache_info()`` (see ROADMAP item 1).
PUBLIC_CACHES = {("congruences", "principal_congruences")}
# Every ``lru_cache`` in the package, each with why it is there; a new one
# is added here on purpose or fails ``test_every_cache_is_pinned``.  The
# kernels' plans are not among them: ``tables._plan`` keeps each on its
# lattice.
CACHES = {
    # Not a plan part: it reads ``principal_congruences``, and as a plan part
    # would leave that import of ``compat`` unused, which perfbench's
    # test_install_rebinds_every_import_and_dispatch_table looks up.
    ("compat", "_pairs"): "the congruence pairs of a lattice and arity, read by every "
                          "compatibility call",
    ("congruences", "principal_congruences"): "the join-irreducible congruences, "
                                               "built once per lattice",
    ("verify", "_catalogue"): "the checks' catalogue lattices, built once per process",
    ("verify", "_product_2x3"): "the product chain(2) x chain(3) that AC01, AC10 and "
                                "AC12 share",
    ("verify", "_equivalence_reports"): "the scans that AC04 to AC07 share",
}


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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """``__init__`` imports to re-export; every other module imports only
    what it uses, as a name or as the root of an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {(path.stem, name) for name in imported - used}
    assert unused - UNUSED_ON_PURPOSE == set()


def test_no_function_in_polynomials_calls_itself():
    """Terms are walked with explicit stacks, so a term as deep as the
    library builds is checked and lowered without a RecursionError."""
    found = [f"{node.name}:{inner.lineno}"
             for node in ast.walk(_tree("polynomials"))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, ast.Call)
             and getattr(inner.func, "id", getattr(inner.func, "attr", None)) == node.name]
    assert found == []


def test_every_constant_is_used():
    """Every module-level ALL-CAPS name in the package is read somewhere in
    it, as a name or an attribute, so a bound no code keeps cannot linger."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    defined = {(module, target.id) for module, tree in trees.items()
               for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets
               if isinstance(target, ast.Name)
               and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)}
    read = {getattr(node, "id", getattr(node, "attr", None))
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert {(module, name) for module, name in defined if name not in read} == set()


def _cache_bindings(tree):
    """The name that each ``lru_cache`` in a module is bound to, as a
    decorator or as ``lru_cache(...)(f)`` assigned to a name; None for one
    that is bound to nothing."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if getattr(node, "id", getattr(node, "attr", None)) != "lru_cache":
            continue
        expr = node  # up through lru_cache(...) and lru_cache(...)(f)
        while isinstance(parents.get(expr), ast.Call) and parents[expr].func is expr:
            expr = parents[expr]
        owner = parents.get(expr)
        if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and expr in owner.decorator_list:
            yield owner.name
        elif isinstance(owner, ast.Assign) and owner.value is expr:
            yield from (getattr(target, "id", None) for target in owner.targets)
        else:
            yield None


def _caches():
    return [(path.stem, name) for path in SOURCES
            for name in _cache_bindings(ast.parse(path.read_text(), filename=str(path)))]


def test_every_cache_is_bound_to_a_private_name():
    """A cache hashes its arguments before the function can check them, so
    a public cached call meets an unhashable argument with a raw TypeError;
    each cache sits behind a private name, under a public call that checks."""
    assert {(module, name) for module, name in _caches()
            if name is None or not name.startswith("_")} == PUBLIC_CACHES


def test_every_cache_is_pinned():
    """A cache keeps state between calls, so each one is listed with its
    reason, and the list is the whole set."""
    found = _caches()
    assert len(found) == len(set(found))
    assert set(found) == set(CACHES)


# What ``tests/oracles.py`` may take from the package: the data classes it
# builds its answers from, and no algorithm.
ORACLE_IMPORTS = {"Congruence", "Constant", "Meet", "Projection"}


def test_oracles_import_only_data_classes():
    """The oracles share no code with what they check: a reference that
    called the package's closure would agree with it by construction."""
    path = Path(__file__).parent / "oracles.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    taken = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "latcong"
             for alias in node.names}
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    assert taken <= ORACLE_IMPORTS
    assert not {name for name in modules if name.split(".")[0] == "latcong"}
