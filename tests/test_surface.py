"""The library's surface: no function that only the tests call.

Walks ``src/pgroupalg`` with ``ast`` and fails on any module-level function
or method whose name no library module refers to, outside its own body,
unless ``ALLOWED`` names it with the reason it stays.  A re-derivation
that only the tests read belongs in ``tests/oracles.py``.  A re-export in
``__init__.py`` is not a use: the public entry points are listed here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pgroupalg"

# (module, qualified name) -> why it stays with no library caller
ALLOWED = {
    ("algebra", "power_space"):
        "perfbench binding: perfbench/tracer.py wraps it",
    ("algebra", "AlgebraContext.p_power"):
        "perfbench binding: perfbench/fixtures.py calls it",
    ("algebra", "frattini_quotient"):
        "perfbench binding: perfbench/fixtures.py calls it",
    ("groups", "all_subgroups"):
        "perfbench binding: perfbench/tracer.py reads its cache_info()",
}


def _definitions(tree):
    """(qualified name, node) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _references(tree, skip):
    """Every name loaded or attribute read in tree, outside the node skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def _unreferenced():
    modules = _modules()
    found = set()
    for module, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by Python itself
            used = any(name in set(_references(other, node))
                       for other in modules.values())
            if not used:
                found.add((module, qualname))
    return found


def test_every_library_function_has_a_library_caller():
    unexplained = sorted(_unreferenced() - set(ALLOWED))
    assert not unexplained, (
        "no library module calls these; move a test-only re-derivation to "
        f"tests/oracles.py, or list why it stays in ALLOWED: {unexplained}")


def test_allowlist_is_not_stale():
    # an entry that gained a library caller, or lost its definition, goes
    assert set(ALLOWED) <= _unreferenced()


@pytest.mark.parametrize("key", sorted(ALLOWED))
def test_allowlist_gives_a_reason(key):
    kind = ALLOWED[key].split(":")[0]
    assert kind in ("perfbench binding", "public entry point",
                    "documented oracle")
