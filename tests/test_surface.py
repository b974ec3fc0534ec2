"""The library's surface: no function that only the tests call, and no
check that the README does not name.

Walks ``src/pgroupalg`` with ``ast`` and fails on any module-level function
or method that no library module refers to, outside its own body, unless
``ALLOWED`` names it with the reason it stays.  A re-derivation that only
the tests read belongs in ``tests/oracles.py``.  A re-export in
``__init__.py`` is not a use: the public entry points are listed here.

A reference is resolved to its owner where the syntax tells it: a bare
name to the function of that name in the module or the one it imports,
``self.f`` and ``cls.f`` to the enclosing class, ``K.f`` to class K.  An
attribute of any other object reaches every method of that name in the
modules the referring module imports, directly or not, and in its own.
A reference made from the body of an ``ALLOWED`` function is not a use,
since nothing in the library calls that body.  An entry kept as a
``perfbench/`` binding must name something that ``perfbench/`` still
mentions, so it cannot outlive the binding.  It also fails on a name that
a library module other than ``__init__.py`` imports and never reads, and
on a README whose list of named checks differs from the names that the
library's ``VerificationError``s carry.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pgroupalg"
PERFBENCH = SRC.parent.parent / "perfbench"
README = SRC.parent.parent / "README.md"

# (module, qualified name) -> why it stays with no library caller
ALLOWED = {
    ("algebra", "product_space"):
        "perfbench binding: perfbench/tracer.py wraps it",
    ("algebra", "power_space"):
        "perfbench binding: perfbench/tracer.py wraps it",
    ("algebra", "AlgebraContext.multiply"):
        "perfbench binding: perfbench/tracer.py wraps it",
    ("algebra", "AlgebraContext.p_power"):
        "perfbench binding: perfbench/fixtures.py calls it on central rows, "
        "the only ones it takes, as Frobenius is additive only there",
    ("algebra", "AlgebraContext.power"):
        "perfbench binding: perfbench/fixtures.py:108 calls it; "
        "square-and-multiply over multiply, as no library path raises a "
        "row off the centre to a power",
    ("algebra", "AlgebraContext.group_minus_one"):
        "perfbench binding: perfbench/fixtures.py calls it",
    ("algebra", "frattini_quotient"):
        "perfbench binding: perfbench/fixtures.py calls it",
    ("algebra", "ideal_generated"):
        "perfbench binding: perfbench/tracer.py wraps it",
    ("algebra", "right_ideal"):
        "perfbench binding: perfbench/tracer.py wraps it; the lemma right "
        "sides take K F_pG for central K from the translates over a "
        "transversal of the centre (omega_central_ideal), and the tests "
        "hold that form to it",
    ("algebra", "AlgebraContext.plus_power"):
        "public entry point: X + I(G)^m, and I(G)^m, as a subspace of "
        "F_pG, which lambda_map builds Lambda's codomain with; no library "
        "path reads I(G)^m as a subspace, only in Jennings coordinates",
    ("decompose", "lambda_map"):
        "public entry point: Lambda's codomain ideal as a subspace of "
        "F_pG, which no library path reads, as a recovery level's split "
        "element proves b - 1 outside ker Lambda; perfbench/tracer.py "
        "also wraps it",
    ("decompose", "split_cyclic"):
        "public entry point: G = <h> x G_0 with <h> formed, where a "
        "recovery level reads G_0 = retraction_complement(G, h) alone; "
        "perfbench/tracer.py also wraps it",
    ("fplin", "solve"):
        "perfbench binding: perfbench/tracer.py wraps it",
    ("groups", "PGroup.mul"):
        "public entry point: a group's product of two elements, the one "
        "lookup that callers outside the library read a table with",
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


class _Module:
    """What one module defines and imports, for resolving its names."""

    def __init__(self, name, tree):
        self.name, self.tree = name, tree
        self.defined = {q for q, _ in _definitions(tree)}
        self.classes = {n.name for n in tree.body
                        if isinstance(n, ast.ClassDef)}
        self.imported = {}  # local name -> (library module, its name)
        self.external = set()  # names bound to other packages
        self.deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                self.deps.add(node.module)
                for a in node.names:
                    self.imported[a.asname or a.name] = (node.module, a.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self.external.update((a.asname or a.name).split(".")[0]
                                     for a in node.names)


def _closure(modules, name):
    """name and every library module it imports, directly or not."""
    seen, stack = set(), [name]
    while stack:
        m = stack.pop()
        if m in modules and m not in seen:
            seen.add(m)
            stack.extend(modules[m].deps)
    return seen


def _owners(modules, mod, klass, in_method, node):
    """The definitions, as (module, qualified name), that node may name."""
    if isinstance(node, ast.Name):
        name = node.id
        if klass and not in_method and f"{klass}.{name}" in mod.defined:
            return {(mod.name, f"{klass}.{name}")}  # e.g. __add__ = sum
        if name in mod.defined:
            return {(mod.name, name)}
        if name in mod.imported:
            return {mod.imported[name]}
        return set()
    if not isinstance(node, ast.Attribute):
        return set()
    recv, attr = node.value, node.attr
    if isinstance(recv, ast.Name):
        if recv.id in ("self", "cls") and klass:
            return {(mod.name, f"{klass}.{attr}")}
        if recv.id in mod.classes:
            return {(mod.name, f"{recv.id}.{attr}")}
        if recv.id in mod.imported:
            source, klass_name = mod.imported[recv.id]
            return {(source, f"{klass_name}.{attr}")}
        if recv.id in mod.external:
            return set()
    return {(m, f"{k}.{attr}") for m in _closure(modules, mod.name)
            for k in modules[m].classes
            if f"{k}.{attr}" in modules[m].defined}


def _scopes(tree):
    """(class, enclosing definition, in a method, node) for every node;
    the definition is None outside any module-level function or method."""
    def walk(node, klass, owner, in_method):
        yield klass, owner, in_method, node
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.Module) and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, None, child.name, True)
            elif isinstance(node, ast.Module) and isinstance(child,
                                                              ast.ClassDef):
                yield from walk(child, child.name, None, False)
            elif isinstance(node, ast.ClassDef) and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, klass, f"{klass}.{child.name}", True)
            else:
                yield from walk(child, klass, owner, in_method)
    yield from walk(tree, None, None, False)


def _unreferenced(sources, allowed):
    """The (module, qualified name) of every definition in sources, a dict
    module name -> source text, that no reference outside its own body
    and outside the bodies of allowed names."""
    modules = {name: _Module(name, ast.parse(text))
               for name, text in sources.items()}
    used = set()
    for mod in modules.values():
        for klass, owner, in_method, node in _scopes(mod.tree):
            if (mod.name, owner) in allowed:
                continue
            used |= _owners(modules, mod, klass, in_method, node) - {
                (mod.name, owner)}
    return {(m.name, q) for m in modules.values() for q, node in
            _definitions(m.tree)
            if not (node.name.startswith("__") and node.name.endswith("__"))
            } - used


def _library():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
            if path.stem != "__init__"}


def test_every_library_function_has_a_library_caller():
    unexplained = sorted(_unreferenced(_library(), ALLOWED) - set(ALLOWED))
    assert not unexplained, (
        "no library module calls these; move a test-only re-derivation to "
        f"tests/oracles.py, or list why it stays in ALLOWED: {unexplained}")


def test_allowlist_is_not_stale():
    # an entry that gained a library caller, or lost its definition, goes
    assert set(ALLOWED) <= _unreferenced(_library(), ALLOWED)


@pytest.mark.parametrize("key", sorted(ALLOWED))
def test_allowlist_gives_a_reason(key):
    kind = ALLOWED[key].split(":")[0]
    assert kind in ("perfbench binding", "public entry point",
                    "documented oracle")


@pytest.mark.parametrize("key", sorted(
    k for k, why in ALLOWED.items() if why.startswith("perfbench binding")))
def test_perfbench_binding_is_in_perfbench(key):
    # the binding an entry names must still be there: its last name
    # component appears as a whole word in perfbench's sources, read only
    name = key[1].rsplit(".", 1)[-1]
    text = "\n".join(path.read_text()
                     for path in sorted(PERFBENCH.glob("*.py")))
    assert re.search(rf"\b{re.escape(name)}\b", text), key


# two layers: "low" imports nothing from the library, "high" imports "low"
_LOW = textwrap.dedent("""
    class Group:
        def power(self, g, k):
            return g
        def order(self):
            return self.power(0, 1)
    def retract(A):
        return A.power(1, 2)
""")
_HIGH = textwrap.dedent("""
    from .low import Group, retract
    class Context:
        def power(self, v, m):
            return v
        def p_power(self, v):
            return self.power(v, 3)
        def norm(self, v):
            return v
    def use(x, G):
        return retract(G), Group.order(G), x.norm(1)
""")


@pytest.mark.parametrize("allowed, want", [
    ({}, {("high", "Context.p_power"), ("high", "use")}),
    ({("high", "Context.p_power"): ""},
     {("high", "Context.p_power"), ("high", "Context.power"),
      ("high", "use")}),
], ids=["plain", "allowlisted-body"])
def test_references_resolve_by_owner(allowed, want):
    # low's A.power cannot reach Context.power: low never imports high;
    # high's x.norm is unresolved, and reaches the one norm it can see
    assert _unreferenced({"low": _LOW, "high": _HIGH}, allowed) == want


def _unused_imports(text):
    """The names a module imports, other than from __future__, and never
    reads."""
    tree = ast.parse(text)
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("name", sorted(_library()))
def test_no_unused_imports(name):
    assert not _unused_imports((SRC / f"{name}.py").read_text()), name


def test_unused_imports_are_found():
    text = textwrap.dedent("""
        from __future__ import annotations
        import numpy as np
        import os.path
        from .fplin import rref, span as sp
        def f(x: np.ndarray):
            return os.path.join(x)
    """)
    assert _unused_imports(text) == ["rref", "sp"]


def _raised_checks(sources):
    """The check names that the sources give VerificationError, each a
    string literal as its first argument; any other first argument fails,
    since its name could not be read here."""
    names = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", None) == "VerificationError":
                name = node.args[0]
                assert isinstance(name, ast.Constant) and isinstance(
                    name.value, str), ast.unparse(node)
                names.add(name.value)
    return names


def _readme_checks():
    """The names in backticks in README's list of named checks: the
    paragraph that follows its "These are the named checks" line."""
    after = README.read_text().split("These are the named checks", 1)[1]
    block = after.split("\n", 1)[1].strip("\n").split("\n\n", 1)[0]
    return set(re.findall(r"`([^`]+)`", block))


def test_readme_names_every_check():
    assert _readme_checks() == _raised_checks(_library())


def test_raised_checks_are_found():
    text = textwrap.dedent("""
        def f(x):
            if x:
                raise VerificationError("one", "detail")
            raise VerificationError(
                "two")
    """)
    assert _raised_checks({"m": text}) == {"one", "two"}
    with pytest.raises(AssertionError):
        _raised_checks({"m": "VerificationError(name)"})
