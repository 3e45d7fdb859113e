"""Every definition in ``src/mpdr`` has a reader in the program.

A non-dunder ``def`` or ``class`` in ``src/mpdr/*.py`` must be exported in
``mpdr.__all__`` or be named elsewhere in ``src/mpdr/*.py`` or
``perfbench/*.py``: as a ``Name``, an ``Attribute``, an import alias or a
string (``perfbench/spans.py`` names what it wraps by string).  A name that
only tests read belongs in ``tests/``.  Methods count too, as
``Class.method``, including those of exported classes, and a method is read
only as an ``Attribute`` or a string: a local variable or a parameter that
shares its name reads nothing.
"""

import ast
from pathlib import Path

import mpdr

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# The definitions that stay with no reader in the program, and why.
UNREAD = {
    "ConnectionSpec.set_for": "test accessor: one connection set of a spec",
    "Digraph.to_text": "test accessor: the text that from_text parses",
}


def _definitions(node, prefix="", in_class=False):
    """(qualified name, name, whether a class defines it) of each def and
    class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            yield prefix + child.name, child.name, in_class
            yield from _definitions(child, f"{prefix}{child.name}.",
                                    isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, prefix, in_class)


def _reads(tree, members: bool):
    """Every name the tree reads as an attribute or spells as a string, and
    unless ``members``, every name it reads bare or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif members:
            continue
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_definition_has_a_reader():
    files = [*sorted((ROOT / "src" / "mpdr").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    read = {members: {name for tree in trees.values() for name in _reads(tree, members)}
            for members in (False, True)}
    unread = {
        qualified
        for path, tree in trees.items() if path.parent.name == "mpdr"
        for qualified, name, member in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and qualified not in mpdr.__all__ and name not in read[member]
    }
    assert unread == set(UNREAD)
