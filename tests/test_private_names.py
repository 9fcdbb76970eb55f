"""Every top-level private name of the package is read somewhere in src/.

A module-level function, class or constant whose name starts with an
underscore is internal, so nothing outside the package should need it; one
that src/ reads nowhere but at its definition is dead code.  Dunders, such
as __all__, are read by Python itself and are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "circuitmarket"


def _defined(tree: ast.Module) -> set[str]:
    """The private names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_private_top_level_name_is_read_in_src():
    """A private name of module m is live if m reads it, or if a module that
    imports it from m reads it."""
    defined, live = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = _read(tree)
        for name in _defined(tree):
            defined.add((path.stem, name))
            if name in read:
                live.add((path.stem, name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                live.update(
                    (source, alias.name) for alias in node.names
                    if (alias.asname or alias.name) in read
                )
    assert len(defined) > 20
    assert sorted(defined - live) == []
