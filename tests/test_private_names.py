"""Every private name of the package is read somewhere in src/.

A module-level function, class or constant whose name starts with an
underscore is internal, so nothing outside the package should need it; one
that src/ reads nowhere but at its definition is dead code.  So is a
private member of a class (a method, a cached property or a class
attribute) that no attribute read in src/ names.  Dunders, such as __all__
or __iter__, are read by Python itself and are exempt.  So is an import
that its module never reads: every name a module of src/ imports is read
in that module, but for the package's __init__.py, which re-exports, and
`from __future__` imports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "circuitmarket"


def _defined(body: list[ast.stmt]) -> set[str]:
    """The private names that a module's or a class's body binds."""
    names = set()
    for node in body:
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
        for name in _defined(tree.body):
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


def test_every_private_class_member_is_read_in_src():
    """A private member of a class is live if some module of src/ reads an
    attribute of its name."""
    defined, attributes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined.update((path.stem, node.name, name) for name in _defined(node.body))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    assert len(defined) > 3
    assert sorted(m for m in defined if m[2] not in attributes) == []


def test_every_imported_name_is_read_in_its_module():
    """A name that a module binds by import is live if that module loads
    it; __init__.py re-exports what it imports, and `from __future__`
    binds no name that code reads."""
    imported, unread = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            imported += len(names)
            unread += [(path.stem, name) for name in names if name not in loaded]
    assert imported > 20
    assert unread == []
