import ast
from pathlib import Path

import markoff

PACKAGE = Path(markoff.__file__).parent


def _references(tree) -> list:
    """Every name a tree reads, as a bare name, an attribute or an import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
    return names


def _unreferenced(private: bool) -> list:
    """module:name of each module-level function or class, private or
    public as asked, that nothing in the package names but its own body;
    __init__'s imports name what it re-exports."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    every = [name for tree in trees.values() for name in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or name.startswith("_") != private:
                continue
            if every.count(name) == _references(node).count(name):  # only itself
                unused.append(f"{module}:{name}")
    return unused


def test_every_private_definition_is_referenced():
    # a private module-level function or class that nothing else in the
    # package names is dead code: its caller was switched and it stayed
    assert _unreferenced(private=True) == []


def test_every_public_definition_is_used():
    # a public one that the package neither calls nor re-exports serves
    # only the tests, which can build what it builds themselves
    assert _unreferenced(private=False) == []


def _imported(tree) -> list:
    """(line, name) of every name a module's imports bind, but __future__'s."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    return bound


def test_every_import_is_read():
    # a module that imports a name it never reads kept it from a deleted
    # caller; __init__ imports to re-export
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line}:{name}" for line, name in _imported(tree)
                   if name not in read]
    assert unread == []

