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


def test_every_private_definition_is_referenced():
    # a private module-level function or class that nothing else in the
    # package names is dead code: its caller was switched and it stayed
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    every = [name for tree in trees.values() for name in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if every.count(name) == _references(node).count(name):  # only itself
                unused.append(f"{module}:{name}")
    assert unused == []
