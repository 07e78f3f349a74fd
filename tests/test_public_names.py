"""Every public top-level function and class in the package has a user.

A public name counts as used when it is imported by ampletori/__init__.py,
or referenced in src/ or demos/ outside its own definition. A helper that
only tests call belongs in tests/oracles.py, and one that nothing calls
should be deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ampletori"


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names read in tree, outside the subtree skip."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def test_every_public_name_is_used():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {path: _references(tree) for path, tree in trees.items()}
    demos = set()
    for path in sorted((ROOT / "demos").glob("*.py")):
        demos |= _references(ast.parse(path.read_text()))
    unused = []
    for path, tree in trees.items():
        elsewhere = demos.union(*(r for other, r in refs.items() if other != path))
        for node in _public_definitions(tree):
            if node.name not in elsewhere and node.name not in _references(tree, skip=node):
                unused.append(f"{path.name}: {node.name}")
    assert not unused, "public names with no user: " + ", ".join(unused)
