"""Every module-level private function and class of the package is named
somewhere in the package besides its definition: a helper that only tests
reach belongs in the test that uses it."""

import ast
import pathlib

import cartanforms

SRC = pathlib.Path(cartanforms.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def test_every_private_helper_has_a_caller_in_the_package():
    trees = _trees()
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [f"{module}:{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in named]
    assert unused == []
