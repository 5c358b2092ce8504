"""Every module-level private function and class of the package is named
somewhere in the package besides its definition: a helper that only tests
reach belongs in the test that uses it.  Every public one is read in the
package or documented in README.  Every module-level constant is read
somewhere in the package."""

import ast
import pathlib
import re

import cartanforms

SRC = pathlib.Path(cartanforms.__file__).parent
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _read_names(trees):
    """Every name and attribute the package reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def test_every_private_helper_has_a_caller_in_the_package():
    trees = _trees()
    named = _read_names(trees)
    unused = [f"{module}:{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in named]
    assert unused == []


def _module_reads(trees):
    """(module, name) pairs the package reads: a load of the name in its
    own module outside its own definition, a `from .module import name`
    (the package's exports included) or an attribute `module.name`."""
    read = set()
    for module, tree in trees.items():
        here = module[:-3]
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        read.add((node.module, alias.name))
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load) and node.id != own):
                    read.add((here, node.id))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    read.add((modules[node.value.id], node.attr))
    return read


def test_every_public_function_is_read_in_the_package_or_documented():
    # a public function that only tests call belongs in those tests
    trees = _trees()
    read = _module_reads(trees)
    readme = README.read_text()
    unread = [f"{module[:-3]}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and (module[:-3], node.name) not in read
              and not re.search(rf"`{node.name}`|\b{node.name}\(", readme)]
    assert unread == []


def test_every_module_constant_is_read_in_the_package():
    # a tuning constant left behind by a deleted code path fails here
    trees = _trees()
    read = _read_names(trees)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            unread += [f"{module}:{name.id}"
                       for target in targets for name in ast.walk(target)
                       if isinstance(name, ast.Name)
                       and not name.id.startswith("__")
                       and name.id not in read]
    assert unread == []
