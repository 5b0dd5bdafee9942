"""The library surface: the modules, and nothing the library itself never uses."""

import ast
from pathlib import Path
from types import ModuleType

import match_ybo

SRC = Path(match_ybo.__file__).parent

# The paper's stated results: kept in the library although only tests call them.
STATED_RESULTS = {"canonicalize", "six_rule_check"}


def test_package_root_binds_only_the_version_and_classify():
    names = {
        name for name, value in vars(match_ybo).items()
        if not isinstance(value, ModuleType) and (not name.startswith("_") or name == "__version__")
    }
    assert names == {"__version__", "classify"}


def _uses(tree, skip):
    """Names read in `tree` as bare names or attributes, outside the node `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_definition_has_a_library_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in STATED_RESULTS:
                continue
            if not any(node.name in _uses(t, node) for t in trees.values()):
                unused.append(f"{name}:{node.name}")
    assert unused == []
