"""The public API surface: every public definition is exported or used."""

import ast
import pathlib

import parcoh

SRC = pathlib.Path(parcoh.__file__).parent

# The golden Picard-Euler values one at a time, which the acceptance
# tests read (and the benchmark traces golden_report by name); `parcoh
# picard` computes them together through picard.golden_values.
GOLDEN_ACCESSORS = frozenset(("computed_gram_published_basis",
                              "golden_signatures", "golden_report"))


def _references(tree, skip=None):
    """The names, attribute names and imported names used in tree, outside
    the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_definition_is_exported_or_used():
    """A public module-level function or class of src/parcoh is in
    parcoh.__all__, a golden accessor, or referenced somewhere in
    src/parcoh other than its own definition."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in sorted(SRC.glob("*.py"))}
    used = {name: _references(tree) for name, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") \
                    or node.name in parcoh.__all__ \
                    or node.name in GOLDEN_ACCESSORS:
                continue
            elsewhere = any(node.name in refs for name, refs in used.items()
                            if name != module)
            if not elsewhere and node.name not in _references(tree, node):
                unused.append("%s: %s" % (module, node.name))
    assert unused == []
