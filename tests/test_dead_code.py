"""Every module-level definition in ``src/megsolve`` has a reader.

A function, class or constant must be named in ``megsolve.__all__``, be
read by other code in ``src/`` (outside its own definition; a docstring
that mentions it does not count), or be named in ``perfbench/*.py``,
which reads some private names such as ``_pair_cover_masks``. A name
that only tests reach has no place in the package.
"""

import ast
import pathlib
import re

import megsolve

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "megsolve").glob("*.py"))


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(node: ast.AST):
    """Every name the code under ``node`` loads, as a bare name or as an
    attribute; string constants, docstrings among them, are not read."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_src_definition_has_a_reader():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    perfbench = "\n".join(path.read_text(encoding="utf-8")
                          for path in sorted((ROOT / "perfbench").glob("*.py")))
    reads = {node: set(_reads(node))
             for tree in trees.values() for node in tree.body}
    public = set(megsolve.__all__)
    unread = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in public or re.search(rf"\b{name}\b", perfbench):
                continue
            if any(name in names for other, names in reads.items()
                   if other is not node):
                continue
            unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, unread
