"""Every public name has a caller inside the package.

A name that `landmark_frames/__init__.py` exports but no package module
uses is API without a production caller; it either gets one or goes.
"""

import ast
from pathlib import Path

import landmark_frames

PACKAGE = Path(landmark_frames.__file__).parent


def _defined_names(node):
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _used_names(node):
    """Names and attribute names a statement reads."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
    return used


def _references():
    """name -> number of top-level statements, outside its own definition, that read it."""
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _used_names(stmt) - _defined_names(stmt):
                counts[name] = counts.get(name, 0) + 1
    return counts


def test_every_export_has_a_caller_in_the_package():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(exported) > 50  # the scan found the re-exports at all
    references = _references()
    unused = [name for name in exported if not references.get(name)]
    assert unused == []
