"""No module under ``src/repro/`` binds a top-level import it never uses.

A static walk with :mod:`ast`, so it needs no linter installed.  A
module-level import (including one inside a top-level ``if`` or
``try``) is used when its bound name is read anywhere in the module —
code, annotations, or a string annotation — or is listed in
``__all__``.  Every import in an ``__init__.py`` is a re-export and
counts as used.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _top_level_imports(tree: ast.Module):
    """(bound name, line) for each module-level import binding."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _string_annotation_names(annotation: ast.AST) -> set[str]:
    """Names read inside the quoted parts of an annotation."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed)
                      if isinstance(n, ast.Name)}
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _string_annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _string_annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _string_annotation_names(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                used |= {n.value for n in ast.walk(node.value)
                         if isinstance(n, ast.Constant)
                         and isinstance(n.value, str)}
    return used


def unused_imports(root: Path = SRC) -> list[str]:
    """``path:line: name`` for every top-level import never used."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for name, line in _top_level_imports(tree):
            if name not in used:
                found.append(f"{path.relative_to(root.parent)}:{line}: {name}")
    return sorted(found)


def test_no_module_binds_an_unused_import():
    assert unused_imports() == []


def test_the_check_sees_an_unused_import(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from os import path\n")
    (pkg / "mod.py").write_text(
        "import heapq\nimport json as js\nfrom typing import Optional\n"
        "from dataclasses import dataclass, field\n"
        "__all__ = ['dataclass']\n"
        "from typing import List\n"
        "def f(x: 'Optional[int]') -> List['Path']:\n"
        "    return js.dumps(x)\n"
        "from pathlib import Path\n")
    assert unused_imports(pkg) == [
        "repro/mod.py:1: heapq", "repro/mod.py:4: field"]
