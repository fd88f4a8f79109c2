"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "virloop"


def _quoted_names(annotation) -> set:
    """Names inside a string annotation such as "Generator" or "list[Generator]"."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        inner = ast.parse(annotation.value, mode="eval")
        return {node.id for node in ast.walk(inner) if isinstance(node, ast.Name)}
    return set()


def unused_imports(source: str) -> list:
    """Names a module imports but never reads.

    A name counts as read when the code loads it, when a quoted annotation
    names it, or when `__all__` lists it; prose in docstrings does not count.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_quoted_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_quoted_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_detects_and_spares():
    source = '''
from __future__ import annotations
import os.path
from json import dumps, loads as ld
from typing import Any, Optional
from fractions import Fraction
__all__ = ["Fraction"]


def f(x: "Any") -> "Optional[str]":
    """Mentions ld in prose only."""
    return os.path.join(dumps(x))
'''
    assert unused_imports(source) == ["ld"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
