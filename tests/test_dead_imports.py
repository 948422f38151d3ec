"""No module in src/ or scripts/ imports a name at top level that it never
uses: every such name is read somewhere in the module or listed in its
``__all__``.  ``from __future__`` imports are compiler directives and are
skipped."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"),
                  *(ROOT / "scripts").rglob("*.py")])


def dead_imports(text: str) -> list:
    """The names a module imports at top level and neither reads nor lists
    in ``__all__``, in source order."""
    tree = ast.parse(text)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names if alias.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [name for name in imported if name not in used]


def test_dead_imports_finds_an_unused_name():
    text = ("from __future__ import annotations\n"
            "import os, numpy.linalg\n"
            "from math import pi, tau as t\n"
            "from .x import kept\n"
            "__all__ = ['kept']\n"
            "print(numpy.linalg.norm, t)\n")
    assert dead_imports(text) == ["os", "pi"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_dead_imports(path):
    assert dead_imports(path.read_text(encoding="utf-8")) == []
