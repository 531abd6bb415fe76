"""Every module-level import of the package is used.

The check pyflakes makes as F401, in ``ast``: a name a module imports at its
top level must be read somewhere in that module, unless the import carries
``noqa: F401`` (a re-export kept on purpose).
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "countsim").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import of ``source`` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or getattr(stmt, "module", None) == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(name)
    return unused


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nfrom bisect import bisect_right, insort\n"
              "import numpy.linalg\nfrom os import path  # noqa: F401\nx = math.pi + numpy.linalg.norm(1)\n")
    assert unused_imports(source) == ["bisect_right", "insort"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
