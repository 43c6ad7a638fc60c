"""Every name a library module imports is read somewhere in it.

No linter ships with the project, so this walks each module's syntax tree:
an import binds names, and every bound name must appear as a Name node
elsewhere in the module.  Lines marked `# noqa: F401` are re-exports and
exempt.  `__init__.py` only re-exports and is skipped.
"""

import ast
from pathlib import Path

import pytest

import lsqlab

MODULES = sorted(p for p in Path(lsqlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = ("from functools import cached_property, reduce\n"
              "import os  # noqa: F401\n"
              "import os.path\n"
              "total = reduce(int.__add__, [1, 2])\n")
    assert unused_imports(source) == [(1, "cached_property"), (3, "os")]
