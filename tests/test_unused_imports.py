"""Every name a library module imports is read somewhere in it, and every
top-level definition, private or public, is read by some library module.

No linter ships with the project, so this walks each module's syntax tree:
an import binds names, and every bound name must appear as a Name node
elsewhere in the module.  Lines marked `# noqa: F401` are re-exports and
exempt.  `__init__.py` only re-exports and is skipped by the import check;
its re-exports do not count as reads for the definition check, so a
function no library module calls is caught even when it is exported.  A
decorated definition (such as a registered `verify` check) is read by its
decorator.
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


def unread_definitions(sources: dict) -> list:
    """(module, name) of each undecorated top-level function or class,
    private or public, that no module other than __init__.py reads, as a
    name, an attribute or an import: a re-export alone is not a read.
    sources maps module to text."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.decorator_list and node.name not in read]


def test_every_public_definition_is_read():
    package = Path(lsqlab.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unread_definitions(sources) == []


def test_unread_definition_is_caught():
    sources = {"a.py": ("def used():\n    return helper()\n"
                        "def helper():\n    return 1\n"
                        "def orphan():\n    return 2\n"
                        "def _leftover():\n    return 4\n"
                        "@register\ndef hooked():\n    return 3\n"
                        "class Exported:\n    pass\n"),
               "b.py": "from .a import used\n",
               "__init__.py": "from .a import Exported, used\n"}
    assert unread_definitions(sources) == [("a.py", "orphan"),
                                           ("a.py", "_leftover"),
                                           ("a.py", "Exported")]
