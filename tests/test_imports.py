"""Every name a test or package module imports is used in it.

An import that nothing reads hides what a module depends on.  The scan covers
``tests/`` and every module under ``src/deco/`` but its ``__init__.py`` files,
which re-export names on purpose.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "deco"


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads.  ``import a.b`` is used
    when some attribute chain in the module starts with ``a.b``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [alias.asname or alias.name for alias in node.names
                         if node.module != "__future__"]
    chains = {_dotted(node) for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))} - {None}
    return [name for name in imported
            if not any(chain == name or chain.startswith(name + ".") for chain in chains)]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_a_test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py")
                                         if p.name != "__init__.py"),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_a_package_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_name_and_an_unused_submodule():
    source = ("import os\nimport deco.chaining\nimport deco.executor\n"
              "from math import pi, tau as turn\n"
              "print(deco.chaining.RRT_STEP, turn)\n")
    assert unused_imports(source) == ["os", "deco.executor", "pi"]
