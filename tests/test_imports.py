"""Source hygiene: no module of the package imports a name it never uses.

There is no linter among the test dependencies, so this walks the syntax
tree itself. ``__init__.py`` is left out: its imports are the package's
exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "xmc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each name an import binds and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from dataclasses import dataclass, field\nimport numpy as np\n"
              "@dataclass\nclass A:\n    x: np.ndarray\nos.path.join('a')\n")
    assert unused_imports(source) == ["line 3: field"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
