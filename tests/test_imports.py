"""Source hygiene: no module of the package, of its tests or of its scripts
imports a name it never uses, no package module binds a module-level
private name that nothing in it reads, and no public module-level
function, class or assignment of the package goes unnamed by every Python
file of the repository.

There is no linter among the test dependencies, so this walks the syntax
tree itself. Every module of the package is checked, ``__init__.py`` too:
the package re-exports nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "xmc"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# every file that may call into the package
USERS = sorted(p for d in ("src", "tests", "scripts", "perfbench")
               for p in (ROOT / d).rglob("*.py"))


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


@pytest.mark.parametrize("path", TESTS, ids=[p.stem for p in TESTS])
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_no_unused_imports_in_scripts(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(source: str) -> list[str]:
    """``line N: name`` for each private name that a module-level assignment
    or undecorated ``def`` binds and nothing in the module reads. A decorated
    function is exempt: its decorator may register it, as the CLI's command
    bodies are."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.decorator_list:
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unused_private_name():
    source = ("import functools\n_USED = 1\n_UNUSED = 2\n_a, _b = 3, 4\n"
              "def _helper():\n    return _USED + _a\n"
              "def _dead():\n    pass\n"
              "@functools.cache\ndef _registered():\n    pass\n"
              "def public():\n    return _helper()\n__all__ = ['public']\n")
    assert unused_private_names(source) == ["line 3: _UNUSED", "line 4: _b", "line 7: _dead"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def names_read(source: str) -> set[str]:
    """Every identifier ``source`` refers to, bare or as an attribute. A
    ``def`` or ``class`` statement, an import and an assignment bind a name
    but do not refer to it, so neither a definition nor an export counts."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unnamed_public_defs(source: str, read: set[str]) -> list[str]:
    """``line N: name`` for each public module-level ``def`` or ``class`` of
    ``source`` whose name is not in ``read``."""
    return [f"line {node.lineno}: {node.name}" for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_the_check_finds_an_unnamed_public_def():
    module = ("def called():\n    pass\ndef via_attribute():\n    pass\n"
              "def exported():\n    pass\nclass Unused:\n    def called(self):\n"
              "        pass\ndef _private():\n    pass\n")
    init = "from .mod import called, exported, via_attribute\n"
    user = "import mod\nfrom mod import called\ncalled()\nmod.via_attribute()\n"
    read = names_read(module) | names_read(init) | names_read(user)
    assert unnamed_public_defs(module, read) == ["line 5: exported", "line 7: Unused"]


def unnamed_public_constants(source: str, read: set[str]) -> list[str]:
    """``line N: name`` for each public name that a module-level assignment
    of ``source`` binds and that is not in ``read``."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and not n.id.startswith("_")]
    return [f"line {line}: {name}" for line, name in bound if name not in read]


def test_the_check_finds_an_unnamed_public_constant():
    module = ("USED = 1\nUNUSED = 2\nA, B = 3, 4\nTYPED: int = 5\n_PRIVATE = 6\n"
              "__all__ = ['f']\ndef f():\n    return USED + A\n")
    user = "import mod\nprint(mod.TYPED)\n"
    read = names_read(module) | names_read(user)
    assert unnamed_public_constants(module, read) == ["line 2: UNUSED", "line 3: B"]


@pytest.fixture(scope="module")
def names_in_users():
    return set().union(*(names_read(p.read_text()) for p in USERS))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_public_def_is_named(path, names_in_users):
    assert unnamed_public_defs(path.read_text(), names_in_users) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_public_constant_is_named(path, names_in_users):
    assert unnamed_public_constants(path.read_text(), names_in_users) == []
