"""Every name a module of `src/masbound` imports is used in that module, and every private helper and constant is used.

Static `ast` scans.  An imported name counts as used when it appears as
a name anywhere in the module (an attribute chain `np.linalg.eig` uses
`np`), or when the module lists it in its own `__all__` (the package's
re-exports).  `from __future__` imports are exempt.  A private top-level
function or class, or a private method, counts as used when its name
appears anywhere in the package as a name or an attribute; dunder
methods are exempt.  A private name bound by a top-level assignment
(`_TIE = 1e-6`) counts as used when its own module reads it, or when
any module names it as an attribute (`powerseries._RECORD`); being
assigned again is not a use.  No module reads the environment
(`os.environ`, `os.getenv`), so no output depends on it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "masbound"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """The imported names `source` never uses, as "name (line N)"."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c as d\n"
        "from .e import f\n"
        "__all__ = ['f']\n"
        "x = np.zeros(1) + d\n"
    )
    assert unused_imports(source) == ["os (line 2)", "b (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _assigned(node: ast.stmt) -> list[ast.Name]:
    """The names a top-level assignment binds."""
    if isinstance(node, ast.Assign):
        return [n for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target]
    return []


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private top-level functions, classes and assigned names, and private methods, that no module of `sources` uses.

    `sources` maps a file name to its source; each entry is "name (file:line)".
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used, attributes, read = set(), set(), {}
    for file, tree in trees.items():
        read[file] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
                if not isinstance(node.ctx, ast.Store):
                    read[file].add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                attributes.add(node.attr)
    unused = []
    for file, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defn in [node, *members]:
                if isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if _private(defn.name) and defn.name not in used:
                        unused.append(f"{defn.name} ({file}:{defn.lineno})")
            for name in _assigned(node):
                if _private(name.id) and name.id not in read[file] | attributes:
                    unused.append(f"{name.id} ({file}:{name.lineno})")
    return unused


def test_scan_finds_an_unused_helper():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "def _unused():\n"
            "    return _used()\n"
            "class _Dead:\n"
            "    def __init__(self):\n"
            "        self._called()\n"
            "    def _method(self):\n"
            "        pass\n"
        ),
        "b.py": "from .a import _Dead\nclass Live:\n    def _called(self):\n        pass\n    def _gone(self):\n        pass\n",
    }
    # An import is not a use.
    assert unused_private_definitions(sources) == ["_unused (a.py:3)", "_Dead (a.py:5)", "_method (a.py:8)", "_gone (b.py:5)"]


def test_scan_finds_an_unused_private_name():
    sources = {
        "a.py": (
            "_READ = 1\n"
            "_ATTR: float = 2.0\n"
            "_GONE, _PAIR = 3, 4\n"
            "_SAME = 5\n"
            "_REBOUND = 6\n"
            "_REBOUND = 7\n"
            "__version__ = '0'\n"
            "def f():\n"
            "    return _READ + _PAIR\n"
        ),
        "b.py": "import a\n_SAME = 8\nx = a._ATTR + _SAME\n",
    }
    # A name read in another module under its own binding is not a use.
    assert unused_private_definitions(sources) == ["_GONE (a.py:3)", "_SAME (a.py:4)", "_REBOUND (a.py:5)", "_REBOUND (a.py:6)"]


def test_no_unused_private_helper():
    assert unused_private_definitions({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}) == []


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each `os.environ` or `os.getenv` (or bytes twin) that `source` names, as an attribute or an import, as "name (line N)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names if alias.name in _ENVIRONMENT]
    return found


def test_scan_finds_an_environment_read():
    source = (
        "import os\n"
        "from os import getenv, path\n"
        "tol = float(os.environ.get('TOL', '1e-9'))\n"
        "where = os.path.join(os.getcwd(), 'x')\n"
    )
    assert environment_reads(source) == ["getenv (line 2)", "environ (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_read(path):
    assert environment_reads(path.read_text()) == []
