"""Every module of the package uses each name it imports, the package reads
each constant, private function and private class it defines, and a module
other than ``__init__.py`` reads each name it exports, with no exemption: an
export that only the tests call is removed.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

import dopplerkb

PACKAGE = Path(dopplerkb.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*$")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a import b, c\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_definitions(sources: dict) -> list:
    """(module, name) of each module-level UPPER_CASE constant and each
    ``_``-prefixed top-level function or class of ``sources`` (module name ->
    source) that no expression of any of them reads, as a name or an
    attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets
                            if isinstance(t, ast.Name) and CONSTANT.match(t.id)]
    return sorted(d for d in defined if d[1] not in read)


def test_finds_an_unread_constant_and_private_function():
    sources = {"a": "LIMIT = 1\nUNUSED = 2\ndef _f(): pass\ndef _g(): pass\n"
                    "class _Read: pass\nclass _Record: pass\n",
               "b": "from a import LIMIT\nimport a\nx = LIMIT + a._f()\nY: int = 3\n"
                    "r = a._Read()\n"}
    assert unread_definitions(sources) == [("a", "UNUSED"), ("a", "_Record"), ("a", "_g"),
                                           ("b", "Y")]


# Constants only the run manifest reads: constants.as_dict takes them
# through globals(), which no expression names.
MANIFEST_ONLY = {"CONSTANTS_VERSION", "KB_CODATA_2002_SIGMA", "NH3_MASS_KG"}


def test_package_reads_every_constant_and_private_function():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == sorted(("constants", name) for name in MANIFEST_ONLY)


def unused_exports(exports, sources: list) -> list:
    """Each name of ``exports`` that no module of ``sources`` reads as a name
    or imports."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(set(exports) - used)


def test_finds_an_unused_export():
    sources = ["from a import f\n", "def g(): pass\ndef h(): pass\nx = h()\n"]
    assert unused_exports(["f", "g", "h"], sources) == ["g"]


def test_package_uses_every_export():
    sources = [path.read_text() for path in MODULES]
    assert unused_exports(dopplerkb.__all__, sources) == []
