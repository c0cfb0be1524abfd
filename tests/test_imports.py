"""Every imported name and every private package name is used.

pyflakes and ruff are not dependencies, so this walks the syntax tree with
``ast``: in each package module (``__init__.py`` re-exports and is left out)
and each test file, a name bound by an import must be referenced somewhere
in the same file, and a module-level private name of the package (a
``_name`` bound by ``def``, ``class`` or assignment) must be referenced
somewhere in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "nadqec").glob("*.py"))
FILES = sorted([p for p in PACKAGE if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that are never referenced."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == ["os", "c"]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}: {name}" for path in FILES
             for name in unused_imports(path.read_text())]
    assert not found, "imported but never referenced:\n" + "\n".join(found)


def private_definitions(source: str) -> list[str]:
    """Non-dunder names starting with ``_`` that ``source`` binds at module
    level by ``def``, ``class`` or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def references(source: str) -> set[str]:
    """Names ``source`` reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_detects_an_unused_private_name():
    source = ("_A = 1\n_B, c = 2, 3\n__all__ = []\ndef _f(): return _A\n"
              "class _K: pass\nx: int = _K\n_y: int = 0\n")
    assert private_definitions(source) == ["_A", "_B", "_f", "_K", "_y"]
    assert {"_A", "_K"} <= references(source)
    assert not {"_B", "_f", "_y"} & references(source)


def test_no_unused_private_names():
    used = set().union(*(references(p.read_text()) for p in PACKAGE))
    found = [f"{path.relative_to(ROOT)}: {name}" for path in PACKAGE
             for name in private_definitions(path.read_text()) if name not in used]
    assert not found, "private but never referenced in the package:\n" \
        + "\n".join(found)
