"""Every imported name is used.

pyflakes and ruff are not dependencies, so this walks the syntax tree with
``ast``: in each package module (``__init__.py`` re-exports and is left out)
and each test file, a name bound by an import must be referenced somewhere
in the same file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([p for p in (ROOT / "src" / "nadqec").glob("*.py")
                if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


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
