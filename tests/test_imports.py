"""Every imported name and every package-level name is used.

pyflakes and ruff are not dependencies, so this walks the syntax tree with
``ast``: in each package module (``__init__.py`` re-exports and is left out)
and each test file, a name bound by an import must be referenced somewhere
in the same file; a module-level private name of the package (a ``_name``
bound by ``def``, ``class`` or assignment) must be referenced somewhere in
the package; and a module-level public name of the package must be read by
the package or the benchmark harness (``bench/*.py``); what only the
tests read lives in ``tests/``. A name counts as read when it is loaded
bare, imported by name, or read as an attribute of a package module
(``code3.x``, ``synth.x``); an attribute of anything else (``res.cost``)
reads no module-level name. The package also reaches numpy and scipy only
through their public API: no name it imports from them, or reads as an
attribute of what it imports, has a dotted component after the root that
starts with ``_`` (``numpy.linalg._umath_linalg``), dunders aside. Only
``synth`` imports scipy, at any level, so that no other kind loads it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "nadqec").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
MODULES = frozenset(p.stem for p in PACKAGE)
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


def private_library_names(source: str, roots=("numpy", "scipy")) -> list[str]:
    """Dotted names under ``roots`` that ``source`` imports, or reads as an
    attribute chain off a name it imported from them, whose components
    after the root include a non-dunder one starting with ``_``."""
    tree = ast.parse(source)
    bound = {}  # local name -> dotted name it stands for
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                named.append(a.name)
                bound[a.asname or a.name.split(".")[0]] = a.name if a.asname \
                    else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                named.append(f"{node.module}.{a.name}")
                bound[a.asname or a.name] = named[-1]
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            named.append(".".join([bound[node.id], *reversed(chain)]))
    return sorted({name for name in named if name.split(".")[0] in roots
                   and any(part.startswith("_") and not (part.startswith("__")
                                                         and part.endswith("__"))
                           for part in name.split(".")[1:])})


def test_detects_a_private_library_module():
    source = ("import numpy as np\nimport numpy.linalg._umath_linalg\n"
              "from numpy.linalg import _umath_linalg as ul, eigvalsh\n"
              "from scipy._lib import util\nfrom scipy import optimize as so\n"
              "import os._private\nfrom .qcore import _helper\n"
              "np.linalg._umath_linalg.eigvalsh_lo(a)\nso._minimize.x\n"
              "np.linalg.eigvalsh(a)\nnp.__version__\nrho._cache\n")
    assert private_library_names(source) == [
        "numpy.linalg._umath_linalg", "numpy.linalg._umath_linalg.eigvalsh_lo",
        "scipy._lib.util", "scipy.optimize._minimize", "scipy.optimize._minimize.x"]


def test_no_private_library_modules():
    found = [f"{path.relative_to(ROOT)}: {name}" for path in PACKAGE
             for name in private_library_names(path.read_text())]
    assert not found, "private numpy or scipy API:\n" + "\n".join(found)


def scipy_imports(source: str) -> list[str]:
    """Modules under scipy that ``source`` imports anywhere in its tree,
    function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and not node.level and node.module
              and node.module.split(".")[0] == "scipy"):
            found.append(node.module)
    return found


def test_detects_a_scipy_import():
    source = ("import numpy as np\nimport scipy.linalg as sl, os\n"
              "from .scipy import x\nfrom scipyx import y\n"
              "def f():\n    from scipy.optimize import curve_fit\n"
              "    import scipy\n")
    assert scipy_imports(source) == ["scipy.linalg", "scipy.optimize", "scipy"]


def test_scipy_only_in_synth():
    found = [f"{path.relative_to(ROOT)}: {name}" for path in PACKAGE
             if path.name != "synth.py" for name in scipy_imports(path.read_text())]
    assert not found, "scipy imported outside synth:\n" + "\n".join(found)


def module_definitions(source: str) -> list[str]:
    """Names that ``source`` binds at module level by ``def``, ``class`` or
    assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return names


def private_definitions(source: str) -> list[str]:
    """Non-dunder module-level names of ``source`` starting with ``_``."""
    return [n for n in module_definitions(source)
            if n.startswith("_") and not n.startswith("__")]


def public_definitions(source: str) -> list[str]:
    """Module-level names of ``source`` not starting with ``_``."""
    return [n for n in module_definitions(source) if not n.startswith("_")]


def references(source: str, modules=MODULES) -> set[str]:
    """Names ``source`` reads: bare, imported by name, or as an attribute
    of one of ``modules``."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.ImportFrom):
            read |= {a.name for a in n.names}
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in modules):
            read.add(n.attr)
    return read


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


def unread_public_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module: name`` for each public module-level name of ``modules``
    (file name to source) that no source in ``readers`` reads."""
    stems = {Path(name).stem for name in modules}
    read = set().union(*(references(r, stems) for r in readers))
    return [f"{name}: {n}" for name, source in modules.items()
            for n in public_definitions(source) if n not in read]


def test_detects_an_unread_public_name():
    mod = ("A = 1\n_B = 2\ndef f(): return A\ndef g(): pass\n"
           "class K: pass\nx: int = 0\n")
    assert public_definitions(mod) == ["A", "f", "g", "K", "x"]
    assert unread_public_names({"m.py": mod}, [mod, "m.K()\nprint(m.x)\n"]) \
        == ["m.py: f", "m.py: g"]
    # a field read off an object is no read of the module's function of
    # that name; a read off the module or an import by name is
    assert unread_public_names({"m.py": mod}, [mod, "res.f\nobj.g()\n"]) \
        == ["m.py: f", "m.py: g", "m.py: K", "m.py: x"]
    assert unread_public_names({"m.py": mod}, [mod, "from m import f, K\nm.g\n"]) \
        == ["m.py: x"]


def test_no_unread_public_names():
    modules = {p.name: p.read_text() for p in PACKAGE if p.name != "__init__.py"}
    readers = [p.read_text() for p in PACKAGE + BENCH]
    unread = unread_public_names(modules, readers)
    assert not unread, "public but read by neither the package nor bench/:\n" \
        + "\n".join(unread)
