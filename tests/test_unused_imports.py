"""Every top-level import of a library module is used in that module,
every top-level private name a library module defines is used somewhere in
the library, and every name an `__all__` lists resolves."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "bsf").glob("*.py") if p.name != "__init__.py")
LIBRARY = sorted((ROOT / "src" / "bsf").glob("*.py"))


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport os.path as osp\nfrom math import pi, tau\n\nprint(pi, osp)\n")
    assert _unused_imports(module) == ["line 1: os", "line 3: tau"]


def _private_definitions(path: Path):
    """(line, name) of each top-level `_name` (not a dunder) that a module defines."""
    defined = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [
                (node.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
    return [(line, name) for line, name in defined if name.startswith("_") and not name.startswith("__")]


def _references(paths):
    """Names read, attributes taken or imported anywhere in the given modules."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _unused_private_names(path: Path, library):
    used = _references(library)
    return [f"line {line}: {name}" for line, name in _private_definitions(path) if name not in used]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_private_name_is_used_in_the_library(path):
    unused = _unused_private_names(path, LIBRARY)
    assert not unused, f"{path.name} defines private names no library module uses: {unused}"


def test_unused_private_name_is_caught(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "_LIMIT = 3\n_left: int = 0\n\n\ndef _kept():\n    return _LIMIT\n\n\n"
        "def _helper():\n    return 1\n\n\nclass _Old:\n    pass\n"
    )
    b.write_text("from a import _kept\n\nprint(_kept())\n")
    assert _unused_private_names(a, [a, b]) == ["line 2: _left", "line 9: _helper", "line 13: _Old"]


@pytest.mark.parametrize("module", ["bsf", "bsf.problems"])
def test_every_exported_name_resolves(module):
    namespace = importlib.import_module(module)
    missing = [name for name in namespace.__all__ if not hasattr(namespace, name)]
    assert not missing, f"{module}.__all__ names what it does not define: {missing}"
