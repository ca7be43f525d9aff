"""Every top-level import of a library module is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "bsf").glob("*.py") if p.name != "__init__.py")


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
