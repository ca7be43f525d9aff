"""The library's runtime imports stay within the standard library and numpy."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bsf"}


def _imported_modules(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "bsf").glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    imports = _imported_modules(path)
    outside = [f"line {line}: {name}" for line, name in imports if name not in ALLOWED]
    assert not outside, f"{path.name} imports outside the standard library and numpy: {outside}"


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
