"""`errors.reading` is the only place in the library that catches a decoding
error, so every malformed input file fails with one message shape."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "bsf").glob("*.py"))
DECODING_ERRORS = {"UnicodeDecodeError", "JSONDecodeError"}


def _decoding_catches(path: Path):
    """`line N: Name` for each `except` clause that names a decoding error."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                name = t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None)
                if name in DECODING_ERRORS:
                    found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "errors.py"], ids=lambda p: p.name)
def test_only_the_reading_boundary_catches_decoding_errors(path):
    found = _decoding_catches(path)
    assert not found, f"{path.name} catches decoding errors itself; read through errors.reading: {found}"


def test_boundary_catches_both_decoding_errors():
    assert len(_decoding_catches(ROOT / "src" / "bsf" / "errors.py")) == 2


def test_decoding_catch_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import json\n\n"
        "try:\n    pass\nexcept UnicodeDecodeError:\n    pass\n"
        "try:\n    pass\nexcept (OSError, json.JSONDecodeError):\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert _decoding_catches(module) == ["line 5: UnicodeDecodeError", "line 9: JSONDecodeError"]
