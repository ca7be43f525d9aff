"""Tests of tools/same.py. They run bsf in subprocesses on two trees, so they
sit outside the default test paths; run them with

    python -m pytest -q tools/test_same.py
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GIT = ["git", "-c", "user.name=same", "-c", "user.email=same@example.invalid"]
SUBSET = ("--only", "med5-generate", "--only", "schaffer")


def _commit(repo: Path, message: str) -> None:
    subprocess.run([*GIT, "-C", str(repo), "add", "-A"], check=True)
    subprocess.run([*GIT, "-C", str(repo), "commit", "--quiet", "--allow-empty", "-m", message], check=True)


def _same(repo: Path, *args):
    return subprocess.run([sys.executable, str(repo / "tools" / "same.py"), *args],
                          cwd=repo, capture_output=True, text=True)


@pytest.fixture
def clone(tmp_path):
    """A clone of this repository's HEAD, with this checkout's tool committed on top."""
    repo = tmp_path / "repo"
    subprocess.run(["git", "clone", "--quiet", str(ROOT), str(repo)], check=True)
    (repo / "tools").mkdir(exist_ok=True)
    shutil.copy(ROOT / "tools" / "same.py", repo / "tools" / "same.py")
    _commit(repo, "the tool under test")
    return repo


def test_head_against_itself_differs_nowhere(clone):
    proc = _same(clone, "--against", "HEAD", *SUBSET)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.fullmatch(r"\d+ files, 0 differ\n", proc.stdout)
    worktrees = subprocess.run(["git", "-C", str(clone), "worktree", "list"],
                               capture_output=True, text=True, check=True).stdout
    assert len(worktrees.splitlines()) == 1  # the checked-out revision is gone again


def test_a_changed_output_is_named(clone):
    cli = clone / "src" / "bsf" / "cli.py"
    text = cli.read_text()
    changed = text.replace('print(f"wrote {len(faces)} training files', 'print(f"wrote {len(faces)} training CSVs')
    assert changed != text
    cli.write_text(changed)
    _commit(clone, "throwaway: generate says CSVs")
    proc = _same(clone, "--against", "HEAD~1", *SUBSET)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[0] == "differs: _commands/med5-generate.stdout"
    assert re.fullmatch(r"\d+ files, 1 differ", lines[1]) and len(lines) == 2
