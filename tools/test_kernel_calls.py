"""Smoke test of tools/kernel_calls.py. It fits and scores in subprocesses,
so it sits outside the default test paths; run it with

    python -m pytest -q tools/test_kernel_calls.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINE = r"{} +{} x 1000 +[\d.]+ \[[\d.]+-[\d.]+\]"


def _kernel_calls(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(ROOT / "tools" / "kernel_calls.py"), *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("one_cpu", [False, True])
def test_each_input_prints_its_shape_and_times(one_cpu):
    flags = ["--one-cpu"] if one_cpu else []
    proc = _kernel_calls("--calls", "2", "--input", "med3-inductive", "--input", "med3-surface", *flags)
    assert proc.returncode == 0, proc.stderr
    head, *lines = proc.stdout.splitlines()
    assert head.startswith("cpus 1 " if one_cpu else "cpus ")
    assert len(lines) == 2
    assert re.fullmatch(LINE.format("med3-inductive", 231), lines[0])
    assert re.fullmatch(LINE.format("med3-surface", 441), lines[1])


def test_calls_below_one_are_refused():
    proc = _kernel_calls("--calls", "0")
    assert proc.returncode == 2
    assert "--calls must be at least 1" in proc.stderr
