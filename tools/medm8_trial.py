#!/usr/bin/env python3
"""Time one many-objective trial in this process: wall time and max RSS.

    PYTHONPATH=src python tools/medm8_trial.py [--m M] [--method METHOD]

Runs `harness.run_trial` once on medM:M (`--m`, default 8) with sizes
(1, 2, 1), experiment seed 3, one fitting method (`--method`: inductive,
the default, all-at-once or response-surface) and the default 1,000-point
validation set, scored at resolution 20. A Bezier fit is scored on the
barycentric grid of C(19 + M, M - 1) rows, 888,030 at M = 8, so grid
making and scoring dominate; all-at-once also evaluates its start grid of
C(9 + M, M - 1) rows. A response surface is scored on its 21^(M - 1) box
grid. Prints the trial's GD and IGD (so that two checkouts can be seen to
agree), its wall time from `time.perf_counter` and the process's max RSS
from `resource.getrusage`, which includes the interpreter and numpy
themselves.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from bsf.harness import METHODS, ExperimentConfig, run_trial


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=8, help="objectives of medM (default 8)")
    parser.add_argument("--method", choices=METHODS, default="inductive", help="fitting method")
    args = parser.parse_args(argv)
    cfg = ExperimentConfig(f"medM:{args.m}", (args.method,), sizes=(1, 2, 1), trials=1, seed=3, resolution=20)
    start = time.perf_counter()
    (row,) = run_trial(cfg, 0)
    wall = time.perf_counter() - start
    if row.error:
        print(f"error: {row.error}", file=sys.stderr)
        return 1
    print(f"gd {row.gd!r}")
    print(f"igd {row.igd!r}")
    print(f"wall_s {wall:.3f}")
    print(f"max_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
