#!/usr/bin/env python3
"""Time one eight-objective trial in this process: wall time and max RSS.

    PYTHONPATH=src python tools/medm8_trial.py

Runs `harness.run_trial` once on medM:8 with sizes (1, 2, 1), experiment
seed 3, the inductive skeleton fit and the default 1,000-point validation
set, scored on the resolution-20 barycentric grid: C(27, 7) = 888,030 rows,
so grid making and scoring dominate. Prints the trial's GD and IGD (so that
two checkouts can be seen to agree), its wall time from `time.perf_counter`
and the process's max RSS from `resource.getrusage`, which includes the
interpreter and numpy themselves.
"""

from __future__ import annotations

import resource
import sys
import time

from bsf.harness import ExperimentConfig, run_trial


def main() -> int:
    cfg = ExperimentConfig("medM:8", ("inductive",), sizes=(1, 2, 1), trials=1, seed=3, resolution=20)
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
