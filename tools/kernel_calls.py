#!/usr/bin/env python3
"""Time the GD/IGD kernel (`metrics._min_dists`) in this process.

    PYTHONPATH=src python tools/kernel_calls.py [--calls N] [--one-cpu] [--input NAME ...]

The inputs are the kernel calls of the benchmark's trials at seed 1, scored
as `harness.score` scores them: the fitted model's resolution-20 grid and
the 1,000-point validation set, both min-max normalised by the validation
ranges.

- `med3-inductive`: med3, sizes (1, 2, 1), the skeleton fit's 231-row grid;
- `med3-surface`: the same data's response surface on its 441-row box grid;
- `med5-inductive`: med5, sizes (1, 2, 10), the skeleton fit's 10,626-row grid;
- `med5-surface`: med5, sizes (1, 2, 1), the response surface's 194,481-row
  box grid.

Each grid is made and normalised once, before timing, and is passed as a row
source with the grid's own chunks, so the kernel groups its blocks and splits
its threads as in a trial but makes no grid rows while it is timed. After one
untimed call, `--calls` calls (default 20) of each input are timed with
`time.perf_counter`. Each input prints one line: its rows and columns, then
the median and the quartiles of a call in ms. `--one-cpu` restricts this
process to one CPU (`os.sched_setaffinity`) before numpy is imported, so
the kernel runs on one thread. Run it with `OPENBLAS_NUM_THREADS=1` to keep
BLAS threads out of the timings.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# problem, sizes, method for each input; the grids are at resolution 20
INPUTS = {
    "med3-inductive": ("med3", (1, 2, 1), "inductive"),
    "med3-surface": ("med3", (1, 2, 1), "response-surface"),
    "med5-inductive": ("med5", (1, 2, 10), "inductive"),
    "med5-surface": ("med5", (1, 2, 1), "response-surface"),
}
SEED, RESOLUTION, VALIDATION = 1, 20, 1000


def kernel_input(problem: str, sizes, method: str):
    """(rows, validation) as `harness.score` hands them to the kernel."""
    import numpy as np

    from bsf.fitting import FitConfig
    from bsf.harness import fit_method, surface_rows, vertex_optima_from
    from bsf.metrics import RowSource
    from bsf.pareto import normalizer_from
    from bsf.problems import get_problem, make_training_set

    training, validation = make_training_set(
        get_problem(problem), sizes, seed=SEED, validation_size=VALIDATION, pool_seed=SEED
    )
    vertices = vertex_optima_from(training, validation.m)
    model, _ = fit_method(method, training, vertices, FitConfig(degree=3))
    val = validation.ambient()
    lo, span = normalizer_from(val)
    source = surface_rows(model, RESOLUTION).map(lambda rows: (rows - lo) / span)
    rows = source.collect()
    made = RowSource(source.n, source.width, source.chunks, lambda bounds: rows[bounds[0]:bounds[-1]])
    return made, np.asarray((val - lo) / span)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=20, help="timed calls per input")
    parser.add_argument("--one-cpu", action="store_true", help="run this process on one CPU")
    parser.add_argument("--input", action="append", choices=sorted(INPUTS), help="only these inputs")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    if args.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import numpy as np

    from bsf import metrics

    print(f"cpus {len(os.sched_getaffinity(0))}  calls {args.calls}  (ms: median [q1-q3])")
    for name in args.input or INPUTS:
        X, Y = kernel_input(*INPUTS[name])
        metrics._min_dists(X, Y)
        times = []
        for _ in range(args.calls):
            start = time.perf_counter()
            metrics._min_dists(X, Y)
            times.append(time.perf_counter() - start)
        q1, med, q3 = np.percentile(times, [25, 50, 75]) * 1e3
        print(f"{name:15s} {len(X):7d} x {Y.shape[0]:d}  {med:9.3f} [{q1:.3f}-{q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
