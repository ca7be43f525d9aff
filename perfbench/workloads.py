"""The benchmark's workloads: one `bsf experiment` invocation each, plus checks.

A workload is a fixed `experiment` command line; the benchmark's seed becomes
the experiment's `--seed`, so trial t draws its data from seed + t. One batch
is one in-process call of `bsf.cli.main(["experiment", ...])`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# med3-table relations (acceptance criteria 6 and 10)
INDUCTIVE_IGD_BAND = (2e-2, 2e-1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: str
    methods: tuple[str, ...]
    sizes: tuple[int, ...]
    trials: int  # trials per batch
    sweep_n3: tuple[int, int] | None = None
    resolution: int = 20
    validation: int = 1000
    table_checks: bool = False  # the med3 relations of criteria 6 and 10
    # experiment seed used whatever the benchmark seed (see osyczka2-pool)
    fixed_seed: int | None = None

    @property
    def setup_sizes(self) -> tuple[int, ...]:
        """Sizes of the first trial the experiment runs, used for the warm-up."""
        if self.sweep_n3 is None:
            return self.sizes
        return (self.sizes[0], self.sizes[1], self.sweep_n3[0])

    @property
    def trials_per_batch(self) -> int:
        if self.sweep_n3 is None:
            return self.trials
        lo, hi = self.sweep_n3
        return self.trials * (hi - lo + 1)

    @property
    def rows_per_batch(self) -> int:
        return self.trials_per_batch * len(self.methods)

    def experiment_seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed

    def argv(self, seed: int, out) -> list[str]:
        argv = ["experiment", "--problem", self.problem]
        for method in self.methods:
            argv += ["--method", method]
        argv += [
            "--sizes", ",".join(str(s) for s in self.sizes),
            "--trials", str(self.trials),
            "--seed", str(self.experiment_seed(seed)),
            "--resolution", str(self.resolution),
            "--validation", str(self.validation),
            "--jobs", "1",
        ]
        if self.sweep_n3 is not None:
            argv += ["--sweep-n3", f"{self.sweep_n3[0]}:{self.sweep_n3[1]}"]
        return argv + ["--out", str(out)]

    def warm_up(self, seed: int) -> None:
        """What a user pays once per invocation: the problem and the first
        trial's data, which fills the program's pool caches."""
        from bsf.problems import get_problem, make_training_set

        seed = self.experiment_seed(seed)
        make_training_set(
            get_problem(self.problem),
            self.setup_sizes,
            seed=seed,
            validation_size=self.validation,
            pool_seed=seed,
        )

    def check(self, rows: list[dict], summary: dict) -> list[str]:
        """Problems with one batch's outputs; an empty list means they pass."""
        problems = []
        if len(rows) != self.rows_per_batch:
            problems.append(f"{len(rows)} result rows, expected {self.rows_per_batch}")
        for row in rows:
            if row["error"]:
                continue  # counted as failed, not as wrong
            for key in ("gd", "igd"):
                value = float(row[key]) if row[key] else math.nan
                if not math.isfinite(value):
                    problems.append(f"{row['method']} trial {row['trial']}: {key} = {value}")
        if self.table_checks:
            problems += table_relations(summary["methods"])
        return problems


def table_relations(methods: dict) -> list[str]:
    """Criteria 6 and 10: the skeleton fit beats both baselines on GD and its
    IGD lies in the stated band."""
    problems = []
    inductive = methods["inductive"]
    for other in ("all-at-once", "response-surface"):
        if not inductive["gd_mean"] < methods[other]["gd_mean"]:
            problems.append(
                f"inductive GD {inductive['gd_mean']:.4e} is not below {other} GD "
                f"{methods[other]['gd_mean']:.4e}"
            )
    lo, hi = INDUCTIVE_IGD_BAND
    if not lo <= inductive["igd_mean"] <= hi:
        problems.append(f"inductive IGD {inductive['igd_mean']:.4e} is outside [{lo}, {hi}]")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "med5-sweep",
            "criterion 8's med5 sweep at N3=10: foot-point projection is most of a trial, "
            "the 10,626 x 1,000 GD/IGD kernel most of the rest",
            "med5", ("inductive",), (1, 2, 1), trials=14, sweep_n3=(10, 10),
        ),
        Workload(
            "med3-table",
            "the paper's three-method med3 table: many short trials, so per-call "
            "overhead in sampling, small fits and scoring shows",
            "med3", ("inductive", "all-at-once", "response-surface"), (1, 2, 1), trials=40,
            table_checks=True,
        ),
        Workload(
            "osyczka2-pool",
            "brute-force front: set-up builds a 100k-point feasible pool and scans it "
            "for non-dominated rows; fits run into the iteration cap",
            "osyczka2", ("inductive", "all-at-once"), (1, 3), trials=10,
            # The experiment seed also draws the 100k-point pool, whose front
            # keeps only about 15 points, so the pool sets most of a trial's
            # cost: over ten seeds trials_per_s spread by 37%, beyond any
            # allowed bound. The inputs are therefore the same for every seed,
            # and a run repeats a short batch instead of drawing more trials.
            fixed_seed=0,
        ),
        Workload(
            "med5-surface",
            "med5 response surface: scoring its 194,481-point box grid against 1,000 "
            "points is almost all of a trial, at the highest memory",
            "med5", ("response-surface",), (1, 2, 1), trials=1,
        ),
    )
}
