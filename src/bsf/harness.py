"""Experiment orchestration: repeated seeded trials, summaries, and U tests.

Each trial derives its seed as base seed + trial index, draws fresh training
and validation sets, fits every requested method on the same data, samples the
fitted surface on a barycentric (or box) grid, and scores it with GD/IGD
against the validation set. By default both point clouds are min-max
normalized by the validation ranges first, so scores are comparable across
problems with very different objective scales.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import BsfError
from .fitting import FitConfig, fit_all_at_once, fit_inductive_skeleton
from .mannwhitney import mann_whitney_u
from .metrics import gd_igd, grid_sample
from .pareto import SampleSet, normalizer_from
from .problems import get_problem, make_training_set
from .response_surface import ResponseSurface, fit_response_surface

log = logging.getLogger("bsf.harness")

METHODS = ("inductive", "all-at-once", "response-surface")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    methods: tuple[str, ...] = ("inductive",)
    degree: int = 3
    sizes: tuple[int, ...] = (1, 2, 1)
    trials: int = 20
    seed: int = 0
    resolution: int = 20
    validation_size: int = 1000
    graph: bool = False
    normalize: bool = True
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.resolution < 1:
            raise ValueError("resolution must be at least 1")
        if self.validation_size < 1:
            raise ValueError("validation size must be at least 1")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; valid: {', '.join(METHODS)}")
        if self.graph and "response-surface" in self.methods:
            raise ValueError("the response surface only fits objective space, not graphs")


@dataclass(frozen=True)
class TrialRow:
    problem: str
    method: str
    sizes: tuple[int, ...]
    trial: int
    gd: float | None
    igd: float | None
    iterations: int | None
    error: str | None = None


def vertex_optima_from(training: dict, m: int) -> np.ndarray:
    """Corner points for net initialization: per objective, the best point of
    that objective's vertex subsample, in fitting-space coordinates."""
    rows = []
    for j in range(m):
        face = (j,)
        if face not in training or training[face].n == 0:
            raise BsfError(f"training set is missing the vertex sample for objective {j + 1}")
        S = training[face]
        best = int(np.argmin(S.objectives[:, j]))
        rows.append(S.ambient()[best])
    return np.vstack(rows)


def fit_method(method, training, vertices, fit_cfg: FitConfig):
    """Fit one method to per-face training data; returns (model, FitResult).

    The Bezier fitters start from the corner points `vertices`; the response
    surface needs none and has no FitResult, so it gives None for both.
    """
    if method == "inductive":
        result = fit_inductive_skeleton(training, vertices, fit_cfg)
        return result.model, result
    union = SampleSet.concat(training.values())
    if method == "all-at-once":
        result = fit_all_at_once(union, vertices, fit_cfg)
        return result.model, result
    return fit_response_surface(union), None


def surface_points(model, resolution: int) -> np.ndarray:
    """Grid sample of a fitted model: barycentric for a Bezier simplex, the
    (resolution + 1)^(M-1) box for a response surface."""
    if isinstance(model, ResponseSurface):
        return model.sample_grid(resolution).objectives
    return grid_sample(model, resolution).objectives


def score(sample_points: np.ndarray, validation_points: np.ndarray, normalize: bool):
    """GD/IGD of a sample against a validation set, both first min-max
    normalized by the validation ranges when `normalize`; neither input is
    modified."""
    if normalize:
        lo, span = normalizer_from(validation_points)
        sample_points = _normalized(sample_points, lo, span)
        validation_points = _normalized(validation_points, lo, span)
    return gd_igd(sample_points, validation_points)


def _normalized(points: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """(points - lo) / span in one new array."""
    out = np.subtract(points, lo)
    return np.divide(out, span, out=out)


def _data_failure(cfg: ExperimentConfig, trial: int, exc: Exception) -> list[TrialRow]:
    log.warning("trial %d data generation failed: %s", trial, exc)
    return [
        TrialRow(cfg.problem, method, cfg.sizes, trial, None, None, None, str(exc))
        for method in cfg.methods
    ]


def run_trial(cfg: ExperimentConfig, trial: int, problem=None) -> list[TrialRow]:
    """One trial's rows; `problem` is cfg.problem resolved, looked up if None."""
    try:
        if problem is None:
            problem = get_problem(cfg.problem)
        training, validation = make_training_set(
            problem,
            cfg.sizes,
            seed=cfg.seed + trial,
            validation_size=cfg.validation_size,
            with_solutions=cfg.graph,
            pool_seed=cfg.seed,
        )
        vertices = vertex_optima_from(training, validation.m)
    except Exception as exc:
        return _data_failure(cfg, trial, exc)
    val_points = validation.ambient()
    rows = []
    for method in cfg.methods:
        try:
            model, result = fit_method(method, training, vertices, FitConfig(degree=cfg.degree))
            points = surface_points(model, cfg.resolution)
            gd_val, igd_val = score(points, val_points, cfg.normalize)
            iterations = None if result is None else result.outer_iterations
            rows.append(TrialRow(cfg.problem, method, cfg.sizes, trial, gd_val, igd_val, iterations))
        except Exception as exc:  # recorded per row; the caller decides severity
            log.warning("trial %d method %s failed: %s", trial, method, exc)
            rows.append(TrialRow(cfg.problem, method, cfg.sizes, trial, None, None, None, str(exc)))
    return rows


def run_experiment(cfg: ExperimentConfig, problem=None) -> list[TrialRow]:
    """All trials for all methods; rows sorted by (method, trial).

    The problem is resolved once (pass it as `problem` if already resolved);
    if that fails, every trial records the failure in its rows.
    """
    if problem is None:
        try:
            problem = get_problem(cfg.problem)
        except Exception as exc:
            failed = [_data_failure(cfg, t, exc) for t in range(cfg.trials)]
            return _sorted_rows(cfg, failed)
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(lambda t: run_trial(cfg, t, problem), range(cfg.trials)))
    else:
        chunks = [run_trial(cfg, t, problem) for t in range(cfg.trials)]
    return _sorted_rows(cfg, chunks)


def _sorted_rows(cfg: ExperimentConfig, chunks) -> list[TrialRow]:
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (cfg.methods.index(r.method), r.trial))
    return rows


def run_sweep(cfg: ExperimentConfig, n3_values, problem=None) -> list[TrialRow]:
    """Repeat the experiment over a range of three-objective subsample sizes.

    Only N3 changes: sizes (N1, N2, N3, N4, ...) become (N1, N2, n3, N4, ...).
    """
    if len(cfg.sizes) < 2:
        raise ValueError("a sweep over N3 needs sizes (N1, N2, ...)")
    if problem is None:
        problem = get_problem(cfg.problem)
    m = problem.n_objectives
    if m < 3:
        raise ValueError(f"a sweep over N3 needs at least three objectives; {cfg.problem} has {m}")
    head, tail = tuple(cfg.sizes[:2]), tuple(cfg.sizes[3:])
    rows = []
    for n3 in n3_values:
        sizes = head + (int(n3),) + tail
        rows.extend(run_experiment(replace(cfg, sizes=sizes), problem))
    return rows


# -- reporting -----------------------------------------------------------------


def _mean_sd(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def summarize(rows: list[TrialRow]) -> dict:
    """Per-method mean and sample standard deviation of GD/IGD and iterations."""
    out: dict[str, dict] = {}
    methods = []
    for row in rows:
        if row.method not in methods:
            methods.append(row.method)
    for method in methods:
        ok = [r for r in rows if r.method == method and r.error is None]
        failed = [r for r in rows if r.method == method and r.error is not None]
        entry: dict = {"trials": len(ok), "failures": len(failed)}
        if ok:
            for name, pick in (("gd", lambda r: r.gd), ("igd", lambda r: r.igd)):
                mean, sd = _mean_sd([pick(r) for r in ok])
                entry[f"{name}_mean"] = mean
                entry[f"{name}_sd"] = sd
            iters = [r.iterations for r in ok if r.iterations is not None]
            if iters:
                entry["iterations_mean"] = sum(iters) / len(iters)
        out[method] = entry
    return out


def u_tests(rows: list[TrialRow], methods: tuple[str, ...]) -> dict | None:
    """One-tailed U test (first method smaller) on GD and IGD when exactly two
    methods are present. The p-values are not corrected for multiplicity."""
    if len(methods) != 2:
        return None
    first = [r for r in rows if r.method == methods[0] and r.error is None]
    second = [r for r in rows if r.method == methods[1] and r.error is None]
    if not first or not second:
        return None
    out = {}
    for name, pick in (("gd", lambda r: r.gd), ("igd", lambda r: r.igd)):
        u, p = mann_whitney_u([pick(r) for r in first], [pick(r) for r in second], "less")
        out[name] = {
            "u": u,
            "p": p,
            "alternative": f"{methods[0]} < {methods[1]}",
        }
    return out


CSV_FIELDS = ("problem", "method", "sizes", "trial", "gd", "igd", "iterations", "error")


def format_sizes(sizes) -> str:
    return "-".join(str(int(s)) for s in sizes)


def write_rows(rows: list[TrialRow], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for r in rows:
            writer.writerow(
                [
                    r.problem,
                    r.method,
                    format_sizes(r.sizes),
                    r.trial,
                    "" if r.gd is None else repr(r.gd),
                    "" if r.igd is None else repr(r.igd),
                    "" if r.iterations is None else r.iterations,
                    r.error or "",
                ]
            )


def read_rows(path) -> list[TrialRow]:
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                TrialRow(
                    rec["problem"],
                    rec["method"],
                    tuple(int(v) for v in rec["sizes"].split("-")),
                    int(rec["trial"]),
                    float(rec["gd"]) if rec["gd"] else None,
                    float(rec["igd"]) if rec["igd"] else None,
                    int(rec["iterations"]) if rec["iterations"] else None,
                    rec["error"] or None,
                )
            )
    return rows


def write_summary(rows: list[TrialRow], cfg: ExperimentConfig, path) -> dict:
    summary = {
        "problem": cfg.problem,
        "sizes": list(cfg.sizes),
        "degree": cfg.degree,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "normalized": cfg.normalize,
        "methods": summarize(rows),
    }
    tests = u_tests(rows, cfg.methods)
    if tests is not None:
        summary["u_tests"] = tests
    Path(path).write_text(json.dumps(summary, indent=2) + "\n")
    return summary
