#!/usr/bin/env python3
"""Benchmark of `bsf experiment`: seeded trials timed end to end, or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload med3-table --seed 0 --seconds 20 --trace 0

The process is one closed-loop client. It imports the package from `src/`,
sets up once (timed; fresh processes repeat the set-up for a median), then
calls `bsf.cli.main(["experiment", ..., "--jobs", "1"])` in-process, one
batch after another, until the time is used up. Every batch after the first
repeats it and must write byte-identical `results.csv` and `summary.json`;
when only one batch fits, trial 0 is rerun alone and must give the same rows.

With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
alternates untraced and traced batches: the traced ones rebind the package's
public functions to span-recording wrappers (see spans.py), and the per-layer
metrics are self times and counters for one set-up plus one batch, together
with the tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Each run also writes `result.json` (with the environment) and, when
traced, `spans.jsonl` under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import spans
import stats
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-ups per run, the run's own plus fresh processes: at least SETUP_MIN for
# a median, more (up to SETUP_MAX) while they have taken under SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 10.0
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_s_p50": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The program under test could not be run."""


class WrongOutputs(BenchError):
    """The program ran but its outputs failed a check."""


def import_package():
    """Import bsf from this checkout's src/, never from an installed copy."""
    if not (SRC / "bsf" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'bsf'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    bsf = importlib.import_module("bsf")
    if Path(bsf.__file__).resolve().parent != (SRC / "bsf").resolve():
        raise BenchError(f"imported bsf from {bsf.__file__}, not from {SRC}")
    return bsf


def timed_setup(workload: Workload, seed: int) -> float:
    """Seconds to import bsf, get the problem and build the first trial's data."""
    start = time.perf_counter()
    import_package()
    workload.warm_up(seed)
    return time.perf_counter() - start


def fresh_setup(workload: Workload, seed: int) -> float:
    """`timed_setup` in a new interpreter, so the program's caches start cold."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# -- environment ------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy wheels bundle, if it is one."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "seed": seed,
    }


# -- batches ------------------------------------------------------------------------


class Batches:
    """Runs one workload's experiment repeatedly and checks every batch's outputs."""

    def __init__(self, cli, workload: Workload, seed: int, out: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out = out
        self.count = 0
        self.rows_attempted = 0
        self.rows_failed = 0
        self.first_outputs: tuple[bytes, bytes] | None = None
        self.first_summary: dict | None = None
        self.first_rows: list[dict] | None = None

    def run(self, call=None) -> float:
        """One experiment call (through `call`, e.g. inside a span); returns wall seconds."""
        bdir = self.out / f"batch{self.count}"
        argv = self.workload.argv(self.seed, bdir)
        call = call or (lambda fn, *a: fn(*a))
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = call(self.cli.main, argv)
            wall = time.perf_counter() - start
        if code != 0:
            raise WrongOutputs(f"`bsf {' '.join(argv)}` exited with {code}")
        self._check(bdir)
        if self.count > 0:
            shutil.rmtree(bdir)
        self.count += 1
        return wall

    def _check(self, bdir: Path) -> None:
        outputs = ((bdir / "results.csv").read_bytes(), (bdir / "summary.json").read_bytes())
        if self.first_outputs is None:
            rows = list(csv.DictReader(io.StringIO(outputs[0].decode())))
            summary = json.loads(outputs[1])
            problems = self.workload.check(rows, summary)
            if problems:
                raise WrongOutputs("; ".join(problems))
            self.first_outputs, self.first_rows, self.first_summary = outputs, rows, summary
        elif outputs != self.first_outputs:
            raise WrongOutputs(f"batch {self.count} outputs differ from batch 0's")
        self.rows_attempted += len(self.first_rows)
        self.rows_failed += sum(1 for r in self.first_rows if r["error"])

    def keep_going(self, started: float, seconds: float, per_step: int = 1) -> bool:
        """At least `per_step` batches, then more while one more step is
        expected to end within the time. A batch of one trial always runs
        twice: rerunning its trial to compare outputs would cost as much."""
        if self.count < per_step or (self.count < 2 and self.workload.trials_per_batch == 1):
            return True
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / (self.count / per_step) <= seconds

    def recheck_first_trial(self) -> None:
        """Rerun trial 0 alone; its rows must equal batch 0's rows for trial 0.

        Used when only one batch fitted in the time, so outputs were not yet
        compared across repeats."""
        bdir = self.out / "recheck"
        argv = replace(self.workload, trials=1).argv(self.seed, bdir)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        if code != 0:
            raise WrongOutputs(f"`bsf {' '.join(argv)}` exited with {code}")

        def trial0(text: str) -> list[str]:
            return [line for line in text.splitlines()[1:] if line.split(",")[3] == "0"]

        again = trial0((bdir / "results.csv").read_text())
        if not again or again != trial0(self.first_outputs[0].decode()):
            raise WrongOutputs("a rerun of trial 0 gives other rows than batch 0")
        shutil.rmtree(bdir)

    def quality(self) -> dict[str, float]:
        """Per-method GD/IGD means from summary.json."""
        out = {}
        for method, entry in self.first_summary["methods"].items():
            if entry.get("trials"):
                out[f"gd_mean.{method}"] = entry["gd_mean"]
                out[f"igd_mean.{method}"] = entry["igd_mean"]
        return out


def _timed_trials(harness, sink: list[float]):
    """Rebind harness.run_trial to a plain timer appending to `sink`; returns
    what `spans.restore` needs to undo it."""
    original = harness.run_trial

    def run_trial(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    return spans.rebind(original, run_trial), original


# -- the two kinds of run -------------------------------------------------------------


def end_to_end(workload: Workload, seed: int, seconds: float, out: Path,
               setup_min: int = SETUP_MIN) -> dict:
    setups = [timed_setup(workload, seed)]
    from bsf import cli, harness

    env = environment(seed)
    while len(setups) < setup_min or (len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S):
        setups.append(fresh_setup(workload, seed))
    trial_times: list[float] = []
    batches = Batches(cli, workload, seed, out)
    changed, original = _timed_trials(harness, trial_times)
    walls = []
    try:
        started = time.perf_counter()
        while batches.keep_going(started, seconds):
            walls.append(batches.run())
    finally:
        spans.restore(changed, original)
    if batches.count == 1:
        batches.recheck_first_trial()
    if len(trial_times) != batches.count * workload.trials_per_batch:
        raise BenchError(f"timed {len(trial_times)} trials, expected "
                         f"{batches.count * workload.trials_per_batch}")
    quality = batches.quality()
    metrics = {
        "setup_s": stats.median(setups),
        # median over the batches, so one slowed by other load counts less
        "trials_per_s": workload.trials_per_batch / stats.median(walls),
        "trial_s_p50": stats.median(trial_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = stats.supported_percentile(len(trial_times))
    if tail is not None and tail <= 50:
        tail = None  # no tail percentile beyond the median yet
    extra = {
        "setup_s.samples": setups,
        "batch_s": walls,
        "trial_s.n": len(trial_times),
        "trial_s": trial_times,
        "trial_s.tail": None if tail is None else
        {"percentile": tail, "value": stats.percentile(trial_times, tail)},
        "failed_frac": batches.rows_failed / batches.rows_attempted,
        **quality,
    }
    lines = [
        f"setup_s {metrics['setup_s']:.4f} s (median of {len(setups)}: "
        + ", ".join(f"{s:.4f}" for s in setups) + ")",
        f"trials_per_s {metrics['trials_per_s']:.4f} 1/s ({workload.trials_per_batch} trials "
        f"per batch, median of {batches.count} batches: "
        + ", ".join(f"{w:.3f}" for w in walls) + " s)",
        f"trial_s_p50 {metrics['trial_s_p50']:.4f} s (n={len(trial_times)})"
        + ("" if tail is None else f", trial_s_p{tail} {extra['trial_s.tail']['value']:.4f} s"),
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
        f"failed_frac {extra['failed_frac']:.4f} ({batches.rows_failed} of "
        f"{batches.rows_attempted} rows)",
    ]
    lines += [f"{k} {v:.6e} (normalised, summary.json)" for k, v in quality.items()]
    return {
        "env": env,
        "attempted": batches.rows_attempted,
        "failed": batches.rows_failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "extra": extra,
        "lines": lines,
    }


def _diff(after: dict, before: dict) -> dict:
    return {
        name: {k: v - before.get(name, {}).get(k, 0) for k, v in counters.items()}
        for name, counters in after.items()
    }


def per_layer_metrics(setup_self: dict, setup_counts: dict, batch_selfs: list[dict],
                      batch_counts: dict, overhead: float) -> dict:
    """Metrics for one set-up plus one batch: counts are exact, self times are
    the set-up's plus the median over traced batches."""

    def self_s(name):
        return setup_self.get(name, 0.0) + stats.median(b.get(name, 0.0) for b in batch_selfs)

    def count(name, key="calls"):
        return setup_counts.get(name, {}).get(key, 0) + batch_counts.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    fitters = ("fitting.fit_inductive_skeleton", "fitting.fit_all_at_once")
    fits, iters, capped = (sum(count(f, key) for f in fitters)
                           for key in ("fits", "outer_iters", "capped"))
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    pp = "fitting.project_parameter"
    put(f"{pp}.calls", count(pp), "count")
    put(f"{pp}.self_s", self_s(pp), "s")
    put(f"{pp}.us_per_call", ratio(self_s(pp) * 1e6, count(pp)), "us")
    sc = "fitting.solve_control_points"
    put(f"{sc}.calls", count(sc), "count")
    put(f"{sc}.self_s", self_s(sc), "s")
    for name in ("fitting.init_parameters", "fitting.fit_inductive_skeleton",
                 "fitting.fit_all_at_once"):
        put(f"{name}.self_s", self_s(name), "s")
    put("fitting.outer_iters_mean", ratio(iters, fits), "iters")
    put("fitting.capped_frac", ratio(capped, fits), "frac")
    gi = "metrics.gd_igd"
    put(f"{gi}.pairs", count(gi, "pairs"), "count")
    put(f"{gi}.self_s", self_s(gi), "s")
    put(f"{gi}.ns_per_pair", ratio(self_s(gi) * 1e9, count(gi, "pairs")), "ns")
    gs = "metrics.grid_sample"
    put(f"{gs}.points", count(gs, "points"), "count")
    put(f"{gs}.self_s", self_s(gs), "s")
    nd = "pareto.nondominated_mask"
    put(f"{nd}.calls", count(nd), "count")
    put(f"{nd}.rows", count(nd, "rows"), "count")
    put(f"{nd}.self_s", self_s(nd), "s")
    put(f"{nd}.ns_per_row", ratio(self_s(nd) * 1e9, count(nd, "rows")), "ns")
    put(f"{nd}.kept_frac", ratio(count(nd, "kept"), count(nd, "rows")), "frac")
    fp = "problems.feasible_pool"
    put(f"{fp}.points", count(fp, "points"), "count")
    put(f"{fp}.self_s", self_s(fp), "s")
    mt = "problems.make_training_set"
    put(f"{mt}.calls", count(mt), "count")
    put(f"{mt}.self_s", self_s(mt), "s")
    wd = "bezier.weighted_design_matrix"
    put(f"{wd}.calls", count(wd), "count")
    put(f"{wd}.rows", count(wd, "rows"), "count")
    put(f"{wd}.self_s", self_s(wd), "s")
    put("response_surface.fit_response_surface.self_s",
        self_s("response_surface.fit_response_surface"), "s")
    rs = "response_surface.sample_grid"
    put(f"{rs}.points", count(rs, "points"), "count")
    put(f"{rs}.self_s", self_s(rs), "s")
    put("harness.run_trial.self_s", self_s("harness.run_trial"), "s")
    put("cli.main.self_s", self_s("cli.main"), "s")
    put("trace.overhead_frac", overhead, "frac")
    return m


def traced(workload: Workload, seed: int, seconds: float, out: Path) -> dict:
    import_package()
    from bsf import cli

    env = environment(seed)
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.call("setup", workload.warm_up, (seed,))
    setup_indices = range(len(tracer.spans))
    setup_counts = tracer.snapshot()
    setup_self = spans.self_times(tracer.finished(), setup_indices)
    batches = Batches(cli, workload, seed, out)
    plain, traced_walls, batch_selfs, batch_counts = [], [], [], None
    started = time.perf_counter()
    while batches.keep_going(started, seconds, per_step=2):
        # traced first: the first batch in a process also pays first-touch
        # memory costs, so the overhead errs high rather than low
        first, before = len(tracer.spans), tracer.snapshot()
        with tracer.installed():
            traced_walls.append(batches.run(lambda fn, *a: tracer.call("cli.main", fn, a)))
        counts = _diff(tracer.snapshot(), before)
        if batch_counts is None:
            batch_counts = counts
        elif counts != batch_counts:
            raise WrongOutputs("traced batches disagree in their counts")
        batch_selfs.append(spans.self_times(tracer.finished(), range(first, len(tracer.spans))))
        plain.append(batches.run())
    overhead = stats.median(traced_walls) / stats.median(plain) - 1.0
    tracer.write(out / "spans.jsonl")
    metrics = per_layer_metrics(setup_self, setup_counts, batch_selfs, batch_counts, overhead)
    selfs = sorted(((v["value"], k) for k, v in metrics.items() if k.endswith(".self_s")),
                   reverse=True)
    lines = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"largest self time: {selfs[0][1]} ({selfs[0][0]:.4f} s)")
    lines.append(f"tracing overhead {overhead:+.2%} ({len(traced_walls)} traced and "
                 f"{len(plain)} untraced batches; median {stats.median(traced_walls):.3f} s "
                 f"vs {stats.median(plain):.3f} s)")
    return {
        "env": env,
        "attempted": batches.rows_attempted,
        "failed": batches.rows_failed,
        "metrics": metrics,
        "extra": {"spans": len(tracer.spans), "batch_s": plain, "traced_batch_s": traced_walls},
        "lines": lines,
    }


# -- entry point ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out: Path,
            setup_min: int = SETUP_MIN) -> dict:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if trace:
        return traced(workload, seed, seconds, out)
    return end_to_end(workload, seed, seconds, out, setup_min)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_only:
            print(f"{timed_setup(workload, args.seed):.9f}")
            return 0
        out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
        result = measure(workload, args.seed, args.seconds, bool(args.trace), out)
    except WrongOutputs as exc:
        print(f"error: wrong outputs: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(result["env"]))
    for line in result["lines"]:
        print(line)
    (out / "result.json").write_text(json.dumps(
        {"workload": workload.name, **{k: v for k, v in result.items() if k != "lines"}},
        indent=2) + "\n")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
