"""Command-line interface: generate | fit | evaluate | experiment | plot.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
The BSF_LOG environment variable (error|warn|info|debug) sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import statistics
import sys
from pathlib import Path

import numpy as np

from . import plotting
from .bezier import BezierSimplex
from .errors import BsfError, DimensionError, ParseError
from .fitting import FitConfig, init_parameters, project_parameter, sse
from .harness import (
    ExperimentConfig,
    fit_method,
    read_rows,
    run_experiment,
    run_sweep,
    score,
    surface_points,
    vertex_optima_from,
    write_rows,
    write_summary,
)
from .pareto import SampleSet, face_label, load_sample, save_sample
from .problems import FileProblem, get_problem, make_training_set
from .response_surface import ResponseSurface

log = logging.getLogger("bsf.cli")

# every validation error in errors.py is also a ValueError
_USAGE_ERRORS = (ValueError, FileNotFoundError, KeyError)


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be integers like 1,2,1 (got {text!r})")
    if not sizes:
        raise argparse.ArgumentTypeError("sizes must not be empty")
    return sizes


def _parse_n3_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"the N3 range must look like 1:10 (got {text!r})")
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"the N3 range lo:hi needs 0 <= lo <= hi (got {text!r})")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bsf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write training/validation CSVs for a problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--sizes", type=_parse_sizes, required=True, help="N1,N2[,N3,...]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--validation", type=int, default=1000, help="validation set size")
    p.add_argument("--graph", action="store_true", help="keep solution vectors in the files")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("fit", help="fit a model to generated training data")
    p.add_argument("--method", required=True, choices=["inductive", "all-at-once", "response-surface"])
    p.add_argument("--data", required=True, help="directory written by `generate`")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--newton-tol", type=float, default=1e-5)
    p.add_argument("--outer-tol", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--out", required=True, help="model JSON path")

    p = sub.add_parser("evaluate", help="GD/IGD of a model file against a validation CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--validation", required=True)
    p.add_argument("--resolution", type=int, default=20)
    p.add_argument("--no-normalize", dest="normalize", action="store_false")
    p.add_argument("--out", help="optional CSV row output")

    p = sub.add_parser("experiment", help="repeated trials with summary statistics")
    p.add_argument("--problem", required=True)
    p.add_argument("--method", action="append", required=True, help="repeat for comparisons")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--sizes", type=_parse_sizes, default=(1, 2, 1))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=int, default=20)
    p.add_argument("--validation", type=int, default=1000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--graph", action="store_true")
    p.add_argument("--no-normalize", dest="normalize", action="store_false")
    p.add_argument(
        "--sweep-n3", type=_parse_n3_range,
        help="e.g. 1:10 to sweep the three-objective subsample size",
    )
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("plot", help="SVG scatter panels or GD/IGD boxplots")
    p.add_argument("inputs", nargs="+", help="model JSON, sample CSV, or metrics CSV")
    p.add_argument("--resolution", type=int, default=20)
    p.add_argument("--out", required=True, help="output SVG path")

    return parser


# -- generate -------------------------------------------------------------------


def cmd_generate(args) -> int:
    problem = get_problem(args.problem)
    training, validation = make_training_set(
        problem,
        args.sizes,
        seed=args.seed,
        validation_size=args.validation,
        with_solutions=args.graph,
        pool_seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    faces = []
    for face, S in training.items():
        name = f"train_f{face_label(face)}.csv"
        save_sample(S, out / name)
        faces.append({"objectives": [j + 1 for j in face], "file": name, "n": S.n})
    save_sample(validation, out / "validation.csv")
    manifest = {
        "problem": args.problem,
        "M": validation.m,
        "graph": bool(args.graph),
        "seed": args.seed,
        "sizes": list(args.sizes),
        "validation": "validation.csv",
        "validation_size": validation.n,
        "faces": faces,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(faces)} training files and validation.csv to {out}")
    return 0


def load_training_dir(data_dir):
    data_dir = Path(data_dir)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    training = {}
    for entry in manifest["faces"]:
        face = tuple(j - 1 for j in entry["objectives"])
        training[face] = load_sample(data_dir / entry["file"])
    validation = load_sample(data_dir / manifest["validation"])
    return training, validation, manifest


# -- fit ------------------------------------------------------------------------


def cmd_fit(args) -> int:
    training, _, manifest = load_training_dir(args.data)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cfg = FitConfig(
        degree=args.degree,
        max_outer_iters=args.max_iters,
        max_newton_iters=args.max_iters,
        newton_tol=args.newton_tol,
        outer_tol=args.outer_tol,
    )
    vertices = None
    if args.method != "response-surface":
        vertices = vertex_optima_from(training, manifest["M"])
    model, result = fit_method(args.method, training, vertices, cfg)
    model.save(out)
    if result is None:
        print(f"fitted response surface with {len(model.coefficients)} coefficients")
        return 0
    sidecar = out.with_suffix(out.suffix + ".fit.json") if out.suffix != ".json" else out.with_name(out.stem + ".fit.json")
    sidecar.write_text(json.dumps(result.sidecar_dict(), indent=2) + "\n")
    X = SampleSet.concat(training.values()).ambient()
    T0 = init_parameters(model, X, cfg)
    T = project_parameter(model, X, T0, cfg)
    final = math.sqrt(sse(model, X, T)) / X.shape[0]
    print(
        f"method={args.method} outer_iterations={result.outer_iterations} "
        f"sqrt_sse_per_point={final:.6e}"
    )
    return 0


# -- evaluate ---------------------------------------------------------------------


def _load_model_file(path):
    """The model of a JSON model file; a ParseError names a field it lacks."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        try:
            if data.get("type") == "response-surface":
                return ResponseSurface.from_dict(data)
            if data.keys() & {"M", "D", "A", "control_points"}:
                return BezierSimplex.from_dict(data)
        except KeyError as exc:
            raise ParseError(f"{path}: model file has no field {exc.args[0]!r}") from None
    raise ParseError(f"{path}: not a recognized model file")


def _validation_points(model, validation: SampleSet) -> np.ndarray:
    ambient = model.ambient if isinstance(model, BezierSimplex) else model.m
    if ambient == validation.m:
        return validation.objectives
    if validation.l is not None and ambient == validation.m + validation.l:
        return validation.ambient()
    raise DimensionError(
        f"model lives in R^{ambient} but validation offers "
        f"{validation.m} objectives"
        + ("" if validation.l is None else f" plus {validation.l} solution coordinates")
    )


def cmd_evaluate(args) -> int:
    model = _load_model_file(args.model)
    validation = load_sample(args.validation)
    points = surface_points(model, args.resolution)
    gd_val, igd_val = score(points, _validation_points(model, validation), args.normalize)
    print(f"GD={gd_val!r} IGD={igd_val!r}")
    if args.out:
        Path(args.out).write_text(f"gd,igd\n{gd_val!r},{igd_val!r}\n")
    return 0


# -- experiment -------------------------------------------------------------------


def cmd_experiment(args) -> int:
    methods = tuple(args.method)
    problem = get_problem(args.problem)  # fail fast on unknown names
    if isinstance(problem, FileProblem):
        problem.front(args.graph)  # and on --graph over a file without solutions
    cfg = ExperimentConfig(
        problem=args.problem,
        methods=methods,
        degree=args.degree,
        sizes=args.sizes,
        trials=args.trials,
        seed=args.seed,
        resolution=args.resolution,
        validation_size=args.validation,
        graph=args.graph,
        normalize=args.normalize,
        jobs=args.jobs,
    )
    if args.sweep_n3:
        lo, hi = args.sweep_n3
        rows = run_sweep(cfg, range(lo, hi + 1), problem)
    else:
        rows = run_experiment(cfg, problem)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(rows, out / "results.csv")
    summary = write_summary(rows, cfg, out / "summary.json")
    for method, entry in summary["methods"].items():
        if entry.get("trials"):
            print(
                f"{method}: GD {entry['gd_mean']:.4e} +/- {entry['gd_sd']:.4e}  "
                f"IGD {entry['igd_mean']:.4e} +/- {entry['igd_sd']:.4e}  "
                f"({entry['trials']} trials, {entry['failures']} failures)"
            )
        else:
            print(f"{method}: all {entry['failures']} trials failed")
    if "u_tests" in summary:
        for metric, rec in summary["u_tests"].items():
            print(f"U test {metric} ({rec['alternative']}): U={rec['u']} p={rec['p']:.4g}")
    if args.sweep_n3:
        _print_sweep_medians(rows, methods)
    if all(entry.get("trials", 0) == 0 for entry in summary["methods"].values()):
        return 1
    return 0


def _print_sweep_medians(rows, methods) -> None:
    """Median IGD per method and N3, the sample-size study's headline."""
    for method in methods:
        for n3 in sorted({r.sizes[2] for r in rows}):
            igds = [r.igd for r in rows if r.method == method and r.sizes[2] == n3 and r.error is None]
            median = f"{statistics.median(igds):.4e}" if igds else "n/a"
            print(f"{method} N3={n3:2d}: median IGD {median} ({len(igds)} trials)")


# -- plot -------------------------------------------------------------------------


def _classify_input(path: Path) -> str:
    with path.open() as fh:
        head = fh.read(4096)
    if head.lstrip().startswith("{"):
        return "model"
    first = head.splitlines()[0] if head else ""
    fields = [h.strip() for h in first.split(",")]
    if "gd" in fields and "igd" in fields:
        return "metrics"
    if fields and fields[0] == "f1":
        return "sample"
    raise ParseError(f"{path}: cannot tell whether this is a model, sample, or metrics file")


def cmd_plot(args) -> int:
    series = []
    metric_rows = None
    for raw in args.inputs:
        path = Path(raw)
        if not path.exists():
            raise ParseError(f"{path}: no such file")
        kind = _classify_input(path)
        if kind == "model":
            model = _load_model_file(path)
            series.append((f"model:{path.stem}", surface_points(model, args.resolution)))
        elif kind == "sample":
            series.append((path.stem, load_sample(path).objectives))
        else:
            metric_rows = read_rows(path)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if metric_rows is not None:
        panels = []
        for name, pick in (("GD", lambda r: r.gd), ("IGD", lambda r: r.igd)):
            groups: dict[int, list[float]] = {}
            for r in metric_rows:
                if r.error is None and pick(r) is not None:
                    n3 = r.sizes[2] if len(r.sizes) > 2 else r.sizes[-1]
                    groups.setdefault(n3, []).append(pick(r))
            panels.append((name, groups))
        out.write_text(plotting.boxplot_svg(panels))
    else:
        if not series:
            raise ParseError("nothing to plot")
        out.write_text(plotting.scatter_svg(series))
    print(f"wrote {out}")
    return 0


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    name = os.environ.get("BSF_LOG", "warn").lower()
    level = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }.get(name, logging.WARNING)
    logging.basicConfig(level=level)
    logging.getLogger().setLevel(level)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "generate": cmd_generate,
        "fit": cmd_fit,
        "evaluate": cmd_evaluate,
        "experiment": cmd_experiment,
        "plot": cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except _USAGE_ERRORS as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BsfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last resort
        log.exception("unhandled failure")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
