#!/usr/bin/env python3
"""Do this checkout and another revision write the same bytes?

    python tools/same.py --against <rev> [--only STEP ...]

Checks `<rev>` out with `git worktree add --detach` into a temporary
directory, runs one fixed list of `bsf` command lines against each tree's
`src/` (each in its own subprocess, with `PYTHONPATH=<tree>/src`, in a work
directory of its own), and compares every file the commands write, and each
command's exit code, standard output and standard error, byte for byte. The
tree's and the work directory's own paths are replaced by placeholders in
standard output and error, so that a traceback or a path compares alike.
Prints each file that differs, then `N files, K differ`; exits 1 if any
differs. The worktree is removed afterwards.

The list holds the four benchmark workloads' command lines, read from
`perfbench/workloads.py`, at seeds 3 and 11 (osyczka2-pool at its fixed
seed); more experiments (viennet2, a medM:4 graph, medM:6, schaffer,
constrex, a three-method N3 sweep, a med5 sweep from N3 = 0, and med3 with
3,000 validation points, whose three-objective front check spans 12 merge
levels at a size that is no power of two); `generate`,
`fit`, `evaluate` and `plot` on med5; `generate --graph`, `fit` and
`evaluate` on med3, the model scored against its own validation set with
solution columns; an experiment on a one-objective sample file, where the
response surface fails every trial; and malformed-input probes (bad
manifests, model headers, a model that lists a control point twice,
tolerances, and a grid too large to allocate), whose standard error is
compared too.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
RUNNER = "import sys; from bsf.cli import main; sys.exit(main(sys.argv[1:]))"
COMMANDS = "_commands"  # per-command exit code, stdout and stderr files


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]  # bsf arguments, paths relative to the work directory
    prepare: Callable[[Path], None] | None = None  # writes the step's inputs there


def _workloads():
    """perfbench's workloads, read from their file without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _experiment(problem, methods, sizes, out, *extra):
    argv = ["experiment", "--problem", problem]
    for method in methods:
        argv += ["--method", method]
    return (*argv, "--sizes", sizes, *extra, "--out", out)


# -- probe inputs, made from earlier steps' outputs ---------------------------------

BEZIER = ("inductive", "all-at-once")
METHODS = (*BEZIER, "response-surface")


def _copy_data(name, edit):
    """A copy of med5's generate directory whose manifest is edit(manifest)."""
    def prepare(work: Path):
        shutil.copytree(work / "med5/data", work / "probes" / name)
        path = work / "probes" / name / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return prepare


def _edit_json(source, name, **fields):
    def prepare(work: Path):
        data = json.loads((work / source).read_text())
        (work / "probes" / name).write_text(json.dumps({**data, **fields}))
    return prepare


def _edit_results(name, edit):
    def prepare(work: Path):
        header, row, *_ = (work / "wl/med3-table-3/results.csv").read_text().splitlines()
        (work / "probes" / name).write_text(f"{header}\n{edit(row)}\n")
    return prepare


def _repeat_first_point(name):
    """med5's inductive model with its first control point listed again, moved."""
    def prepare(work: Path):
        data = json.loads((work / "med5/model-inductive.json").read_text())
        first = data["control_points"][0]
        data["control_points"].append({**first, "point": [v + 1.0 for v in first["point"]]})
        (work / "probes" / name).write_text(json.dumps(data))
    return prepare


def _write(name, content: bytes):
    def prepare(work: Path):
        (work / "probes" / name).write_bytes(content)
    return prepare


def _fit(data):
    return ("fit", "--method", "inductive", "--data", data, "--out", f"{data}-model.json")


def _evaluate(model, *extra, validation="med5/data/validation.csv"):
    return ("evaluate", "--model", model, "--validation", validation, *extra)


def _plot(path):
    return ("plot", path, "--out", f"{path}.svg")


def steps() -> list[Step]:
    out = []
    for seed in (3, 11):
        for w in _workloads().values():
            if w.fixed_seed is None or seed == 3:
                name = f"{w.name}-{w.experiment_seed(seed)}"
                out.append(Step(f"wl-{name}", tuple(w.argv(seed, f"wl/{name}"))))
    out += [
        Step("viennet2", _experiment("viennet2", METHODS, "1,2,1", "exp/viennet2", "--trials", "5")),
        Step("medM4-graph", _experiment("medM:4", BEZIER, "1,2,1,1", "exp/medM4-graph",
                                        "--graph", "--trials", "3")),
        # a 53,130-row scoring grid, past med5's m, with renormalised rows
        Step("medM6", _experiment("medM:6", BEZIER, "1,2,1", "exp/medM6", "--trials", "2")),
        Step("schaffer", _experiment("schaffer", BEZIER, "1,3", "exp/schaffer", "--trials", "5")),
        Step("constrex", _experiment("constrex", BEZIER, "1,3", "exp/constrex", "--trials", "5")),
        Step("med3-sweep", _experiment("med3", METHODS, "1,2,1", "exp/med3-sweep",
                                       "--trials", "3", "--sweep-n3", "1:4")),
        # a 3,000-row front check: 12 merge levels, padded to 4,096 rows
        Step("med3-validation-3000", _experiment("med3", ("inductive",), "1,2,1", "exp/med3-validation-3000",
                                                 "--trials", "2", "--validation", "3000")),
        # at N3 = 0 no triangle has a sample
        Step("med5-sweep-n3-0", _experiment("med5", ("inductive",), "1,2,1", "exp/med5-sweep-n3-0",
                                            "--trials", "2", "--sweep-n3", "0:1")),
        Step("med5-generate", ("generate", "--problem", "med5", "--sizes", "1,2,1", "--seed", "3",
                               "--validation", "300", "--out", "med5/data")),
    ]
    for method in METHODS:
        model = f"med5/model-{method}.json"
        out.append(Step(f"med5-fit-{method}", ("fit", "--method", method, "--data", "med5/data",
                                                "--out", model)))
        out.append(Step(f"med5-evaluate-{method}", _evaluate(model, "--out", f"med5/eval-{method}.csv")))
        out.append(Step(f"med5-evaluate-raw-{method}", _evaluate(model, "--no-normalize")))
    out += [
        Step("graph-generate", ("generate", "--problem", "med3", "--sizes", "1,2,1", "--seed", "4",
                                "--validation", "200", "--graph", "--out", "graph/data")),
        Step("graph-fit", ("fit", "--method", "inductive", "--data", "graph/data",
                           "--out", "graph/model.json")),
        Step("graph-evaluate", _evaluate("graph/model.json", "--out", "graph/eval.csv",
                                         validation="graph/data/validation.csv")),
        Step("one-objective", _experiment("file:probes/one-objective.csv", ("inductive", "response-surface"),
                                          "1", "exp/one-objective", "--trials", "2"),
             _write("one-objective.csv", "".join(["f1\n"] + [f"{v / 16}\n" for v in range(1, 16)]).encode())),
        Step("plot-model", ("plot", "med5/model-inductive.json", "--out", "plots/model.svg")),
        Step("plot-sample", ("plot", "med5/data/validation.csv", "--out", "plots/sample.svg")),
        Step("plot-model-and-sample", ("plot", "med5/model-all-at-once.json",
                                       "med5/data/train_f1-2-3.csv", "--out", "plots/both.svg")),
        Step("plot-metrics", ("plot", "wl/med3-table-3/results.csv", "--out", "plots/metrics.svg")),
    ]
    probes = [
        ("manifest-a-list", _fit("probes/manifest-a-list"), _copy_data("manifest-a-list", lambda m: [])),
        ("face-entry-a-list", _fit("probes/face-entry-a-list"),
         _copy_data("face-entry-a-list", lambda m: {**m, "faces": [[1]] + m["faces"][1:]})),
        ("manifest-no-M", _fit("probes/manifest-no-M"),
         _copy_data("manifest-no-M", lambda m: {k: v for k, v in m.items() if k != "M"})),
        ("manifest-string-M", _fit("probes/manifest-string-M"),
         _copy_data("manifest-string-M", lambda m: {**m, "M": "5"})),
        ("manifest-true-M", _fit("probes/manifest-true-M"),
         _copy_data("manifest-true-M", lambda m: {**m, "M": True})),
        ("manifest-M-3", _fit("probes/manifest-M-3"), _copy_data("manifest-M-3", lambda m: {**m, "M": 3})),
        ("fit-nan-newton-tol", ("fit", "--method", "inductive", "--data", "med5/data", "--newton-tol", "nan",
                                "--out", "probes/nan-newton-tol.json"), None),
        ("fit-nan-outer-tol", ("fit", "--method", "inductive", "--data", "med5/data", "--outer-tol", "nan",
                               "--out", "probes/nan-outer-tol.json"), None),
        ("bezier-list-M", _evaluate("probes/bezier-list-M.json"),
         _edit_json("med5/model-inductive.json", "bezier-list-M.json", M=[5])),
        ("bezier-int-control-points", _evaluate("probes/bezier-int-control-points.json"),
         _edit_json("med5/model-inductive.json", "bezier-int-control-points.json", control_points=5)),
        ("surface-null-M", _evaluate("probes/surface-null-M.json"),
         _edit_json("med5/model-response-surface.json", "surface-null-M.json", M=None)),
        ("bezier-fraction-A", _evaluate("probes/bezier-fraction-A.json"),
         _edit_json("med5/model-inductive.json", "bezier-fraction-A.json", A=2.5)),
        ("surface-string-M", _evaluate("probes/surface-string-M.json"),
         _edit_json("med5/model-response-surface.json", "surface-string-M.json", M="3")),
        ("bezier-repeated-point", _evaluate("probes/bezier-repeated-point.json"),
         _repeat_first_point("bezier-repeated-point.json")),
        # a table of C(27, 7) = 888,030 rows that one entry cannot fill
        ("bezier-M8-D20", _evaluate("probes/bezier-M8-D20.json"),
         _edit_json("med5/model-inductive.json", "bezier-M8-D20.json", M=8, D=20,
                    control_points=[{"index": [20] + [0] * 7, "point": [0.0] * 5}])),
        # a grid table of C(10^8 + 2, 2) rows, which numpy refuses to allocate
        ("evaluate-unallocatable-grid", _evaluate("graph/model.json", "--resolution", "100000000",
                                                  validation="graph/data/validation.csv"), None),
        ("model-not-json", _evaluate("probes/model-not-json.json"), _write("model-not-json.json", b"nope\n")),
        ("validation-not-utf8", _evaluate("med5/model-inductive.json", validation="probes/bad.csv"),
         _write("bad.csv", b"f1,f2,f3,f4,f5\n1,2,3,4,\xff\n")),
        ("plot-evaluate-out-csv", _plot("med5/eval-inductive.csv"), None),
        ("results-bad-sizes", _plot("probes/results-bad-sizes.csv"),
         _edit_results("results-bad-sizes.csv", lambda row: row.replace("1-2-1", "1-x"))),
        ("results-short-row", _plot("probes/results-short-row.csv"),
         _edit_results("results-short-row.csv", lambda row: "med3,inductive")),
        ("evaluate-missing-model", _evaluate("probes/nowhere.json"), None),
        ("plot-missing-input", _plot("probes/nowhere.csv"), None),
        ("evaluate-model-directory", _evaluate("probes"), None),
        ("plot-directory", _plot("probes"), None),
    ]
    return out + [Step(f"probe-{name}", argv, prepare) for name, argv, prepare in probes]


# -- running and comparing ----------------------------------------------------------


def run_steps(tree: Path, work: Path, chosen: list[Step]) -> None:
    """Run the steps against tree's src/ in work, recording each command."""
    (work / COMMANDS).mkdir(parents=True)
    (work / "probes").mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("BSF_LOG", None)
    for step in chosen:
        if step.prepare is not None:
            step.prepare(work)
        proc = subprocess.run([sys.executable, "-c", RUNNER, *step.argv], cwd=work, env=env,
                              capture_output=True)
        record = work / COMMANDS / step.name
        record.with_suffix(".exit").write_text(f"{proc.returncode}\n")
        for suffix, data in ((".stdout", proc.stdout), (".stderr", proc.stderr)):
            for path, placeholder in ((tree, b"<tree>"), (work, b"<work>")):
                data = data.replace(str(path).encode(), placeholder)
            record.with_suffix(suffix).write_bytes(data)


def compare(against: Path, this: Path) -> tuple[int, list[str]]:
    """(number of files, a line for each file that differs or is on one side only)."""
    files = {p.relative_to(against) for p in against.rglob("*") if p.is_file()}
    files |= {p.relative_to(this) for p in this.rglob("*") if p.is_file()}
    differ = []
    for rel in sorted(files):
        a, b = against / rel, this / rel
        if not b.is_file():
            differ.append(f"only against: {rel}")
        elif not a.is_file():
            differ.append(f"only this: {rel}")
        elif a.read_bytes() != b.read_bytes():
            differ.append(f"differs: {rel}")
    return len(files), differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare this checkout with")
    parser.add_argument("--only", action="append", help="run only this step (repeatable)")
    args = parser.parse_args(argv)
    chosen = steps()
    if args.only:
        names = [step.name for step in chosen]
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            parser.error(f"unknown steps {unknown}; the steps are {', '.join(names)}")
        chosen = [step for step in chosen if step.name in args.only]
    temp = Path(tempfile.mkdtemp(prefix="bsf-same-"))
    other = temp / "tree"
    git = ["git", "-C", str(ROOT)]
    try:
        subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(other), args.against], check=True)
        sides = {"against": (other, temp / "work-against"), "this": (ROOT, temp / "work-this")}
        with ThreadPoolExecutor(max_workers=2) as pool:
            for done in [pool.submit(run_steps, tree, work, chosen) for tree, work in sides.values()]:
                done.result()
        n, differ = compare(sides["against"][1], sides["this"][1])
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", str(other)], check=False)
        subprocess.run([*git, "worktree", "prune"], check=False)
        shutil.rmtree(temp, ignore_errors=True)
    for line in differ:
        print(line)
    print(f"{n} files, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
