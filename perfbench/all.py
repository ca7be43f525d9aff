#!/usr/bin/env python3
"""Run every workload (or some) over several seeds and summarise each metric.

Each run is a fresh `run.py` process. For every workload and metric this
prints the median over the seeds and the quartile spread, (Q3 - Q1) / median,
which is what the regression bounds in BENCHMARK.json are judged against.

    python3 perfbench/all.py --seeds 1 2 3 4 5 --trace 0 --write perfbench/out/summary.json

Exits 1 if any run fails or reports wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
    result["wall_s"] = time.perf_counter() - start
    saved = HERE / "out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    result["env"] = json.loads(saved.read_text())["env"]
    return result


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": statistics.median(values),
                 "values": values}
        if len(values) >= 2 and entry["median"]:
            entry["spread"] = stats.quartile_spread(values)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="also write the summary as JSON to this path")
    args = parser.parse_args(argv)

    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            try:
                results.append(run_once(workload, seed, args.seconds, args.trace))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {results[-1]['wall_s']:.1f} s", flush=True)
        summary.setdefault("env", {k: v for k, v in results[0]["env"].items() if k != "seed"})
        summary["workloads"][workload] = metrics = summarise(results)
        for name, m in metrics.items():
            spread = f"spread {m['spread']:.4f}" if "spread" in m else ""
            print(f"{workload} {name} median {m['median']:.6g} {m['unit']} {spread}", flush=True)
    if args.write:
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        Path(args.write).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
