"""Tests of the benchmark's own arithmetic, rebinding and checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import spans
import stats
from spans import Span
from workloads import WORKLOADS, table_relations

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

run.import_package()


# -- self time ----------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans_ = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
    ]
    assert spans.self_times(spans_) == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans_ = [
        Span("root", 0.0, 10.0, -1, -1),
        Span("x", 1.0, 5.0, 0, -1),
        Span("y", 3.0, 7.0, 0, -1),  # overlaps x on [3, 5]
        Span("z", 9.0, 12.0, 0, -1),  # runs past its parent's end
    ]
    assert spans.self_times(spans_)["root"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_limited_to_some_trees():
    spans_ = [Span("a", 0.0, 2.0, -1, -1), Span("b", 0.5, 1.0, 0, -1), Span("a", 3.0, 4.0, -1, -1)]
    assert spans.self_times(spans_, range(0, 2)) == pytest.approx({"a": 1.5, "b": 0.5})
    assert spans.self_times(spans_, range(2, 3)) == pytest.approx({"a": 1.0})


def test_covered_merges_and_clips():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(2, 4), (3, 6), (8, 20), (-5, -1)]) == pytest.approx(6.0)


# -- order statistics -----------------------------------------------------------------


def test_median_of_stated_counts():
    assert stats.median([3.0]) == 3.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


@pytest.mark.parametrize("n, p", [(1, None), (10, None), (11, 9), (20, 50), (40, 75), (100, 90), (1000, 99)])
def test_supported_percentile_leaves_ten_samples_beyond(n, p):
    assert stats.supported_percentile(n) == p
    if p is not None:
        values = list(range(n))
        assert sum(v > stats.percentile(values, p) for v in values) >= 10


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 0) == 1.0


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0.0
    assert stats.quartile_spread(range(1, 11)) == pytest.approx((8.25 - 2.75) / 5.5)


# -- rebinding --------------------------------------------------------------------------


def test_rebinding_reaches_imported_names_and_is_undone():
    from bsf import bezier, cli, fitting, harness, metrics, pareto, problems, response_surface

    originals = {
        "harness.gd_igd": harness.gd_igd,
        "harness.fit_inductive_skeleton": harness.fit_inductive_skeleton,
        "harness.make_training_set": harness.make_training_set,
        "fitting.project_parameter": fitting.project_parameter,
        "fitting.weighted_design_matrix": fitting.weighted_design_matrix,
        "cli.project_parameter": cli.project_parameter,
    }
    tracer = spans.Tracer()
    with tracer.installed():
        assert harness.gd_igd is metrics.gd_igd is not originals["harness.gd_igd"]
        assert harness.fit_inductive_skeleton is fitting.fit_inductive_skeleton
        assert harness.make_training_set is problems.make_training_set
        assert fitting.project_parameter is cli.project_parameter
        assert fitting.project_parameter.__wrapped__ is originals["fitting.project_parameter"]
        assert fitting.weighted_design_matrix is bezier.weighted_design_matrix
        assert problems.nondominated_mask is pareto.nondominated_mask
        assert response_surface.ResponseSurface.sample_grid.__wrapped__ is not None
        rows = harness.run_trial(harness.ExperimentConfig("med3", sizes=(1, 2, 1), trials=1), 0)
    assert rows[0].error is None
    assert harness.gd_igd is originals["harness.gd_igd"]
    assert fitting.weighted_design_matrix is originals["fitting.weighted_design_matrix"]
    assert not hasattr(response_surface.ResponseSurface.sample_grid, "__wrapped__")

    done = tracer.finished()
    names = {s.name for s in done}
    assert {"harness.run_trial", "metrics.gd_igd", "fitting.project_parameter",
            "bezier.weighted_design_matrix", "pareto.nondominated_mask"} <= names
    trial = next(i for i, s in enumerate(done) if s.name == "harness.run_trial")
    assert all(s.request == 0 for s in done)  # every span belongs to trial 0
    kernel = next(s for s in done if s.name == "metrics.gd_igd")
    assert kernel.parent == trial
    assert tracer.counts["metrics.gd_igd"]["pairs"] == 231 * 1000


# -- checks ---------------------------------------------------------------------------


def test_table_relations_flag_each_violation():
    good = {"inductive": {"gd_mean": 0.1, "igd_mean": 0.05},
            "all-at-once": {"gd_mean": 0.2}, "response-surface": {"gd_mean": 0.3}}
    assert table_relations(good) == []
    bad = {**good, "inductive": {"gd_mean": 0.25, "igd_mean": 0.5}}
    assert len(table_relations(bad)) == 2


def test_drifting_outputs_are_refused(tmp_path):
    calls = []

    class FakeCli:
        @staticmethod
        def main(argv):
            out = Path(argv[argv.index("--out") + 1])
            out.mkdir(parents=True)
            calls.append(out)
            gd = "0.5" if len(calls) == 1 else "0.6"
            (out / "results.csv").write_text(
                "problem,method,sizes,trial,gd,igd,iterations,error\n"
                f"med3,inductive,1-2-1,0,{gd},0.1,2,\n")
            (out / "summary.json").write_text("{}\n")
            return 0

    workload = replace(WORKLOADS["med3-table"], methods=("inductive",), trials=1, table_checks=False)
    batches = run.Batches(FakeCli, workload, 0, tmp_path)
    batches.run()
    with pytest.raises(run.WrongOutputs, match="differ"):
        batches.run()


def test_non_finite_scores_are_refused():
    workload = replace(WORKLOADS["med3-table"], methods=("inductive",), trials=1, table_checks=False)
    row = {"method": "inductive", "trial": "0", "gd": "nan", "igd": "0.1", "error": ""}
    assert workload.check([row], {}) and "gd = nan" in workload.check([row], {})[0]


def test_benchmark_json_lists_the_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


def test_fixed_seed_workload_ignores_the_benchmark_seed(tmp_path):
    w = WORKLOADS["osyczka2-pool"]
    assert w.argv(5, tmp_path) == w.argv(6, tmp_path)
    m = WORKLOADS["med3-table"]
    assert m.argv(5, tmp_path) != m.argv(6, tmp_path)


# -- smoke runs -------------------------------------------------------------------------


def tiny(name):
    w = WORKLOADS[name]
    changes = {"trials": 1, "resolution": 4, "validation": 60, "table_checks": False}
    if w.sweep_n3 is not None:
        changes["sweep_n3"] = (2, 3)
    return replace(w, **changes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_end_to_end(name, tmp_path):
    result = run.measure(tiny(name), 3, 0.0, False, tmp_path, setup_min=1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_smoke_traced_counts_repeat_exactly(tmp_path):
    name = "med5-sweep"
    first = run.measure(tiny(name), 3, 0.0, True, tmp_path / "a")
    second = run.measure(tiny(name), 3, 0.0, True, tmp_path / "b")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    exact = [k for k in declared
             if k.endswith((".calls", ".rows", ".pairs", ".points"))
             or k in ("fitting.capped_frac", "fitting.outer_iters_mean")]
    assert len(exact) == 13
    for key in exact:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["fitting.project_parameter.calls"]["value"] > 0
    assert (tmp_path / "a" / "spans.jsonl").stat().st_size > 0


def test_fresh_setup_times_a_new_process():
    assert run.fresh_setup(WORKLOADS["med3-table"], 0) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "med3-table", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
