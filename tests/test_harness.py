import json
import math

import numpy as np
import pytest

from bsf.harness import (
    ExperimentConfig,
    TrialRow,
    read_rows,
    run_experiment,
    run_sweep,
    score,
    summarize,
    u_tests,
    vertex_optima_from,
    write_rows,
    write_summary,
)
from bsf.metrics import gd_igd
from bsf.pareto import normalizer_from
from bsf.problems import get_problem, make_training_set

CFG = ExperimentConfig(
    "med3", ("inductive", "all-at-once"), trials=4, seed=0, validation_size=200
)


@pytest.fixture(scope="module")
def med3_rows():
    return run_experiment(CFG)


def test_rows_shape(med3_rows):
    assert len(med3_rows) == 8
    assert [r.method for r in med3_rows[:4]] == ["inductive"] * 4
    assert [r.trial for r in med3_rows[:4]] == [0, 1, 2, 3]
    assert all(r.error is None for r in med3_rows)


def test_rows_reproducible(med3_rows):
    again = run_experiment(CFG)
    for a, b in zip(med3_rows, again):
        assert a == b


def test_jobs_do_not_change_results(med3_rows):
    from dataclasses import replace

    parallel = run_experiment(replace(CFG, jobs=3))
    assert parallel == med3_rows


def test_trial_seeds_shift_with_base_seed():
    from dataclasses import replace

    shifted = run_experiment(replace(CFG, seed=1, trials=3))
    base = run_experiment(CFG)
    # trial t of seed 1 equals trial t+1 of seed 0 (derived seed = seed + trial)
    for method in CFG.methods:
        a = [r for r in shifted if r.method == method]
        b = [r for r in base if r.method == method]
        assert a[0].gd == b[1].gd and a[1].igd == b[2].igd


def test_summary_matches_recomputation(med3_rows, tmp_path):
    summary = write_summary(med3_rows, CFG, tmp_path / "summary.json")
    for method in CFG.methods:
        vals = [r.gd for r in med3_rows if r.method == method]
        mean = sum(vals) / len(vals)
        sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        entry = summary["methods"][method]
        assert abs(entry["gd_mean"] - mean) <= 1e-12
        assert abs(entry["gd_sd"] - sd) <= 1e-12
    assert summary["u_tests"]["gd"]["alternative"] == "inductive < all-at-once"
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["methods"]["inductive"]["gd_mean"] == summary["methods"]["inductive"]["gd_mean"]


def test_u_test_requires_exactly_two_methods(med3_rows):
    assert u_tests(med3_rows, ("inductive",)) is None
    out = u_tests(med3_rows, ("inductive", "all-at-once"))
    assert set(out) == {"gd", "igd"}
    assert 0.0 <= out["gd"]["p"] <= 1.0


def test_rows_csv_round_trip(med3_rows, tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(med3_rows, path)
    back = read_rows(path)
    assert back == med3_rows


def test_failed_trials_recorded_as_rows(tmp_path):
    rows = [
        TrialRow("p", "inductive", (1, 2), 0, 0.5, 0.2, 3),
        TrialRow("p", "inductive", (1, 2), 1, None, None, None, "boom"),
    ]
    path = tmp_path / "rows.csv"
    write_rows(rows, path)
    back = read_rows(path)
    assert back[1].error == "boom" and back[1].gd is None
    summary = summarize(back)
    assert summary["inductive"]["trials"] == 1
    assert summary["inductive"]["failures"] == 1


def test_vertex_optima_orders_by_objective():
    training, _ = make_training_set(get_problem("med3"), (1, 2, 1), seed=0, validation_size=10)
    V = vertex_optima_from(training, 3)
    assert V.shape == (3, 3)
    for j in range(3):
        assert V[j, j] == 0.0


def test_graph_config_rejects_response_surface():
    with pytest.raises(ValueError):
        ExperimentConfig("med5", ("response-surface",), graph=True)


def test_generation_failure_recorded_per_row():
    # med3 cannot supply 40 disjoint validation points and 100-point faces on
    # demand with N1 > 1; the trial must fail into rows, not raise
    cfg = ExperimentConfig("med3", ("inductive",), sizes=(2, 2, 1), trials=2, seed=0, validation_size=10)
    rows = run_experiment(cfg)
    assert len(rows) == 2
    assert all(r.error is not None and r.gd is None for r in rows)


def test_sweep_varies_n3():
    cfg = ExperimentConfig("med3", ("inductive",), sizes=(1, 2, 1), trials=2, seed=0, validation_size=100)
    rows = run_sweep(cfg, [1, 3])
    assert {r.sizes for r in rows} == {(1, 2, 1), (1, 2, 3)}
    assert len(rows) == 4


def test_problem_resolved_once_per_experiment_and_sweep(tmp_path, monkeypatch):
    import bsf.problems
    from bsf.pareto import save_sample

    _, validation = make_training_set(get_problem("med3"), (1, 2, 1), seed=0, validation_size=150)
    path = tmp_path / "front.csv"
    save_sample(validation, path)
    reads = []
    original = bsf.problems.load_sample
    monkeypatch.setattr(bsf.problems, "load_sample", lambda p: reads.append(p) or original(p))
    cfg = ExperimentConfig(f"file:{path}", ("inductive",), trials=3, seed=0, validation_size=50)
    rows = run_experiment(cfg)
    assert len(rows) == 3 and all(r.error is None for r in rows)
    assert len(reads) == 1
    rows = run_sweep(cfg, [1, 2])
    assert len(rows) == 6 and all(r.error is None for r in rows)
    assert len(reads) == 2


@pytest.mark.parametrize("name", ["no-such-problem", "file:/nonexistent/front.csv"])
def test_unresolvable_problem_recorded_per_row(name):
    with pytest.raises(Exception) as info:
        get_problem(name)
    cfg = ExperimentConfig(name, ("inductive", "all-at-once"), trials=2, seed=0)
    rows = run_experiment(cfg)
    assert [(r.method, r.trial) for r in rows] == [
        ("inductive", 0), ("inductive", 1), ("all-at-once", 0), ("all-at-once", 1),
    ]
    assert all(r.error == str(info.value) and r.gd is None for r in rows)


@pytest.mark.parametrize("normalize", [True, False])
def test_score_is_gd_igd_of_the_normalized_pair_and_keeps_its_inputs(normalize):
    rng = np.random.default_rng(12)
    sample = rng.normal(size=(300, 3)) * [4.0, 0.5, 20.0]
    validation = rng.normal(size=(80, 3)) * [3.0, 0.2, 10.0] + 1.0
    sample_before, validation_before = sample.copy(), validation.copy()
    if normalize:
        lo, span = normalizer_from(validation)
        expected = gd_igd((sample - lo) / span, (validation - lo) / span)
    else:
        expected = gd_igd(sample, validation)
    assert score(sample, validation, normalize) == expected
    assert np.array_equal(sample.view(np.uint64), sample_before.view(np.uint64))
    assert np.array_equal(validation.view(np.uint64), validation_before.view(np.uint64))
