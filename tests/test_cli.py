import csv
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from bsf.bezier import BezierSimplex, embed_on_face
from bsf.cli import build_parser, main
from bsf.fitting import initialize_control_net
from bsf.metrics import grid_sample
from bsf.pareto import SampleSet, load_sample, save_sample
from bsf.pareto import enumerate_faces


def run_cli(*args, capsys=None):
    code = main([str(a) for a in args])
    return code


def read_all(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).iterdir()) if p.is_file()
    }


# -- generate -------------------------------------------------------------------


def test_generate_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "data"
    code = run_cli(
        "generate", "--problem", "med3", "--sizes", "1,2,1", "--seed", "7",
        "--validation", "50", "--out", out,
    )
    assert code == 0
    names = set(read_all(out))
    train = {n for n in names if n.startswith("train_")}
    assert len(train) == 7
    assert "validation.csv" in names and "manifest.json" in names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem"] == "med3" and manifest["seed"] == 7
    assert len(manifest["faces"]) == 7


def test_generate_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "generate", "--problem", "med3", "--sizes", "1,2,1", "--seed", "3",
            "--validation", "40", "--out", out,
        ) == 0
    assert read_all(a) == read_all(b)


@pytest.mark.parametrize("problem", ["med3", "osyczka2"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_generate_rejects_empty_validation(tmp_path, capsys, problem, value):
    code = run_cli(
        "generate", "--problem", problem, "--sizes", "1,2", "--validation", value,
        "--out", tmp_path / "data",
    )
    assert code == 2
    assert "validation size must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_generate_unknown_problem_exits_2(tmp_path, capsys):
    code = run_cli("generate", "--problem", "mystery", "--sizes", "1,2", "--out", tmp_path / "x")
    assert code == 2
    err = capsys.readouterr().err
    assert "schaffer" in err and "med5" in err


# -- fit ------------------------------------------------------------------------


def write_synthetic_training(tmp_path, seed=16):
    """Training files drawn exactly from a known degree-3 net over 3 objectives."""
    rng = np.random.default_rng(seed)
    V = np.eye(3) * 2.0
    net = initialize_control_net(V, 3)
    pts = net.points + rng.normal(scale=0.05, size=net.points.shape)
    for j, d in enumerate(net.indices):
        if max(d) == 3:
            pts[j] = net.points[j]
    true = BezierSimplex(3, 3, pts)
    out = tmp_path / "data"
    out.mkdir()
    faces = []
    for face in enumerate_faces(3, 3):
        k = len(face)
        if k == 1:
            corner = tuple(3 if i == face[0] else 0 for i in range(3))
            X = true.points[[true.index_row(corner)]]
        else:
            s = rng.dirichlet(np.ones(k), size=2 if k == 2 else 1)
            X = true.evaluate_batch(embed_on_face(s, face, 3))
        name = "train_f" + "-".join(str(j + 1) for j in face) + ".csv"
        save_sample(SampleSet(X), out / name)
        faces.append({"objectives": [j + 1 for j in face], "file": name, "n": X.shape[0]})
    validation = grid_sample(true, 10)
    save_sample(validation, out / "validation.csv")
    manifest = {
        "problem": "synthetic",
        "M": 3,
        "graph": False,
        "seed": seed,
        "sizes": [1, 2, 1],
        "validation": "validation.csv",
        "validation_size": validation.n,
        "faces": faces,
    }
    (out / "manifest.json").write_text(json.dumps(manifest))
    return out, true


def test_fit_inductive_on_exact_data(tmp_path, capsys):
    data, _ = write_synthetic_training(tmp_path)
    model_path = tmp_path / "model.json"
    code = run_cli(
        "fit", "--method", "inductive", "--data", data, "--degree", "3",
        "--newton-tol", "1e-10", "--outer-tol", "1e-10", "--out", model_path,
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "outer_iterations=" in printed
    reported = float(printed.split("sqrt_sse_per_point=")[1].split()[0])
    assert reported <= 1e-6
    model = BezierSimplex.load(model_path)
    assert model.m == 3 and model.degree == 3
    sidecar = json.loads((tmp_path / "model.fit.json").read_text())
    assert "per_face_report" in sidecar and sidecar["per_face_report"] is not None


def test_fit_all_at_once_writes_parameters_sidecar(tmp_path, capsys):
    data, _ = write_synthetic_training(tmp_path)
    model_path = tmp_path / "model.json"
    assert run_cli("fit", "--method", "all-at-once", "--data", data, "--out", model_path) == 0
    sidecar = json.loads((tmp_path / "model.fit.json").read_text())
    assert sidecar["parameters"] is not None
    assert len(sidecar["parameters"]) == 10  # union of the training files


def test_fit_response_surface_writes_coefficients(tmp_path, capsys):
    data, _ = write_synthetic_training(tmp_path)
    out = tmp_path / "surface.json"
    assert run_cli("fit", "--method", "response-surface", "--data", data, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["type"] == "response-surface"
    assert len(payload["coefficients"]) == 8  # M=3: 1 + 2 + 3 + 2


def test_fit_is_byte_reproducible(tmp_path):
    data, _ = write_synthetic_training(tmp_path)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for path in (m1, m2):
        assert run_cli("fit", "--method", "inductive", "--data", data, "--out", path) == 0
    assert m1.read_bytes() == m2.read_bytes()


# -- evaluate -------------------------------------------------------------------------


def test_evaluate_self_grid_is_zero(tmp_path, capsys):
    data, true = write_synthetic_training(tmp_path)
    model_path = tmp_path / "model.json"
    true.save(model_path)
    val = tmp_path / "val.csv"
    save_sample(grid_sample(true, 20), val)
    code = run_cli("evaluate", "--model", model_path, "--validation", val, "--resolution", "20")
    assert code == 0
    out = capsys.readouterr().out
    assert "GD=0.0" in out and "IGD=0.0" in out


def test_evaluate_swapped_models_exchange_gd_igd(tmp_path, capsys):
    rng = np.random.default_rng(1)
    a = BezierSimplex(2, 2, rng.uniform(size=(3, 2)))
    b = BezierSimplex(2, 2, rng.uniform(size=(3, 2)))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.save(pa)
    b.save(pb)
    va, vb = tmp_path / "ga.csv", tmp_path / "gb.csv"
    save_sample(grid_sample(a, 15), va)
    save_sample(grid_sample(b, 15), vb)
    assert run_cli("evaluate", "--model", pa, "--validation", vb, "--resolution", "15", "--no-normalize") == 0
    first = capsys.readouterr().out
    assert run_cli("evaluate", "--model", pb, "--validation", va, "--resolution", "15", "--no-normalize") == 0
    second = capsys.readouterr().out

    def parse(text):
        gd = float(text.split("GD=")[1].split()[0])
        igd = float(text.split("IGD=")[1].split()[0])
        return gd, igd

    gd1, igd1 = parse(first)
    gd2, igd2 = parse(second)
    assert gd1 == igd2 and igd1 == gd2


def test_evaluate_dimension_mismatch_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(2)
    model = BezierSimplex(2, 1, rng.uniform(size=(2, 2)))
    path = tmp_path / "m.json"
    model.save(path)
    val = tmp_path / "v.csv"
    save_sample(SampleSet(rng.uniform(size=(4, 3))), val)
    assert run_cli("evaluate", "--model", path, "--validation", val) == 2


def test_evaluate_matches_library_fixture(tmp_path, capsys):
    from bsf.metrics import gd_igd

    data, true = write_synthetic_training(tmp_path)
    model_path = tmp_path / "model.json"
    true.save(model_path)
    code = run_cli(
        "evaluate", "--model", model_path, "--validation", data / "validation.csv",
        "--resolution", "12", "--no-normalize",
    )
    assert code == 0
    out = capsys.readouterr().out
    gd_val = float(out.split("GD=")[1].split()[0])
    igd_val = float(out.split("IGD=")[1].split()[0])
    from bsf.pareto import load_sample

    expected = gd_igd(grid_sample(true, 12).objectives, load_sample(data / "validation.csv").objectives)
    assert (gd_val, igd_val) == expected


def parse_scores(text):
    return float(text.split("GD=")[1].split()[0]), float(text.split("IGD=")[1].split()[0])


def test_evaluate_normalized_bezier_equals_harness_score(tmp_path, capsys):
    from bsf.harness import score
    from bsf.pareto import load_sample

    data, true = write_synthetic_training(tmp_path)
    model_path = tmp_path / "model.json"
    true.save(model_path)
    val = data / "validation.csv"
    assert run_cli("evaluate", "--model", model_path, "--validation", val, "--resolution", "9") == 0
    expected = score(grid_sample(true, 9).objectives, load_sample(val).objectives, True)
    assert parse_scores(capsys.readouterr().out) == expected


def test_evaluate_normalized_response_surface_equals_harness_score(tmp_path, capsys):
    from bsf.harness import score
    from bsf.pareto import load_sample
    from bsf.response_surface import ResponseSurface

    data, _ = write_synthetic_training(tmp_path)
    path = tmp_path / "surface.json"
    assert run_cli("fit", "--method", "response-surface", "--data", data, "--out", path) == 0
    val = data / "validation.csv"
    assert run_cli("evaluate", "--model", path, "--validation", val, "--resolution", "7") == 0
    surface = ResponseSurface.load(path)
    expected = score(surface.sample_grid(7).objectives, load_sample(val).objectives, True)
    assert parse_scores(capsys.readouterr().out.splitlines()[-1]) == expected



def _fit_surface_dict(m=3):
    from bsf.response_surface import fit_response_surface

    rng = np.random.default_rng(13)
    return fit_response_surface(SampleSet(rng.uniform(size=(30, m)))).to_dict()


def _edit(**fields):
    def apply(data):
        data.update(fields)
    return apply


def _set_item(name, i, value):
    def apply(data):
        data[name][i] = value
    return apply


@pytest.mark.parametrize(
    "edit, field",
    [
        pytest.param(_edit(M=1), "M", id="M-below-2"),
        pytest.param(_edit(exponents=[[0, 0], [1, 0], [0, 1]]), "exponents", id="exponents-not-the-basis"),
        pytest.param(_set_item("exponents", 1, [-1, 0]), "exponents", id="negative-exponent"),
        pytest.param(_edit(exponents=5), "exponents", id="exponents-not-a-list"),
        pytest.param(lambda d: d["coefficients"].pop(), "coefficients", id="short-coefficients"),
        pytest.param(lambda d: d["lo"].pop(), "lo", id="short-lo"),
        pytest.param(_edit(span=[0.0, 1.0, 1.0]), "span", id="zero-span"),
        pytest.param(_set_item("span", 2, -1.0), "span", id="negative-span"),
        pytest.param(lambda d: d["span"].append(1.0), "span", id="long-span"),
        pytest.param(_set_item("coefficients", 0, float("nan")), "coefficients", id="nan-coefficient"),
        pytest.param(_set_item("lo", 1, float("inf")), "lo", id="infinite-lo"),
    ],
)
def test_evaluate_rejects_malformed_response_surface(tmp_path, capsys, edit, field):
    from bsf.errors import ParseError
    from bsf.response_surface import ResponseSurface

    data = _fit_surface_dict()
    ResponseSurface.from_dict(data)  # the unedited record loads
    edit(data)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    val = tmp_path / "v.csv"
    save_sample(SampleSet(np.random.default_rng(14).uniform(size=(10, 3))), val)
    with pytest.raises(ParseError, match=f"^response surface: {field} "):
        ResponseSurface.from_dict(json.loads(path.read_text()))
    # ParseError is a ValueError, so the CLI reports it as it reports a
    # malformed sample file or a Bezier file with a bad index set
    assert run_cli("evaluate", "--model", path, "--validation", val) == 2
    assert f"error: response surface: {field} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, field",
    [pytest.param("bezier", f, id=f"bezier-{f}") for f in ("M", "D", "A", "control_points")]
    + [
        pytest.param("surface", f, id=f"surface-{f}")
        for f in ("M", "exponents", "coefficients", "lo", "span")
    ],
)
def test_evaluate_names_the_file_and_its_missing_field(tmp_path, capsys, kind, field):
    if kind == "bezier":
        data = initialize_control_net(np.eye(3), 2).to_dict()
    else:
        data = _fit_surface_dict()
    del data[field]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    val = tmp_path / "v.csv"
    save_sample(SampleSet(np.random.default_rng(14).uniform(size=(10, 3))), val)
    assert run_cli("evaluate", "--model", path, "--validation", val) == 2
    assert capsys.readouterr().err == f"error: {path}: model file has no field '{field}'\n"

# -- experiment ---------------------------------------------------------------------


def test_experiment_writes_rows_and_summary(tmp_path, capsys):
    out = tmp_path / "exp"
    code = run_cli(
        "experiment", "--problem", "med3", "--method", "inductive", "--method", "all-at-once",
        "--sizes", "1,2,1", "--trials", "3", "--seed", "0", "--validation", "100", "--out", out,
    )
    assert code == 0
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 6  # header + 3 trials x 2 methods
    summary = json.loads((out / "summary.json").read_text())
    assert "u_tests" in summary
    printed = capsys.readouterr().out
    assert "U test" in printed


def test_experiment_is_byte_reproducible(tmp_path):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert run_cli(
            "experiment", "--problem", "med3", "--method", "inductive",
            "--sizes", "1,2,1", "--trials", "2", "--seed", "5", "--validation", "80", "--out", out,
        ) == 0
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1]


# -- plot --------------------------------------------------------------------------------


def test_plot_sample_panels_m3(tmp_path, capsys):
    rng = np.random.default_rng(3)
    sample = tmp_path / "s.csv"
    save_sample(SampleSet(rng.uniform(size=(30, 3))), sample)
    out = tmp_path / "fig.svg"
    assert run_cli("plot", sample, "--out", out) == 0
    svg = out.read_text()
    assert svg.count('<g class="panel"') == 3


def test_plot_sample_panels_m5(tmp_path):
    rng = np.random.default_rng(4)
    sample = tmp_path / "s.csv"
    save_sample(SampleSet(rng.uniform(size=(10, 5))), sample)
    out = tmp_path / "fig.svg"
    assert run_cli("plot", sample, "--out", out) == 0
    assert out.read_text().count('<g class="panel"') == 10


def test_plot_model_with_validation_overlay(tmp_path):
    data, true = write_synthetic_training(tmp_path)
    model_path = tmp_path / "model.json"
    true.save(model_path)
    out = tmp_path / "overlay.svg"
    assert run_cli("plot", model_path, data / "validation.csv", "--resolution", "8", "--out", out) == 0
    assert out.read_text().count('<g class="panel"') == 3


def test_plot_metrics_boxplots(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    assert run_cli(
        "experiment", "--problem", "med3", "--method", "inductive",
        "--sizes", "1,2,1", "--trials", "2", "--seed", "0", "--validation", "60",
        "--sweep-n3", "1:3", "--out", out_dir,
    ) == 0
    printed = capsys.readouterr().out
    assert [line.split(":")[0] for line in printed.splitlines() if "median IGD" in line] == [
        "inductive N3= 1", "inductive N3= 2", "inductive N3= 3",
    ]
    fig = tmp_path / "box.svg"
    assert run_cli("plot", out_dir / "results.csv", "--out", fig) == 0
    svg = fig.read_text()
    assert svg.count('<g class="boxpanel"') == 2


def test_plot_metrics_closes_its_input(tmp_path):
    from bsf.harness import TrialRow, write_rows

    metrics = tmp_path / "results.csv"
    write_rows([TrialRow("med3", "inductive", (1, 2, n3), 0, 0.1 * n3, 0.2, 3) for n3 in (1, 2)], metrics)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run_cli("plot", metrics, "--out", tmp_path / "box.svg") == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_plot_byte_stable(tmp_path):
    rng = np.random.default_rng(5)
    sample = tmp_path / "s.csv"
    save_sample(SampleSet(rng.uniform(size=(12, 3))), sample)
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_cli("plot", sample, "--out", f1) == 0
    assert run_cli("plot", sample, "--out", f2) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_plot_unreadable_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,known,format\n1,2,3,4\n")
    assert run_cli("plot", bad, "--out", tmp_path / "x.svg") == 2


def test_usage_error_exit_code():
    assert main(["fit", "--method", "bogus", "--data", "x", "--out", "y"]) == 2


def test_fit_missing_vertex_file_names_the_face(tmp_path, capsys):
    data, _ = write_synthetic_training(tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["faces"] = [f for f in manifest["faces"] if f["objectives"] != [2]]
    (data / "manifest.json").write_text(json.dumps(manifest))
    code = run_cli("fit", "--method", "inductive", "--data", data, "--out", tmp_path / "m.json")
    assert code == 1
    assert "objective 2" in capsys.readouterr().err


def test_fit_missing_data_dir_is_usage_error(tmp_path, capsys):
    code = run_cli("fit", "--method", "inductive", "--data", tmp_path / "nowhere", "--out", tmp_path / "m.json")
    assert code == 2


def test_experiment_graph_with_response_surface_is_usage_error(tmp_path, capsys):
    code = run_cli(
        "experiment", "--problem", "med5", "--method", "response-surface",
        "--graph", "--trials", "1", "--out", tmp_path / "x",
    )
    assert code == 2


@pytest.mark.parametrize("text, message", [("5:1", "0 <= lo <= hi"), ("10", "look like 1:10")])
def test_experiment_bad_sweep_range_is_usage_error(tmp_path, capsys, text, message):
    code = run_cli(
        "experiment", "--problem", "med3", "--method", "inductive", "--trials", "1",
        "--sweep-n3", text, "--out", tmp_path / "x",
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_experiment_rejects_zero_jobs(tmp_path, capsys):
    code = run_cli(
        "experiment", "--problem", "med3", "--method", "inductive", "--trials", "1",
        "--jobs", "0", "--out", tmp_path / "x",
    )
    assert code == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_experiment_rejects_negative_degree(tmp_path, capsys):
    code = run_cli(
        "experiment", "--problem", "med3", "--method", "inductive", "--trials", "1",
        "--degree", "-1", "--out", tmp_path / "x",
    )
    assert code == 2
    assert "degree must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--resolution", "0", "resolution must be at least 1"),
        ("--resolution", "-3", "resolution must be at least 1"),
        ("--validation", "0", "validation size must be at least 1"),
        ("--validation", "-5", "validation size must be at least 1"),
    ],
)
def test_experiment_rejects_empty_grid_or_validation(tmp_path, capsys, flag, value, message):
    code = run_cli(
        "experiment", "--problem", "med3", "--method", "inductive", "--trials", "2",
        flag, value, "--out", tmp_path / "x",
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_experiment_sweep_on_two_objectives_is_usage_error(tmp_path, capsys):
    code = run_cli(
        "experiment", "--problem", "schaffer", "--method", "inductive", "--sizes", "1,3",
        "--trials", "1", "--sweep-n3", "1:2", "--out", tmp_path / "x",
    )
    assert code == 2
    assert "at least three objectives; schaffer has 2" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _front_files(tmp_path):
    """One med3 front sample twice: with solution columns and without."""
    assert run_cli(
        "generate", "--problem", "med3", "--sizes", "1,2,1", "--seed", "4",
        "--validation", "120", "--graph", "--out", tmp_path / "gen",
    ) == 0
    with_x = tmp_path / "gen" / "validation.csv"
    objectives_only = tmp_path / "front.csv"
    save_sample(SampleSet(load_sample(with_x).objectives), objectives_only)
    return with_x, objectives_only


def test_file_problem_without_graph_fits_objectives(tmp_path):
    with_x, objectives_only = _front_files(tmp_path)
    scores = []
    for name, path in (("a", with_x), ("b", objectives_only)):
        out = tmp_path / name
        assert run_cli(
            "experiment", "--problem", f"file:{path}", "--method", "inductive",
            "--method", "response-surface", "--trials", "2", "--out", out,
        ) == 0
        with (out / "results.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(not r["error"] for r in rows)
        scores.append([(r["method"], r["gd"], r["igd"]) for r in rows])
    # the solution columns are dropped, so both files give the same fits
    assert scores[0] == scores[1]


@pytest.mark.parametrize("command", ["experiment", "generate"])
def test_file_problem_graph_needs_solution_columns(tmp_path, capsys, command):
    _, objectives_only = _front_files(tmp_path)
    capsys.readouterr()
    extra = ["--method", "inductive", "--trials", "2"] if command == "experiment" else []
    code = run_cli(
        command, "--problem", f"file:{objectives_only}", "--sizes", "1,2,1", "--graph",
        *extra, "--out", tmp_path / "x",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{objectives_only}: fitting the graph needs solution columns" in err
    assert not (tmp_path / "x").exists()


def test_readme_commands_parse():
    """Every `bsf ...` line in the README's sh blocks parses; none is run."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "bsf":
                commands.append(words[1:])
    assert {argv[0] for argv in commands} == {"generate", "fit", "evaluate", "experiment", "plot"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: bsf " + " ".join(argv))


def test_log_env_var_sets_level(tmp_path, monkeypatch, capsys):
    import logging

    monkeypatch.setenv("BSF_LOG", "debug")
    sample = tmp_path / "s.csv"
    save_sample(SampleSet(np.random.default_rng(8).uniform(size=(5, 2))), sample)
    assert run_cli("plot", sample, "--out", tmp_path / "f.svg") == 0
    assert logging.getLogger().level == logging.DEBUG


def test_experiment_sweep_replaces_only_n3(tmp_path):
    # sizes after N3 stay: a one-point sweep at N3 = 3 over 1,2,3,4 is the
    # plain 1,2,3,4 experiment, four-objective face sample included
    common = ["experiment", "--problem", "medM:4", "--method", "inductive", "--sizes", "1,2,3,4",
              "--trials", "1", "--seed", "2", "--validation", "60"]
    assert run_cli(*common, "--sweep-n3", "3:3", "--out", tmp_path / "sweep") == 0
    assert run_cli(*common, "--out", tmp_path / "plain") == 0
    assert read_all(tmp_path / "sweep") == read_all(tmp_path / "plain")
    with (tmp_path / "sweep" / "results.csv").open() as fh:
        assert [r["sizes"] for r in csv.DictReader(fh)] == ["1-2-3-4"]


def test_experiment_reads_a_file_problem_once(tmp_path, monkeypatch):
    import bsf.problems

    _, objectives_only = _front_files(tmp_path)
    reads = []
    original = bsf.problems.load_sample
    monkeypatch.setattr(bsf.problems, "load_sample", lambda path: reads.append(path) or original(path))
    assert run_cli(
        "experiment", "--problem", f"file:{objectives_only}", "--method", "inductive",
        "--trials", "3", "--sweep-n3", "1:2", "--out", tmp_path / "x",
    ) == 0
    assert len(reads) == 1
