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


def test_evaluate_out_makes_its_directory(tmp_path, capsys):
    # writing into a new directory used to fail after the scores were printed
    data, true = write_synthetic_training(tmp_path)
    model_path = tmp_path / "model.json"
    true.save(model_path)
    val = tmp_path / "val.csv"
    save_sample(grid_sample(true, 20), val)
    out = tmp_path / "new" / "sub" / "s.csv"
    code = run_cli("evaluate", "--model", model_path, "--validation", val, "--resolution", "20",
                   "--out", out)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert out.read_text() == "gd,igd\n0.0,0.0\n"

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



def test_evaluate_graph_model_scores_its_validation_with_solutions(tmp_path, capsys):
    # a --graph model lives in objective-and-solution space, as do the x columns
    from bsf.harness import score, surface_rows

    data, path = tmp_path / "data", tmp_path / "model.json"
    assert run_cli("generate", "--problem", "med3", "--sizes", "1,2,1", "--seed", "4",
                   "--validation", "60", "--graph", "--out", data) == 0
    assert run_cli("fit", "--method", "inductive", "--data", data, "--out", path) == 0
    capsys.readouterr()
    val = data / "validation.csv"
    assert run_cli("evaluate", "--model", path, "--validation", val, "--resolution", "9") == 0
    model, validation = BezierSimplex.load(path), load_sample(val)
    assert (model.ambient, validation.m, validation.l) == (6, 3, 3)
    expected = score(surface_rows(model, 9).collect(), validation.ambient(), True)
    assert parse_scores(capsys.readouterr().out) == expected


def test_evaluate_prints_the_pinned_med5_scores(tmp_path, capsys):
    # the scores the whole-grid path printed; streaming the grid keeps every bit
    data = tmp_path / "data"
    assert run_cli("generate", "--problem", "med5", "--sizes", "1,2,1", "--seed", "3", "--out", data) == 0
    surface, skeleton = tmp_path / "surface.json", tmp_path / "inductive.json"
    assert run_cli("fit", "--method", "response-surface", "--data", data, "--out", surface) == 0
    assert run_cli("fit", "--method", "inductive", "--data", data, "--out", skeleton) == 0
    capsys.readouterr()
    for model, flags, line in [
        (surface, (), "GD=3.2605749595876508 IGD=0.08107722110463798"),
        (surface, ("--no-normalize",), "GD=2.806861253440989 IGD=0.060171875922024304"),
        (skeleton, (), "GD=0.5987479567233183 IGD=0.10544097076874348"),
    ]:
        assert run_cli("evaluate", "--model", model, "--validation", data / "validation.csv", *flags) == 0
        assert capsys.readouterr().out == line + "\n"


def test_evaluate_overflowing_surface_fails_cleanly(tmp_path, capsys, monkeypatch):
    import bsf.metrics as metrics

    monkeypatch.setattr(metrics, "_cpu_count", lambda: 2)  # the grid is made on worker threads
    data = tmp_path / "data"
    assert run_cli("generate", "--problem", "med5", "--sizes", "1,2,1", "--seed", "3", "--out", data) == 0
    path = tmp_path / "surface.json"
    assert run_cli("fit", "--method", "response-surface", "--data", data, "--out", path) == 0
    record = json.loads(path.read_text())
    record["coefficients"] = [1e308] * len(record["coefficients"])
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert run_cli("evaluate", "--model", path, "--validation", data / "validation.csv") == 2
    assert capsys.readouterr().err == "error: objectives must be finite\n"


def test_evaluate_overflowing_distances_fail_cleanly(tmp_path, capsys, monkeypatch):
    # the grid is finite, but its squared distances to the validation set overflow
    import bsf.metrics as metrics

    monkeypatch.setattr(metrics, "_cpu_count", lambda: 2)
    monkeypatch.setattr(metrics, "_PAIRS_PER_WORKER", 1)  # the grid's two chunks on two threads
    data = tmp_path / "data"
    assert run_cli("generate", "--problem", "med5", "--sizes", "1,2,1", "--seed", "3", "--out", data) == 0
    path = tmp_path / "surface.json"
    assert run_cli("fit", "--method", "response-surface", "--data", data, "--out", path) == 0
    record = json.loads(path.read_text())
    record["coefficients"] = [1e306] * len(record["coefficients"])
    path.write_text(json.dumps(record))
    capsys.readouterr()
    args = ("--model", path, "--validation", data / "validation.csv", "--resolution", "8")
    assert run_cli("evaluate", *args) == 2
    assert capsys.readouterr() == ("", "error: distances must be finite\n")


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
    with pytest.raises(ParseError, match=f"^response surface: {field} ") as info:
        ResponseSurface.from_dict(json.loads(path.read_text()))
    # ParseError is a ValueError, so the CLI reports it as it reports a
    # malformed sample file or a Bezier file with a bad index set
    assert run_cli("evaluate", "--model", path, "--validation", val) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {info.value}\n")


def test_evaluate_rejects_a_repeated_control_point(tmp_path, capsys):
    # a degree-2 curve listing [1, 1] twice: the second point must not be scored
    data = initialize_control_net(np.eye(2), 2).to_dict()
    data["control_points"].append({"index": [1, 1], "point": [3.0, -4.0]})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    val = tmp_path / "v.csv"
    save_sample(SampleSet(np.random.default_rng(15).uniform(size=(10, 2))), val)
    assert run_cli("evaluate", "--model", path, "--validation", val) == 2
    assert capsys.readouterr() == ("", f"error: {path}: control point index set is incomplete or has extras\n")


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


@pytest.mark.parametrize("command", ["evaluate", "plot"])
def test_malformed_response_surface_names_the_file(tmp_path, capsys, command):
    data = _fit_surface_dict()
    data["span"] = [0.0, 1.0, 1.0]
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    val = tmp_path / "v.csv"
    save_sample(SampleSet(np.random.default_rng(14).uniform(size=(10, 3))), val)
    if command == "evaluate":
        args = ["evaluate", "--model", path, "--validation", val]
    else:
        args = ["plot", path, val, "--out", tmp_path / "f.svg"]
    assert run_cli(*args) == 2
    assert capsys.readouterr() == ("", f"error: {path}: response surface: span must be positive\n")
    assert not (tmp_path / "f.svg").exists()


def _set_point(value, coordinate=None):
    def apply(data):
        entry = data["control_points"][1]
        if coordinate is None:
            entry["point"] = value
        else:
            entry["point"][coordinate] = value
    return apply


@pytest.mark.parametrize("command", ["evaluate", "plot"])
@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_set_point(float("nan"), 2), "must be finite", id="nan"),
        pytest.param(_set_point("x", 0), "is not a list of numbers", id="string-coordinate"),
        pytest.param(_set_point("x"), "is not a list of numbers", id="string-point"),
    ],
)
def test_bezier_file_with_bad_point_names_file_and_point(tmp_path, capsys, command, edit, message):
    data = initialize_control_net(np.eye(3), 2).to_dict()
    edit(data)
    index = data["control_points"][1]["index"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    val = tmp_path / "v.csv"
    save_sample(SampleSet(np.random.default_rng(14).uniform(size=(10, 3))), val)
    if command == "evaluate":
        args = ["evaluate", "--model", path, "--validation", val]
    else:
        args = ["plot", path, val, "--out", tmp_path / "f.svg"]
    assert run_cli(*args) == 2
    assert capsys.readouterr() == ("", f"error: {path}: Bezier simplex: control point {index} {message}\n")
    assert not (tmp_path / "f.svg").exists()


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


@pytest.mark.parametrize("problem, sizes", [("osyczka2", "1,3"), ("viennet2", "1,2,1")])
def test_experiment_methods_fitted_together_match_each_alone(tmp_path, problem, sizes):
    # a trial fits its Bezier methods together; each method's rows and
    # summary entry must be those of a run with that method alone
    common = ["experiment", "--problem", problem, "--sizes", sizes, "--trials", "3",
              "--seed", "1", "--validation", "100"]
    methods = ("inductive", "all-at-once")
    both = tmp_path / "both"
    assert run_cli(*common, "--method", methods[0], "--method", methods[1], "--out", both) == 0
    lines = (both / "results.csv").read_text().splitlines()
    summary = json.loads((both / "summary.json").read_text())
    for method in methods:
        assert run_cli(*common, "--method", method, "--out", tmp_path / method) == 0
        alone = (tmp_path / method / "results.csv").read_text().splitlines()
        assert alone == [lines[0]] + [line for line in lines[1:] if line.split(",")[1] == method]
        alone_summary = json.loads((tmp_path / method / "summary.json").read_text())
        assert alone_summary["methods"] == {method: summary["methods"][method]}


def test_experiment_where_every_trial_fails_exits_1(tmp_path, capsys):
    # a response surface needs two objectives; the one-objective front gives it one
    front = tmp_path / "one.csv"
    save_sample(SampleSet(np.array([[0.25], [0.5], [0.75]])), front)
    out = tmp_path / "exp"
    assert run_cli("experiment", "--problem", f"file:{front}", "--method", "response-surface",
                   "--sizes", "1", "--trials", "2", "--out", out) == 1
    assert capsys.readouterr().out == "response-surface: all 2 trials failed\n"
    rows = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
    assert [r["error"] for r in rows] == ["response surface needs at least two objectives"] * 2
    assert json.loads((out / "summary.json").read_text())["methods"]["response-surface"]["failures"] == 2


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


@pytest.mark.parametrize("failed", [2, 0])
def test_plot_metrics_without_successful_rows_names_the_file(tmp_path, capsys, failed):
    # every row failed, or a header only
    from bsf.harness import TrialRow, write_rows

    metrics = tmp_path / "results.csv"
    rows = [TrialRow("med3", "inductive", (1, 2, 1), t, None, None, None, "boom") for t in range(failed)]
    write_rows(rows, metrics)
    assert run_cli("plot", metrics, "--out", tmp_path / "box.svg") == 2
    assert capsys.readouterr().err == f"error: {metrics}: no successful rows to plot\n"
    assert not (tmp_path / "box.svg").exists()


def test_a_refused_plot_makes_no_directory(tmp_path, capsys):
    from bsf.harness import TrialRow, write_rows

    metrics = tmp_path / "results.csv"
    write_rows([TrialRow("med3", "inductive", (1, 2, 1), 0, None, None, None, "boom")], metrics)
    assert run_cli("plot", metrics, "--out", tmp_path / "new" / "sub" / "box.svg") == 2
    assert capsys.readouterr().err == f"error: {metrics}: no successful rows to plot\n"
    assert not (tmp_path / "new").exists()

def test_plot_two_metrics_csvs_is_a_usage_error(tmp_path, capsys):
    # the second file used to replace the first without a word
    from bsf.harness import TrialRow, write_rows

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path, gd_val in ((a, 0.1), (b, 0.3)):
        write_rows([TrialRow("med3", "inductive", (1, 2, 1), 0, gd_val, 0.2, 3)], path)
    assert run_cli("plot", a, b, "--out", tmp_path / "ab.svg") == 2
    assert capsys.readouterr().err == f"error: a metrics CSV is plotted on its own: got {a}, {b}\n"
    assert not (tmp_path / "ab.svg").exists()


@pytest.mark.parametrize("other", ["sample", "model"])
def test_plot_metrics_with_points_is_a_usage_error(tmp_path, capsys, other):
    # model and sample inputs used to be dropped once a metrics CSV was given
    from bsf.harness import TrialRow, write_rows

    metrics = tmp_path / "results.csv"
    write_rows([TrialRow("med3", "inductive", (1, 2, 1), 0, 0.1, 0.2, 3)], metrics)
    data, true = write_synthetic_training(tmp_path)
    if other == "model":
        points = tmp_path / "model.json"
        true.save(points)
    else:
        points = data / "validation.csv"
    for inputs in ((points, metrics), (metrics, points)):
        assert run_cli("plot", *inputs, "--out", tmp_path / "mixed.svg") == 2
        assert capsys.readouterr().err == (
            f"error: a metrics CSV is plotted on its own: got {metrics} with {points}\n"
        )
    assert not (tmp_path / "mixed.svg").exists()


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


def test_plot_non_utf8_file_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"f1,f2\n\xff\xfe\n")
    assert run_cli("plot", bad, "--out", tmp_path / "x.svg") == 2
    assert capsys.readouterr().err == f"error: {bad}: not a UTF-8 text file\n"


def test_evaluate_non_utf8_validation_names_it(tmp_path, capsys):
    data, _ = write_synthetic_training(tmp_path)
    model = tmp_path / "m.json"
    assert run_cli("fit", "--method", "inductive", "--data", data, "--out", model) == 0
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"f1,f2,f3\n1,2,3\n1,2,\xff\n")
    capsys.readouterr()
    assert run_cli("evaluate", "--model", model, "--validation", bad) == 2
    assert capsys.readouterr().err == f"error: {bad}: not a UTF-8 text file\n"


@pytest.mark.parametrize("field", ["faces", "validation", "M"])
def test_fit_names_the_manifest_and_its_missing_field(tmp_path, capsys, field):
    data, _ = write_synthetic_training(tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest[field]
    (data / "manifest.json").write_text(json.dumps(manifest))
    code = run_cli("fit", "--method", "inductive", "--data", data, "--out", tmp_path / "m.json")
    assert code == 2
    path = data / "manifest.json"
    assert capsys.readouterr().err == f"error: {path}: manifest has no field '{field}'\n"


def test_evaluate_model_that_is_not_json_names_it(tmp_path, capsys):
    data, _ = write_synthetic_training(tmp_path)
    model = tmp_path / "m.json"
    model.write_text("not json\n")
    assert run_cli("evaluate", "--model", model, "--validation", data / "validation.csv") == 2
    assert capsys.readouterr().err.startswith(f"error: {model}: not a JSON file (Expecting value")


def test_missing_file_error_names_it(tmp_path, capsys):
    data, _ = write_synthetic_training(tmp_path)
    model = tmp_path / "nowhere.json"
    assert run_cli("evaluate", "--model", model, "--validation", data / "validation.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory") and str(model) in err


@pytest.mark.parametrize(
    "m, message",
    [
        (2, "M is 2, but the samples have 3 objectives"),
        (4, "M is 4, but the samples have 3 objectives"),
        (True, "M must be an integer, not True"),
        (3.0, "M must be an integer, not 3.0"),
    ],
)
@pytest.mark.parametrize("method", ["inductive", "response-surface"])
def test_fit_rejects_a_manifest_m_the_samples_disagree_with(tmp_path, capsys, m, message, method):
    data, _ = write_synthetic_training(tmp_path)
    path = data / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "M": m}))
    out = tmp_path / "m.json"
    assert run_cli("fit", "--method", method, "--data", data, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("option", ["--newton-tol", "--outer-tol"])
def test_fit_rejects_a_nan_tolerance(tmp_path, capsys, option):
    data, _ = write_synthetic_training(tmp_path)
    out = tmp_path / "m.json"
    assert run_cli("fit", "--method", "inductive", "--data", data, "--out", out, option, "nan") == 2
    assert capsys.readouterr().err == "error: tolerances must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, field, value, shown",
    [
        ("bezier", "A", 2.5, "2.5"),
        ("bezier", "A", "2", "'2'"),
        ("bezier", "D", True, "True"),
        ("bezier", "D", 1.9, "1.9"),
        ("bezier", "M", 3.0, "3.0"),
        ("surface", "M", 3.7, "3.7"),
        ("surface", "M", "3", "'3'"),
    ],
)
def test_evaluate_rejects_a_model_header_that_is_not_an_integer(tmp_path, capsys, kind, field, value, shown):
    args, path = _bad_model(kind, **{field: value})(tmp_path)
    capsys.readouterr()
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == f"error: {path}: {field} must be an integer, not {shown}\n"


def _plot_of(path, tmp_path):
    return ["plot", path, "--out", tmp_path / "x.svg"]


def _evaluate_model(path, tmp_path):
    data, _ = write_synthetic_training(tmp_path)
    return ["evaluate", "--model", path, "--validation", data / "validation.csv"]


def _fit_out(path, tmp_path):
    data, _ = write_synthetic_training(tmp_path)
    return ["fit", "--method", "inductive", "--data", data, "--out", path]


# a missing model file already read so (test_missing_file_error_names_it);
# plot now says it the same way
@pytest.mark.parametrize(
    "command, kind, reason",
    [
        pytest.param(_plot_of, "directory", "[Errno 21] Is a directory", id="plot-directory"),
        pytest.param(_evaluate_model, "directory", "[Errno 21] Is a directory", id="evaluate-model-directory"),
        pytest.param(_plot_of, "missing", "[Errno 2] No such file or directory", id="plot-missing"),
        pytest.param(_fit_out, "directory", "[Errno 21] Is a directory", id="fit-out-directory"),
    ],
)
def test_unopenable_path_is_one_line_usage_error(tmp_path, capsys, command, kind, reason):
    path = tmp_path / "path"
    if kind == "directory":
        path.mkdir()
    args = command(path, tmp_path)
    capsys.readouterr()
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == f"error: {reason}: '{path}'\n"


def _bad_manifest(edit):
    def make(tmp_path):
        data, _ = write_synthetic_training(tmp_path)
        path = data / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return ["fit", "--method", "inductive", "--data", data, "--out", tmp_path / "m.json"], path
    return make


def _bad_model(kind, **fields):
    def make(tmp_path):
        data = initialize_control_net(np.eye(3), 2).to_dict() if kind == "bezier" else _fit_surface_dict()
        data.update(fields)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        val = tmp_path / "v.csv"
        save_sample(SampleSet(np.random.default_rng(14).uniform(size=(10, 3))), val)
        return ["evaluate", "--model", path, "--validation", val], path
    return make


def _evaluate_out_csv(tmp_path):
    data, _ = write_synthetic_training(tmp_path)
    model = tmp_path / "model.json"
    initialize_control_net(np.eye(3), 2).save(model)
    path = tmp_path / "scores.csv"
    args = ("--model", model, "--validation", data / "validation.csv", "--resolution", "4", "--out", path)
    assert run_cli("evaluate", *args) == 0
    return ["plot", path, "--out", tmp_path / "x.svg"], path


def _bad_results_csv(edit):
    def make(tmp_path):
        from bsf.harness import TrialRow, write_rows

        path = tmp_path / "results.csv"
        write_rows([TrialRow("med3", "inductive", (1, 2, 1), 0, 0.1, 0.2, 3)], path)
        header, row = path.read_text().splitlines()
        path.write_text(f"{header}\n{edit(row)}\n")
        return ["plot", path, "--out", tmp_path / "x.svg"], path
    return make


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(_bad_manifest(lambda m: []), id="manifest-a-list"),
        pytest.param(_bad_manifest(lambda m: {**m, "faces": [[1]] + m["faces"][1:]}), id="face-entry-a-list"),
        pytest.param(_bad_manifest(lambda m: {**m, "M": "3"}), id="manifest-string-M"),
        pytest.param(_bad_model("bezier", M=[3]), id="bezier-list-M"),
        pytest.param(_bad_model("bezier", control_points=5), id="bezier-int-control-points"),
        pytest.param(_bad_model("surface", M=None), id="surface-null-M"),
        pytest.param(_evaluate_out_csv, id="plot-evaluate-out-csv"),
        pytest.param(_bad_results_csv(lambda row: row.replace("1-2-1", "1-x")), id="results-bad-sizes"),
        pytest.param(_bad_results_csv(lambda row: "med3,inductive"), id="results-short-row"),
    ],
)
def test_malformed_input_is_one_line_usage_error_naming_the_file(tmp_path, capsys, make):
    args, path = make(tmp_path)
    capsys.readouterr()
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and err.endswith("\n")


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


def test_experiment_jobs_above_one_only_warns(tmp_path, caplog):
    # the flag still parses for old command lines, but trials always run in
    # the calling thread: the outputs are those of --jobs 1
    common = ["experiment", "--problem", "med3", "--method", "inductive", "--method", "all-at-once",
              "--trials", "3", "--seed", "4", "--validation", "80"]
    assert run_cli(*common, "--jobs", "1", "--out", tmp_path / "one") == 0
    assert not [r for r in caplog.records if r.name == "bsf.cli"]
    caplog.clear()
    assert run_cli(*common, "--jobs", "2", "--out", tmp_path / "two") == 0
    assert [(r.levelname, r.getMessage()) for r in caplog.records if r.name == "bsf.cli"] == [
        ("WARNING", "--jobs 2 has no effect: trials run one after another")
    ]
    assert read_all(tmp_path / "two") == read_all(tmp_path / "one")
    assert set(read_all(tmp_path / "one")) == {"results.csv", "summary.json"}


def test_experiment_help_omits_jobs(capsys):
    assert run_cli("experiment", "--help") == 0
    assert "--jobs" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["generate", "experiment"])
@pytest.mark.parametrize(
    "sizes, message",
    [
        ("1,-2,1", "sizes must be nonnegative: N2 is -2"),
        ("0,2,1", "sizes must start with at least one vertex point: N1 is 0"),
    ],
)
def test_bad_sizes_are_usage_errors(tmp_path, capsys, command, sizes, message):
    extra = ["--method", "inductive", "--trials", "1"] if command == "experiment" else []
    code = run_cli(command, "--problem", "med3", "--sizes", sizes, *extra, "--out", tmp_path / "x")
    assert code == 2
    assert f"argument --sizes: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["generate", "experiment"])
@pytest.mark.parametrize("problem, sizes", [("med3", "1,2,1,5"), ("osyczka2", "1,3,1"), ("file", "1,3,1")])
def test_more_sizes_than_objectives_are_usage_errors(tmp_path, capsys, monkeypatch, command, problem, sizes):
    import bsf.harness as harness
    import bsf.problems as problems

    def no_run(*args, **kwargs):
        raise AssertionError("a trial or a pool was started")

    monkeypatch.setattr(harness, "run_trial", no_run)
    monkeypatch.setattr(problems, "feasible_pool", no_run)
    if problem == "file":
        front = tmp_path / "front.csv"
        save_sample(SampleSet(np.random.default_rng(9).uniform(size=(20, 2))), front)
        problem, name = f"file:{front}", "front"
    else:
        name = problem
    m = 3 if name == "med3" else 2
    extra = ["--method", "inductive", "--trials", "2"] if command == "experiment" else []
    code = run_cli(command, "--problem", problem, "--sizes", sizes, *extra, "--out", tmp_path / "x")
    assert code == 2
    n = len(sizes.split(","))
    assert capsys.readouterr() == ("", f"error: sizes has {n} entries, but {name} has {m} objectives\n")
    assert not (tmp_path / "x").exists()


def test_experiment_repeated_method_is_usage_error(tmp_path, capsys):
    code = run_cli(
        "experiment", "--problem", "med3", "--method", "inductive", "--method", "all-at-once",
        "--method", "inductive", "--trials", "1", "--out", tmp_path / "x",
    )
    assert code == 2
    assert capsys.readouterr().err == "error: method 'inductive' is given more than once\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["fit", "experiment"])
def test_degree_above_exact_limit_is_usage_error(tmp_path, capsys, command):
    if command == "fit":
        data, _ = write_synthetic_training(tmp_path)
        args = ["fit", "--method", "inductive", "--data", data]
    else:
        args = ["experiment", "--problem", "med3", "--method", "inductive", "--trials", "1"]
    out = tmp_path / "out" / "x"
    assert run_cli(*args, "--degree", "21", "--out", out) == 2
    assert capsys.readouterr().err == "error: degree 21 exceeds exact-arithmetic limit 20\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_medm_without_integer_m_is_usage_error(tmp_path, capsys, command):
    extra = ["--method", "inductive", "--trials", "1"] if command == "experiment" else []
    code = run_cli(command, "--problem", "medM:x", "--sizes", "1,2", *extra, "--out", tmp_path / "x")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: problem 'medM:x': medM:<M> needs an integer M; valid names: ")
    assert "med5" in err and "file:<path>" in err
    assert not (tmp_path / "x").exists()


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


def _check_inputs(directory):
    """A med3 Bezier model, a three-objective response surface, a
    three-objective validation sample, a one-objective sample and a JSON
    object that is neither model."""
    initialize_control_net(np.eye(3), 2).save(directory / "bezier.json")
    (directory / "surface.json").write_text(json.dumps(_fit_surface_dict()))
    save_sample(SampleSet(np.random.default_rng(16).uniform(size=(10, 3))), directory / "v.csv")
    save_sample(SampleSet(np.linspace(0.1, 0.9, 5)[:, None]), directory / "one.csv")
    (directory / "neither.json").write_text(json.dumps({"type": "other"}))


MED3_INDUCTIVE = ("experiment", "--problem", "med3", "--method", "inductive", "--out", "out")


@pytest.mark.parametrize(
    "args, last",
    [
        pytest.param((*MED3_INDUCTIVE, "--sizes", "1,x"),
                     "bsf experiment: error: argument --sizes: sizes must be integers like 1,2,1 (got '1,x')",
                     id="sizes-not-integers"),
        pytest.param((*MED3_INDUCTIVE, "--trials", "0"), "error: trials must be at least 1", id="trials-0"),
        pytest.param((*MED3_INDUCTIVE, "--method", "bogus"),
                     "error: unknown methods ['bogus']; valid: inductive, all-at-once, response-surface",
                     id="unknown-method"),
        pytest.param((*MED3_INDUCTIVE, "--sizes", "1", "--sweep-n3", "1:2"),
                     "error: a sweep over N3 needs sizes (N1, N2, ...)", id="sweep-without-n2"),
        pytest.param(("experiment", "--problem", "medM:1", "--method", "inductive", "--sizes", "1",
                      "--out", "out"),
                     "error: the MED family needs at least two objectives", id="med-one-objective"),
        pytest.param(("evaluate", "--model", "neither.json", "--validation", "v.csv"),
                     "error: neither.json: not a recognized model file", id="neither-model"),
        pytest.param(("evaluate", "--model", "bezier.json", "--validation", "v.csv", "--resolution", "0"),
                     "error: resolution must be at least 1", id="bezier-resolution-0"),
        pytest.param(("evaluate", "--model", "surface.json", "--validation", "v.csv", "--resolution", "0"),
                     "error: resolution must be at least 1", id="surface-resolution-0"),
        pytest.param(("plot", "one.csv", "--out", "p.svg"),
                     "error: need at least two coordinates to scatter", id="plot-one-objective"),
        pytest.param(("plot", "bezier.json", "one.csv", "--out", "p.svg"),
                     "error: all point sets must share a dimension", id="plot-mixed-dimensions"),
    ],
)
def test_input_checks_exit_2_with_their_message(tmp_path, capsys, monkeypatch, args, last):
    _check_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*args) == 2
    assert capsys.readouterr().err.splitlines()[-1] == last


def test_evaluate_a_grid_numpy_cannot_allocate_is_one_line(tmp_path, capsys, caplog):
    # compositions(3, 10**8) asks for its whole 53.3 PiB table first, which numpy refuses at once
    _check_inputs(tmp_path)
    args = ("--model", tmp_path / "bezier.json", "--validation", tmp_path / "v.csv", "--resolution", 10**8)
    assert run_cli("evaluate", *args) == 1
    assert capsys.readouterr() == ("", "error: Unable to allocate 53.3 PiB for an array with shape "
                                       "(5000000150000001, 3) and data type uint32\n")
    assert not caplog.records  # no "unhandled failure" and no traceback


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


def test_experiment_sweep_from_n3_zero_fits_without_triangles(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("experiment", "--problem", "med5", "--method", "inductive", "--sizes", "1,2,1",
                   "--sweep-n3", "0:1", "--trials", "2", "--out", out) == 0
    with (out / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["sizes"], r["error"]) for r in rows] == [("1-2-0", "")] * 2 + [("1-2-1", "")] * 2


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
