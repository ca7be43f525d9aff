import json
import re
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from bsf.bezier import _row_blocks
from bsf.errors import DimensionError, ParseError
from bsf.harness import score, surface_rows
from bsf.pareto import SampleSet
from bsf.problems import get_problem, make_training_set
from bsf.response_surface import (
    ResponseSurface,
    cubic_basis_exponents,
    fit_response_surface,
)


def test_basis_single_variable():
    assert cubic_basis_exponents(1) == ((0,), (1,), (2,), (3,))


def test_basis_counts_three_variables():
    # 1 constant + 3 linear + 6 quadratic + 3 pure cubes, no mixed cubics
    exps = cubic_basis_exponents(3)
    assert len(exps) == 13
    assert all(sum(e) <= 2 or sorted(e) == [0, 0, 3] for e in exps)


def test_basis_count_formula():
    for k in range(1, 6):
        expected = 1 + k + (k * (k + 1)) // 2 + k
        assert len(cubic_basis_exponents(k)) == expected


def test_basis_needs_a_variable():
    with pytest.raises(DimensionError, match="^need at least one explanatory variable$"):
        cubic_basis_exponents(0)


def test_fit_recovers_quadratic_surface():
    rng = np.random.default_rng(0)
    U = rng.uniform(size=(40, 2))
    y = 0.3 + 0.5 * U[:, 0] - 0.2 * U[:, 1] + 0.8 * U[:, 0] * U[:, 1] - 0.4 * U[:, 1] ** 2
    S = SampleSet(np.column_stack([U, y]))
    surface = fit_response_surface(S)
    pred = surface.predict_normalized((U - surface.lo[:2]) / surface.span[:2])
    denorm = surface.lo[2] + surface.span[2] * pred
    assert np.max(np.abs(denorm - y)) <= 1e-8


def test_predict_rejects_the_wrong_input_count():
    surface = fit_response_surface(SampleSet(np.random.default_rng(2).uniform(size=(30, 3))))
    with pytest.raises(DimensionError, match="^expected 2 inputs, got 3$"):
        surface.predict_normalized(np.zeros((4, 3)))


def test_fit_rejects_single_objective():
    with pytest.raises(DimensionError):
        fit_response_surface(SampleSet(np.ones((3, 1))))


def test_m2_has_four_coefficients():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=12)
    S = SampleSet(np.column_stack([x, 1 - x]))
    surface = fit_response_surface(S)
    assert len(surface.coefficients) == 4


@pytest.mark.parametrize("m,r,count", [(2, 20, 21), (3, 20, 441)])
def test_sample_grid_counts(m, r, count):
    rng = np.random.default_rng(2)
    S = SampleSet(rng.uniform(size=(30, m)))
    surface = fit_response_surface(S)
    assert surface.sample_grid(r).n == count


@pytest.mark.parametrize(
    "m, r",
    [pytest.param(m, 6, id=str(m)) for m in (2, 3, 4, 5)]  # (5, 6): 2,401 rows end on a 9-row block
    + [(2, 20), (4, 8), (6, 3)],  # (4, 8): a 25-row last block
)
def test_sample_grid_is_the_product_order_box(m, r):
    rng = np.random.default_rng(7)
    surface = fit_response_surface(SampleSet(rng.uniform(size=(40, m))))
    axis = np.arange(r + 1) / r
    U = np.array(list(product(axis, repeat=m - 1)))
    expected = surface.lo + surface.span * np.column_stack([U, surface.predict_normalized(U)])
    assert np.array_equal(surface.sample_grid(r).objectives, expected)



@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_grid_is_rejected_as_non_finite():
    rng = np.random.default_rng(8)
    surface = fit_response_surface(SampleSet(rng.uniform(size=(40, 5))))
    huge = replace(surface, coefficients=np.full(len(surface.exponents), 1e308))
    with pytest.raises(DimensionError, match="objectives must be finite"):
        surface_rows(huge, 20).collect()


def test_sample_grid_holds_no_full_grid_intermediate():
    rng = np.random.default_rng(9)
    surface = fit_response_surface(SampleSet(rng.uniform(size=(60, 5))))
    tracemalloc.start()
    try:
        grid = surface.sample_grid(20).objectives
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.shape == (194_481, 5)
    # the result and SampleSet's copy of it, plus a few thousand rows at a time
    assert peak < 3 * grid.nbytes


def test_scoring_a_surface_grid_holds_less_than_one_grid(monkeypatch):
    import bsf.metrics as metrics

    # two kernel threads, each with its own chunk and block buffers
    monkeypatch.setattr(metrics, "_cpu_count", lambda: 2)
    training, validation = make_training_set(get_problem("med5"), (1, 2, 1), seed=3)
    surface = fit_response_surface(SampleSet.concat(training.values()))
    grid_bytes = 194_481 * 5 * 8
    tracemalloc.start()
    try:
        score(surface_rows(surface, 20), validation.objectives, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid_bytes


@pytest.mark.parametrize("m, r", [(5, 20), (3, 250)])
def test_sample_grid_products_run_on_the_blocked_matmul_rows(monkeypatch, m, r):
    # one threaded product over many blocks can round each row as the blocks
    # do (OpenBLAS's two threads split at a multiple of 8 rows), so the bit
    # tests cannot see it; the row spans of the products can
    rng = np.random.default_rng(10)
    surface = fit_response_surface(SampleSet(rng.uniform(size=(60, m))))
    rows = []
    real = np.matmul

    def spy(a, *args, **kwargs):
        rows.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    n = surface.sample_grid(r).n
    assert n == (r + 1) ** (m - 1)
    assert np.cumsum([0] + rows).tolist() == _row_blocks(n, len(surface.exponents), None)


def test_constant_surface_sampling():
    rng = np.random.default_rng(3)
    U = rng.uniform(size=(25, 2))
    S = SampleSet(np.column_stack([U, np.full(25, 7.0)]))
    surface = fit_response_surface(S)
    out = surface.sample_grid(5)
    np.testing.assert_allclose(out.objectives[:, 2], 7.0, atol=1e-8)


def test_residual_not_worse_than_intercept_only():
    rng = np.random.default_rng(4)
    F = rng.normal(size=(50, 3)) * [3.0, 5.0, 2.0] + [1.0, -2.0, 0.5]
    S = SampleSet(F)
    surface = fit_response_surface(S)
    normalized = (F - surface.lo) / surface.span
    U, y = normalized[:, :2], normalized[:, 2]
    pred = surface.predict_normalized(U)
    intercept_res = float(np.sum((y - y.mean()) ** 2))
    assert float(np.sum((y - pred) ** 2)) <= intercept_res + 1e-12


def test_underdetermined_fit_is_minimum_norm():
    # 3 samples, 13 basis functions: lstsq must pick the minimum-norm solution
    rng = np.random.default_rng(5)
    S = SampleSet(rng.uniform(size=(3, 4)))
    surface = fit_response_surface(S)
    assert np.all(np.isfinite(surface.coefficients))
    normalized = (S.objectives - surface.lo) / surface.span
    pred = surface.predict_normalized(normalized[:, :3])
    np.testing.assert_allclose(pred, normalized[:, 3], atol=1e-9)


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    S = SampleSet(rng.uniform(size=(20, 3)))
    surface = fit_response_surface(S)
    path = tmp_path / "surface.json"
    surface.save(path)
    back = ResponseSurface.load(path)
    np.testing.assert_array_equal(back.coefficients, surface.coefficients)
    assert back.exponents == surface.exponents
    np.testing.assert_array_equal(back.lo, surface.lo)


@pytest.mark.parametrize(
    "edit, reason",
    [
        pytest.param(None, "not a JSON file (Expecting value: line 1 column 1 (char 0))", id="not-json"),
        pytest.param(lambda d: d.update(M=[3]), "M must be an integer, not [3]", id="list-M"),
        pytest.param(lambda d: d.pop("exponents"), "model file has no field 'exponents'", id="missing-exponents"),
    ],
)
def test_load_names_the_file_it_cannot_read(tmp_path, edit, reason):
    path = tmp_path / "surface.json"
    if edit is None:
        path.write_text("not json\n")
    else:
        data = fit_response_surface(SampleSet(np.random.default_rng(7).uniform(size=(20, 3)))).to_dict()
        edit(data)
        path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {reason}')}$"):
        ResponseSurface.load(path)


def test_from_dict_counts_the_terms_before_building_the_basis(monkeypatch):
    from bsf import response_surface

    def never(n_inputs):
        raise AssertionError("built the basis")

    monkeypatch.setattr(response_surface, "cubic_basis_exponents", never)
    data = {"type": "response-surface", "M": 200, "exponents": [], "coefficients": [], "lo": [], "span": []}
    with pytest.raises(ParseError, match="^response surface: exponents are not the reduced-cubic basis of 199 inputs$"):
        ResponseSurface.from_dict(data)


def test_degenerate_range_does_not_divide_by_zero():
    S = SampleSet([[1.0, 5.0, 2.0], [2.0, 5.0, 3.0], [3.0, 5.0, 1.0]])
    surface = fit_response_surface(S)
    assert np.all(surface.span > 0)
    out = surface.sample_grid(4)
    assert np.all(np.isfinite(out.objectives))
