"""Row-blocked products: small enough for one BLAS thread, with the same bits.

`bezier._blocked_matmul` splits a large product into row blocks below
OpenBLAS's threading thresholds. The reference is the unblocked product in a
child process whose BLAS runs one thread. The in-process product is no fixed
reference: OpenBLAS splits a threaded GEMV between its threads at a row that
need not start one of its row groups, which changes the last bits of a row
or two (2 of 194,481 rows in one measured 194,481 x 19 product).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsf.bezier import (
    _GEMM_LIMIT,
    _GEMV_LIMIT,
    _ROW_UNIT,
    BezierSimplex,
    _blocked_matmul,
    _row_blocks,
    as_barycentric_rows,
    barycentric_grid,
    monomials,
    multi_indices,
    weighted_design_matrix,
)
from bsf.metrics import grid_rows, grid_sample
from bsf.pareto import SampleSet
from bsf.response_surface import fit_response_surface

_CHILD = """
import sys
import numpy as np
d, n = sys.argv[1], int(sys.argv[2])
for i in range(n):
    np.save(f"{d}/r{i}.npy", np.load(f"{d}/a{i}.npy") @ np.load(f"{d}/b{i}.npy"))
"""


def one_thread_products(tmp_path, pairs):
    """A @ B for every (A, B), each one unblocked product of a one-thread BLAS."""
    for i, (A, B) in enumerate(pairs):
        np.save(tmp_path / f"a{i}.npy", A)
        np.save(tmp_path / f"b{i}.npy", B)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path), str(len(pairs))],
        env=env, check=True, timeout=300,
    )
    return [np.load(tmp_path / f"r{i}.npy") for i in range(len(pairs))]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def step_of(inner, cols):
    """Rows in each full block of the plan."""
    per_row = inner if cols is None else inner * cols
    limit = (_GEMV_LIMIT if cols is None else _GEMM_LIMIT) // per_row
    return limit - limit % _ROW_UNIT


def near_multiples(step, largest):
    """k * step - 1, k * step and k * step + 1 for k = 1, 2, 3, and `largest`."""
    return [k * step + d for k in (1, 2, 3) for d in (-1, 0, 1)] + [largest]


# -- the block plan ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 300_000),
    st.integers(1, 120),
    st.one_of(st.none(), st.integers(1, 40)),
)
def test_row_blocks_stay_below_the_thresholds(n, inner, cols):
    bounds = _row_blocks(n, inner, cols)
    sizes = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == n and np.all(sizes > 0)
    per_row = inner if cols is None else inner * cols
    limit = _GEMV_LIMIT if cols is None else _GEMM_LIMIT
    if n * per_row <= limit:
        assert bounds == [0, n]  # small products go straight through
    if len(sizes) > 1:
        assert np.all(sizes * per_row <= limit)
        assert np.all(sizes >= 2)
        assert np.all(sizes[:-1] % _ROW_UNIT == 0)
    else:
        # one block: it fits, or 2 units of its rows do not
        assert n * per_row <= limit or 2 * _ROW_UNIT * per_row > limit


def test_row_blocks_limits_are_openblas_thresholds():
    # GEMM threads above 2^18 multiply-adds, GEMV from 2304 * 4 entries on
    assert _GEMM_LIMIT == 1 << 18
    assert _GEMV_LIMIT < 2304 * 4
    assert _row_blocks(10_626, 35, 5) == [0, 1496, 2992, 4488, 5984, 7480, 8976, 10_472, 10_626]
    # a lone last row is folded into a block of 1 + _ROW_UNIT rows
    assert _row_blocks(2 * 1496 + 1, 35, 5) == [0, 1496, 2992 - _ROW_UNIT, 2993]
    assert _row_blocks(1497, 35, 5) == [0, 1497]


# -- bits of the three blocked products -------------------------------------------


def test_evaluate_batch_keeps_the_bits_of_one_product(tmp_path):
    rng = np.random.default_rng(20)
    model = BezierSimplex(5, 3, rng.normal(size=(35, 5)))
    Ts = [rng.dirichlet(np.ones(5), size=n) for n in near_multiples(step_of(35, 5), 194_481)]
    # evaluate_batch repairs its rows once, as here
    expected = one_thread_products(
        tmp_path, [(weighted_design_matrix(5, 3, as_barycentric_rows(T)), model.points) for T in Ts]
    )
    for T, want in zip(Ts, expected):
        assert same_bits(model.evaluate_batch(T), want), T.shape


def test_grid_sample_keeps_the_bits_of_one_product(tmp_path):
    rng = np.random.default_rng(21)
    cases = [(5, 3, 20, 5), (5, 4, 20, 5), (3, 3, 250, 3)]  # (m, degree, resolution, ambient)
    models = [BezierSimplex(m, d, rng.normal(size=(len(multi_indices(m, d)), a))) for m, d, _, a in cases]
    grids = [as_barycentric_rows(barycentric_grid(m, r)) for m, _, r, _ in cases]
    assert grids[0].shape[0] == 10_626
    expected = one_thread_products(
        tmp_path,
        [(weighted_design_matrix(mod.m, mod.degree, g), mod.points) for mod, g in zip(models, grids)],
    )
    for model, (_, _, r, _), want in zip(models, cases, expected):
        assert same_bits(grid_sample(model, r).objectives, want), (model.m, r)


@pytest.mark.parametrize("m, degree, r, ambient", [(5, 3, 20, 5), (5, 3, 17, 5), (5, 3, 20, 10), (3, 2, 20, 3)])
def test_grid_rows_products_run_on_the_blocked_matmul_rows(monkeypatch, m, degree, r, ambient):
    # as for the response surface's grid: the bit tests cannot see a threaded
    # product that rounds each row as the blocks do, the row spans can
    rng = np.random.default_rng(23)
    model = BezierSimplex(m, degree, rng.normal(size=(len(multi_indices(m, degree)), ambient)))
    rows = []
    real = np.matmul

    def spy(a, *args, **kwargs):
        # each item of a stacked call is one BLAS call of its own
        rows.extend([a.shape[-2]] * math.prod(a.shape[:-2]))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    n = len(grid_rows(model, r).collect())
    assert np.cumsum([0] + rows).tolist() == _row_blocks(n, len(model.indices), ambient)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "n, inner, cols, calls",
    # the GD/IGD kernel's 448-row block and a chunk's last block, a block
    # list whose second-last block is shortened, grid-sized products, and a
    # matrix-vector product (cols None)
    [
        (448, 7, 1000, 1), (300, 7, 1000, 2), (65, 7, 1000, 3), (4097, 35, 10, 2),
        (20_000, 20, 5, 2), (50_000, 21, None, 2),
    ],
)
def test_blocked_matmul_stacks_equal_blocks_with_their_bits(monkeypatch, dtype, n, inner, cols, calls):
    rng = np.random.default_rng(24)
    tail = () if cols is None else (cols,)
    A, B = rng.normal(size=(n, inner)).astype(dtype), rng.normal(size=(inner,) + tail).astype(dtype)
    bounds = _row_blocks(n, inner, cols)
    want = np.empty((n,) + tail, dtype=dtype)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.matmul(A[lo:hi], B, out=want[lo:hi])
    shapes = []
    real = np.matmul

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    got = _blocked_matmul(A, B)
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    assert len(shapes) == calls and sum(np.prod(shape[:-1]) for shape in shapes) == n


def test_predict_normalized_keeps_the_bits_of_one_product(tmp_path):
    rng = np.random.default_rng(22)
    surface = fit_response_surface(SampleSet(rng.uniform(size=(60, 5))))
    K = len(surface.exponents)
    Us = [rng.uniform(size=(n, 4)) for n in near_multiples(step_of(K, None), 10_626)]
    expected = one_thread_products(
        tmp_path, [(monomials(U, surface.exponents), surface.coefficients) for U in Us]
    )
    for U, want in zip(Us, expected):
        assert same_bits(surface.predict_normalized(U), want), U.shape
    # the 194,481-point box grid, built as sample_grid builds it
    axis = np.arange(21) / 20
    U = np.ascontiguousarray(axis[np.indices((21,) * 4).reshape(4, -1).T])
    (want,) = one_thread_products(tmp_path, [(monomials(U, surface.exponents), surface.coefficients)])
    assert same_bits(surface.predict_normalized(U), want)
    grid = surface.sample_grid(20).objectives
    assert grid.shape[0] == 194_481
    assert same_bits(grid[:, 4], surface.lo[4] + surface.span[4] * want)
