import math
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bsf import metrics
from bsf.bezier import BezierSimplex, barycentric_grid, compositions, multi_indices
from bsf.errors import DimensionError
from bsf.fitting import FitConfig, initialize_control_net
from bsf.harness import fit_method, score, surface_rows, vertex_optima_from
from bsf.metrics import RowSource, gd, gd_igd, grid_rows, grid_sample, igd
from bsf.pareto import SampleSet, normalizer_from
from bsf.problems import get_problem, make_training_set
from bsf.response_surface import fit_response_surface


def pair_distance(a, b):
    return float(np.sqrt(np.sum((np.asarray(a, float) - np.asarray(b, float)) ** 2)))


def gd_oracle(X, Y):
    """O(|X||Y|) double loop."""
    mins = [min(pair_distance(x, y) for y in Y) for x in X]
    return sum(mins) / len(mins)


# -- grid sampling -----------------------------------------------------------


@pytest.mark.parametrize("m,r,count", [(2, 20, 21), (3, 20, 231), (5, 20, 10626)])
def test_grid_sample_counts(m, r, count):
    model = initialize_control_net(np.eye(m), 1)
    assert grid_sample(model, r).n == count


def test_grid_sample_degree_one_covers_simplex():
    model = initialize_control_net(np.eye(2) * 2.0, 3)
    S = grid_sample(model, 4)
    np.testing.assert_allclose(S.objectives.sum(axis=1), 2.0, atol=1e-12)


# grids of the power-table sweep below hold at most this many rows, which
# keeps m = 8 to r <= 9; the medM:6 and medM:8 grids at r = 20 are compared
# by tools/same.py and tools/medm8_trial.py
SWEEP_ROWS = 12_000


def test_grid_rows_from_power_tables_keep_the_bits(monkeypatch):
    # the table path against the materialised grid, every row repaired by
    # as_barycentric_rows; rows whose k/r do not sum to exactly 1.0 take
    # the repair in grid_rows too, and the sweep must meet some
    renormalised = {}
    real = metrics.as_barycentric_rows

    def counting(T, m=None):
        renormalised[case] = renormalised.get(case, 0) + T.shape[0]
        return real(T, m)

    monkeypatch.setattr(metrics, "as_barycentric_rows", counting)
    rng = np.random.default_rng(31)
    cases = [(m, d, r) for m in range(2, 9) for d in range(5) for r in range(1, 26)]
    cases += [(2, d, 300) for d in range(5)]  # past uint8
    for case in cases:
        m, degree, r = case
        if math.comb(r + m - 1, m - 1) > SWEEP_ROWS:
            continue
        table = compositions(m, r)
        assert table.tolist() == [list(d) for d in multi_indices(m, r)], case
        assert np.iinfo(table.dtype).max >= r
        model = BezierSimplex(m, degree, rng.normal(size=(len(multi_indices(m, degree)), 3)))
        want = model.evaluate_batch(barycentric_grid(m, r))
        assert grid_rows(model, r).collect().tobytes() == want.tobytes(), case
    assert renormalised[(5, 3, 20)] == 805  # of med5's 10,626 scoring rows
    assert compositions(2, 300).dtype == np.uint16


# -- gd / igd -------------------------------------------------------------------


def test_gd_three_four_five():
    assert gd(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0


def test_gd_identical_sets_zero():
    X = np.random.default_rng(0).normal(size=(30, 3))
    assert gd(X, X) == 0.0


def test_means_are_plain_left_to_right_sums():
    # a compensated sum (Python 3.12's sum()) would give 1.00000000000001 / 1001
    X = np.vstack([[[1.0]], np.full((1000, 1), 1e-17)])
    Y = np.array([[0.0]])
    assert gd(X, Y) == 1.0 / 1001
    assert gd_igd(X, Y)[0] == 1.0 / 1001
    assert gd_igd(Y, X)[1] == 1.0 / 1001


def test_igd_swaps_roles():
    rng = np.random.default_rng(1)
    X, Y = rng.normal(size=(12, 2)), rng.normal(size=(7, 2))
    assert igd(X, Y) == gd(Y, X)


@pytest.mark.parametrize("cpus", [1, 2])
def test_igd_takes_a_row_source(cpus):
    # igd's column minima have the bits of the swapped call's row minima
    rng = np.random.default_rng(36)
    X, Y = rng.normal(size=(700, 3)), rng.normal(size=(300, 3))
    with forced_threads(cpus, block_rows=64):
        got = igd(RowSource.of(X), Y)
        assert got == gd_igd(X, Y)[1]
        assert got == gd(Y, X)


def test_igd_zero_when_subset():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 3))
    assert igd(X, X[:4]) == 0.0


def test_gd_empty_raises():
    with pytest.raises(DimensionError):
        gd(np.empty((0, 2)), np.array([[1.0, 2.0]]))


def test_gd_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        gd(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0, 3.0]]))


def test_gd_matches_brute_force_exactly():
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(100, 3)), rng.normal(size=(100, 3))
    assert gd(X, Y) == gd_oracle(X, Y)
    assert igd(X, Y) == gd_oracle(Y, X)


def test_gd_igd_pair_matches_separate_calls():
    # both halves of one pass against the brute-force oracle each way, over
    # several 64-row blocks, so that the column minima span blocks (and threads)
    rng = np.random.default_rng(4)
    X, Y = rng.normal(size=(300, 4)), rng.normal(size=(90, 4))
    for cpus in (1, 2):
        with forced_threads(cpus, block_rows=64):
            assert gd_igd(X, Y) == (gd_oracle(X, Y), gd_oracle(Y, X))


def test_gd_accepts_sample_sets():
    X = SampleSet([[0.0, 0.0]])
    Y = SampleSet([[3.0, 4.0]])
    assert gd(X, Y) == 5.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_gd_matches_brute_force_random(seed, m):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(int(rng.integers(1, 40)), m))
    Y = rng.normal(size=(int(rng.integers(1, 40)), m))
    assert gd(X, Y) == gd_oracle(X, Y)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(15, 3))
    shift = rng.normal(size=3)
    assert abs(gd(X + shift, Y + shift) - gd(X, Y)) <= 1e-12
    assert abs(igd(X + shift, Y + shift) - igd(X, Y)) <= 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 3))
    Y = rng.normal(size=(18, 3))
    perm_x = rng.permutation(25)
    perm_y = rng.permutation(18)
    assert gd(X[perm_x], Y[perm_y]) == pytest.approx(gd(X, Y), abs=1e-14)


def test_gd_zero_iff_every_point_coincides():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    Y = np.array([[3.0, 4.0], [1.0, 2.0], [9.0, 9.0]])
    assert gd(X, Y) == 0.0
    assert gd(np.array([[1.0, 2.0], [1.5, 2.0]]), Y) > 0.0


def test_blocked_computation_matches_small_blocks(monkeypatch):
    import bsf.metrics as metrics

    rng = np.random.default_rng(6)
    X, Y = rng.normal(size=(700, 3)), rng.normal(size=(40, 3))
    full = gd_igd(X, Y)
    monkeypatch.setattr(metrics, "_BLOCK_ROWS", 17)
    assert gd_igd(X, Y) == full


# -- two-pass kernel against the one-pass reference ---------------------------------


def reference_min_dists(X, Y, want_cols, block_rows=256):
    """The one-pass kernel: a (block, n_Y, A) difference tensor per block of rows."""
    row_mins = np.empty(X.shape[0])
    col_mins = np.full(Y.shape[0], np.inf) if want_cols else None
    for start in range(0, X.shape[0], block_rows):
        block = X[start : start + block_rows]
        d = np.sqrt(np.sum((block[:, None, :] - Y[None, :, :]) ** 2, axis=-1))
        row_mins[start : start + block.shape[0]] = d.min(axis=1)
        if want_cols:
            np.minimum(col_mins, d.min(axis=0), out=col_mins)
    return row_mins, col_mins


def assert_kernel_matches_reference(X, Y):
    import bsf.metrics as metrics

    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        got = metrics._min_dists(X, Y)
        expected = reference_min_dists(X, Y, True)
        # bit patterns, so NaN positions and signed zeros count too
        assert np.array_equal(got[0].view(np.uint64), expected[0].view(np.uint64))
        assert np.array_equal(got[1].view(np.uint64), expected[1].view(np.uint64))


def near_tie_sets(rng, n, ambient, scale=1.0):
    """Each row of X has two nearest points of Y at squared distances a few
    ulps apart: the pairs a rounded pass-1 distance may order wrongly."""
    X = rng.normal(size=(n, ambient)) * scale
    v = rng.normal(size=(n, ambient)) * (scale * 1e-3)
    w = np.nextafter(-v, rng.choice([-np.inf, np.inf], size=v.shape))
    return X, np.vstack([X + v, X + w])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(1, 600),
    st.integers(1, 600),
    st.sampled_from(["normal", "lattice", "offset", "near-ties"]),
)
def test_kernel_matches_one_pass_reference(seed, ambient, n_x, n_y, layout):
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(n_x, ambient)), rng.normal(size=(n_y, ambient))
    if layout == "lattice":
        X, Y = np.round(2 * X), np.round(2 * Y)
    elif layout == "offset":
        X, Y = X + 1e6, Y * 1e-3 + 1e6
    elif layout == "near-ties":
        X, Y = near_tie_sets(rng, n_x, ambient)
    assert_kernel_matches_reference(X, Y)


def test_kernel_exact_duplicates():
    rng = np.random.default_rng(10)
    Y = rng.normal(size=(300, 4))
    X = np.vstack([Y[:100], Y[:100], rng.normal(size=(200, 4))])
    assert_kernel_matches_reference(X, Y)
    assert_kernel_matches_reference(np.repeat(Y[:3], 200, axis=0), Y)


def test_kernel_lattice_ties():
    # every point of one integer lattice is equidistant from 2^A of the other's
    g = np.arange(8, dtype=float)
    Y = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
    assert_kernel_matches_reference(Y + 0.5, Y)
    assert_kernel_matches_reference(Y, Y + 0.5)


def test_kernel_large_offset():
    rng = np.random.default_rng(11)
    X, Y = near_tie_sets(rng, 300, 5)
    assert_kernel_matches_reference(X + 1e6, Y + 1e6)
    assert_kernel_matches_reference(X * 1e-6 + 1e6, Y * 1e-6 + 1e6)


def test_kernel_nextafter_neighbours():
    rng = np.random.default_rng(12)
    Y = rng.normal(size=(400, 6))
    up = np.nextafter(Y, np.inf)
    down = np.nextafter(Y, -np.inf)
    assert_kernel_matches_reference(np.vstack([up, down]), Y)
    assert_kernel_matches_reference(Y, np.vstack([up, down]))


def test_kernel_near_ties_at_every_scale():
    rng = np.random.default_rng(13)
    for ambient in (1, 2, 5, 10):
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            assert_kernel_matches_reference(*near_tie_sets(rng, 300, ambient, scale))


def test_kernel_one_point_sets():
    rng = np.random.default_rng(14)
    Y = rng.normal(size=(500, 3))
    assert_kernel_matches_reference(Y[:1], Y[1:2])
    assert_kernel_matches_reference(Y[:1], Y)
    assert_kernel_matches_reference(Y, Y[:1])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200, -1e200, 1e155])
def test_kernel_non_finite_and_huge_rows(value):
    rng = np.random.default_rng(15)
    X, Y = rng.normal(size=(600, 4)), rng.normal(size=(300, 4))
    X[300, 1] = value
    assert_kernel_matches_reference(X, Y)
    assert_kernel_matches_reference(Y, X)
    Z = rng.normal(size=(600, 4))
    Z[:, 2] = value
    assert_kernel_matches_reference(Z, Y)


# -- the kernel split over worker threads --------------------------------------------


@contextmanager
def forced_threads(cpus, block_rows=None):
    """Run `_min_dists` on `cpus` threads for any call of 2+ blocks."""
    import bsf.metrics as metrics

    saved = metrics._cpu_count, metrics._PAIRS_PER_WORKER, metrics._BLOCK_ROWS
    metrics._cpu_count, metrics._PAIRS_PER_WORKER = (lambda: cpus), 1
    if block_rows is not None:
        metrics._BLOCK_ROWS = block_rows
    try:
        yield
    finally:
        metrics._cpu_count, metrics._PAIRS_PER_WORKER, metrics._BLOCK_ROWS = saved


def assert_threaded_kernel_matches_reference(X, Y, block_rows=None):
    for cpus in (2, 3, 4):
        with forced_threads(cpus, block_rows):
            assert_kernel_matches_reference(X, Y)


def test_forced_threads_do_use_threads(monkeypatch):
    import bsf.metrics as metrics

    used = []
    real = metrics.ThreadPoolExecutor

    def spy(workers):
        used.append(workers)
        return real(workers)

    monkeypatch.setattr(metrics, "ThreadPoolExecutor", spy)
    rng = np.random.default_rng(30)
    X, Y = rng.normal(size=(600, 3)), rng.normal(size=(50, 3))
    with forced_threads(3, block_rows=64):
        assert_kernel_matches_reference(X, Y)
    with forced_threads(4, block_rows=256):  # three blocks: one per worker
        assert_kernel_matches_reference(X, Y)
    assert used == [3, 3]
    gd_igd(X[:200], Y)  # one block: no pool
    assert len(used) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(1, 600),
    st.integers(1, 300),
    st.sampled_from(["normal", "lattice", "offset", "near-ties"]),
    st.sampled_from([17, 64, 256]),
)
def test_threaded_kernel_matches_one_pass_reference(seed, ambient, n_x, n_y, layout, block_rows):
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(n_x, ambient)), rng.normal(size=(n_y, ambient))
    if layout == "lattice":
        X, Y = np.round(2 * X), np.round(2 * Y)
    elif layout == "offset":
        X, Y = X + 1e6, Y * 1e-3 + 1e6
    elif layout == "near-ties":
        X, Y = near_tie_sets(rng, n_x, ambient)
    assert_threaded_kernel_matches_reference(X, Y, block_rows)


@pytest.mark.parametrize("cpus", [2, 3, 4])
@pytest.mark.parametrize(
    "case",
    [
        test_kernel_exact_duplicates,
        test_kernel_lattice_ties,
        test_kernel_large_offset,
        test_kernel_nextafter_neighbours,
        test_kernel_near_ties_at_every_scale,
        test_kernel_one_point_sets,
    ],
)
def test_threaded_kernel_fixed_cases(case, cpus):
    with forced_threads(cpus, block_rows=64):
        case()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200, -1e200, 1e155])
def test_threaded_kernel_bad_row_in_second_chunk_only(value):
    rng = np.random.default_rng(31)
    X, Y = rng.normal(size=(600, 4)), rng.normal(size=(300, 4))
    X[400, 1] = value  # block 7 of 10: never in the first of 2, 3 or 4 chunks
    assert_threaded_kernel_matches_reference(X, Y, block_rows=64)
    assert_threaded_kernel_matches_reference(Y, X, block_rows=64)


def test_threaded_kernel_nan_payloads_merge_in_chunk_order():
    # a negative NaN in the first chunk, a positive one in the last: every
    # column minimum must be the first chunk's, as in one pass over the blocks
    import bsf.metrics as metrics

    rng = np.random.default_rng(34)
    X, Y = rng.normal(size=(600, 3)), rng.normal(size=(40, 3))
    X[100, 0] = np.copysign(np.nan, -1.0)
    X[500, 2] = np.nan
    assert_threaded_kernel_matches_reference(X, Y, block_rows=64)
    with forced_threads(2, block_rows=64):
        _, cols = metrics._min_dists(X, Y)
    assert np.all(np.signbit(cols)) and np.all(np.isnan(cols))


def test_threaded_kernel_keeps_the_callers_error_handling():
    # inf - inf in the full path of the last chunk's block: numpy's error
    # handling is per thread, and the workers take the caller's
    rng = np.random.default_rng(35)
    X, Y = rng.normal(size=(600, 3)), rng.normal(size=(40, 3))
    X[500, 0] = Y[5, 0] = np.inf
    for cpus in (1, 2):
        with forced_threads(cpus, block_rows=64), np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                gd_igd(X, Y)


def test_threaded_kernel_column_minima_in_later_chunks():
    rng = np.random.default_rng(32)
    X = rng.normal(size=(640, 3))
    # each column's nearest row sits in a later chunk than most rows
    Y = np.vstack([X[600:620], X[330:340]]) + rng.normal(scale=1e-6, size=(30, 3))
    assert_threaded_kernel_matches_reference(X, Y, block_rows=64)
    with forced_threads(2, block_rows=64):
        assert gd_igd(X, Y) == (gd_oracle(X, Y), gd_oracle(Y, X))


def test_threaded_kernel_one_block_per_worker_and_more_workers_than_blocks():
    rng = np.random.default_rng(33)
    X, Y = rng.normal(size=(192, 5)), rng.normal(size=(80, 5))
    assert_threaded_kernel_matches_reference(X, Y, block_rows=64)  # 3 blocks
    assert_threaded_kernel_matches_reference(X[:100], Y, block_rows=64)  # 2 blocks
    assert_threaded_kernel_matches_reference(X[:64], Y, block_rows=64)  # 1 block


def test_kernel_threads_only_large_calls(monkeypatch):
    import bsf.metrics as metrics

    monkeypatch.setattr(metrics, "_cpu_count", lambda: 2)
    assert metrics._workers(194_481 * 1_000) == 2  # med5 response-surface box grid
    assert metrics._workers(10_626 * 1_000) == 1  # med5 barycentric grid
    assert metrics._workers(441 * 1_000) == 1  # med3 response-surface box grid
    monkeypatch.setattr(metrics, "_cpu_count", lambda: 1)
    assert metrics._workers(194_481 * 1_000) == 1


# -- the float32 screen ----------------------------------------------------------------


def test_float32_screen_keeps_an_outlier_row_to_itself(monkeypatch):
    # one far row must not widen every other pair's screen: under one
    # tolerance for all pairs, this block went to the full path
    import bsf.metrics as metrics

    rng = np.random.default_rng(5)
    X = np.vstack([70 + rng.normal(size=(230, 3)), [[824.0, -300.0, 10.0]]])
    Y = rng.dirichlet(np.ones(3), size=1000)
    pairs = []
    real = metrics._pair_dists

    def spy(P, Q):
        pairs.append(np.prod(np.broadcast_shapes(P.shape, Q.shape)[:-1]))
        return real(P, Q)

    monkeypatch.setattr(metrics, "_pair_dists", spy)
    got = metrics._min_dists(X, Y)
    assert sum(pairs) <= 0.05 * X.shape[0] * Y.shape[0]
    expected = reference_min_dists(X, Y, True)
    assert np.array_equal(got[0].view(np.uint64), expected[0].view(np.uint64))
    assert np.array_equal(got[1].view(np.uint64), expected[1].view(np.uint64))
    assert_kernel_matches_reference(X, Y)


# subnormal only in float32 (1e-40, 1e-45); squares below and above the
# float32 overflow guard (1e18, 1e19); past float32's range (3e38)
FLOAT32_EDGES = [1e-40, 1e-45, 1e18, 1e19, 3e38]


@pytest.mark.parametrize("scale", FLOAT32_EDGES)
def test_kernel_float32_edge_magnitudes(scale):
    rng = np.random.default_rng(40)
    for ambient in (1, 3, 5):
        X, Y = near_tie_sets(rng, 300, ambient, scale)
        U, V = near_tie_sets(rng, 300, ambient)
        mixed_X = rng.permutation(np.vstack([X, U]))
        mixed_Y = rng.permutation(np.vstack([Y, V]))
        for A, B in [(X, Y), (mixed_X, mixed_Y), (X, V), (U, Y)]:
            assert_kernel_matches_reference(A, B)
            assert_threaded_kernel_matches_reference(A, B, block_rows=64)


def test_kernel_every_float32_edge_magnitude_in_one_set():
    rng = np.random.default_rng(41)
    parts = [near_tie_sets(rng, 60, 4, scale) for scale in [1.0] + FLOAT32_EDGES]
    X = rng.permutation(np.vstack([p[0] for p in parts]))
    Y = rng.permutation(np.vstack([p[1] for p in parts]))
    assert_kernel_matches_reference(X, Y)
    assert_kernel_matches_reference(Y, X)
    assert_threaded_kernel_matches_reference(X, Y, block_rows=64)
    assert_threaded_kernel_matches_reference(Y, X, block_rows=64)


# -- pass 1's candidates against the two full threshold masks ------------------------


def screened_blocks(X, Y, block_rows):
    """Run `_min_dists(X, Y)` on one thread in blocks of `block_rows` rows and
    record, for each block, pass 1's (Xa, W, D) and the (row, column) pairs
    pass 2 computed, or None for a block computed in full. The rows of each
    block, and those of Y, must be distinct."""
    import bsf.metrics as metrics

    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    blocks = []
    real_matmul, real_pair_dists = metrics._blocked_matmul, metrics._pair_dists

    def matmul(A, B, out):
        real_matmul(A, B, out=out)
        blocks.append({"Xa": A.copy(), "W": B.copy(), "D": out.copy(), "pairs": set()})
        return out

    def pair_dists(P, Q):
        block = blocks[-1]
        if P.ndim == 3:
            block["pairs"] = None
        else:
            start = sum(b["D"].shape[0] for b in blocks[:-1])
            rows = {r.tobytes(): i for i, r in enumerate(X[start : start + block["D"].shape[0]])}
            cols = {c.tobytes(): j for j, c in enumerate(Y)}
            block["pairs"] |= {(rows[p.tobytes()], cols[q.tobytes()]) for p, q in zip(P, Q)}
        return real_pair_dists(P, Q)

    metrics._blocked_matmul, metrics._pair_dists = matmul, pair_dists
    try:
        with forced_threads(1, block_rows):
            got = metrics._min_dists(X, Y)
    finally:
        metrics._blocked_matmul, metrics._pair_dists = real_matmul, real_pair_dists
    assert len(blocks) == -(-X.shape[0] // block_rows)  # every block ran pass 1
    return blocks, got


def mask_candidates(blocks, ambient):
    """Each block's candidates by the kernel's first screen: a full mask of D
    against the row thresholds, one against the running column thresholds,
    and the full block when the two masks hold over a quarter of D."""
    import bsf.metrics as metrics

    x_sq_max, col_run = 0.0, None
    for block in blocks:
        D, x_sq, y_sq = block["D"], block["Xa"][:, ambient + 1].astype(float), block["W"][ambient].astype(float)
        x_sq_max = max(x_sq_max, x_sq.max())
        row_thr = metrics._thresholds(D.min(axis=1).astype(float), x_sq, y_sq.max(), ambient)
        rows = np.argwhere(D <= row_thr[:, None])
        col_run = D.min(axis=0) if col_run is None else np.minimum(col_run, D.min(axis=0))
        col_thr = metrics._thresholds(col_run.astype(float), y_sq, x_sq_max, ambient)
        cols = np.argwhere(D <= col_thr)
        if 4 * (len(rows) + len(cols)) > D.size:
            yield None
        else:
            yield {tuple(map(int, pair)) for pair in np.vstack([rows, cols])}


def assert_screen_is_the_two_masks(X, Y, block_rows):
    """Every block computes exactly the pairs, or the full block, that the
    two full masks give; and the minima are the one-pass reference's."""
    blocks, got = screened_blocks(X, Y, block_rows)
    expected = list(mask_candidates(blocks, np.shape(Y)[1]))
    assert [block["pairs"] for block in blocks] == expected
    ref = reference_min_dists(np.asarray(X, float), np.asarray(Y, float), True)
    assert np.array_equal(got[0].view(np.uint64), ref[0].view(np.uint64))
    assert np.array_equal(got[1].view(np.uint64), ref[1].view(np.uint64))
    return blocks, expected


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 200),
    st.integers(1, 120),
    st.sampled_from(["normal", "lattice", "near-ties"]),
    st.sampled_from([1, 7, 32]),
)
def test_screen_matches_the_two_masks(seed, ambient, n_x, n_y, layout, block_rows):
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(n_x, ambient)), rng.normal(size=(n_y, ambient))
    if layout == "lattice":
        X, Y = np.round(2 * X), np.round(2 * Y)
    elif layout == "near-ties":
        X, Y = near_tie_sets(rng, n_x, ambient)
    X, Y = np.unique(X, axis=0), np.unique(Y, axis=0)
    assert_screen_is_the_two_masks(rng.permutation(X), Y, block_rows)


def test_screen_late_row_norm_widens_the_column_thresholds():
    # The second block's row raises the largest row norm, from 0 to 2, and
    # lowers no column's least D; its D to (1, 0) is 48 float32 ulps above
    # that column's running minimum: past the threshold of the first block's
    # norms (about 20 ulps), within the one its own norm gives (about 76).
    # The screen keeps a factor of two over its rounding bound, so no pair
    # in that gap is ever a true nearest one; the candidate sets show it.
    u = 2.0**-24
    far = [[-100, -100], [100, -100], [-100, 100], [-100, 0], [0, -100], [-100, 50], [50, -100]]
    Y = np.array([[1.0, 0.0], [-1.0, 0.0], [0.495, 0.495]] + far)
    X = np.array([[0.0, 0.0], [1.0, np.sqrt(1 + 96 * u)]])
    blocks, expected = assert_screen_is_the_two_masks(X, Y, 1)
    assert np.all(blocks[1]["D"] >= blocks[0]["D"]) and blocks[1]["Xa"][0, 3] > blocks[0]["Xa"][0, 3]
    assert expected[1] == {(0, 2), (0, 0)}  # its own least, and (1, 0)'s candidate
    assert_kernel_matches_reference(X, Y)
    assert_threaded_kernel_matches_reference(X, Y, block_rows=1)


def test_screen_column_least_equal_to_its_threshold():
    # Integer points whose float32 D is exact: the second block's one row
    # has D exactly at column 0's threshold (2,990,850), so column 0 is
    # compared in that block and the pair is a candidate.
    import bsf.metrics as metrics

    y = np.array([1985, 26, -6])
    V = np.array([
        [-104, -202, -268], [-141, -215, 134], [156, 56, -10], [235, 300, 295],
        [-265, -20, -174], [-249, 16, 264], [278, -128, -301],
    ])
    Y = np.vstack([y, -y, V, -V]).astype(float)
    X = np.vstack([V, -V, [[300, -315, 182]]]).astype(float)
    blocks, expected = assert_screen_is_the_two_masks(X, Y, 14)
    first = blocks[0]
    thr = metrics._thresholds(
        first["D"].min(axis=0).astype(float), first["W"][3].astype(float),
        first["Xa"][:, 4].astype(float).max(), 3,
    )
    assert blocks[1]["D"][0, 0] == thr[0] == 2_990_850
    assert (0, 0) in expected[1]
    assert_kernel_matches_reference(X, Y)
    assert_threaded_kernel_matches_reference(X, Y, block_rows=14)


def test_screen_mass_tie_limit_counts_each_candidate_once():
    # one lattice block whose two masks hold exactly a quarter of D (24 of
    # 96 pairs) with one row tied between two columns: it is screened
    X = np.array([[-3, -3], [-3, 2], [-1, -1], [-1, 2], [0, 3], [1, 3], [3, -2], [3, -1]], dtype=float)
    Y = np.array([
        [-3, -1], [-2, 3], [-1, -3], [-1, -1], [0, -2], [1, -3],
        [1, 1], [2, -3], [2, -1], [2, 0], [3, -3], [3, 1],
    ], dtype=float)
    blocks, expected = assert_screen_is_the_two_masks(X, Y, 8)
    assert expected[0] is not None and blocks[0]["pairs"] is not None
    assert_kernel_matches_reference(X, Y)


@pytest.mark.parametrize("n_y", [1, 2, 12])
def test_screen_rows_with_and_without_a_second_candidate(n_y):
    # rows on the bisector of two lattice columns tie exactly between them;
    # the rest have one nearest column; a one-column D has no second least
    g = np.arange(n_y, dtype=float)
    Y = np.stack([4 * g, np.zeros(n_y)], axis=1)
    tied = np.stack([4 * g[:-1] + 2, 1.0 + g[:-1]], axis=1)
    alone = np.stack([4 * g + 1, 3.0 + g], axis=1)
    X = np.vstack([tied, alone, [[1.5, -2.0]], [[2.0, 0.5]]])
    for block_rows in (1, 3, 64):
        assert_screen_is_the_two_masks(X, Y, block_rows)
    assert_kernel_matches_reference(X, Y)
    assert_threaded_kernel_matches_reference(X, Y, block_rows=3)


def test_screen_column_reached_many_blocks_late():
    # every column but the last is settled in the first blocks; the last
    # column's nearest rows arrive in block 39 of 40
    rng = np.random.default_rng(36)
    Y = np.vstack([rng.normal(size=(30, 3)), [[40.0, 0.0, 0.0]]])
    X = np.vstack([
        Y[:30] + rng.normal(scale=1e-3, size=(30, 3)),
        rng.normal(size=(578, 3)),
        [[39.0, 0.5, 0.0], [39.5, 0.0, 0.0]],
        rng.normal(size=(30, 3)),
    ])
    blocks, _ = assert_screen_is_the_two_masks(X, Y, 16)
    assert blocks[38]["D"][:, 30].min() < np.minimum.reduce([b["D"][:, 30].min() for b in blocks[:38]])
    assert_kernel_matches_reference(X, Y)
    for cpus in (1, 2):
        with forced_threads(cpus, block_rows=16):
            assert_kernel_matches_reference(X, Y)
            assert gd_igd(X, Y) == (gd_oracle(X, Y), gd_oracle(Y, X))


# -- streamed grids against the materialised ones ------------------------------------


@contextmanager
def grid_chunk_rows(rows):
    """Make grids in chunks of about `rows` rows (at least one product block)."""
    import bsf.bezier as bezier

    saved = bezier._GRID_CHUNK_ROWS
    bezier._GRID_CHUNK_ROWS = rows
    try:
        yield
    finally:
        bezier._GRID_CHUNK_ROWS = saved


def normalized_pair(P, V, normalize):
    if not normalize:
        return P, V
    lo, span = normalizer_from(V)
    return (P - lo) / span, (V - lo) / span


def assert_streamed_score(model, resolution, grid, V, normalize, cpus, chunk_rows):
    expected = gd_igd(*normalized_pair(grid, V, normalize))
    with forced_threads(cpus), grid_chunk_rows(chunk_rows):
        assert score(surface_rows(model, resolution), V, normalize) == expected


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 5),
    degree=st.integers(0, 4),
    resolution=st.integers(1, 25),
    graph=st.booleans(),
    normalize=st.booleans(),
    cpus=st.sampled_from([1, 2]),
    chunk_rows=st.sampled_from([1, 4096]),
    seed=st.integers(0, 2**32 - 1),
)
# 5,985 rows in 1,496-row product blocks and a last block of 1 + 8 rows
@example(m=5, degree=3, resolution=17, graph=False, normalize=True, cpus=2, chunk_rows=4096, seed=0)
def test_streamed_bezier_score_equals_the_materialised_one(
    m, degree, resolution, graph, normalize, cpus, chunk_rows, seed
):
    rng = np.random.default_rng(seed)
    ambient = m + 3 if graph else m  # a graph model maps into solutions x objectives
    model = BezierSimplex(m, degree, rng.normal(size=(len(multi_indices(m, degree)), ambient)))
    V = rng.normal(size=(60, ambient)) * rng.uniform(0.5, 20.0, size=ambient)
    grid = model.evaluate_batch(barycentric_grid(m, resolution))
    assert_streamed_score(model, resolution, grid, V, normalize, cpus, chunk_rows)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 5),
    resolution=st.integers(1, 25),
    normalize=st.booleans(),
    cpus=st.sampled_from([1, 2]),
    chunk_rows=st.sampled_from([1, 4096]),
    seed=st.integers(0, 2**32 - 1),
)
# 2,401 rows in 480-row product blocks and a last block of 1 + 8 rows
@example(m=5, resolution=6, normalize=True, cpus=2, chunk_rows=4096, seed=0)
def test_streamed_surface_score_equals_the_materialised_one(
    m, resolution, normalize, cpus, chunk_rows, seed
):
    assume((resolution + 1) ** (m - 1) <= 30_000)
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 20.0, size=m)
    surface = fit_response_surface(SampleSet(rng.uniform(size=(40, m)) * scales))
    V = rng.uniform(size=(80, m)) * scales
    axis = np.arange(resolution + 1) / resolution
    U = np.array(list(product(axis, repeat=m - 1)))
    grid = surface.lo + surface.span * np.column_stack([U, surface.predict_normalized(U)])
    assert_streamed_score(surface, resolution, grid, V, normalize, cpus, chunk_rows)


@pytest.mark.parametrize("cpus", [1, 2])
def test_streamed_graph_fit_score_equals_the_materialised_one(cpus):
    training, validation = make_training_set(
        get_problem("med5"), (1, 2, 1), seed=4, validation_size=300, with_solutions=True
    )
    vertices = vertex_optima_from(training, validation.m)
    model, _ = fit_method("inductive", training, vertices, FitConfig(degree=3))
    V = validation.ambient()
    assert model.ambient == V.shape[1] > validation.m
    grid = model.evaluate_batch(barycentric_grid(model.m, 20))
    for normalize in (True, False):
        assert_streamed_score(model, 20, grid, V, normalize, cpus, 4096)
