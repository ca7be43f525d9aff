from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsf.errors import DimensionError
from bsf.fitting import initialize_control_net
from bsf.metrics import gd, gd_igd, grid_sample, igd
from bsf.pareto import SampleSet


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


# -- gd / igd -------------------------------------------------------------------


def test_gd_three_four_five():
    assert gd(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0


def test_gd_identical_sets_zero():
    X = np.random.default_rng(0).normal(size=(30, 3))
    assert gd(X, X) == 0.0


def test_igd_swaps_roles():
    rng = np.random.default_rng(1)
    X, Y = rng.normal(size=(12, 2)), rng.normal(size=(7, 2))
    assert igd(X, Y) == gd(Y, X)


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
    rng = np.random.default_rng(4)
    X, Y = rng.normal(size=(300, 4)), rng.normal(size=(90, 4))
    g, i = gd_igd(X, Y)
    assert g == gd(X, Y)
    assert i == igd(X, Y)


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
        for want_cols in (True, False):
            got = metrics._min_dists(X, Y, want_cols)
            expected = reference_min_dists(X, Y, want_cols)
            # bit patterns, so NaN positions and signed zeros count too
            assert np.array_equal(got[0].view(np.uint64), expected[0].view(np.uint64))
            if want_cols:
                assert np.array_equal(got[1].view(np.uint64), expected[1].view(np.uint64))
            else:
                assert got[1] is None


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
    assert used == [3, 3, 3, 3]
    gd_igd(X[:200], Y)  # one block: no pool
    assert len(used) == 4


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
        _, cols = metrics._min_dists(X, Y, True)
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
    got = metrics._min_dists(X, Y, True)
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
