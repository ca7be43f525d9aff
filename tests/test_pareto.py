import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsf.errors import DimensionError, FaceError, ParseError
from bsf.pareto import (
    _SCAN_BLOCK,
    SampleSet,
    dominates,
    enumerate_faces,
    load_sample,
    nondominated_filter,
    nondominated_mask,
    save_sample,
    skeleton_decompose,
    subsample,
)
from bsf.problems import feasible_pool, get_problem
from test_problems import SMALL_POOL


def brute_force_front(F):
    """O(n^2) pairwise oracle."""
    F = np.asarray(F, dtype=float)
    keep = []
    for i in range(len(F)):
        dominated = False
        for j in range(len(F)):
            if i != j and np.all(F[j] <= F[i]) and np.any(F[j] < F[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def pairwise_nondominated_mask(F):
    """The definition, vectorised: row i is dominated iff some row j is <= it
    everywhere and < it somewhere. O(n^2 M) memory."""
    F = np.asarray(F, dtype=float)
    le = np.all(F[None, :, :] <= F[:, None, :], axis=2)
    lt = np.any(F[None, :, :] < F[:, None, :], axis=2)
    return ~np.any(le & lt, axis=1)


def reference_nondominated_mask(F, block=512):
    """The earlier blocked scan: lexicographic order, each block compared with
    the accepted rows of earlier blocks and with itself as (b, b, M) tensors."""
    F = np.asarray(F, dtype=float)
    n, m = F.shape
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    order = np.lexsort(F.T[::-1])
    G = F[order]
    archive = np.empty_like(F)
    count = 0
    for start in range(0, n, block):
        blk = G[start : start + block]
        b = blk.shape[0]
        le = np.all(blk[None, :, :] <= blk[:, None, :], axis=2)
        lt = np.any(blk[None, :, :] < blk[:, None, :], axis=2)
        earlier = np.tril(np.ones((b, b), dtype=bool), k=-1)
        dominated = np.any(le & lt & earlier, axis=1)
        if count:
            a = archive[:count]
            le_a = np.all(a[None, :, :] <= blk[:, None, :], axis=2)
            lt_a = np.any(a[None, :, :] < blk[:, None, :], axis=2)
            dominated |= np.any(le_a & lt_a, axis=1)
        kept = blk[~dominated]
        archive[count : count + kept.shape[0]] = kept
        count += kept.shape[0]
        keep[order[start : start + b][~dominated]] = True
    return keep


# -- dominance ---------------------------------------------------------------


@pytest.mark.parametrize(
    "x,y,expected",
    [
        ((1, 2), (1, 3), True),
        ((1, 2), (1, 2), False),
        ((0, 5), (1, 4), False),
    ],
)
def test_dominates(x, y, expected):
    assert dominates(x, y) is expected


def test_dominates_rejects_length_mismatch():
    with pytest.raises(DimensionError):
        dominates((1, 2), (1, 2, 3))


@settings(max_examples=200)
@given(st.integers(0, 10_000))
def test_dominance_antisymmetric_and_transitive(seed):
    rng = np.random.default_rng(seed)
    x, y, z = rng.integers(0, 4, size=(3, 3)).astype(float)
    assert not (dominates(x, y) and dominates(y, x))
    if dominates(x, y) and dominates(y, z):
        assert dominates(x, z)


# -- non-dominated filter -------------------------------------------------------


def test_filter_simple():
    S = SampleSet([(1, 2), (2, 1), (2, 2)])
    out = nondominated_filter(S)
    np.testing.assert_array_equal(out.objectives, [(1, 2), (2, 1)])


def test_filter_singleton():
    S = SampleSet([(3.5, 1.2)])
    np.testing.assert_array_equal(nondominated_filter(S).objectives, S.objectives)


def test_filter_keeps_duplicates_and_order():
    S = SampleSet([(2, 1), (1, 2), (2, 1), (3, 3)])
    out = nondominated_filter(S)
    np.testing.assert_array_equal(out.objectives, [(2, 1), (1, 2), (2, 1)])


def test_filter_matches_brute_force():
    rng = np.random.default_rng(0)
    F = rng.normal(size=(200, 3))
    S = SampleSet(F)
    out = nondominated_filter(S)
    np.testing.assert_array_equal(out.objectives, F[brute_force_front(F)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 120))
def test_filter_matches_brute_force_random(seed, m, n):
    rng = np.random.default_rng(seed)
    # integer grids force plenty of ties and duplicates
    F = rng.integers(0, 4, size=(n, m)).astype(float)
    out = nondominated_filter(SampleSet(F))
    np.testing.assert_array_equal(out.objectives, F[brute_force_front(F)])


def _mask_case(layout, m, n, rng):
    if layout == "lattice":  # ties and duplicates in every column
        return rng.integers(0, 4, size=(n, m)).astype(float)
    if layout == "simplex":  # points on the unit simplex: all kept
        return rng.dirichlet(np.ones(m), size=n)
    # a large cloud above a small front: almost every row is dominated
    front = rng.dirichlet(np.ones(m), size=int(rng.integers(1, 20)))
    rows = rng.integers(0, front.shape[0], size=n)
    return front[rows] + np.abs(rng.normal(size=(n, m))) * (rng.random((n, 1)) < 0.98)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from(["lattice", "simplex", "cloud"]))
def test_mask_matches_pairwise_definition_past_block(seed, m, layout):
    rng = np.random.default_rng(seed)
    # n drawn uniformly, so most cases span two or three blocks
    F = _mask_case(layout, m, int(rng.integers(1, 1301)), rng)
    np.testing.assert_array_equal(nondominated_mask(F), pairwise_nondominated_mask(F))


# m = 3 takes the merge, m = 4 the block scan
@pytest.mark.parametrize("dominated, m", [(False, 3), (True, 3), (False, 4), (True, 4)],
                         ids=["False", "True", "False-4", "True-4"])
def test_mask_duplicates_straddle_block_boundary(dominated, m):
    rng = np.random.default_rng(11)
    F = rng.dirichlet(np.ones(m), size=2 * _SCAN_BLOCK)
    F = F[np.lexsort(F.T[::-1])]
    # a pair of identical rows at sorted positions 511 and 512: a front row,
    # or a row just above its sorted predecessor, which dominates it
    twin = F[_SCAN_BLOCK - 2] + 1e-9 * (np.arange(m) == m - 1) if dominated else F[_SCAN_BLOCK - 1]
    F = np.vstack([F[: _SCAN_BLOCK - 1], twin, twin, F[_SCAN_BLOCK:]])
    F = F[rng.permutation(F.shape[0])]
    order = np.lexsort(F.T[::-1])
    np.testing.assert_array_equal(F[order[_SCAN_BLOCK - 1]], F[order[_SCAN_BLOCK]])
    mask = nondominated_mask(F)
    np.testing.assert_array_equal(mask, pairwise_nondominated_mask(F))
    assert mask[order[_SCAN_BLOCK - 1]] == mask[order[_SCAN_BLOCK]] == (not dominated)


def _merge_case(n, rng):
    """n rows of three objectives: a front and rows a little above it, with
    ties in columns 1 and 2, rows on the edge f2 = 0 written as 0.0 or -0.0,
    rows (x, -inf, +inf), other +inf entries, and duplicate rows."""
    F = rng.dirichlet(np.ones(3), size=n)
    above = rng.random(n) < 0.3
    F[above] += rng.random((above.sum(), 3)) * 0.05
    F[:, 1:] = np.round(F[:, 1:] * 64) / 64
    edge = rng.random(n) < 0.05
    F[edge, 1] = rng.choice([0.0, -0.0], size=edge.sum())
    F[edge, 2] = 1.0 - F[edge, 0]
    F[rng.random((n, 3)) < 0.01] = np.inf
    low = rng.random(n) < 0.01
    F[low, 1], F[low, 2] = -np.inf, np.inf
    duplicate = rng.random(n) < 0.1
    F[duplicate] = F[rng.integers(0, n, size=duplicate.sum())]
    return F


@pytest.mark.parametrize("k", range(12))
def test_three_objective_merge_matches_pairwise_definition(k):
    rng = np.random.default_rng(k)
    for n in (2**k - 1, 2**k, 2**k + 1):  # a full power of two, and one row either side
        F = _merge_case(n, rng)
        np.testing.assert_array_equal(nondominated_mask(F), pairwise_nondominated_mask(F))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_mask_all_rows_equal(m):
    assert nondominated_mask(np.full((2 * _SCAN_BLOCK + 3, m), 2.5)).all()


def test_mask_single_objective_ties_at_minimum():
    F = np.array([[2.0], [1.0], [1.0], [3.0], [1.0], [-np.inf], [-np.inf]])
    np.testing.assert_array_equal(nondominated_mask(F), [0, 0, 0, 0, 0, 1, 1])
    F = np.tile([[4.0], [1.0], [1.0], [7.0]], (300, 1))
    np.testing.assert_array_equal(nondominated_mask(F), F[:, 0] == 1.0)


def test_mask_signed_zeros_and_infinities():
    # -0.0 == 0.0: such rows are identical, and each dominates (0, 1, 1)
    F = np.array([
        [-0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -0.0, 1.0],
        [np.inf, -np.inf, 5.0], [np.inf, -np.inf, np.inf], [-np.inf, np.inf, 0.0],
    ])
    expected = [True, False, True, True, False, True]
    np.testing.assert_array_equal(nondominated_mask(F), expected)
    np.testing.assert_array_equal(pairwise_nondominated_mask(F), expected)


@pytest.mark.parametrize(
    "F",
    [
        np.array([1.0, 2.0, 3.0]),
        np.zeros((4, 0)),
        np.zeros((2, 2, 2)),
        np.array([[1.0, np.nan], [0.0, 0.0]]),
    ],
    ids=["1-d", "no-columns", "3-d", "nan"],
)
def test_mask_rejects_bad_input(F):
    with pytest.raises(DimensionError):
        nondominated_mask(F)


def test_mask_empty_input():
    assert nondominated_mask(np.zeros((0, 3))).shape == (0,)


@pytest.mark.parametrize("problem", ["constrex", "osyczka2", "viennet2"])
def test_mask_matches_reference_on_pool_faces(problem):
    _, F = feasible_pool(get_problem(problem), size=SMALL_POOL, seed=3)
    for face in enumerate_faces(F.shape[1], F.shape[1]):
        G = F[:, list(face)]
        np.testing.assert_array_equal(nondominated_mask(G), reference_nondominated_mask(G))


# -- subsample -------------------------------------------------------------------


def test_subsample_full_face_equals_filter():
    rng = np.random.default_rng(1)
    S = SampleSet(rng.normal(size=(60, 3)))
    np.testing.assert_array_equal(
        subsample(S, (0, 1, 2)).objectives, nondominated_filter(S).objectives
    )


def test_subsample_projected_front():
    S = SampleSet([(0, 5, 9), (3, 3, 9), (5, 0, 9), (9, 9, 0)])
    out = subsample(S, (0, 1))
    np.testing.assert_array_equal(out.objectives, [(0, 5, 9), (3, 3, 9), (5, 0, 9)])


def test_subsample_single_objective_is_argmin():
    S = SampleSet([(3, 0), (1, 5), (2, 2)])
    out = subsample(S, (0,))
    np.testing.assert_array_equal(out.objectives, [(1, 5)])


def test_subsample_rejects_empty_face():
    S = SampleSet([(1, 2)])
    with pytest.raises(FaceError):
        subsample(S, ())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_subsample_matches_projection_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    F = rng.integers(0, 5, size=(int(rng.integers(1, 100)), m)).astype(float)
    size = int(rng.integers(1, m + 1))
    face = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
    out = subsample(SampleSet(F), face)
    np.testing.assert_array_equal(out.objectives, F[brute_force_front(F[:, list(face)])])


# -- skeleton decomposition --------------------------------------------------------


def test_skeleton_decompose_counts_m3():
    S = SampleSet(np.random.default_rng(2).normal(size=(30, 3)))
    parts = skeleton_decompose(S, 3)
    assert len(parts) == 7
    sizes = [len(face) for face in parts]
    assert sizes == sorted(sizes)


def test_skeleton_decompose_counts_m5():
    S = SampleSet(np.random.default_rng(3).normal(size=(40, 5)))
    assert len(skeleton_decompose(S, 3)) == 25


def test_skeleton_full_face_entry_is_filter():
    S = SampleSet(np.random.default_rng(4).normal(size=(25, 3)))
    parts = skeleton_decompose(S, 3)
    np.testing.assert_array_equal(
        parts[(0, 1, 2)].objectives, nondominated_filter(S).objectives
    )


def test_enumerate_faces_order():
    faces = list(enumerate_faces(3, 3))
    assert faces == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


# -- sample set wrangling ------------------------------------------------------------


def test_sample_set_rejects_nan():
    with pytest.raises(DimensionError):
        SampleSet([(np.nan, 1.0)])


def test_sample_set_ambient_orders_solutions_first():
    S = SampleSet([(1.0, 2.0)], solutions=[(9.0,)])
    np.testing.assert_array_equal(S.ambient(), [(9.0, 1.0, 2.0)])


def test_concat_checks_dimensions():
    with pytest.raises(DimensionError):
        SampleSet.concat([SampleSet([(1, 2)]), SampleSet([(1, 2, 3)])])


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: SampleSet(np.zeros((2, 2, 2))), DimensionError,
                     "objectives must be 2-d, got shape (2, 2, 2)", id="3-d-objectives"),
        pytest.param(lambda: SampleSet(np.zeros((2, 2)), solutions=np.zeros((3, 1))), DimensionError,
                     "solutions and objectives disagree in point count", id="solution-count"),
        pytest.param(lambda: SampleSet.concat([]), DimensionError,
                     "cannot concatenate zero sample sets", id="concat-nothing"),
        pytest.param(lambda: list(enumerate_faces(3, 4)), FaceError,
                     "max face size must lie in 1..3, got 4", id="faces-past-m"),
    ],
)
def test_sample_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# -- CSV round trip -------------------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    S = SampleSet(rng.normal(size=(17, 3)) * 1e3, solutions=rng.normal(size=(17, 2)))
    path = tmp_path / "sample.csv"
    save_sample(S, path)
    back = load_sample(path)
    np.testing.assert_array_equal(back.objectives, S.objectives)
    np.testing.assert_array_equal(back.solutions, S.solutions)


def test_csv_header_and_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("f1,f2\n1.0,2.0\n")
    S = load_sample(path)
    assert S.n == 1 and S.m == 2 and S.solutions is None


def test_csv_rejects_nan_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f1,f2\n1.0,2.0\nnan,3.0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_sample(path)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_sample(path)


def test_csv_rejects_short_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f1,f2\n1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_sample(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("f1,f2,y1\n1.0,2.0,3.0\n", "line 1: trailing columns must be x1,x2,..."),
        ("f1,f2\n1.0,2.0\n3.0,abc\n", "line 3: could not convert string to float: 'abc'"),
        ("f1,f2,x1\n", "no data rows"),
    ],
)
def test_csv_rejects_with_the_reason_and_the_file(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_sample(path)
    assert str(info.value) == f"{path}: {message}"


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("f1,f2,x1\n1.0,2.0,0.5\n\n3.0,4.0,0.25\n\n")
    S = load_sample(path)
    np.testing.assert_array_equal(S.objectives, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(S.solutions, [[0.5], [0.25]])
