import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsf import bezier
from bsf.bezier import (
    BezierSimplex,
    as_barycentric,
    as_barycentric_rows,
    barycentric_grid,
    compositions,
    derivatives_on_runs,
    embed_on_face,
    face_indices,
    monomials,
    multi_indices,
    multinomial,
    partial_derivatives,
    shifted_nets,
    weighted_design_matrix,
)
from bsf.errors import (
    BarycentricError,
    DimensionError,
    FaceError,
    InvalidIndexError,
    ParseError,
)
from bsf.metrics import grid_rows
from bsf.response_surface import cubic_basis_exponents


# -- independent oracles -------------------------------------------------------


def naive_multinomial(degree, index):
    c = math.factorial(degree)
    for d in index:
        c //= math.factorial(d)
    return c


def naive_evaluate(model, t):
    """Plain double loop over the index set; accepts off-simplex t."""
    out = np.zeros(model.ambient)
    for d, p in zip(model.indices, model.points):
        mono = 1.0
        for tv, di in zip(t, d):
            mono *= float(tv) ** di
        out += naive_multinomial(model.degree, d) * mono * p
    return out


def naive_gradient(model, t):
    """Direct implementation of the stated derivative formula."""
    out = np.zeros((model.ambient, model.m))
    for d, p in zip(model.indices, model.points):
        w = naive_multinomial(model.degree, d)
        for j in range(model.m):
            if d[j] == 0:
                continue
            mono = 1.0
            for k in range(model.m):
                e = d[k] - (1 if k == j else 0)
                mono *= float(t[k]) ** e
            out[:, j] += w * d[j] * mono * p
    return out


def random_model(seed, m=None, degree=None, ambient=None):
    rng = np.random.default_rng(seed)
    m = m or int(rng.integers(1, 6))
    degree = degree if degree is not None else int(rng.integers(0, 5))
    ambient = ambient or int(rng.integers(1, 7))
    n = len(multi_indices(m, degree))
    return BezierSimplex(m, degree, rng.uniform(-2.0, 2.0, size=(n, ambient)))


def random_interior_t(rng, m):
    t = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    return t / t.sum()


# -- multi-index enumeration -----------------------------------------------------


def test_enumeration_m2_d3_order():
    assert multi_indices(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_enumeration_m5_d3_count():
    assert len(multi_indices(5, 3)) == 35


def test_enumeration_degree_zero():
    assert multi_indices(3, 0) == ((0, 0, 0),)


def test_enumeration_rejects_m0():
    with pytest.raises(DimensionError):
        multi_indices(0, 3)


@given(st.integers(1, 5), st.integers(0, 6))
def test_enumeration_count_and_order(m, degree):
    idx = multi_indices(m, degree)
    assert len(idx) == math.comb(degree + m - 1, degree)
    assert all(sum(d) == degree for d in idx)
    assert list(idx) == sorted(idx, reverse=True)
    assert len(set(idx)) == len(idx)


def stars_and_bars(m, total):
    """Compositions of `total` into m parts, in descending lexicographic
    order, from the positions of m - 1 bars among total + m - 1 slots."""
    out = []
    for bars in itertools.combinations(range(total + m - 1), m - 1):
        edges = (-1, *bars, total + m - 1)
        out.append([hi - lo - 1 for lo, hi in zip(edges[:-1], edges[1:])])
    return out[::-1]


def test_compositions_match_stars_and_bars():
    cases = [(m, total) for m in range(1, 9) for total in range(13)] + [(2, 300), (3, 250)]
    for m, total in cases:
        table = compositions(m, total)
        assert table.dtype == (np.uint8 if total < 256 else np.uint16), (m, total)
        assert table.shape == (math.comb(total + m - 1, m - 1), m), (m, total)
        assert table.tolist() == stars_and_bars(m, total), (m, total)
        assert multi_indices(m, total) == tuple(map(tuple, stars_and_bars(m, total))), (m, total)


def test_compositions_is_one_read_only_table():
    table = compositions(4, 6)
    assert compositions(4, 6) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


# numpy refuses the first; the second is past any array numpy can address; the
# third's row count, C(2 * 10^6, 10^6), is not worked out
@pytest.mark.parametrize("m, total", [(3, 10**8), (5, 10**5), (10**6 + 1, 10**6)])
def test_a_table_too_large_to_hold_fails_before_any_work(monkeypatch, m, total):
    def no_work(*args, **kwargs):
        raise AssertionError("the table was being built")

    monkeypatch.setattr(np, "cumsum", no_work)
    with pytest.raises(MemoryError):
        compositions(m, total)


def test_two_models_grids_build_the_table_once():
    rng = np.random.default_rng(5)
    models = [BezierSimplex(3, d, rng.normal(size=(len(multi_indices(3, d)), 2))) for d in (2, 3)]
    for model in models:  # their own exponent tables, built and cached beforehand
        weighted_design_matrix(model.m, model.degree, np.eye(3))
    compositions.cache_clear()
    grids = [grid_rows(model, 17).collect() for model in models]
    assert compositions.cache_info().misses == 1
    assert [g.shape for g in grids] == [(171, 2), (171, 2)]


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: compositions(3, -1), InvalidIndexError,
                     "total must be nonnegative, got -1", id="negative-total"),
        pytest.param(lambda: barycentric_grid(3, 0), ValueError,
                     "resolution must be at least 1", id="grid-resolution-0"),
        pytest.param(lambda: multinomial(2, (3, -1)), InvalidIndexError,
                     "negative entry in multi-index (3, -1)", id="negative-entry"),
        pytest.param(lambda: as_barycentric_rows(np.full((2, 2, 2), 0.5)), DimensionError,
                     "expected a 2-d array of coordinates, got shape (2, 2, 2)", id="3-d-coordinates"),
        pytest.param(lambda: as_barycentric_rows([[np.nan, 1.0]]), BarycentricError,
                     "non-finite barycentric coordinates", id="nan-coordinate"),
        pytest.param(lambda: as_barycentric_rows([[np.inf, 0.0]]), BarycentricError,
                     "non-finite barycentric coordinates", id="inf-coordinate"),
        pytest.param(lambda: as_barycentric_rows([[1.0 + 2e-9, -2e-9]]), BarycentricError,
                     "negative barycentric coordinate beyond repair tolerance", id="negative-coordinate"),
        pytest.param(lambda: as_barycentric_rows([[0.5, 0.5 + 2e-9]]), BarycentricError,
                     "coordinates do not sum to 1 within repair tolerance", id="sum-off"),
        pytest.param(lambda: face_indices(3, 2, (0, 3)), FaceError,
                     "face (0, 3) out of range for m=3", id="face-past-m"),
        pytest.param(lambda: BezierSimplex(0, 1, [[1.0]]), DimensionError,
                     "need at least one barycentric coordinate, got m=0", id="model-m-0"),
        pytest.param(lambda: BezierSimplex(2, -1, [[1.0]]), InvalidIndexError,
                     "degree must be nonnegative, got -1", id="model-negative-degree"),
        pytest.param(lambda: BezierSimplex(2, 1, [1.0, 2.0]), DimensionError,
                     "control points must be a 2-d array, got shape (2,)", id="model-1-d-points"),
        pytest.param(lambda: BezierSimplex(2, 1, np.zeros((3, 1))), DimensionError,
                     "expected 2 control points for m=2, degree=1, got 3", id="model-point-count"),
        pytest.param(lambda: BezierSimplex(2, 1, np.zeros((2, 0))), DimensionError,
                     "ambient dimension must be at least 1", id="model-no-ambient"),
        pytest.param(lambda: BezierSimplex(2, 1, np.eye(2)).index_row((2, 0)), InvalidIndexError,
                     "(2, 0) is not a degree-1 index over 2 coordinates", id="foreign-index"),
    ],
)
def test_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# -- multinomial ------------------------------------------------------------------


@pytest.mark.parametrize(
    "degree,index,expected",
    [(3, (1, 1, 1), 6), (3, (3, 0, 0), 1), (4, (2, 2), 6)],
)
def test_multinomial_values(degree, index, expected):
    assert multinomial(degree, index) == expected


def test_multinomial_rejects_sum_mismatch():
    with pytest.raises(InvalidIndexError):
        multinomial(3, (1, 1))


def test_multinomial_rejects_large_degree():
    with pytest.raises(InvalidIndexError):
        multinomial(21, (21,))


@given(st.integers(1, 4), st.integers(0, 8))
def test_multinomials_sum_to_power(m, degree):
    # sum over compositions of the multinomial coefficients is m**degree
    assert sum(multinomial(degree, d) for d in multi_indices(m, degree)) == m**degree


# -- barycentric validation -------------------------------------------------------


def test_barycentric_repairs_rounding():
    t = as_barycentric([0.3 + 1e-12, 0.7], 2)
    assert abs(t.sum() - 1.0) <= 1e-12


def test_barycentric_rejects_far_sum():
    with pytest.raises(BarycentricError):
        as_barycentric([0.6, 0.6], 2)


def test_barycentric_rejects_negative():
    with pytest.raises(BarycentricError):
        as_barycentric([1.2, -0.2], 2)


def test_barycentric_rows_have_the_bits_of_clamp_renorm():
    # -0.0, sums of exactly 1.0 and sums a rounding or a tolerance off, alone
    # and in one table with rows that have a negative entry within tolerance
    table = np.array([
        [0.2, 0.3, 0.5],
        [1 / 3, 1 / 3, 1 / 3],
        [0.1, 0.2, 0.7],
        [-0.0, 0.25, 0.75],
        [-0.0, -0.0, 1.0],
        [1e-300, 0.5, 0.5],
        [0.5, 0.5 + 8e-10, 0.0],
        [0.5, 0.5 - 8e-10, -0.0],
        [-5e-10, 0.5, 0.5 + 5e-10],
        [-0.0, -8e-10, 1.0],
    ])
    # and rows whose sums are a few roundings off 1
    table = np.vstack([table, np.random.default_rng(17).dirichlet(np.ones(3), size=50)])
    for rows in [table, table[:8], table[10:], *table[:, None]]:
        assert_same_bits(as_barycentric_rows(rows, 3), bezier.clamp_renorm(rows.copy())[0])
    assert as_barycentric_rows(np.zeros((0, 3)), 3).shape == (0, 3)


# -- evaluation --------------------------------------------------------------------


def test_vertex_interpolation():
    model = random_model(0, m=3, degree=3, ambient=4)
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        corner = tuple(3 if k == j else 0 for k in range(3))
        np.testing.assert_array_equal(model.evaluate(e), model.control_point(corner))


def test_degree_one_is_affine():
    rng = np.random.default_rng(1)
    verts = rng.normal(size=(3, 3))
    model = BezierSimplex(3, 1, verts)
    centroid = np.full(3, 1 / 3)
    np.testing.assert_allclose(model.evaluate(centroid), verts.mean(axis=0), atol=1e-15)


def test_evaluate_matches_naive_oracle():
    model = random_model(2, m=3, degree=3, ambient=3)
    t = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(model.evaluate(t), naive_evaluate(model, t), rtol=1e-13)


def test_evaluate_rejects_wrong_length():
    model = random_model(3, m=3, degree=2)
    with pytest.raises(DimensionError):
        model.evaluate([0.5, 0.5])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(0, 4))
def test_partition_of_unity(seed, m, degree):
    # all control points equal -> the model is constant
    rng = np.random.default_rng(seed)
    c = rng.normal(size=3)
    n = len(multi_indices(m, degree))
    model = BezierSimplex(m, degree, np.tile(c, (n, 1)))
    t = rng.dirichlet(np.ones(m))
    np.testing.assert_allclose(model.evaluate(t), c, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_evaluate_matches_naive_oracle_random(seed):
    model = random_model(seed)
    rng = np.random.default_rng(seed + 1)
    t = rng.dirichlet(np.ones(model.m))
    np.testing.assert_allclose(
        model.evaluate(t), naive_evaluate(model, t), rtol=1e-12, atol=1e-12
    )


# -- derivatives -------------------------------------------------------------------


def test_gradient_of_degree_one_model_is_constant():
    model = random_model(4, m=3, degree=1, ambient=2)
    t1 = np.array([0.2, 0.5, 0.3])
    t2 = np.array([0.7, 0.1, 0.2])
    g1, g2 = model.gradient(t1), model.gradient(t2)
    np.testing.assert_allclose(g1, g2, atol=1e-14)
    for j in range(3):
        e = tuple(1 if k == j else 0 for k in range(3))
        np.testing.assert_allclose(g1[:, j], model.control_point(e), atol=1e-14)


def test_gradient_of_constant_model_vanishes_on_tangent_directions():
    # With coordinates treated as independent, an all-equal net has gradient
    # degree * c in every column (the polynomial is c * (sum t)^degree); the
    # constant-map behaviour shows up along directions that keep sum(t) = 1.
    n = len(multi_indices(3, 3))
    c = np.array([1.0, -2.0])
    model = BezierSimplex(3, 3, np.tile(c, (n, 1)))
    g = model.gradient([0.3, 0.3, 0.4])
    for j in range(3):
        np.testing.assert_allclose(g[:, j], 3 * c, atol=1e-12)
    for v in ([1.0, -1.0, 0.0], [0.5, 0.5, -1.0]):
        np.testing.assert_allclose(g @ np.asarray(v), 0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    model = random_model(5, m=3, degree=3, ambient=3)
    t = random_interior_t(rng, 3)
    h = 1e-6
    fd = np.empty((3, 3))
    for j in range(3):
        tp, tm = t.copy(), t.copy()
        tp[j] += h
        tm[j] -= h
        fd[:, j] = (naive_evaluate(model, tp) - naive_evaluate(model, tm)) / (2 * h)
    g = model.gradient(t)
    assert np.linalg.norm(g - fd) / np.linalg.norm(g) <= 1e-5


def test_hessian_of_degree_one_is_zero():
    model = random_model(6, m=4, degree=1)
    h = model.hessian(np.full(4, 0.25))
    np.testing.assert_allclose(h, 0.0, atol=1e-14)


def test_hessian_symmetry():
    model = random_model(7, m=4, degree=3)
    h = model.hessian(np.full(4, 0.25))
    np.testing.assert_array_equal(h, np.swapaxes(h, 1, 2))


def test_hessian_matches_finite_differences_of_gradient():
    rng = np.random.default_rng(8)
    model = random_model(8, m=2, degree=3, ambient=2)
    t = random_interior_t(rng, 2)
    h = 1e-5
    fd = np.empty((model.ambient, 2, 2))
    for j in range(2):
        tp, tm = t.copy(), t.copy()
        tp[j] += h
        tm[j] -= h
        fd[:, :, j] = (naive_gradient(model, tp) - naive_gradient(model, tm)) / (2 * h)
    hess = model.hessian(t)
    assert np.linalg.norm((hess - fd).ravel()) / np.linalg.norm(hess.ravel()) <= 1e-4



def test_degree_zero_derivatives_are_zero():
    model = BezierSimplex(3, 0, [[1.0, -2.0]])
    t = [0.2, 0.3, 0.5]
    g, h = model.gradient(t), model.hessian(t)
    assert g.shape == (2, 3) and h.shape == (2, 3, 3)
    assert not g.any() and not h.any()


def test_partial_derivatives_m1():
    # b(t) = t^3 * 2.5 with t treated as free: 3 t^2 p and 6 t p at t = 1
    points = np.array([[2.5, -1.0]])
    T = np.array([[1.0], [1.0]])
    for order, scale in [(0, 1.0), (1, 3.0), (2, 6.0), (3, 6.0), (4, 0.0)]:
        out = partial_derivatives(1, 3, points, T, order)
        assert out.shape == (2, 2) + (1,) * order
        np.testing.assert_allclose(out.reshape(2, 2), scale * np.tile(points, (2, 1)))



@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 5), st.integers(0, 2),
    st.lists(st.integers(0, 4), min_size=1, max_size=5), st.integers(1, 3),
)
def test_stacked_partial_derivatives_keep_each_runs_bits(seed, m, degree, order, counts, ambient):
    # net f serves rows bounds[f]:bounds[f+1]; a run may be empty
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(len(counts), len(multi_indices(m, degree)), ambient))
    T = rng.dirichlet(np.ones(m), size=sum(counts))
    bounds = np.cumsum([0] + counts).tolist()
    got = derivatives_on_runs(m, degree, shifted_nets(m, degree, P, order), T, order, bounds)
    assert got.shape == (T.shape[0], ambient) + (m,) * order
    for f, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        alone = partial_derivatives(m, degree, P[f], T[lo:hi], order)
        assert got[lo:hi].tobytes() == alone.tobytes()
        if order == 0:  # the identity shift leaves the product with the net itself
            assert alone.tobytes() == (weighted_design_matrix(m, degree, T[lo:hi]) @ P[f]).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(0, 6), st.integers(1, 4))
def test_evaluate_has_the_bits_of_a_batch_row(seed, m, degree, ambient):
    rng = np.random.default_rng(seed)
    model = BezierSimplex(m, degree, rng.normal(size=(len(multi_indices(m, degree)), ambient)))
    t = rng.dirichlet(np.ones(m))
    assert model.evaluate(t).tobytes() == model.evaluate_batch([t])[0].tobytes()

# -- faces ------------------------------------------------------------------------


def test_face_indices_edge_of_triangle():
    all_idx, interior = face_indices(3, 3, (0, 1))
    assert len(all_idx) == 4
    assert set(interior) == {(2, 1, 0), (1, 2, 0)}


def test_face_indices_full_triangle_interior():
    _, interior = face_indices(3, 3, (0, 1, 2))
    assert interior == ((1, 1, 1),)


def test_face_indices_vertex():
    all_idx, interior = face_indices(5, 3, (1,))
    assert all_idx == interior == ((0, 3, 0, 0, 0),)


def test_face_indices_rejects_empty():
    with pytest.raises(FaceError):
        face_indices(3, 3, ())


def reference_face_indices(m, degree, face):
    """The support scan over every parent index that face_indices replaced."""
    fset = set(face)
    all_idx, interior = [], []
    for d in multi_indices(m, degree):
        support = {i for i, di in enumerate(d) if di > 0}
        if support <= fset:
            all_idx.append(d)
            if support == fset:
                interior.append(d)
    return tuple(all_idx), tuple(interior)


def test_face_indices_match_the_support_scan():
    for m in range(1, 8):
        faces = [face for k in range(1, m + 1) for face in itertools.combinations(range(m), k)]
        for degree in range(6):
            for face in faces:
                assert face_indices(m, degree, face) == reference_face_indices(m, degree, face)


def test_restrict_vertex_face_is_constant():
    model = random_model(9, m=4, degree=3)
    sub = model.restrict((2,))
    corner = tuple(3 if k == 2 else 0 for k in range(4))
    np.testing.assert_array_equal(sub.evaluate([1.0]), model.control_point(corner))


def test_restrict_full_face_is_identity():
    model = random_model(10, m=3, degree=2)
    sub = model.restrict((0, 1, 2))
    np.testing.assert_array_equal(sub.points, model.points)


def test_restriction_commutes_with_evaluation():
    rng = np.random.default_rng(11)
    model = random_model(11, m=4, degree=3, ambient=5)
    face = (0, 2)
    sub = model.restrict(face)
    for _ in range(50):
        s = rng.dirichlet(np.ones(len(face)))
        lhs = model.evaluate(embed_on_face(s, face, 4))
        rhs = sub.evaluate(s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_restriction_commutes_on_random_models(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    model = random_model(seed, m=m, degree=int(rng.integers(1, 5)))
    size = int(rng.integers(1, m + 1))
    face = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
    sub = model.restrict(face)
    s = rng.dirichlet(np.ones(len(face)))
    lhs = model.evaluate(embed_on_face(s, face, m))
    assert np.max(np.abs(lhs - sub.evaluate(s))) <= 1e-12


# -- serialization --------------------------------------------------------------------


def test_json_round_trip_bit_exact(tmp_path):
    model = random_model(12, m=3, degree=3, ambient=4)
    path = tmp_path / "model.json"
    model.save(path)
    back = BezierSimplex.load(path)
    assert back.m == model.m and back.degree == model.degree
    np.testing.assert_array_equal(back.points, model.points)


def test_json_canonical_index_order(tmp_path):
    model = random_model(13, m=2, degree=3)
    data = model.to_dict()
    assert [tuple(e["index"]) for e in data["control_points"]] == [
        (3, 0),
        (2, 1),
        (1, 2),
        (0, 3),
    ]


def test_from_dict_rejects_missing_index():
    model = random_model(14, m=2, degree=2)
    data = model.to_dict()
    data["control_points"] = data["control_points"][1:]
    with pytest.raises(InvalidIndexError):
        BezierSimplex.from_dict(data)


def _set_point(value, coordinate=None):
    def apply(entry):
        if coordinate is None:
            entry["point"] = value
        else:
            entry["point"][coordinate] = value
    return apply


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_set_point(float("nan"), 1), "must be finite", id="nan"),
        pytest.param(_set_point(float("-inf"), 0), "must be finite", id="infinite"),
        pytest.param(_set_point("x", 1), "is not a list of numbers", id="string-coordinate"),
        pytest.param(_set_point("x"), "is not a list of numbers", id="string-point"),
        pytest.param(_set_point(None), "is not a list of numbers", id="null-point"),
        pytest.param(_set_point(2.0), "is not a list of numbers", id="scalar-point"),
    ],
)
def test_from_dict_names_a_bad_control_point(edit, message):
    data = random_model(15, m=3, degree=2, ambient=3).to_dict()
    entry = data["control_points"][4]
    edit(entry)
    expected = f"Bezier simplex: control point {entry['index']} {message}"
    with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
        BezierSimplex.from_dict(data)


def test_from_dict_rejects_points_of_the_wrong_dimension():
    data = random_model(16, m=2, degree=2, ambient=2).to_dict()
    data["control_points"][1]["point"].append(1.0)
    with pytest.raises(DimensionError, match="points have dimension"):
        BezierSimplex.from_dict(data)


# M 8, D 20 has an 888,030-row table; at M 1,000,001, D 1,000,000 the
# binomial alone took 38 s to compute, so the count stops once past the entries
@pytest.mark.parametrize("m, degree", [(8, 20), (10**6 + 1, 10**6), (1, 10**9), (10**9, 1)])
def test_from_dict_counts_the_entries_before_building_the_index_table(monkeypatch, m, degree):
    data = random_model(19, m=2, degree=1, ambient=2).to_dict()
    data.update(M=m, D=degree)

    def never(*args):
        raise AssertionError("built an index table")

    monkeypatch.setattr(bezier, "multi_indices", never)
    monkeypatch.setattr(bezier, "compositions", never)
    with pytest.raises(InvalidIndexError, match="^control point index set is incomplete or has extras$"):
        BezierSimplex.from_dict(data)


@pytest.mark.parametrize(
    "m, degree, error, message",
    [(0, 2, DimensionError, "need at least one barycentric coordinate, got m=0"),
     (3, -1, InvalidIndexError, "degree must be nonnegative, got -1"),
     (0, -1, InvalidIndexError, "degree must be nonnegative, got -1")],
)
def test_from_dict_keeps_the_header_messages(m, degree, error, message):
    data = random_model(20, m=2, degree=1, ambient=2).to_dict()
    data.update(M=m, D=degree)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        BezierSimplex.from_dict(data)


@pytest.mark.parametrize(
    "edit, reason",
    [
        pytest.param(None, "not a JSON file (Expecting value: line 1 column 1 (char 0))", id="not-json"),
        pytest.param(lambda d: d.update(M=[3]), "M must be an integer, not [3]", id="list-M"),
        pytest.param(
            lambda d: d.pop("control_points"), "model file has no field 'control_points'", id="missing-field"
        ),
    ],
)
def test_load_names_the_file_it_cannot_read(tmp_path, edit, reason):
    path = tmp_path / "model.json"
    if edit is None:
        path.write_text("not json\n")
    else:
        data = random_model(17, m=3, degree=2).to_dict()
        edit(data)
        path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {reason}')}$"):
        BezierSimplex.load(path)


def test_design_matrix_rows_sum_to_one():
    rng = np.random.default_rng(15)
    T = rng.dirichlet(np.ones(4), size=20)
    phi = weighted_design_matrix(4, 3, T)
    np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-12)


# -- the monomial kernel, bit for bit against the (n, K, m) power tensor ---------


def reference_design(T, E):
    """The power-tensor product `monomials` replaced."""
    return np.prod(T[:, None, :] ** E[None, :, :], axis=2)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def simplex_rows(draw):
    m = draw(st.integers(1, 8))
    degree = draw(st.integers(0, 6))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    T = rng.dirichlet(np.ones(m), size=n)
    # rows of exact zeros and ones: vertices, and points on lower faces
    for i in range(0, n, 7):
        T[i] = np.eye(m)[rng.integers(m)]
    for i in range(3, n, 11):
        T[i, rng.random(m) < 0.5] = 0.0
    return m, degree, T


@settings(max_examples=60, deadline=None)
@given(simplex_rows())
def test_monomials_match_power_tensor_bits(case):
    m, degree, T = case
    E = np.array(multi_indices(m, degree), dtype=np.int64).reshape(-1, m)
    assert_same_bits(monomials(T, E), reference_design(T, E))
    w = np.array([multinomial(degree, d) for d in multi_indices(m, degree)], dtype=float)
    assert_same_bits(weighted_design_matrix(m, degree, T), w * reference_design(T, E))


def test_degree_one_design_matrix_is_the_parameters():
    rng = np.random.default_rng(16)
    T = rng.dirichlet(np.ones(3), size=400) * 10.0 ** rng.integers(-300, 301, size=(400, 1))
    T[::9, 1] = -0.0
    E = np.eye(3, dtype=np.int64)
    assert weighted_design_matrix(3, 1, T) is T
    assert_same_bits(weighted_design_matrix(3, 1, T), reference_design(T, E))
    assert_same_bits(weighted_design_matrix(3, 1, T[:, ::-1]), reference_design(T[:, ::-1], E))


@pytest.mark.parametrize("k", range(1, 7))
def test_monomials_match_power_tensor_on_cubic_basis(k):
    E = np.array(cubic_basis_exponents(k))
    U = np.random.default_rng(k).random((300, k))
    U[:40] = np.round(U[:40])  # exact 0s and 1s
    assert_same_bits(monomials(U, cubic_basis_exponents(k)), reference_design(U, E))


def test_monomials_match_power_tensor_on_med5_box_grid():
    # the response surface's 21^4 sampling grid at M=5, r=20
    axis = np.arange(21) / 20
    U = np.ascontiguousarray(axis[np.indices((21,) * 4).reshape(4, -1).T])
    E = np.array(cubic_basis_exponents(4))
    assert_same_bits(monomials(U, E), reference_design(U, E))
