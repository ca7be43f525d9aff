import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsf.bezier import MAX_EXACT_DEGREE, BezierSimplex, embed_on_face, face_indices, multi_indices, multinomial
from bsf.errors import DimensionError, InsufficientDataError
from bsf.fitting import (
    FitConfig,
    barycentric_grid,
    fit_all_at_once,
    fit_inductive_skeleton,
    init_parameters,
    initialize_control_net,
    project_parameter,
    solve_control_points,
    sse,
)
from bsf.pareto import SampleSet, enumerate_faces

TIGHT = FitConfig(degree=3, newton_tol=1e-10, outer_tol=1e-10)


def perturbed_net(m, degree, vertices, scale, seed, pin_corners=True):
    rng = np.random.default_rng(seed)
    net = initialize_control_net(vertices, degree)
    pts = net.points + rng.normal(scale=scale, size=net.points.shape)
    if pin_corners:
        for j, d in enumerate(net.indices):
            if max(d) == degree:
                pts[j] = net.points[j]
    return BezierSimplex(m, degree, pts)


# -- initialize_control_net ------------------------------------------------------


def test_config_rejects_degree_above_exact_limit():
    assert FitConfig(degree=MAX_EXACT_DEGREE).degree == MAX_EXACT_DEGREE
    with pytest.raises(ValueError, match=f"^degree 21 exceeds exact-arithmetic limit {MAX_EXACT_DEGREE}$"):
        FitConfig(degree=MAX_EXACT_DEGREE + 1)


@pytest.mark.parametrize("field", ["newton_tol", "outer_tol"])
@pytest.mark.parametrize("value", [float("nan"), 0.0, -1e-5])
def test_config_rejects_tolerances_that_are_not_positive(field, value):
    with pytest.raises(ValueError, match="^tolerances must be positive$"):
        FitConfig(**{field: value})


@pytest.mark.parametrize(
    "field, message",
    [
        ("max_outer_iters", "iteration caps must be at least 1"),
        ("max_newton_iters", "iteration caps must be at least 1"),
        ("init_grid_resolution", "init grid resolution must be at least 1"),
    ],
)
def test_config_rejects_counts_below_one(field, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FitConfig(**{field: 0})


def test_init_net_m2_grid_formula():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 3.0])
    net = initialize_control_net([a, b], 3)
    np.testing.assert_allclose(net.control_point((2, 1)), (2 * a + b) / 3)
    np.testing.assert_allclose(net.control_point((3, 0)), a)


def test_init_net_all_vertices_equal():
    c = np.array([2.0, -1.0, 0.5])
    net = initialize_control_net([c, c, c], 3)
    np.testing.assert_allclose(net.points, np.tile(c, (10, 1)))


def test_init_net_m3_matches_index_formula():
    rng = np.random.default_rng(0)
    V = rng.normal(size=(3, 3))
    net = initialize_control_net(V, 3)
    assert net.points.shape == (10, 3)
    for d in multi_indices(3, 3):
        expected = sum(d[j] / 3 * V[j] for j in range(3))
        np.testing.assert_allclose(net.control_point(d), expected, atol=1e-14)


def test_init_net_rejects_wrong_count():
    with pytest.raises(DimensionError):
        initialize_control_net(np.eye(3), 3, m=4)


# -- project_parameter ---------------------------------------------------------------


def test_project_recovers_known_parameter():
    model = perturbed_net(3, 3, np.eye(3) * 2.0, 0.1, seed=1)
    t_star = np.array([0.3, 0.45, 0.25])
    x = model.evaluate(t_star)
    t = project_parameter(model, x, [0.35, 0.40, 0.25], FitConfig())
    assert np.max(np.abs(t - t_star)) <= 1e-6


def test_project_vertex_point_from_any_start():
    model = perturbed_net(3, 3, np.eye(3) * 2.0, 0.05, seed=2)
    x = model.control_point((3, 0, 0))
    t = project_parameter(model, x, np.full(3, 1 / 3), FitConfig())
    np.testing.assert_allclose(t, [1.0, 0.0, 0.0], atol=1e-6)


def test_project_affine_matches_grid_search():
    # D=1 model: squared distance is a convex quadratic; a dense grid scan is
    # the oracle for the constrained minimizer.
    rng = np.random.default_rng(3)
    model = BezierSimplex(2, 1, rng.normal(size=(2, 2)))
    cfg = FitConfig(degree=1)
    grid = barycentric_grid(2, 1000)
    values = model.evaluate_batch(grid)
    for _ in range(10):
        x = rng.normal(scale=2.0, size=2)
        t = project_parameter(model, x, [0.5, 0.5], cfg)
        g_newton = float(np.sum((model.evaluate(t) - x) ** 2))
        dists = np.sum((values - x) ** 2, axis=1)
        best = grid[int(np.argmin(dists))]
        g_grid = float(dists.min())
        assert g_newton <= g_grid + 1e-12
        assert np.max(np.abs(t - best)) <= 1.5e-3


def test_project_never_worse_than_start():
    rng = np.random.default_rng(4)
    model = perturbed_net(3, 3, np.eye(3), 0.4, seed=4, pin_corners=False)
    for _ in range(25):
        t0 = rng.dirichlet(np.ones(3))
        x = rng.normal(size=3)
        t = project_parameter(model, x, t0, FitConfig())
        g0 = float(np.sum((model.evaluate(t0) - x) ** 2))
        g1 = float(np.sum((model.evaluate(t) - x) ** 2))
        assert g1 <= g0 + 1e-12


def test_project_constant_model_survives_singular_hessian():
    n = len(multi_indices(3, 2))
    model = BezierSimplex(3, 2, np.tile([1.0, 1.0], (n, 1)))
    t = project_parameter(model, np.array([0.0, 0.0]), np.full(3, 1 / 3), FitConfig(degree=2))
    assert np.all(t >= 0) and abs(t.sum() - 1) <= 1e-12


def test_project_m1_is_trivial():
    model = BezierSimplex(1, 3, np.array([[2.5]]))
    t = project_parameter(model, np.array([1.0]), [1.0], FitConfig())
    np.testing.assert_array_equal(t, [1.0])


def test_project_m1_batch_is_trivial():
    model = BezierSimplex(1, 3, np.array([[2.5, 1.0]]))
    T = project_parameter(model, np.array([[1.0, 0.0], [3.0, 2.0]]), [[1.0], [1.0]], FitConfig())
    np.testing.assert_array_equal(T, [[1.0], [1.0]])


def test_project_rejects_count_mismatch():
    model = perturbed_net(3, 3, np.eye(3), 0.1, seed=9)
    with pytest.raises(DimensionError):
        project_parameter(model, np.zeros((2, 3)), np.full((3, 3), 1 / 3), FitConfig())


def _reference_value_jac_hess(model, t):
    """Value, Jacobian and Hessian from per-monomial exponent tables."""
    idx = np.array(model.indices).reshape(-1, model.m)
    w = np.array([multinomial(model.degree, tuple(d)) for d in idx], dtype=float)
    eye = np.eye(model.m, dtype=int)
    grad_exp = np.maximum(idx[None] - eye[:, None], 0)  # (m, K, m)
    hess_exp = np.maximum(idx[None, None] - eye[:, None, None] - eye[None, :, None], 0)
    grad_coef = w * idx.T  # (m, K): w_k d_kj
    hess_coef = w * idx.T[:, None, :] * (idx.T[None] - eye[:, :, None])
    b = (w * np.prod(t ** idx, axis=-1)) @ model.points
    jac = ((grad_coef * np.prod(t ** grad_exp, axis=-1)) @ model.points).T
    hess = np.einsum("ijk,ka->aij", hess_coef * np.prod(t ** hess_exp, axis=-1), model.points)
    return b, jac, hess


def scalar_project_reference(model, x, t0, cfg):
    """The per-point Newton loop that the batched projection replaced."""
    t = np.asarray(t0, dtype=float)
    if model.m == 1:
        return t

    def clamp_renorm(tv):
        tv = np.maximum(tv, 0.0)
        s = tv.sum()
        return None if s <= 0.0 else tv / s

    def squared_distance(tv):
        r = _reference_value_jac_hess(model, tv)[0] - x
        return float(r @ r)

    best_t, best_g = t, squared_distance(t)
    stalled = 0
    for _ in range(cfg.max_newton_iters):
        b, jac, hess = _reference_value_jac_hess(model, t)
        r = b - x
        resid = jac.T @ r
        if math.sqrt(float(resid @ resid)) <= cfg.newton_tol:
            break
        g_now = float(r @ r)
        grad = 2.0 * resid
        hg = 2.0 * (jac.T @ jac + np.tensordot(r, hess, axes=(0, 0)))
        gu = grad[:-1] - grad[-1]
        hu = hg[:-1, :-1] - hg[:-1, -1:] - hg[-1:, :-1] + hg[-1, -1]
        t_new = None
        try:
            step = np.linalg.solve(hu, -gu)
            if np.all(np.isfinite(step)):
                t_new = clamp_renorm(t + np.append(step, -step.sum()))
        except np.linalg.LinAlgError:
            t_new = None
        if t_new is None:
            direction = np.append(-gu, gu.sum())
            alpha = 1.0
            for _ in range(20):
                cand = clamp_renorm(t + alpha * direction)
                if cand is not None and squared_distance(cand) < g_now:
                    t_new = cand
                    break
                alpha *= 0.5
        if t_new is None or np.max(np.abs(t_new - t)) <= 1e-15:
            break
        t = t_new
        g = squared_distance(t)
        if g < best_g:
            best_t, best_g = t, g
            stalled = 0
        else:
            stalled += 1
            if stalled >= 5:
                break
    return best_t


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5), st.integers(2, 4), st.integers(1, 5), st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_project_batch_matches_scalar_reference(m, degree, ambient, n, seed):
    rng = np.random.default_rng(seed)
    model = BezierSimplex(
        m, degree, rng.normal(size=(len(multi_indices(m, degree)), ambient))
    )
    X = rng.normal(size=(n, ambient))
    T0 = rng.dirichlet(np.ones(m), size=n)
    cfg = FitConfig(degree=degree)
    T = project_parameter(model, X, T0, cfg)
    assert T.shape == (n, m)
    ref = np.vstack([scalar_project_reference(model, x, t0, cfg) for x, t0 in zip(X, T0)])
    assert np.max(np.abs(T - ref)) <= 1e-6
    i = int(rng.integers(n))
    single = project_parameter(model, X[i], T0[i], cfg)
    assert single.shape == (m,)
    assert np.max(np.abs(single - T[i])) <= 1e-6


def test_project_mixed_singular_and_regular_rows():
    # b(t) = t_1^2. At t = (1/2, 1/2) the reduced Newton matrix of row 0 is
    # exactly zero, so the stacked solve fails; row 1's stays regular and must
    # keep its Newton step rather than take the gradient fallback.
    model = BezierSimplex(2, 2, [[1.0], [0.0], [0.0]])
    X = np.array([[0.75], [0.2]])
    T0 = np.array([[0.5, 0.5]] * 2)
    cfg = FitConfig(degree=2, newton_tol=1e-10)
    T = project_parameter(model, X, T0, cfg)
    np.testing.assert_allclose(T[:, 0], np.sqrt([0.75, 0.2]), atol=1e-6)
    for i in range(2):
        single = project_parameter(model, X[i], T0[i], cfg)
        assert np.max(np.abs(single - T[i])) <= 1e-6
    # after two iterations the Newton and fallback paths of row 1 are far apart
    capped = FitConfig(degree=2, max_newton_iters=2)
    T = project_parameter(model, X, T0, capped)
    single = project_parameter(model, X[1], T0[1], capped)
    assert np.max(np.abs(single - T[1])) <= 1e-12
    np.testing.assert_allclose(
        single, scalar_project_reference(model, X[1], T0[1], capped), atol=1e-12
    )


# -- init_parameters -------------------------------------------------------------------


def test_init_parameters_hits_vertex_sample():
    model = perturbed_net(3, 3, np.eye(3) * 2.0, 0.05, seed=5)
    X = model.control_point((0, 3, 0))[None, :]
    T = init_parameters(model, X, FitConfig())
    np.testing.assert_array_equal(T[0], [0.0, 1.0, 0.0])


def test_init_parameters_resolution_one_picks_nearest_vertex():
    model = initialize_control_net(np.eye(3) * 2.0, 3)
    cfg = FitConfig(init_grid_resolution=1)
    X = np.array([[1.9, 0.05, 0.05], [0.0, 0.1, 1.8]])
    T = init_parameters(model, X, cfg)
    np.testing.assert_array_equal(T, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_init_parameters_matches_exhaustive_scan():
    rng = np.random.default_rng(6)
    model = perturbed_net(3, 3, np.eye(3), 0.3, seed=6, pin_corners=False)
    X = rng.normal(size=(12, 3))
    cfg = FitConfig(init_grid_resolution=7)
    T = init_parameters(model, X, cfg)
    grid = barycentric_grid(3, 7)
    values = model.evaluate_batch(grid)
    for x, t in zip(X, T):
        dists = [float(np.sum((v - x) ** 2)) for v in values]
        np.testing.assert_array_equal(t, grid[int(np.argmin(dists))])


# -- solve_control_points ----------------------------------------------------------------


def test_solve_recovers_net_from_exact_parameters():
    rng = np.random.default_rng(7)
    true = perturbed_net(3, 3, np.eye(3) * 2.0, 0.15, seed=7)
    T = rng.dirichlet(np.ones(3), size=40)
    X = true.evaluate_batch(T)
    start = initialize_control_net(np.eye(3) * 2.0, 3)
    solved = solve_control_points(X, T, start, set(start.indices))
    assert np.max(np.abs(solved.points - true.points)) <= 1e-8


def test_solve_with_no_free_points_returns_model_unchanged():
    model = initialize_control_net(np.eye(2), 2)
    out = solve_control_points(np.ones((3, 2)), np.tile([0.5, 0.5], (3, 1)), model, set())
    assert out is model


def test_solve_single_point_interpolation():
    model = BezierSimplex(1, 1, np.array([[0.0]]))
    out = solve_control_points(np.array([[4.5]]), np.array([[1.0]]), model, {(1,)})
    np.testing.assert_allclose(out.points, [[4.5]])


def test_solve_empty_sample_raises():
    model = initialize_control_net(np.eye(2), 1)
    with pytest.raises(InsufficientDataError):
        solve_control_points(np.empty((0, 2)), np.empty((0, 2)), model, set(model.indices))


@pytest.mark.parametrize(
    "free, n_params, message",
    [
        ({(3, 0)}, 3, r"^free indices not in the model: \[\(3, 0\)\]$"),
        ({(1, 1)}, 2, "^samples and parameters disagree in count$"),
    ],
)
def test_solve_rejects_what_does_not_fit_the_model(free, n_params, message):
    model = initialize_control_net(np.eye(2), 2)
    with pytest.raises(DimensionError, match=message):
        solve_control_points(np.ones((3, 2)), np.full((n_params, 2), 0.5), model, free)


def test_solve_keeps_fixed_rows_bit_identical():
    rng = np.random.default_rng(8)
    model = perturbed_net(3, 3, np.eye(3), 0.1, seed=8)
    T = rng.dirichlet(np.ones(3), size=6)
    X = rng.normal(size=(6, 3))
    _, interior = face_indices(3, 3, (0, 1, 2))
    out = solve_control_points(X, T, model, set(interior))
    for i, d in enumerate(model.indices):
        if d not in interior:
            np.testing.assert_array_equal(out.points[i], model.points[i])


# -- sse -------------------------------------------------------------------------------


def test_sse_zero_on_exact_preimages():
    rng = np.random.default_rng(9)
    model = perturbed_net(2, 3, np.array([[0.0, 4.0], [4.0, 0.0]]), 0.1, seed=9)
    T = rng.dirichlet(np.ones(2), size=5)
    assert sse(model, model.evaluate_batch(T), T) <= 1e-24


def test_sse_distance_squared():
    model = BezierSimplex(1, 0, np.array([[0.0, 0.0]]))
    assert sse(model, np.array([[0.0, 2.0]]), np.array([[1.0]])) == pytest.approx(4.0)


def test_sse_rejects_a_count_mismatch():
    model = initialize_control_net(np.eye(2), 2)
    with pytest.raises(DimensionError, match="^samples and parameters disagree in count$"):
        sse(model, np.ones((3, 2)), np.full((2, 2), 0.5))


def test_sse_matches_naive_recomputation():
    rng = np.random.default_rng(10)
    model = perturbed_net(3, 2, np.eye(3), 0.2, seed=10, pin_corners=False)
    T = rng.dirichlet(np.ones(3), size=8)
    X = rng.normal(size=(8, 3))
    expected = sum(
        float(np.sum((model.evaluate(t) - x) ** 2)) for t, x in zip(T, X)
    )
    assert sse(model, X, T) == pytest.approx(expected, rel=1e-12)


# -- fit_all_at_once -----------------------------------------------------------------------


def test_all_at_once_round_trip_two_objectives():
    # exact data from a gently curved net, N = 2 * |index set|
    rng = np.random.default_rng(12)
    V = np.array([[0.0, 4.0], [4.0, 0.0]])
    true = perturbed_net(2, 3, V, 0.02, seed=12)
    u = rng.uniform(0.08, 0.92, size=8)
    T = np.column_stack([u, 1 - u])
    X = true.evaluate_batch(T)
    res = fit_all_at_once(SampleSet(X), V, TIGHT)
    assert math.sqrt(res.ssr_trace[-1]) / 8 <= 1e-6


def test_all_at_once_square_system_interpolates():
    rng = np.random.default_rng(12)
    V = np.eye(3) * 2.0
    true = perturbed_net(3, 3, V, 0.1, seed=12)
    T = rng.dirichlet(np.ones(3), size=10)
    X = true.evaluate_batch(T)
    res = fit_all_at_once(SampleSet(X), V, TIGHT)
    assert math.sqrt(res.ssr_trace[-1]) / 10 <= 1e-8


def test_all_at_once_single_vertex_sample_stops_immediately():
    V = np.eye(3) * 2.0
    S = SampleSet(V[[0]])
    res = fit_all_at_once(S, V, FitConfig())
    assert res.outer_iterations == 1
    assert res.ssr_trace[-1] <= 1e-20


def test_all_at_once_rejects_corners_in_another_space():
    S = SampleSet(np.random.default_rng(14).uniform(size=(5, 2)))
    with pytest.raises(DimensionError, match=r"^corner points live in R\^3 but samples in R\^2$"):
        fit_all_at_once(S, np.zeros((2, 3)), FitConfig())


def test_all_at_once_ssr_trace_monotone():
    rng = np.random.default_rng(13)
    V = np.eye(3)
    true = perturbed_net(3, 3, V, 0.2, seed=13)
    T = rng.dirichlet(np.ones(3), size=25)
    X = true.evaluate_batch(T) + rng.normal(scale=0.01, size=(25, 3))
    res = fit_all_at_once(SampleSet(X), V, FitConfig())
    trace = res.ssr_trace
    assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))


def test_all_at_once_parameters_shape():
    V = np.array([[0.0, 1.0], [1.0, 0.0]])
    S = SampleSet([[0.5, 0.5], [0.2, 0.9]])
    res = fit_all_at_once(S, V, FitConfig(degree=2))
    assert res.parameters.shape == (2, 2)
    assert res.per_face_report is None


# -- fit_inductive_skeleton ---------------------------------------------------------------


def exact_face_training(true, sizes, seed):
    rng = np.random.default_rng(seed)
    training = {}
    for face in enumerate_faces(true.m, min(true.degree, true.m)):
        k = len(face)
        if k == 1:
            corner = tuple(true.degree if i == face[0] else 0 for i in range(true.m))
            X = true.points[[true.index_row(corner)]]
        else:
            s = rng.dirichlet(np.ones(k), size=sizes[k - 1])
            X = true.evaluate_batch(embed_on_face(s, face, true.m))
        training[face] = SampleSet(X)
    return training


def test_skeleton_vertex_pass_sets_corner_points():
    V = np.eye(3) * 2.0
    true = perturbed_net(3, 3, V, 0.1, seed=14)
    training = exact_face_training(true, (1, 2, 1), seed=14)
    res = fit_inductive_skeleton(training, V, TIGHT)
    for j in range(3):
        corner = tuple(3 if i == j else 0 for i in range(3))
        np.testing.assert_array_equal(
            res.model.control_point(corner), training[(j,)].objectives[0]
        )


def test_skeleton_free_point_counts_3med_shape():
    V = np.eye(3) * 2.0
    true = perturbed_net(3, 3, V, 0.1, seed=15)
    training = exact_face_training(true, (1, 2, 1), seed=15)
    res = fit_inductive_skeleton(training, V, TIGHT)
    frees = [res.per_face_report[face].free_points for face in sorted(res.per_face_report, key=lambda f: (len(f), f))]
    assert frees == [1, 1, 1, 2, 2, 2, 1]


def test_skeleton_round_trip_recovers_net():
    V = np.eye(3) * 2.0
    true = perturbed_net(3, 3, V, 0.08, seed=16)
    training = exact_face_training(true, (1, 2, 1), seed=16)
    res = fit_inductive_skeleton(training, V, TIGHT)
    all_X = np.vstack([S.objectives for S in training.values()])
    n = all_X.shape[0]
    T = np.vstack([project_parameter(res.model, x, np.full(3, 1 / 3), TIGHT) for x in all_X])
    assert math.sqrt(sse(res.model, all_X, T)) / n <= 1e-6


def test_skeleton_missing_vertex_sample_raises():
    V = np.eye(3) * 2.0
    true = perturbed_net(3, 3, V, 0.1, seed=17)
    training = exact_face_training(true, (1, 2, 1), seed=17)
    del training[(1,)]
    with pytest.raises(InsufficientDataError):
        fit_inductive_skeleton(training, V, TIGHT)


def test_skeleton_empty_face_keeps_grid_init_and_warns():
    V = np.eye(3) * 2.0
    true = perturbed_net(3, 3, V, 0.1, seed=18)
    training = exact_face_training(true, (1, 2, 1), seed=18)
    del training[(0, 1)]
    res = fit_inductive_skeleton(training, V, TIGHT)
    assert res.per_face_report[(0, 1)].warning == "empty subsample"
    # the skipped face's interior points stay on the initialization grid
    init = initialize_control_net(V, 3)
    for d in [(2, 1, 0), (1, 2, 0)]:
        np.testing.assert_array_equal(res.model.control_point(d), init.control_point(d))


def test_skeleton_lower_faces_stay_bit_identical_during_higher_fits():
    V = np.eye(3) * 2.0
    true = perturbed_net(3, 3, V, 0.1, seed=19)
    training = exact_face_training(true, (1, 3, 4), seed=19)
    edge_only = {f: s for f, s in training.items() if len(f) <= 2}
    res_partial = fit_inductive_skeleton(edge_only, V, TIGHT)
    res_full = fit_inductive_skeleton(training, V, TIGHT)
    all_edge, _ = face_indices(3, 3, (0, 1))
    for face in [(0, 1), (0, 2), (1, 2)]:
        for d in face_indices(3, 3, face)[0]:
            np.testing.assert_array_equal(
                res_full.model.control_point(d), res_partial.model.control_point(d)
            )


# -- parity with a direct curve fitter -------------------------------------------------------


def reference_curve_fit(X, endpoints, cfg):
    """Scalar-parameter alternating curve fit under the same protocol (grid
    start, Newton foot points, full linear solve, improvement stop), written
    independently of the package internals. The two-coordinate machinery must
    specialize to exactly this on curves."""
    degree = cfg.degree
    n = X.shape[0]
    coeffs = np.array(
        [endpoints[0] + (endpoints[1] - endpoints[0]) * k / degree for k in range(degree + 1)]
    )

    def bernstein_row(s):
        return np.array(
            [math.comb(degree, k) * s**k * (1 - s) ** (degree - k) for k in range(degree + 1)]
        )

    def curve(s):
        return bernstein_row(s) @ coeffs

    def dcurve(s):
        lower = np.array(
            [
                math.comb(degree - 1, k) * s**k * (1 - s) ** (degree - 1 - k)
                for k in range(degree)
            ]
        )
        return degree * lower @ (coeffs[1:] - coeffs[:-1])

    def d2curve(s):
        lower = np.array(
            [
                math.comb(degree - 2, k) * s**k * (1 - s) ** (degree - 2 - k)
                for k in range(degree - 1)
            ]
        )
        return degree * (degree - 1) * lower @ (coeffs[2:] - 2 * coeffs[1:-1] + coeffs[:-2])

    def foot(s, x):
        # the package's residual test uses both independent-coordinate
        # partials; on a curve those are (-c'(s), c'(s)) up to the chain rule,
        # so the equivalent scalar test carries a sqrt(2) factor
        for _ in range(cfg.max_newton_iters):
            r = curve(s) - x
            d1 = dcurve(s)
            grad = float(d1 @ r)
            if math.sqrt(2.0) * abs(grad) <= cfg.newton_tol:
                break
            hess = float(d1 @ d1 + d2curve(s) @ r)
            step = -grad / hess if hess != 0 else -grad
            s_new = min(1.0, max(0.0, s + step))
            if abs(s_new - s) <= 1e-15:
                break
            s = s_new
        return s

    grid = np.linspace(0.0, 1.0, cfg.init_grid_resolution + 1)
    S = np.array([grid[int(np.argmin([np.sum((curve(s) - x) ** 2) for s in grid]))] for x in X])
    phi = np.vstack([bernstein_row(s) for s in S])
    ssr = float(np.sum((phi @ coeffs - X) ** 2))
    for _ in range(cfg.max_outer_iters):
        S = np.array([foot(s, x) for s, x in zip(S, X)])
        phi = np.vstack([bernstein_row(s) for s in S])
        coeffs, *_ = np.linalg.lstsq(phi, X, rcond=None)
        previous = ssr
        ssr = float(np.sum((phi @ coeffs - X) ** 2))
        if (math.sqrt(previous) - math.sqrt(ssr)) / n <= cfg.outer_tol:
            break
    return coeffs, ssr


def test_two_objective_parity_with_reference_curve_fit():
    rng = np.random.default_rng(20)
    a, b = np.array([0.0, 4.0]), np.array([4.0, 0.0])
    s = np.sort(rng.uniform(0.05, 0.95, size=30))
    X = np.column_stack([4 * s**2, 4 * (1 - s) ** 2]) + rng.normal(scale=1e-3, size=(30, 2))
    # tight Newton so both routes compare fully converged foot points; the
    # residual tests differ by a coordinate-handedness factor otherwise
    cfg = FitConfig(degree=3, newton_tol=1e-9)
    # barycentric coordinates are ordered (t1, t2) = (1 - s, s): the first
    # vertex is the curve's s = 0 end
    res = fit_all_at_once(SampleSet(X), np.vstack([a, b]), cfg)
    _, ssr_ref = reference_curve_fit(X, (a, b), cfg)
    ours = res.ssr_trace[-1]
    assert abs(ours - ssr_ref) / max(ssr_ref, 1e-12) <= 1e-6


def test_skeleton_matches_reference_on_exact_curve_data():
    # on noise-free representable data every route drives the error to zero,
    # so the skeleton (vertices pinned) and the scalar reference agree too
    rng = np.random.default_rng(21)
    a, b = np.array([0.0, 4.0]), np.array([4.0, 0.0])
    s = rng.uniform(0.1, 0.9, size=3)
    edge = np.column_stack([4 * s**2, 4 * (1 - s) ** 2])
    training = {
        (0,): SampleSet(a[None, :]),
        (1,): SampleSet(b[None, :]),
        (0, 1): SampleSet(edge),
    }
    cfg = FitConfig(degree=3, newton_tol=1e-10, outer_tol=1e-10)
    res = fit_inductive_skeleton(training, np.vstack([a, b]), cfg)
    X = np.vstack([a, b, edge])
    _, ssr_ref = reference_curve_fit(X, (a, b), cfg)
    ours = res.per_face_report[(0, 1)].ssr
    assert ours <= 1e-12 and ssr_ref <= 1e-12
