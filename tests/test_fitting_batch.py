"""The lockstep batch: faces of one cardinality fitted together must give the
bits of fitting them one after another, the fits of several methods run by
one fit_lockstep call the bits of fitting each alone, and a tuple projection
the bits of one projection per model.

The references below are the per-face loop and the single-net Newton
iteration that the batch replaced, kept verbatim apart from names.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsf import fitting
from bsf.bezier import (
    BezierSimplex,
    as_barycentric_rows,
    embed_on_face,
    face_indices,
    multi_indices,
    partial_derivatives,
    weighted_design_matrix,
)
from bsf.errors import BsfError, DimensionError, InsufficientDataError
from bsf.fitting import (
    FitConfig,
    FitResult,
    _clamp_renorm,
    _solve_rows,
    fit_all_at_once,
    fit_inductive_skeleton,
    fit_lockstep,
    init_parameters,
    initialize_control_net,
    project_parameter,
    solve_control_points,
    sse,
)
from bsf.harness import ExperimentConfig, run_trial, vertex_optima_from
from bsf.pareto import SampleSet, enumerate_faces, face_label
from bsf.problems import get_problem, make_training_set

# -- references: one Newton batch per model, one alternating loop per face -------------


def reference_newton_rows(model, X, T, cfg):
    m, degree, P = model.m, model.degree, model.points

    def residuals(Tv, Xv):
        return weighted_design_matrix(m, degree, Tv) @ P - Xv

    R = residuals(T, X)
    best_T, best_g = T.copy(), np.sum(R * R, axis=1)
    stalled = np.zeros(T.shape[0], dtype=int)
    active = np.arange(T.shape[0])
    for _ in range(cfg.max_newton_iters):
        if active.size == 0:
            break
        t, x, r = T[active], X[active], R[active]
        jac = partial_derivatives(m, degree, P, t, 1)
        resid = np.einsum("kaj,ka->kj", jac, r)
        going = ~(np.sqrt(np.sum(resid * resid, axis=1)) <= cfg.newton_tol)
        active, t, x, r, jac, resid = (a[going] for a in (active, t, x, r, jac, resid))
        if active.size == 0:
            break
        hess = partial_derivatives(m, degree, P, t, 2)
        g_now = np.sum(r * r, axis=1)
        grad = 2.0 * resid
        hg = 2.0 * (
            np.einsum("kai,kaj->kij", jac, jac) + np.einsum("ka,kaij->kij", r, hess)
        )
        gu = grad[:, :-1] - grad[:, -1:]
        hu = hg[:, :-1, :-1] - hg[:, :-1, -1:] - hg[:, -1:, :-1] + hg[:, -1:, -1:]
        step = _solve_rows(hu, -gu)
        step[~np.all(np.isfinite(step), axis=1)] = np.nan
        step = np.append(step, -step.sum(axis=1, keepdims=True), axis=1)
        t_new, found = _clamp_renorm(t + step)
        direction = np.append(-gu, gu.sum(axis=1, keepdims=True), axis=1)
        alpha = 1.0
        for _ in range(20):
            todo = np.flatnonzero(~found)
            if todo.size == 0:
                break
            cand, ok = _clamp_renorm(t[todo] + alpha * direction[todo])
            rc = residuals(cand[ok], x[todo][ok])
            ok[ok] = np.sum(rc * rc, axis=1) < g_now[todo][ok]
            t_new[todo[ok]] = cand[ok]
            found[todo[ok]] = True
            alpha *= 0.5
        moved = found & (np.max(np.abs(t_new - t), axis=1) > 1e-15)
        active, t_new = active[moved], t_new[moved]
        T[active] = t_new
        R[active] = residuals(t_new, X[active])
        g = np.sum(R[active] ** 2, axis=1)
        better = g < best_g[active]
        best_T[active[better]] = t_new[better]
        best_g[active[better]] = g[better]
        stalled[active[better]] = 0
        stalled[active[~better]] += 1
        active = active[stalled[active] < 5]
    return best_T


def reference_project(model, x, t0, cfg):
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    T = as_barycentric_rows(t0, model.m)
    if model.m > 1:
        T = reference_newton_rows(model, X, T, cfg)
    return T[0] if single else T


def reference_alternate(model, X, cfg, free):
    n = X.shape[0]
    T = init_parameters(model, X, cfg)
    trace = [sse(model, X, T)]
    iterations = 0
    for _ in range(cfg.max_outer_iters):
        T = reference_project(model, X, T, cfg)
        model = solve_control_points(X, T, model, free)
        current = sse(model, X, T)
        previous = trace[-1]
        trace.append(current)
        iterations += 1
        if (math.sqrt(previous) - math.sqrt(current)) / n <= cfg.outer_tol:
            break
    return model, T, trace, iterations


def reference_skeleton(decomposed, vertex_optima, cfg):
    V = np.atleast_2d(np.asarray(vertex_optima, dtype=float))
    m = V.shape[0]
    model = initialize_control_net(V, cfg.degree)
    report = {}
    last_trace = [0.0]
    max_iters = 0
    for face in enumerate_faces(m, min(cfg.degree, m) if cfg.degree >= 1 else 1):
        _, interior = face_indices(m, cfg.degree, face)
        if not interior:
            continue
        S_face = decomposed.get(face)
        n_points = 0 if S_face is None else S_face.n
        if n_points == 0:
            if len(face) == 1:
                raise InsufficientDataError(f"no sample for vertex face {face_label(face)}")
            report[face] = fitting.FaceReport(0, float("nan"), 0, len(interior), "empty subsample")
            continue
        X = S_face.ambient()
        if X.shape[1] != model.ambient:
            raise DimensionError(f"face sample lives in R^{X.shape[1]}, model in R^{model.ambient}")
        sub = model.restrict(face)
        free_sub = {tuple(d[j] for j in face) for d in interior}
        sub, _, trace, iterations = reference_alternate(sub, X, cfg, free_sub)
        pts = model.points.copy()
        for d in interior:
            pts[model.index_row(d)] = sub.points[sub.index_row(tuple(d[j] for j in face))]
        model = model.with_points(pts)
        report[face] = fitting.FaceReport(iterations, trace[-1], n_points, len(interior))
        last_trace = trace
        max_iters = max(max_iters, iterations)
    return model, tuple(last_trace), max_iters, report


def bits(value) -> bytes:
    """Bytes of a float array or sequence, so NaN compares equal to itself."""
    return np.asarray(value, dtype=float).tobytes()


def assert_same_reports(ours, ref):
    assert list(ours) == list(ref)
    for face in ref:
        a, b = ours[face], ref[face]
        assert (a.iterations, a.n_points, a.free_points, a.warning) == (
            b.iterations, b.n_points, b.free_points, b.warning
        )
        assert bits(a.ssr) == bits(b.ssr)


# -- fits --------------------------------------------------------------------------


def noisy_face_training(m, degree, ambient, sizes, noise, seed):
    """Per-face samples of a perturbed net plus noise; `sizes` maps each face
    to its point count (0 leaves the face out or empty)."""
    rng = np.random.default_rng(seed)
    V = np.vstack([np.eye(m), np.zeros((max(ambient - m, 0), m))]).T[:, :ambient] * 2.0
    V = V + rng.normal(scale=0.05, size=V.shape)
    net = initialize_control_net(V, degree)
    true = net.with_points(net.points + rng.normal(scale=0.1, size=net.points.shape))
    training = {}
    for face, n in sizes.items():
        if n == 0:
            if rng.random() < 0.5:
                training[face] = SampleSet(np.zeros((0, ambient)))
            continue
        s = rng.dirichlet(np.ones(len(face)), size=n)
        X = true.evaluate_batch(embed_on_face(s, face, m))
        training[face] = SampleSet(X + rng.normal(scale=noise, size=X.shape))
    return training, V


@st.composite
def skeleton_cases(draw):
    m = draw(st.integers(2, 5))
    degree = draw(st.integers(0, 4))
    ambient = draw(st.integers(max(m - 1, 1), m + 1))
    faces = list(enumerate_faces(m, min(degree, m) if degree >= 1 else 1))
    sizes = {
        face: draw(st.integers(1, 3) if len(face) == 1 else st.integers(0, 12))
        for face in faces
    }
    noise = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    cfg = FitConfig(
        degree=degree,
        max_outer_iters=draw(st.sampled_from([1, 2, 4, 25])),
        max_newton_iters=draw(st.sampled_from([2, 100])),
        outer_tol=draw(st.sampled_from([1e-5, 1e-9])),
    )
    return m, degree, ambient, sizes, noise, cfg, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=50, deadline=None)
@given(skeleton_cases())
def test_skeleton_batch_matches_per_face_reference(case):
    m, degree, ambient, sizes, noise, cfg, seed = case
    training, V = noisy_face_training(m, degree, ambient, sizes, noise, seed)
    res = fit_inductive_skeleton(training, V, cfg)
    model, trace, iterations, report = reference_skeleton(training, V, cfg)
    assert bits(res.model.points) == bits(model.points)
    assert bits(res.ssr_trace) == bits(trace)
    assert res.outer_iterations == iterations
    assert_same_reports(res.per_face_report, report)


@settings(max_examples=20, deadline=None)
@given(skeleton_cases())
def test_all_at_once_is_a_batch_of_one(case):
    m, degree, _, sizes, noise, cfg, seed = case
    training, V = noisy_face_training(m, degree, m, sizes, noise, seed)  # samples in R^m
    union = SampleSet.concat(training.values())
    res = fit_all_at_once(union, V, cfg)
    model = initialize_control_net(V, cfg.degree)
    model, T, trace, iterations = reference_alternate(
        model, union.ambient(), cfg, set(model.indices)
    )
    assert bits(res.model.points) == bits(model.points)
    assert bits(res.parameters) == bits(T)
    assert bits(res.ssr_trace) == bits(trace)
    assert res.outer_iterations == iterations


def test_faces_of_one_size_stop_at_different_iterations():
    # exact data on one edge stops early, noisy data on the others runs on;
    # the batch must still reproduce every face's own count
    sizes = {(0,): 1, (1,): 1, (2,): 1, (0, 1): 6, (0, 2): 9, (1, 2): 4, (0, 1, 2): 7}
    training, V = noisy_face_training(3, 3, 3, sizes, 0.02, seed=3)
    exact, _ = noisy_face_training(3, 3, 3, sizes, 0.0, seed=3)
    training[(0, 1)] = exact[(0, 1)]
    cfg = FitConfig(degree=3)
    res = fit_inductive_skeleton(training, V, cfg)
    _, _, _, report = reference_skeleton(training, V, cfg)
    assert_same_reports(res.per_face_report, report)
    edges = [report[f].iterations for f in [(0, 1), (0, 2), (1, 2)]]
    assert len(set(edges)) > 1


def test_first_error_in_face_order_wins():
    sizes = {(0,): 1, (1,): 1, (2,): 1, (0, 1): 3, (0, 2): 3, (1, 2): 3, (0, 1, 2): 2}
    training, V = noisy_face_training(3, 3, 3, sizes, 0.01, seed=4)
    del training[(1,)]
    with pytest.raises(InsufficientDataError, match="vertex face 2"):
        fit_inductive_skeleton(training, V, FitConfig())
    training, V = noisy_face_training(3, 3, 3, sizes, 0.01, seed=4)
    training[(0, 2)] = SampleSet(np.zeros((2, 4)))
    training[(1, 2)] = SampleSet(np.zeros((2, 5)))
    with pytest.raises(DimensionError, match="R\\^4"):
        fit_inductive_skeleton(training, V, FitConfig())


def test_first_fit_error_in_face_order_wins(monkeypatch):
    # edge 1-3 fails in its first solve, edge 1-2 only in its third; fitted
    # one after another, edge 1-2 fails first, and so it must in the batch
    sizes = {(0,): 1, (1,): 1, (2,): 1, (0, 1): 5, (0, 2): 6, (1, 2): 7}
    training, V = noisy_face_training(3, 3, 3, sizes, 0.05, seed=4)
    _, _, _, report = reference_skeleton(training, V, FitConfig())
    assert report[(0, 1)].iterations >= 3
    original = fitting.solve_control_points
    solves = {}

    def failing(X, T, model, free):
        n = X.shape[0]  # the edges differ in their point counts
        solves[n] = solves.get(n, 0) + 1
        if (n, solves[n]) in {(5, 3), (6, 1)}:
            raise ValueError(f"solve failed on {n} points")
        return original(X, T, model, free)

    monkeypatch.setattr(fitting, "solve_control_points", failing)
    with pytest.raises(ValueError, match="on 5 points"):
        fit_inductive_skeleton(training, V, FitConfig())


# -- tuple projection ---------------------------------------------------------------


def assert_tuple_matches_single_calls(models, xs, t0s, cfg):
    batched = project_parameter(tuple(models), tuple(xs), tuple(t0s), cfg)
    assert isinstance(batched, list) and len(batched) == len(models)
    for model, x, t0, T in zip(models, xs, t0s, batched):
        alone = project_parameter(model, x, t0, cfg)
        assert T.shape == alone.shape
        assert bits(T) == bits(alone)
        assert bits(alone) == bits(reference_project(model, x, t0, cfg))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5), st.integers(0, 4), st.integers(1, 4),
    st.lists(st.integers(-1, 6), min_size=1, max_size=5), st.integers(0, 2**32 - 1),
)
# a block product on a non-contiguous slice of the stacked nets skips BLAS
# and changed the last bit here
@example(2, 2, 1, [0, 1], 98)
def test_tuple_projection_matches_per_model_calls(m, degree, ambient, counts, seed):
    # a count of -1 stands for one 1-d point
    rng = np.random.default_rng(seed)
    K = len(multi_indices(m, degree))
    models = [BezierSimplex(m, degree, rng.normal(size=(K, ambient))) for _ in counts]
    xs = [rng.normal(size=ambient) if n < 0 else rng.normal(size=(n, ambient)) for n in counts]
    t0s = [
        rng.dirichlet(np.ones(m)) if n < 0 else rng.dirichlet(np.ones(m), size=n) for n in counts
    ]
    assert_tuple_matches_single_calls(models, xs, t0s, FitConfig(degree=degree))


def test_tuple_projection_with_a_singular_model():
    # b(t) = t_1^2: at t = (1/2, 1/2) the reduced Newton matrix is exactly
    # zero, so the stacked solve falls back to row-by-row solves for every
    # model in the call, and the other models' rows must not notice
    singular = BezierSimplex(2, 2, [[1.0], [0.0], [0.0]])
    regular = BezierSimplex(2, 2, [[1.0], [0.3], [-0.2]])
    xs = [np.array([0.75]), np.array([[0.2], [0.6], [-0.1]])]
    t0s = [np.array([0.5, 0.5]), np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])]
    for cfg in (FitConfig(degree=2, newton_tol=1e-10), FitConfig(degree=2, max_newton_iters=2)):
        assert_tuple_matches_single_calls([singular, regular], xs, t0s, cfg)
        assert_tuple_matches_single_calls([regular, singular], xs[::-1], t0s[::-1], cfg)



def _one_by_one_systems(regular):
    """Every pair (h, g) of edge values and of random values up to 1e+-300,
    as 1x1 systems h @ s = -g; `regular` keeps the finite nonzero pivots,
    so that the LAPACK solve takes one stacked call."""
    rng = np.random.default_rng(30)
    wide = rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-300, 300, 40)
    edge = [0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e308, -1e308, np.inf, -np.inf, np.nan]
    h, g = (a.ravel() for a in np.meshgrid(np.concatenate((edge, wide)), np.concatenate((edge, wide))))
    if regular:
        keep = np.isfinite(h) & (h != 0)
        h, g = h[keep], g[keep]
    return h.reshape(-1, 1, 1), g.reshape(-1, 1)


@pytest.mark.parametrize("regular", [False, True])
def test_one_by_one_newton_step_has_the_bits_of_the_lapack_solve(regular):
    # m = 2 divides where larger systems call LAPACK; a singular or
    # non-finite row is NaN either way, and no RuntimeWarning escapes
    h, g = _one_by_one_systems(regular)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = fitting._newton_step(h, g)
    expected = _solve_rows(h, -g)
    expected[~np.all(np.isfinite(expected), axis=1)] = np.nan
    assert step.shape == expected.shape
    assert bits(step) == bits(expected)

def test_tuple_projection_rejects_mixed_models():
    a = BezierSimplex(2, 2, np.zeros((3, 1)))
    b = BezierSimplex(2, 1, np.zeros((2, 1)))
    c = BezierSimplex(2, 2, np.zeros((3, 2)))
    cfg = FitConfig()
    for other in (b, c):
        with pytest.raises(DimensionError):
            project_parameter((a, other), (np.zeros(1), np.zeros(1)), ([1, 0], [1, 0]), cfg)
    with pytest.raises(DimensionError):
        project_parameter((a, a), (np.zeros((2, 1)), np.zeros((1, 1))), ([1, 0], [1, 0]), cfg)
    with pytest.raises(DimensionError):
        project_parameter((a,), (np.zeros(1), np.zeros(1)), ([1, 0],), cfg)
    assert project_parameter((), (), (), cfg) == []


# -- the batch is what runs ---------------------------------------------------------


def test_one_projection_call_per_cardinality_iteration(monkeypatch):
    # med5 (1, 2, 10): ten edges and ten triangles. One call per outer
    # iteration of each cardinality, however many faces are still running;
    # a loop per face would make one call per face iteration instead
    training, validation = make_training_set(get_problem("med5"), (1, 2, 10), seed=7,
                                             validation_size=50)
    V = vertex_optima_from(training, validation.m)
    calls = []
    original = fitting.project_parameter

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fitting, "project_parameter", counting)
    res = fit_inductive_skeleton(training, V, FitConfig(degree=3))
    longest = {}
    for face, r in res.per_face_report.items():
        longest[len(face)] = max(longest.get(len(face), 0), r.iterations)
    assert sorted(longest) == [1, 2, 3]
    assert len(calls) == sum(longest.values())
    per_face = sum(r.iterations for r in res.per_face_report.values())
    assert len(calls) < per_face
    assert any(isinstance(c, tuple) and len(c) == 10 for c in calls)


def test_one_projection_call_builds_each_orders_nets_once(monkeypatch):
    # the shifted nets of orders 0, 1 and 2 are built once per projection
    # call, however many Newton iterations apply them
    training, validation = make_training_set(get_problem("med5"), (1, 2, 10), seed=7,
                                             validation_size=50)
    V = vertex_optima_from(training, validation.m)
    built, applied, projections = [], [], []
    real_nets, real_apply, real_project = (
        fitting.shifted_nets, fitting.derivatives_on_runs, fitting.project_parameter)

    def nets(m, degree, points, order):
        built.append((len(projections), order))
        return real_nets(m, degree, points, order)

    def apply(m, degree, nets, T, order, bounds):
        applied.append((len(projections), order))
        return real_apply(m, degree, nets, T, order, bounds)

    def project(models, *args):
        projections.append(models[0].m)
        return real_project(models, *args)

    monkeypatch.setattr(fitting, "shifted_nets", nets)
    monkeypatch.setattr(fitting, "derivatives_on_runs", apply)
    monkeypatch.setattr(fitting, "project_parameter", project)
    fit_inductive_skeleton(training, V, FitConfig(degree=3))
    newton = [k for k, m in enumerate(projections, 1) if m > 1]  # m = 1 takes no Newton step
    assert built == [(k, order) for k in newton for order in range(3)]
    jacobians = [k for k, order in applied if order == 1]
    assert set(jacobians) == set(newton)
    assert len(jacobians) > 2 * len(newton)  # many iterations per call


def test_all_at_once_projects_a_batch_of_one_per_iteration(monkeypatch):
    # one call per outer iteration, each on a tuple of the one model
    training, validation = make_training_set(get_problem("med3"), (1, 2, 1), seed=3,
                                             validation_size=50)
    V = vertex_optima_from(training, validation.m)
    calls = []
    original = fitting.project_parameter

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fitting, "project_parameter", counting)
    res = fit_all_at_once(SampleSet.concat(training.values()), V, FitConfig(degree=3))
    assert res.outer_iterations >= 2
    assert len(calls) == res.outer_iterations
    assert all(isinstance(c, tuple) and len(c) == 1 for c in calls)


def _outcome(call):
    """("raises", exception class) or ("returns", shape, bits) of a call."""
    try:
        T = call()
    except Exception as exc:
        return "raises", type(exc)
    return "returns", T.shape, bits(T)


_MODEL = BezierSimplex(3, 2, np.random.default_rng(21).normal(size=(6, 2)))
_STARTS = np.random.default_rng(22).dirichlet(np.ones(3), size=4)


@pytest.mark.parametrize(
    "x, t0, expected",
    [
        (np.array([0.3, -0.2]), _STARTS[0], "returns"),  # one 1-d point
        (np.array([[0.3, -0.2]]), _STARTS[:1], "returns"),  # one 2-d point
        (np.random.default_rng(23).normal(size=(4, 2)), _STARTS, "returns"),
        (np.zeros((2, 2)), _STARTS[:3], "raises"),  # count mismatch
        (np.zeros(2), _STARTS[:2], "raises"),
        (np.zeros(3), _STARTS[0], "raises"),  # wrong ambient dimension
        (np.zeros((2, 1)), _STARTS[:2], "raises"),
        (np.zeros((2, 2)), np.full((2, 2), 0.5), "raises"),  # start with the wrong m
        (np.zeros(2), np.full(4, 0.25), "raises"),
        (np.zeros((0, 2)), np.zeros((0, 3)), "returns"),  # empty block
        (np.zeros((0, 2)), _STARTS[0], "raises"),
    ],
)
def test_single_model_form_is_the_batch_of_one(x, t0, expected):
    cfg = FitConfig(degree=2)
    single = _outcome(lambda: project_parameter(_MODEL, x, t0, cfg))
    batch = _outcome(lambda: project_parameter((_MODEL,), (x,), (t0,), cfg)[0])
    assert single[0] == expected
    assert single == batch
    if expected == "raises":
        assert issubclass(single[1], DimensionError)


# -- several methods in lockstep ----------------------------------------------------


def trial_data(problem, sizes, seed, graph=False):
    """A trial's per-face samples, their union and the corner points; pooled
    problems draw from the pool of seed 0."""
    training, validation = make_training_set(
        get_problem(problem), sizes, seed=seed, validation_size=20, with_solutions=graph
    )
    V = vertex_optima_from(training, validation.m)
    return training, SampleSet.concat(training.values()), V


def assert_same_outcome(ours, ref):
    if isinstance(ref, Exception):
        assert type(ours) is type(ref) and str(ours) == str(ref)
        return
    assert bits(ours.model.points) == bits(ref.model.points)
    assert bits(ours.ssr_trace) == bits(ref.ssr_trace)
    assert ours.outer_iterations == ref.outer_iterations
    if ref.parameters is None:
        assert ours.parameters is None
    else:
        assert bits(ours.parameters) == bits(ref.parameters)
    if ref.per_face_report is None:
        assert ours.per_face_report is None
    else:
        assert_same_reports(ours.per_face_report, ref.per_face_report)


def alone(kind, data, V, cfg):
    fit = fit_inductive_skeleton if kind == "inductive" else fit_all_at_once
    try:
        return fit(data, V, cfg)
    except Exception as exc:
        return exc


LOCKSTEP_CASES = [
    ("schaffer", (1, 3), False),
    ("osyczka2", (1, 3), False),
    ("med3", (1, 2, 1), False),
    ("viennet2", (1, 2, 1), False),
    ("medM:4", (1, 2, 3), True),  # no 4-face sample: all-at-once has stage 4 alone
    ("medM:4", (1, 1, 2, 2), True),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LOCKSTEP_CASES), st.integers(0, 4), st.integers(0, 2**16),
       st.booleans())
# degree < M: all-at-once runs in a stage of its own
@example(("med3", (1, 2, 1), False), 2, 5, False)
@example(("medM:4", (1, 1, 2, 2), True), 3, 1, True)
def test_lockstep_matches_separate_fits(case, degree, seed, reverse):
    problem, sizes, graph = case
    training, union, V = trial_data(problem, sizes, seed, graph)
    cfg = FitConfig(degree=degree)
    requests = [("inductive", training, V), ("all-at-once", union, V)]
    if reverse:
        requests.reverse()
    for (kind, data, _), outcome in zip(requests, fit_lockstep(requests, cfg)):
        assert_same_outcome(outcome, alone(kind, data, V, cfg))


def test_lockstep_keeps_each_error_with_its_request():
    # a skeleton without a vertex sample fails before its first stage, an
    # all-at-once fit with no points at once; the third request still runs
    training, union, V = trial_data("med3", (1, 2, 1), seed=2)
    broken = {face: S for face, S in training.items() if face != (1,)}
    empty = SampleSet(np.zeros((0, 3)))
    cfg = FitConfig(degree=3)
    outcomes = fit_lockstep(
        [("inductive", broken, V), ("all-at-once", empty, V), ("all-at-once", union, V)], cfg
    )
    assert isinstance(outcomes[0], InsufficientDataError)
    assert str(outcomes[0]) == "no sample for vertex face 2"
    assert isinstance(outcomes[1], InsufficientDataError)
    assert_same_outcome(outcomes[2], fit_all_at_once(union, V, cfg))
    assert fit_lockstep([], cfg) == []


def test_a_stage_of_two_ambient_dimensions_gives_each_request_its_lone_fit():
    # med3 (1, 2, 3), graph-shaped and plain: every stage holds fits in two
    # ambient dimensions, which one projection call rejects, so each fit
    # runs alone and keeps its bits
    cfg = FitConfig(degree=3)
    requests = []
    for graph in (True, False):
        training, union, V = trial_data("med3", (1, 2, 3), seed=5, graph=graph)
        requests += [("inductive", training, V), ("all-at-once", union, V)]
    assert len({V.shape[1] for *_, V in requests}) == 2
    for (kind, data, V), outcome in zip(requests, fit_lockstep(requests, cfg)):
        assert_same_outcome(outcome, alone(kind, data, V, cfg))


def _failing_on(n_points, monkeypatch):
    """Make project_parameter raise whenever one of its blocks has n_points rows."""
    original = fitting.project_parameter

    def failing(models, xs, t0s, cfg):
        if any(np.shape(x)[0] == n_points for x in xs):
            raise ValueError(f"projection failed on {n_points} points")
        return original(models, xs, t0s, cfg)

    monkeypatch.setattr(fitting, "project_parameter", failing)


def test_projection_error_stays_with_its_fit(monkeypatch):
    # osyczka2 (1, 3): the edge fits 3 points, all-at-once their union of 5.
    # Both run at m = 2 in one projection call, which fails for the union;
    # only the all-at-once fit may see that error
    training, union, V = trial_data("osyczka2", (1, 3), seed=4)
    cfg = FitConfig(degree=3)
    skeleton = fit_inductive_skeleton(training, V, cfg)
    assert union.n == 5 and training[(0, 1)].n == 3
    _failing_on(5, monkeypatch)
    outcomes = fit_lockstep([("inductive", training, V), ("all-at-once", union, V)], cfg)
    assert_same_outcome(outcomes[0], skeleton)
    assert isinstance(outcomes[1], ValueError)
    assert str(outcomes[1]) == "projection failed on 5 points"
    with pytest.raises(ValueError, match="on 5 points"):
        fit_all_at_once(union, V, cfg)


def test_projection_error_leaves_the_other_method_row_alone(monkeypatch):
    cfg = ExperimentConfig("osyczka2", methods=("inductive", "all-at-once"), sizes=(1, 3),
                           trials=1, seed=0, validation_size=50)
    _failing_on(5, monkeypatch)
    inductive, failed = run_trial(cfg, 0)
    (solo,) = run_trial(ExperimentConfig("osyczka2", sizes=(1, 3), trials=1, seed=0,
                                         validation_size=50), 0)
    assert inductive == solo and inductive.error is None
    assert failed.method == "all-at-once" and failed.error == "projection failed on 5 points"
    assert failed.gd is None and failed.iterations is None


def test_methods_of_a_trial_share_their_projection_calls(monkeypatch):
    # osyczka2 (1, 3): the edge and all-at-once are both m = 2 fits in R^2.
    # While both run, each outer iteration makes one projection call on a
    # tuple of the two models; separate fits would make one call each
    cfg = ExperimentConfig("osyczka2", methods=("inductive", "all-at-once"), sizes=(1, 3),
                           trials=1, seed=0, validation_size=50)
    training, union, V = trial_data("osyczka2", (1, 3), seed=0)
    fit_cfg = FitConfig(degree=cfg.degree)
    edge = fit_inductive_skeleton(training, V, fit_cfg).per_face_report[(0, 1)].iterations
    whole = fit_all_at_once(union, V, fit_cfg).outer_iterations
    calls = []
    original = fitting.project_parameter

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fitting, "project_parameter", counting)
    rows = run_trial(cfg, 0)
    assert all(row.error is None for row in rows)
    at_2 = [c for c in calls if c[0].m == 2]
    assert len(at_2) == max(edge, whole)
    assert [len(c) for c in at_2] == [2] * min(edge, whole) + [1] * abs(edge - whole)


def _failing_in(name, n_points, from_call, monkeypatch):
    """Make fitting.<name> (init_parameters or sse) raise on its from_call-th
    and every later call on a sample of n_points rows."""
    original = getattr(fitting, name)
    calls = []

    def failing(model, X, *rest):
        if np.shape(X)[0] == n_points:
            calls.append(None)
            if len(calls) >= from_call:
                raise ValueError(f"{name} failed on {n_points} points")
        return original(model, X, *rest)

    monkeypatch.setattr(fitting, name, failing)


# the first sse call of a fit is in its set-up, the third in its second iteration
SETUP_AND_LOOP_FAILURES = [("init_parameters", 1), ("sse", 1), ("sse", 3)]


@pytest.mark.parametrize("name, from_call", SETUP_AND_LOOP_FAILURES)
def test_setup_or_loop_error_stays_with_its_face(name, from_call, monkeypatch):
    # med5 (1, 2, 10): the ten triangles run as one batch; one is cut to 9
    # points and fails, the others must keep the bits of their own loops
    training, validation = make_training_set(get_problem("med5"), (1, 2, 10), seed=7,
                                             validation_size=50)
    V = vertex_optima_from(training, validation.m)
    short = (0, 2, 4)
    training[short] = SampleSet(training[short].objectives[:9])
    cfg = FitConfig(degree=3)
    stages = fitting._skeleton_stages(training, V, cfg)
    fits = next(stages)
    while fits[0][0].m < 3:
        fits = stages.send(fitting._alternate(fits, cfg))
    assert sorted(X.shape[0] for _, X, _ in fits) == [9] + [10] * 9
    _failing_in(name, 9, from_call, monkeypatch)
    for (model, X, free), outcome in zip(fits, fitting._alternate(fits, cfg)):
        if X.shape[0] == 9:
            assert isinstance(outcome, ValueError)
            assert str(outcome) == f"{name} failed on 9 points"
            continue
        ours_model, ours_T, ours_trace, ours_iterations = outcome
        ref_model, ref_T, ref_trace, ref_iterations = reference_alternate(model, X, cfg, free)
        assert bits(ours_model.points) == bits(ref_model.points)
        assert bits(ours_T) == bits(ref_T) and bits(ours_trace) == bits(ref_trace)
        assert ours_iterations == ref_iterations
    with pytest.raises(ValueError, match="on 9 points"):
        fit_inductive_skeleton(training, V, cfg)


@pytest.mark.parametrize("name, from_call", SETUP_AND_LOOP_FAILURES)
def test_setup_or_loop_error_stays_with_its_request(name, from_call, monkeypatch):
    # osyczka2 (1, 3): the edge (3 points) and all-at-once (5) share each
    # m = 2 batch; only the all-at-once request may see the error
    training, union, V = trial_data("osyczka2", (1, 3), seed=4)
    cfg = FitConfig(degree=3)
    skeleton = fit_inductive_skeleton(training, V, cfg)
    assert union.n == 5 and training[(0, 1)].n == 3
    _failing_in(name, 5, from_call, monkeypatch)
    outcomes = fit_lockstep([("inductive", training, V), ("all-at-once", union, V)], cfg)
    assert_same_outcome(outcomes[0], skeleton)
    assert isinstance(outcomes[1], ValueError)
    assert str(outcomes[1]) == f"{name} failed on 5 points"


DEGENERATE = ("repeated", "face-repeated", "corners-identical", "corners-collinear", "face-emptied")


def degenerate(training, case):
    """A copy of per-face training sets with one degenerate edit."""
    out = dict(training)
    m = sum(len(face) == 1 for face in out)
    edge = (0, 1)
    if case == "repeated":  # every sample twice
        return {face: SampleSet(np.vstack([S.objectives] * 2)) for face, S in out.items()}
    if case == "face-repeated":  # one point n times on an edge
        S = out[edge]
        out[edge] = SampleSet(np.repeat(S.objectives[:1], S.n, axis=0))
    elif case == "corners-identical":
        out.update({(j,): out[(0,)] for j in range(m)})
    elif case == "corners-collinear":  # the last corner midway between the first two
        out[(m - 1,)] = SampleSet((out[(0,)].objectives + out[(1,)].objectives) / 2)
    else:  # an edge with no sample
        out[edge] = SampleSet(np.empty((0, m)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("med3", (1, 2, 1)), ("schaffer", (1, 3)), ("viennet2", (1, 2, 1))]),
       st.sampled_from(DEGENERATE), st.integers(0, 3), st.integers(0, 2**16))
def test_degenerate_training_sets_fit_or_name_their_error(case, edit, degree, seed):
    problem, sizes = case
    training, _, _ = trial_data(problem, sizes, seed)
    training = degenerate(training, edit)
    V = vertex_optima_from(training, get_problem(problem).n_objectives)
    union = SampleSet.concat(training.values())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcomes = fit_lockstep([("inductive", training, V), ("all-at-once", union, V)],
                                FitConfig(degree=degree))
    for outcome in outcomes:
        if isinstance(outcome, FitResult):
            assert np.all(np.isfinite(outcome.model.points))
        else:
            assert isinstance(outcome, BsfError), repr(outcome)
