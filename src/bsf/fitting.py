"""Model fitting by alternating foot-point projection and linear least squares.

Two fitting strategies share one alternating loop:

* all-at-once: every control point is free, the whole sample is used;
* inductive skeleton: faces are fitted in ascending cardinality, control
  points of already-fitted subfaces are frozen, and only the face-interior
  control points are solved against that face's subsample.

The parameter update is a constrained Newton iteration on the squared
distance, with the last barycentric coordinate eliminated and iterates
clamped back onto the simplex. It runs on all samples at once as one batch,
but its stopping rules and its gradient fallback apply to each sample on its
own. The control-point update is an exact linear least-squares solve, so the
per-iteration loss never increases.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bezier import (
    BezierSimplex,
    as_barycentric_rows,
    barycentric_grid,
    face_indices,
    partial_derivatives,
    weighted_design_matrix,
)
from .errors import DimensionError, InsufficientDataError
from .pareto import SampleSet, enumerate_faces, face_label

log = logging.getLogger("bsf.fitting")


@dataclass(frozen=True)
class FitConfig:
    degree: int = 3
    max_outer_iters: int = 100
    max_newton_iters: int = 100
    newton_tol: float = 1e-5
    outer_tol: float = 1e-5
    init_grid_resolution: int = 10

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.max_outer_iters < 1 or self.max_newton_iters < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.newton_tol <= 0 or self.outer_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.init_grid_resolution < 1:
            raise ValueError("init grid resolution must be at least 1")


@dataclass(frozen=True)
class FaceReport:
    iterations: int
    ssr: float
    n_points: int
    free_points: int
    warning: str | None = None


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted model plus convergence record.

    `parameters` holds the final per-sample barycentric parameters for the
    all-at-once fit and is None for the skeleton fit, whose samples live on
    faces; per-face details go to `per_face_report`. For the skeleton fit
    `outer_iterations` is the maximum over faces and `ssr_trace` is the trace
    of the last face fitted.
    """

    model: BezierSimplex
    parameters: np.ndarray | None
    ssr_trace: tuple[float, ...]
    outer_iterations: int
    per_face_report: dict[tuple[int, ...], FaceReport] | None = None

    def sidecar_dict(self) -> dict:
        report = None
        if self.per_face_report is not None:
            report = {
                face_label(face): {
                    "iterations": r.iterations,
                    "ssr": r.ssr,
                    "n_points": r.n_points,
                    "free_points": r.free_points,
                    "warning": r.warning,
                }
                for face, r in self.per_face_report.items()
            }
        return {
            "ssr_trace": [float(v) for v in self.ssr_trace],
            "outer_iterations": self.outer_iterations,
            "per_face_report": report,
            "parameters": None
            if self.parameters is None
            else [[float(v) for v in row] for row in self.parameters],
        }


def initialize_control_net(vertex_optima, degree: int, m: int | None = None) -> BezierSimplex:
    """Control net on the simplex grid spanned by the given corner points.

    Corner indices get the corners themselves; index d gets the barycentric
    combination sum_j (d_j / degree) * corner_j.
    """
    V = np.atleast_2d(np.asarray(vertex_optima, dtype=float))
    if m is not None and V.shape[0] != m:
        raise DimensionError(f"expected {m} corner points, got {V.shape[0]}")
    m = V.shape[0]
    if degree == 0:
        pts = V.mean(axis=0, keepdims=True)
    else:
        pts = barycentric_grid(m, degree) @ V
    return BezierSimplex(m, degree, pts)


def init_parameters(model: BezierSimplex, X, cfg: FitConfig) -> np.ndarray:
    """Per-point starting parameters: argmin of the squared distance over a
    coarse barycentric grid (first hit wins on ties)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    grid = barycentric_grid(model.m, cfg.init_grid_resolution)
    values = model.evaluate_batch(grid)  # (G, A)
    diffs = X[:, None, :] - values[None, :, :]
    best = np.argmin(np.einsum("ngk,ngk->ng", diffs, diffs), axis=1)
    return grid[best]


def _clamp_renorm(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp rows onto the nonnegative orthant and renormalize them.

    Returns the rows and a mask of those that could be renormalized; rows
    with no positive entry are left unnormalized and flagged False.
    """
    T = np.maximum(T, 0.0)
    s = T.sum(axis=1)
    ok = s > 0.0
    T[ok] /= s[ok, None]
    return T, ok


def _solve_rows(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve H[i] @ s[i] = g[i] for a stack of systems.

    One stacked solve when every matrix is regular; if it raises, each row is
    solved alone and the singular ones come back as NaN.
    """
    try:
        return np.linalg.solve(H, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(g.shape, np.nan)
        for i in range(g.shape[0]):
            try:
                out[i] = np.linalg.solve(H[i], g[i])
            except np.linalg.LinAlgError:
                pass
        return out


def project_parameter(model: BezierSimplex, x, t0, cfg: FitConfig) -> np.ndarray:
    """Foot-point projection: locally minimize |b(t) - x|^2 over the simplex.

    `x` is one point of shape (ambient,) with `t0` of shape (m,), or a batch
    of shape (n, ambient) with `t0` of shape (n, m); the result has the shape
    of `t0`. All rows run one vectorized Newton iteration, but every rule
    below applies to each row on its own, and a row that stops is frozen.

    Newton steps act on the reduced coordinates (the last one is eliminated
    through the sum constraint); after each step negative entries are clamped
    to zero and the vector renormalized. A row stops when its full
    orthogonality residual sqrt(sum_j <d b/d t_j, b(t) - x>^2) drops below
    cfg.newton_tol, at the iteration cap, or once it stalls (a step below
    1e-15, or five consecutive steps without improving its best squared
    distance; clamped boundary minima never satisfy the residual test). A row
    whose Newton system is singular or non-finite falls back to a
    backtracking gradient step (at most 20 halvings). Each row returns its
    best iterate by squared distance, so no result falls behind its start.
    """
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.ndim != 2 or X.shape[1] != model.ambient:
        raise DimensionError(f"expected points in R^{model.ambient}, got shape {np.shape(x)}")
    T = as_barycentric_rows(t0, model.m)
    if T.shape[0] != X.shape[0]:
        raise DimensionError("points and starting parameters disagree in count")
    if model.m > 1:
        T = _newton_rows(model, X, T, cfg)
    return T[0] if single else T


def _newton_rows(model: BezierSimplex, X, T, cfg: FitConfig) -> np.ndarray:
    m, degree, P = model.m, model.degree, model.points

    def residuals(Tv, Xv):
        return weighted_design_matrix(m, degree, Tv) @ P - Xv

    R = residuals(T, X)  # b(t) - x at every row's current iterate
    best_T, best_g = T.copy(), np.sum(R * R, axis=1)
    stalled = np.zeros(T.shape[0], dtype=int)
    active = np.arange(T.shape[0])
    for _ in range(cfg.max_newton_iters):
        if active.size == 0:
            break
        t, x, r = T[active], X[active], R[active]
        jac = partial_derivatives(m, degree, P, t, 1)  # (k, A, m)
        resid = np.einsum("kaj,ka->kj", jac, r)
        going = ~(np.sqrt(np.sum(resid * resid, axis=1)) <= cfg.newton_tol)
        active, t, x, r, jac, resid = (a[going] for a in (active, t, x, r, jac, resid))
        if active.size == 0:
            break
        hess = partial_derivatives(m, degree, P, t, 2)  # (k, A, m, m)
        g_now = np.sum(r * r, axis=1)
        grad = 2.0 * resid
        hg = 2.0 * (
            np.einsum("kai,kaj->kij", jac, jac) + np.einsum("ka,kaij->kij", r, hess)
        )
        gu = grad[:, :-1] - grad[:, -1:]
        hu = hg[:, :-1, :-1] - hg[:, :-1, -1:] - hg[:, -1:, :-1] + hg[:, -1:, -1:]
        step = _solve_rows(hu, -gu)
        # a non-finite step fails its row, as a singular system does
        step[~np.all(np.isfinite(step), axis=1)] = np.nan
        step = np.append(step, -step.sum(axis=1, keepdims=True), axis=1)
        t_new, found = _clamp_renorm(t + step)
        # damped gradient fallback keeps the iteration total
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
        # a row without a new iterate, or with no move, is at a fixed point
        # (typically a clamped boundary minimum)
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


def solve_control_points(X, T, model: BezierSimplex, free) -> BezierSimplex:
    """Least-squares update of the free control points, all others held fixed.

    The unknowns are offsets from the current values; rank-deficient systems
    take the minimum-norm offset, which leaves undetermined directions at
    their current (grid-initialized) values rather than shrinking them to zero.
    """
    free = {tuple(d) for d in free}
    if not free:
        return model
    rows = [i for i, d in enumerate(model.indices) if d in free]
    if len(rows) != len(free):
        unknown = free - set(model.indices)
        raise DimensionError(f"free indices not in the model: {sorted(unknown)}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise InsufficientDataError("no sample points for a control-point solve")
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if X.shape[0] != T.shape[0]:
        raise DimensionError("samples and parameters disagree in count")
    phi = weighted_design_matrix(model.m, model.degree, T)
    residual = X - phi @ model.points
    delta, *_ = np.linalg.lstsq(phi[:, rows], residual, rcond=None)
    pts = model.points.copy()
    pts[rows] += delta
    return model.with_points(pts)


def sse(model: BezierSimplex, X, T) -> float:
    """Sum of squared residuals of the sample against the parameterized model."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if X.shape[0] != T.shape[0]:
        raise DimensionError("samples and parameters disagree in count")
    r = model.evaluate_batch(T) - X
    return float(np.sum(r * r))


def _alternate(model, X, cfg, free):
    """Shared alternating loop: project all parameters, then solve the free
    control points; stop when the per-point improvement of sqrt(SSR) falls
    below cfg.outer_tol or the iteration cap is reached."""
    n = X.shape[0]
    T = init_parameters(model, X, cfg)
    trace = [sse(model, X, T)]
    iterations = 0
    for _ in range(cfg.max_outer_iters):
        T = project_parameter(model, X, T, cfg)
        model = solve_control_points(X, T, model, free)
        current = sse(model, X, T)
        previous = trace[-1]
        trace.append(current)
        iterations += 1
        if (math.sqrt(previous) - math.sqrt(current)) / n <= cfg.outer_tol:
            break
    return model, T, trace, iterations


def fit_all_at_once(S: SampleSet, vertex_optima, cfg: FitConfig) -> FitResult:
    """Alternating fit of every control point against the whole sample."""
    X = S.ambient()
    if X.shape[0] < 1:
        raise InsufficientDataError("need at least one sample point")
    model = initialize_control_net(vertex_optima, cfg.degree, m=S.m)
    if model.ambient != X.shape[1]:
        raise DimensionError(
            f"corner points live in R^{model.ambient} but samples in R^{X.shape[1]}"
        )
    model, T, trace, iterations = _alternate(model, X, cfg, set(model.indices))
    log.info("all-at-once fit: %d outer iterations, SSR %.3e", iterations, trace[-1])
    return FitResult(model, T, tuple(trace), iterations)


def fit_inductive_skeleton(
    decomposed: dict[tuple[int, ...], SampleSet], vertex_optima, cfg: FitConfig
) -> FitResult:
    """Fit faces in ascending cardinality, freezing subface control points.

    For each face the alternating loop runs on the face's own sub-model with
    only the face-interior control points free, against that face's
    subsample. Missing or empty subsamples for a vertex raise; for larger
    faces the interior points keep their grid initialization and a warning is
    recorded in the per-face report.
    """
    V = np.atleast_2d(np.asarray(vertex_optima, dtype=float))
    m = V.shape[0]
    model = initialize_control_net(V, cfg.degree)
    report: dict[tuple[int, ...], FaceReport] = {}
    last_trace = [0.0]
    max_iters = 0
    for face in enumerate_faces(m, min(cfg.degree, m) if cfg.degree >= 1 else 1):
        _, interior = face_indices(m, cfg.degree, face)
        if not interior:
            continue
        S_face = decomposed.get(face)
        n_points = 0 if S_face is None else S_face.n
        if n_points == 0:
            label = face_label(face)
            if len(face) == 1:
                raise InsufficientDataError(f"no sample for vertex face {label}")
            log.warning("face %s has no subsample; keeping grid initialization", label)
            report[face] = FaceReport(0, float("nan"), 0, len(interior), "empty subsample")
            continue
        X = S_face.ambient()
        if X.shape[1] != model.ambient:
            raise DimensionError(
                f"face sample lives in R^{X.shape[1]}, model in R^{model.ambient}"
            )
        sub = model.restrict(face)
        free_sub = {tuple(d[j] for j in face) for d in interior}
        sub, _, trace, iterations = _alternate(sub, X, cfg, free_sub)
        pts = model.points.copy()
        for d in interior:
            sub_row = sub.index_row(tuple(d[j] for j in face))
            pts[model.index_row(d)] = sub.points[sub_row]
        model = model.with_points(pts)
        report[face] = FaceReport(iterations, trace[-1], n_points, len(interior))
        last_trace = trace
        max_iters = max(max_iters, iterations)
    log.info("skeleton fit: %d faces, max %d outer iterations", len(report), max_iters)
    return FitResult(model, None, tuple(last_trace), max_iters, report)
