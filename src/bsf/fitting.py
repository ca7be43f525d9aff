"""Model fitting by alternating foot-point projection and linear least squares.

Two fitting strategies share one alternating loop:

* all-at-once: every control point is free, the whole sample is used;
* inductive skeleton: faces are fitted in ascending cardinality, control
  points of already-fitted subfaces are frozen, and only the face-interior
  control points are solved against that face's subsample.

The loop takes a batch of independent fits and advances them in lockstep.
Above it, `fit_lockstep` runs several requests, skeleton or all-at-once,
stage by stage in ascending m: a stage is one batch of every face of one
cardinality of each skeleton and each all-at-once fit of that m, so the
methods of one trial share their projection calls. Each public fitter is a
`fit_lockstep` batch of one. The batch loop only computes: if anything in
it raises, each of its fits runs again alone, so an error stays with the
fit that raised it, and a stage mixing ambient dimensions runs each fit
alone. The parameter update is a constrained Newton iteration on the
squared distance, with the last barycentric coordinate eliminated and
iterates clamped back onto the simplex. One call runs it on the samples of
every fit still in the batch at once, but its stopping rules and its
gradient fallback apply to each sample on its own, and each sample meets
only its own fit's control net. There is one projection path: a lone fit,
or a projection of one model outside the loop, is a batch of one. The
control-point update is an exact linear least-squares solve per fit, so the
per-iteration loss never increases. Each fit stops on its own test and
leaves the batch; its results are bit-identical to fitting it alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from itertools import accumulate, groupby

import numpy as np

from .bezier import (
    MAX_EXACT_DEGREE,
    BezierSimplex,
    as_barycentric_rows,
    barycentric_grid,
    clamp_renorm as _clamp_renorm,
    derivatives_on_runs,
    face_indices,
    index_rows,
    shifted_nets,
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
        if self.degree > MAX_EXACT_DEGREE:
            raise ValueError(f"degree {self.degree} exceeds exact-arithmetic limit {MAX_EXACT_DEGREE}")
        if self.max_outer_iters < 1 or self.max_newton_iters < 1:
            raise ValueError("iteration caps must be at least 1")
        if not (self.newton_tol > 0 and self.outer_tol > 0):  # NaN included
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
            report = {face_label(face): asdict(r) for face, r in self.per_face_report.items()}
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


def _newton_step(hu: np.ndarray, gu: np.ndarray) -> np.ndarray:
    """The reduced Newton step s solving hu[i] @ s[i] = -gu[i] on every row,
    NaN on each row whose system is singular or whose step is not finite.

    A 1x1 system (m = 2) is solved by one division, which has the bits of
    `_solve_rows`: a zero pivot gives an infinite or NaN quotient, which the
    finite check turns into the NaN a singular row gets there. Larger
    systems take `_solve_rows`.
    """
    if hu.shape[1] == 1:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -gu / hu[:, :, 0]
    else:
        step = _solve_rows(hu, -gu)
    finite = np.logical_and.reduce(np.isfinite(step), axis=1)
    if not np.logical_and.reduce(finite):
        step[~finite] = np.nan
    return step


def project_parameter(model, x, t0, cfg: FitConfig):
    """Foot-point projection: locally minimize |b(t) - x|^2 over the simplex.

    `model` is a tuple of models sharing m, degree and ambient, with `x` and
    `t0` tuples of per-model blocks: points of shape (ambient,) with a start
    of shape (m,), or of shape (n, ambient) with starts of shape (n, m). The
    result is a list of per-model results, each with the shape of its start.
    `model` may also be one model with `x` and `t0` one block; that is the
    batch of one, and its result is returned bare.

    The rows of every model, a batch of one included, run in one vectorized
    Newton iteration over the stack of the models' nets; model k's rows are
    the run bounds[k]:bounds[k+1], counted once per call. Every rule below
    applies to each row on its own, a row that stops leaves the iteration's
    compact arrays, and each row meets only its own model's net, so each
    model's results are bit-identical to a batch of it alone.

    Newton steps act on the reduced coordinates (the last one is eliminated
    through the sum constraint); for m = 2 the reduced system is 1x1 and is
    solved by a division, which has the bits of the LAPACK solve that larger
    m use. After each step negative entries are clamped to zero and the
    vector renormalized. A row stops when its full
    orthogonality residual sqrt(sum_j <d b/d t_j, b(t) - x>^2) drops below
    cfg.newton_tol, at the iteration cap, or once it stalls (a step below
    1e-15, or five consecutive steps without improving its best squared
    distance; clamped boundary minima never satisfy the residual test). A row
    whose Newton system is singular or non-finite falls back to a
    backtracking gradient step (at most 20 halvings). Each row returns its
    best iterate by squared distance, so no result falls behind its start.
    """
    lone = not isinstance(model, tuple)
    models, xs, t0s = ((model,), (x,), (t0,)) if lone else (model, x, t0)
    if not len(models) == len(xs) == len(t0s):
        raise DimensionError("models, point blocks and start blocks disagree in count")
    if not models:
        return []
    m, degree, ambient = models[0].m, models[0].degree, models[0].ambient
    if any((mo.m, mo.degree, mo.ambient) != (m, degree, ambient) for mo in models):
        raise DimensionError("batched models must share m, degree and ambient dimension")
    Xs = [np.asarray(x, dtype=float) for x in xs]
    singles = [X.ndim == 1 for X in Xs]
    Xs = [np.atleast_2d(X) for X in Xs]
    for X, x in zip(Xs, xs):
        if X.ndim != 2 or X.shape[1] != ambient:
            raise DimensionError(f"expected points in R^{ambient}, got shape {np.shape(x)}")
    starts = [np.atleast_2d(np.asarray(t0, dtype=float)) for t0 in t0s]
    if any(S.shape != (X.shape[0], m) for S, X in zip(starts, Xs)):
        raise DimensionError("each point block needs one start of m coordinates per point")
    T = as_barycentric_rows(np.concatenate(starts), m)
    bounds = [0, *accumulate(S.shape[0] for S in starts)]
    if m > 1:
        P = np.stack([mo.points for mo in models])
        T = _newton_rows(m, degree, P, np.concatenate(Xs), T, cfg, np.array(bounds))
    # slices: np.split alone takes ~10 us, a share of a small call
    Ts = [T[lo] if single else T[lo:hi] for lo, hi, single in zip(bounds, bounds[1:], singles)]
    return Ts[0] if lone else Ts


def _newton_rows(m: int, degree: int, P, X, T, cfg: FitConfig, bounds) -> np.ndarray:
    """The batched Newton iteration of project_parameter.

    `P` is a stack of control nets, net f serving rows bounds[f]:bounds[f+1].
    The shifted nets of orders 0, 1 and 2 are built once per call (see
    bezier.partial_derivatives). The loop carries only the rows still
    running: their numbers `active`, iterates `t`, residuals `r` and points
    `x`, filtered together by one mask when rows stop; the best iterates,
    their squared distances and the stall counts stay full-size. `active`
    stays sorted, so its runs are where the bounds fall in it; they are found
    again only when rows stop. Only the products with a net depend on more
    than the row itself. The step is `_newton_step`'s, a division when m = 2.
    """
    nets = [shifted_nets(m, degree, P, order) for order in range(3)]

    def derivatives(Tv, runs, order):
        return derivatives_on_runs(m, degree, nets[order], Tv, order, runs)

    def runs_of(rows):
        return np.searchsorted(rows, bounds).tolist()

    active, runs, t, x = np.arange(T.shape[0]), bounds.tolist(), T, X
    r = derivatives(t, runs, 0) - x  # b(t) - x
    best_T, best_g = T.copy(), np.add.reduce(r * r, axis=1)
    stalled = np.zeros(T.shape[0], dtype=int)
    for _ in range(cfg.max_newton_iters):
        if active.size == 0:
            break
        jac = derivatives(t, runs, 1)  # (k, A, m)
        resid = np.einsum("kaj,ka->kj", jac, r)
        done = np.sqrt(np.add.reduce(resid * resid, axis=1)) <= cfg.newton_tol
        if np.logical_or.reduce(done):
            going = ~done
            active, t, r, x, jac, resid = (a[going] for a in (active, t, r, x, jac, resid))
            if active.size == 0:
                break
            runs = runs_of(active)
        hess = derivatives(t, runs, 2)  # (k, A, m, m)
        grad = 2.0 * resid
        hg = 2.0 * (
            np.einsum("kai,kaj->kij", jac, jac) + np.einsum("ka,kaij->kij", r, hess)
        )
        gu = grad[:, :-1] - grad[:, -1:]
        hu = hg[:, :-1, :-1] - hg[:, :-1, -1:] - hg[:, -1:, :-1] + hg[:, -1:, -1:]
        step = _newton_step(hu, gu)
        step = np.concatenate((step, -np.add.reduce(step, axis=1, keepdims=True)), axis=1)
        t_new, found = _clamp_renorm(t + step)
        if not np.logical_and.reduce(found):
            # damped gradient fallback keeps the iteration total
            g_now = np.add.reduce(r * r, axis=1)
            direction = np.concatenate((-gu, np.add.reduce(gu, axis=1, keepdims=True)), axis=1)
            alpha = 1.0
            for _ in range(20):
                todo = np.flatnonzero(~found)
                if todo.size == 0:
                    break
                cand, ok = _clamp_renorm(t[todo] + alpha * direction[todo])
                rows = todo[ok]
                rc = derivatives(cand[ok], runs_of(active[rows]), 0) - x[rows]
                ok[ok] = np.add.reduce(rc * rc, axis=1) < g_now[rows]
                t_new[todo[ok]] = cand[ok]
                found[todo[ok]] = True
                alpha *= 0.5
        # a row without a new iterate, or with no move, is at a fixed point
        # (typically a clamped boundary minimum)
        moved = found & (np.maximum.reduce(np.abs(t_new - t), axis=1) > 1e-15)
        if not np.logical_and.reduce(moved):
            active, t_new, x = active[moved], t_new[moved], x[moved]
            runs = runs_of(active)
        t = t_new
        r = derivatives(t, runs, 0) - x
        g = np.add.reduce(r * r, axis=1)
        better = g < best_g[active]
        improved = active[better]
        best_T[improved] = t[better]
        best_g[improved] = g[better]
        count = stalled[active] + 1
        count[better] = 0
        stalled[active] = count
        keep = count < 5
        if not np.logical_and.reduce(keep):
            active, t, r, x = active[keep], t[keep], r[keep], x[keep]
            runs = runs_of(active)
    return best_T


def solve_control_points(X, T, model: BezierSimplex, free) -> BezierSimplex:
    """Least-squares update of the free control points, all others held fixed.

    The unknowns are offsets from the current values; rank-deficient systems
    take the minimum-norm offset, which leaves undetermined directions at
    their current (grid-initialized) values rather than shrinking them to zero.
    """
    table = index_rows(model.m, model.degree)
    try:
        rows = sorted({table[tuple(d)] for d in free})  # in model row order
    except KeyError:
        unknown = {tuple(d) for d in free} - table.keys()
        raise DimensionError(f"free indices not in the model: {sorted(unknown)}") from None
    if not rows:
        return model
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
    return float(np.add.reduce(r * r, axis=None))


def _alternate(fits, cfg: FitConfig) -> list:
    """Shared alternating loop over a batch of independent fits of one m and
    degree, advanced in lockstep.

    Each fit is (model, X, free indices). Each outer iteration projects the
    parameters of every running fit in one project_parameter call, then
    solves each fit's free control points on its own. A fit stops when its
    per-point improvement of sqrt(SSR) falls below cfg.outer_tol or at the
    iteration cap, and then leaves the batch; what each fit computes is what
    it would compute alone. Returns, per fit, (model, T, trace, iterations),
    or the exception that ended it, so that the caller can raise the first
    in its own order, as if the fits had run one after another.

    The batch stops at the first error anywhere in it. Then each fit runs
    again alone, in order, and keeps its own result or its own error; a
    batch of one returns its error. So one failing fit reruns its whole
    batch one fit at a time, and the larger the batch (every fit of one m
    that fit_lockstep was given), the more that costs. A batch mixing ambient
    dimensions fails its first projection, so it runs each fit alone.
    """
    try:
        return _run_batch(fits, cfg)
    except Exception as exc:
        if len(fits) == 1:
            return [exc]
    return [_alternate([fit], cfg)[0] for fit in fits]


def _run_batch(fits, cfg: FitConfig) -> list:
    """The lockstep loop of _alternate; raises the first error of any fit."""
    models = [model for model, _, _ in fits]
    Xs = [X for _, X, _ in fits]
    Ts, traces = [], []
    for model, X in zip(models, Xs):
        Ts.append(init_parameters(model, X, cfg))
        traces.append([sse(model, X, Ts[-1])])
    running = list(range(len(fits)))
    for _ in range(cfg.max_outer_iters):
        if not running:
            break
        projected = project_parameter(
            tuple(models[i] for i in running),
            tuple(Xs[i] for i in running),
            tuple(Ts[i] for i in running),
            cfg,
        )
        still = []
        for i, T in zip(running, projected):
            X, trace = Xs[i], traces[i]
            Ts[i] = T
            models[i] = solve_control_points(X, T, models[i], fits[i][2])
            current = sse(models[i], X, T)
            previous = trace[-1]
            trace.append(current)
            if not ((math.sqrt(previous) - math.sqrt(current)) / X.shape[0] <= cfg.outer_tol):
                still.append(i)
        running = still
    return [(model, T, trace, len(trace) - 1) for model, T, trace in zip(models, Ts, traces)]


def _all_at_once_stages(S: SampleSet, vertex_optima, cfg: FitConfig):
    """fit_all_at_once as stages for fit_lockstep: one stage, at m = S.m."""
    X = S.ambient()
    if X.shape[0] < 1:
        raise InsufficientDataError("need at least one sample point")
    model = initialize_control_net(vertex_optima, cfg.degree, m=S.m)
    if model.ambient != X.shape[1]:
        raise DimensionError(
            f"corner points live in R^{model.ambient} but samples in R^{X.shape[1]}"
        )
    (outcome,) = yield [(model, X, set(model.indices))]
    if isinstance(outcome, Exception):
        raise outcome
    model, T, trace, iterations = outcome
    log.info("all-at-once fit: %d outer iterations, SSR %.3e", iterations, trace[-1])
    return FitResult(model, T, tuple(trace), iterations)


def _skeleton_stages(decomposed: dict[tuple[int, ...], SampleSet], vertex_optima, cfg: FitConfig):
    """fit_inductive_skeleton as stages for fit_lockstep: one stage per face
    cardinality that has a face to fit, at m = the cardinality."""
    V = np.atleast_2d(np.asarray(vertex_optima, dtype=float))
    m = V.shape[0]
    model = initialize_control_net(V, cfg.degree)
    report: dict[tuple[int, ...], FaceReport] = {}
    last_trace = [0.0]
    max_iters = 0
    faces = enumerate_faces(m, min(cfg.degree, m) if cfg.degree >= 1 else 1)
    for _, same_size in groupby(faces, key=len):
        # per face (face, interior, early): early is None for a face fitted
        # in this stage, else the error it raises or the report of an empty face
        plan, fits = [], []
        for face in same_size:
            _, interior = face_indices(m, cfg.degree, face)
            if not interior:
                continue
            S_face = decomposed.get(face)
            X = None if S_face is None or S_face.n == 0 else S_face.ambient()
            early = None
            if X is None and len(face) == 1:
                early = InsufficientDataError(f"no sample for vertex face {face_label(face)}")
            elif X is None:
                early = FaceReport(0, float("nan"), 0, len(interior), "empty subsample")
            elif X.shape[1] != model.ambient:
                early = DimensionError(
                    f"face sample lives in R^{X.shape[1]}, model in R^{model.ambient}"
                )
            else:
                free = {tuple(d[j] for j in face) for d in interior}
                fits.append((model.restrict(face), X, free))
            plan.append((face, interior, early))
        outcomes = iter((yield fits) if fits else ())  # in face order, as `fits`
        pts = model.points.copy()
        for face, interior, early in plan:
            outcome = next(outcomes) if early is None else early
            if isinstance(outcome, Exception):
                raise outcome
            if isinstance(outcome, FaceReport):
                log.warning(
                    "face %s has no subsample; keeping grid initialization", face_label(face)
                )
                report[face] = outcome
                continue
            sub, T, trace, iterations = outcome
            for d in interior:
                pts[model.index_row(d)] = sub.control_point(tuple(d[j] for j in face))
            report[face] = FaceReport(iterations, trace[-1], T.shape[0], len(interior))
            last_trace = trace
            max_iters = max(max_iters, iterations)
        model = model.with_points(pts)
    log.info("skeleton fit: %d faces, max %d outer iterations", len(report), max_iters)
    return FitResult(model, None, tuple(last_trace), max_iters, report)


_STAGES = {"inductive": _skeleton_stages, "all-at-once": _all_at_once_stages}


def fit_lockstep(requests, cfg: FitConfig) -> list:
    """Run several fits in lockstep; returns per request its FitResult, or
    the exception that ended it.

    A request is ("inductive", per-face samples, corner points) or
    ("all-at-once", union sample, corner points). Each is a sequence of
    stages, each stage a batch of fits of one m: the skeleton has one per
    face cardinality up to min(degree, M), all-at-once one at m = M. Stages
    run in ascending m, and the fits of every request waiting at the least m
    run as one `_alternate` batch, in request order; one that mixes ambient
    dimensions runs each fit alone. Each request gets the result, log lines
    and error that fit_inductive_skeleton or fit_all_at_once give it alone.
    """
    stages = [_STAGES[kind](data, corners, cfg) for kind, data, corners in requests]
    out: list = [None] * len(stages)
    waiting: dict[int, list] = {}  # request -> the fits of its next stage

    def advance(r, outcomes):
        try:
            waiting[r] = stages[r].send(outcomes)
        except StopIteration as stop:
            out[r] = stop.value
        except Exception as exc:
            out[r] = exc

    for r in range(len(stages)):
        advance(r, None)
    while waiting:
        m = min(fits[0][0].m for fits in waiting.values())
        now = {r: waiting.pop(r) for r in sorted(waiting) if waiting[r][0][0].m == m}
        outcomes = iter(_alternate([fit for fits in now.values() for fit in fits], cfg))
        for r, fits in now.items():
            advance(r, [next(outcomes) for _ in fits])
    return out


def _fit_alone(kind: str, data, vertex_optima, cfg: FitConfig) -> FitResult:
    (result,) = fit_lockstep([(kind, data, vertex_optima)], cfg)
    if isinstance(result, Exception):
        raise result
    return result


def fit_all_at_once(S: SampleSet, vertex_optima, cfg: FitConfig) -> FitResult:
    """Alternating fit of every control point against the whole sample; a
    fit_lockstep batch of one."""
    return _fit_alone("all-at-once", S, vertex_optima, cfg)


def fit_inductive_skeleton(
    decomposed: dict[tuple[int, ...], SampleSet], vertex_optima, cfg: FitConfig
) -> FitResult:
    """Fit faces in ascending cardinality, freezing subface control points.

    For each face the alternating loop runs on the face's own sub-model with
    only the face-interior control points free, against that face's
    subsample. Faces of one cardinality depend only on the frozen lower
    faces, so they run as one batch of `_alternate`, in lockstep: one
    projection call per outer iteration covers every face still running,
    and each face keeps its own solve, stopping test and iteration count.
    The result is the same as fitting the faces one after another. Missing
    or empty subsamples for a vertex raise; for larger faces the interior
    points keep their grid initialization and a warning is recorded in the
    per-face report. Reports, log lines and errors follow face order. A
    fit_lockstep batch of one.
    """
    return _fit_alone("inductive", decomposed, vertex_optima, cfg)
