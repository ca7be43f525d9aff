"""Benchmark problems and their training/validation splits.

Problems come in two flavors:

* analytic: the Pareto set of every objective subset is known in closed form
  and sampled directly (Schaffer, the MED family);
* brute-force: a large quasi-random feasible pool is evaluated once and face
  fronts are extracted by non-dominated filtering of the pooled objective
  projections (ConstrEx, Osyczka2, Viennet2).

Training sets follow the skeleton scheme: each objective subset J of size k
gets sizes[k-1] points of the J-subproblem's front, all pairwise disjoint and
disjoint from the validation set, the one draw from the full front.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InsufficientFrontError,
)
from .pareto import SampleSet, enumerate_faces, load_sample, nondominated_mask

log = logging.getLogger("bsf.problems")

POOL_SIZE = 100_000
_POOL_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_FRONT_CACHE: dict[tuple, np.ndarray] = {}


@dataclass(frozen=True)
class ProblemDef:
    """Analytic benchmark definition. Constraints are feasible when g(x) >= 0."""

    name: str
    n_vars: int
    n_objectives: int
    bounds: np.ndarray = field(repr=False)  # (L, 2)
    objectives: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    constraints: tuple[Callable[[np.ndarray], np.ndarray], ...] = field(
        default=(), repr=False
    )
    # (face, n, rng) -> decision matrix of Pareto-optimal points of the
    # subproblem restricted to `face` (0-based objective indices); without
    # it, fronts are read off a brute-force feasible pool
    pareto_set_sampler: Callable | None = field(default=None, repr=False)


@dataclass(frozen=True)
class FileProblem:
    """Stand-in for external data: the whole front is just a sample file."""

    name: str
    sample: SampleSet
    path: str | None = None  # the file the sample was read from, for messages

    @property
    def n_objectives(self) -> int:
        return self.sample.m

    def front(self, with_solutions: bool | None) -> SampleSet:
        """The sample with its solution columns if asked for, without if not, as read if None."""
        if with_solutions and self.sample.solutions is None:
            raise DimensionError(f"{self.path or self.name}: fitting the graph needs "
                                 "solution columns x1, x2, ..., and the file has only objectives")
        if with_solutions is False and self.sample.solutions is not None:
            return SampleSet(self.sample.objectives)
        return self.sample


def evaluate_objectives(problem: ProblemDef, x):
    """Objective vector(s) and constraint feasibility for decision vector(s)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != problem.n_vars:
        raise DimensionError(
            f"{problem.name} expects {problem.n_vars} variables, got {X.shape[1]}"
        )
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    if np.any(X < lo) or np.any(X > hi):
        raise DomainError(f"decision vector outside the bounds of {problem.name}")
    F = problem.objectives(X)
    feasible = _feasible(problem, X)
    if single:
        return F[0], bool(feasible[0])
    return F, feasible


def _feasible(problem: ProblemDef, X: np.ndarray) -> np.ndarray:
    """Mask of the rows of X that satisfy every constraint g(X) >= 0."""
    feasible = np.ones(X.shape[0], dtype=bool)
    for g in problem.constraints:
        feasible &= np.asarray(g(X)) >= 0.0
    return feasible


# -- problem definitions ------------------------------------------------------


def _schaffer_objectives(X):
    x = X[:, 0]
    return np.column_stack([x**2, (x - 2.0) ** 2])


def _schaffer_sampler(face, n, rng):
    if face == (0,):
        return np.zeros((1, 1))
    if face == (1,):
        return np.full((1, 1), 2.0)
    return rng.uniform(0.0, 2.0, size=n).reshape(-1, 1)


def _constrex_objectives(X):
    x1, x2 = X[:, 0], X[:, 1]
    return np.column_stack([x1, (1.0 + x2) / x1])


def _osyczka2_objectives(X):
    x1, x2, x3, x4, x5, x6 = (X[:, i] for i in range(6))
    f1 = (
        -25.0 * (x1 - 2.0) ** 2
        - (x2 - 2.0) ** 2
        - (x3 - 1.0) ** 2
        - (x4 - 4.0) ** 2
        - (x5 - 1.0) ** 2
    )
    f2 = np.sum(X**2, axis=1)
    return np.column_stack([f1, f2])


def _viennet2_objectives(X):
    x1, x2 = X[:, 0], X[:, 1]
    f1 = (x1 - 2.0) ** 2 / 2.0 + (x2 + 1.0) ** 2 / 13.0 + 3.0
    f2 = (x1 + x2 - 3.0) ** 2 / 36.0 + (-x1 + x2 + 2.0) ** 2 / 8.0 - 17.0
    f3 = (x1 + 2.0 * x2 - 1.0) ** 2 / 175.0 + (2.0 * x2 - x1) ** 2 / 17.0 - 13.0
    return np.column_stack([f1, f2, f3])


def _med_exponents(m: int) -> np.ndarray:
    return np.exp(2.0 * np.arange(m) / (m - 1) - 1.0)


def _med_objectives(m: int):
    p = _med_exponents(m)
    anchors = np.eye(m)

    def objectives(X):
        d = np.linalg.norm(X[:, None, :] - anchors[None, :, :], axis=2) / math.sqrt(2.0)
        return d**p

    return objectives


def _med_sampler(m: int):
    def sampler(face, n, rng):
        k = len(face)
        if k == 1:
            X = np.zeros((1, m))
            X[0, face[0]] = 1.0
            return X
        t = rng.dirichlet(np.ones(k), size=n)
        X = np.zeros((n, m))
        X[:, list(face)] = t
        return X

    return sampler


def _make_schaffer() -> ProblemDef:
    return ProblemDef(
        name="schaffer",
        n_vars=1,
        n_objectives=2,
        bounds=np.array([[-100000.0, 100000.0]]),
        objectives=_schaffer_objectives,
        pareto_set_sampler=_schaffer_sampler,
    )


def _make_constrex() -> ProblemDef:
    return ProblemDef(
        name="constrex",
        n_vars=2,
        n_objectives=2,
        bounds=np.array([[0.1, 1.0], [0.0, 5.0]]),
        objectives=_constrex_objectives,
        constraints=(
            lambda X: X[:, 1] + 9.0 * X[:, 0] - 6.0,
            lambda X: -X[:, 1] + 9.0 * X[:, 0] - 1.0,
        ),
    )


def _make_osyczka2() -> ProblemDef:
    return ProblemDef(
        name="osyczka2",
        n_vars=6,
        n_objectives=2,
        bounds=np.array(
            [
                [0.0, 10.0],
                [0.0, 10.0],
                [1.0, 5.0],
                [0.0, 6.0],
                [1.0, 5.0],
                [0.0, 10.0],
            ]
        ),
        objectives=_osyczka2_objectives,
        constraints=(
            lambda X: X[:, 0] + X[:, 1] - 2.0,
            lambda X: 6.0 - X[:, 0] - X[:, 1],
            lambda X: 2.0 - X[:, 1] + X[:, 0],
            lambda X: 2.0 - X[:, 0] + 3.0 * X[:, 1],
            lambda X: 4.0 - (X[:, 2] - 3.0) ** 2 - X[:, 3],
            lambda X: (X[:, 4] - 3.0) ** 2 + X[:, 5] - 4.0,
        ),
    )


def _make_viennet2() -> ProblemDef:
    return ProblemDef(
        name="viennet2",
        n_vars=2,
        n_objectives=3,
        bounds=np.array([[-4.0, 4.0], [-4.0, 4.0]]),
        objectives=_viennet2_objectives,
    )


def make_med(m: int) -> ProblemDef:
    """M-variable, M-objective distance problem whose Pareto set is the
    convex hull of the coordinate unit vectors."""
    if m < 2:
        raise DimensionError("the MED family needs at least two objectives")
    return ProblemDef(
        name=f"med{m}",
        n_vars=m,
        n_objectives=m,
        bounds=np.tile([-5.12, 5.12], (m, 1)),
        objectives=_med_objectives(m),
        pareto_set_sampler=_med_sampler(m),
    )


_REGISTRY: dict[str, Callable[[], ProblemDef]] = {
    "schaffer": _make_schaffer,
    "constrex": _make_constrex,
    "osyczka2": _make_osyczka2,
    "viennet2": _make_viennet2,
    "med3": lambda: make_med(3),
    "med5": lambda: make_med(5),
}


def problem_names() -> list[str]:
    return sorted(_REGISTRY) + ["medM:<M>", "file:<path>"]


def get_problem(name: str) -> ProblemDef | FileProblem:
    if name in _REGISTRY:
        return _REGISTRY[name]()
    if name.startswith("medM:"):
        try:
            m = int(name.split(":", 1)[1])
        except ValueError:
            raise KeyError(
                f"problem {name!r}: medM:<M> needs an integer M; "
                f"valid names: {', '.join(problem_names())}"
            ) from None
        return make_med(m)
    if name.startswith("file:"):
        path = name.split(":", 1)[1]
        return FileProblem(Path(path).stem, load_sample(path), path)
    raise KeyError(f"unknown problem {name!r}; valid names: {', '.join(problem_names())}")


# -- feasible pools for brute-force fronts ------------------------------------


def _lhs_batch(bounds: np.ndarray, rng, out: np.ndarray, ranks: np.ndarray,
               jitter: np.ndarray) -> np.ndarray:
    """Latin hypercube sample in the box `bounds`, written into `out`, an
    (n_vars, size) float64 buffer; returns its (size, n_vars) transpose, so
    each variable's column is contiguous. `ranks` holds 0.0, 1.0, ...,
    size - 1 and is kept; `jitter` is a work buffer of length size.

    Column j is lo + (perm + u) / size * (hi - lo), where perm is
    `rng.permutation(size)` and then u is `rng.random(size)`. That permutation
    is a shuffle of arange(size), and a shuffle's swaps do not depend on the
    dtype, so shuffling the float ranks in place draws the same numbers and
    gives perm exactly; `random(out=...)` fills the same doubles. Each
    in-place step is one of the expression's IEEE operations, in its order
    (addition commutes exactly), so every bit is the expression's, and no
    array is allocated per column.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    size = out.shape[1]
    for j, col in enumerate(out):
        col[...] = ranks
        rng.shuffle(col)
        col += rng.random(out=jitter)
        col /= size
        col *= hi[j] - lo[j]
        col += lo[j]
    return out.T


def feasible_pool(problem: ProblemDef, size: int = POOL_SIZE, seed: int = 0):
    """Quasi-random feasible decision/objective pool, cached per (name, size, seed).

    Latin hypercube batches of max(size, 2**16) points are drawn from one
    seeded generator until `size` feasible rows are found; the pool is those
    rows, in draw order, and their objectives. The batches reuse one set of
    buffers, and only the rows the pool still needs are copied and
    evaluated. The objectives are row-wise, so evaluating fewer rows of a
    batch changes no bit: the pool is the one that stacking whole batches
    and truncating gives.
    """
    if size < 1:
        raise ValueError("pool size must be at least 1")
    key = (problem.name, size, seed)
    if key not in _POOL_CACHE:
        rng = np.random.default_rng(seed)
        n = max(size, 1 << 16)
        batch, ranks, jitter = np.empty((problem.n_vars, n)), np.arange(n, dtype=float), np.empty(n)
        X = np.empty((size, problem.n_vars))
        F = np.empty((size, problem.n_objectives))
        have = 0
        while have < size:
            B = _lhs_batch(problem.bounds, rng, batch, ranks, jitter)
            rows = np.flatnonzero(_feasible(problem, B))[: size - have]
            kept = X[have : have + rows.size]
            kept[...] = B[rows]
            F[have : have + rows.size] = problem.objectives(kept)
            have += rows.size
        _POOL_CACHE[key] = (X, F)
        log.info("pool for %s: %d feasible points", problem.name, size)
    return _POOL_CACHE[key]


def _face_front(F: np.ndarray, face, cache_key=None) -> np.ndarray:
    """Row indices of F whose projection onto `face` is non-dominated; with a
    cache key (one per pool) memoized so repeated trials reuse the scan."""
    if cache_key is not None:
        key = cache_key + (tuple(face),)
        if key not in _FRONT_CACHE:
            _FRONT_CACHE[key] = np.flatnonzero(nondominated_mask(F[:, list(face)]))
        return _FRONT_CACHE[key]
    return np.flatnonzero(nondominated_mask(F[:, list(face)]))


# -- front sampling ------------------------------------------------------------


def _analytic_face_sample(problem, face, n, rng, with_solutions):
    """n mutually non-dominated points from the closed-form face front; the
    dominated rows are redrawn and the set checked again, up to 20 times."""
    X = problem.pareto_set_sampler(face, n, rng)
    F = problem.objectives(X)
    for redraws in range(21):
        keep = nondominated_mask(F[:, list(face)])
        X, F = X[keep][:n], F[keep][:n]
        short = n - X.shape[0]
        if short == 0:
            return SampleSet(F, X if with_solutions else None)
        if redraws == 20:
            break
        X_extra = problem.pareto_set_sampler(face, short, rng)
        X = np.vstack([X, X_extra])
        F = np.vstack([F, problem.objectives(X_extra)])
    raise InsufficientFrontError(
        f"could not draw {n} non-dominated points on face of {problem.name}"
    )


# -- training/validation splits -------------------------------------------------


def check_sizes(sizes, problem: ProblemDef | FileProblem | None = None) -> None:
    """Raise ValueError, naming the entry, unless the subsample sizes
    (N1, N2, ...) are nonnegative and N1 is at least 1; given the problem,
    also unless there are at most as many sizes as it has objectives."""
    if not sizes:
        raise ValueError("sizes must not be empty")
    for k, n in enumerate(sizes, 1):
        if n < 0:
            raise ValueError(f"sizes must be nonnegative: N{k} is {n}")
    if sizes[0] < 1:
        raise ValueError(f"sizes must start with at least one vertex point: N1 is {sizes[0]}")
    if problem is not None and len(sizes) > problem.n_objectives:
        raise ValueError(
            f"sizes has {len(sizes)} entries, but {problem.name} has "
            f"{problem.n_objectives} objectives"
        )


def make_training_set(
    problem: ProblemDef | FileProblem,
    sizes: tuple[int, ...],
    seed: int = 0,
    validation_size: int = 1000,
    with_solutions: bool | None = None,
    pool_seed: int = 0,
):
    """Per-face training subsamples plus a validation set.

    Returns (mapping face -> SampleSet, validation SampleSet). Faces of size k
    receive sizes[k-1] points from the front of the matching subproblem;
    subsamples are pairwise disjoint and disjoint from the validation set.
    The sets carry solution vectors if `with_solutions` is true; None, the
    default, means false, except that a sample file keeps its own columns.
    """
    if validation_size < 1:
        raise ValueError("validation size must be at least 1")
    check_sizes(sizes, problem)
    if isinstance(problem, FileProblem):
        return _training_from_sample(problem, sizes, seed, validation_size, with_solutions)
    m = problem.n_objectives
    rng = np.random.default_rng(seed)
    if problem.pareto_set_sampler is not None:
        training = {}
        for face in enumerate_faces(m, len(sizes)):
            n_face = sizes[len(face) - 1]
            if n_face == 0:
                continue
            if len(face) == 1 and n_face != 1:
                raise InsufficientFrontError(
                    f"{problem.name}: a single-objective front is one point; "
                    f"cannot draw {n_face} distinct vertex samples"
                )
            training[face] = _analytic_face_sample(problem, face, n_face, rng, with_solutions)
        validation = _analytic_face_sample(
            problem, tuple(range(m)), validation_size, rng, with_solutions
        )
        return training, validation
    return _training_from_pool(problem, sizes, rng, validation_size, with_solutions, pool_seed)


def _skeleton_picks(name, F: np.ndarray, sizes, rng, cache_key=None):
    """Disjoint per-face row picks from the objective rows F.

    Each face of size k takes sizes[k-1] rows of its projected front that no
    earlier face took: a vertex the rows lowest in its objective (stable
    sort), a larger face a seeded draw. Returns (mapping face -> rows,
    boolean mask of the rows taken).
    """
    used = np.zeros(F.shape[0], dtype=bool)
    picks = {}
    for face in enumerate_faces(F.shape[1], len(sizes)):
        n_face = sizes[len(face) - 1]
        if n_face == 0:
            continue
        front = _face_front(F, face, cache_key=cache_key)
        candidates = front[~used[front]]
        if candidates.size < n_face:
            raise InsufficientFrontError(
                f"{name}: face {face} front has only {candidates.size} unused points, "
                f"need {n_face}"
            )
        if len(face) == 1:
            order = np.argsort(F[candidates, face[0]], kind="stable")
            pick = candidates[order[:n_face]]
        else:
            pick = rng.choice(candidates, size=n_face, replace=False)
        used[pick] = True
        picks[face] = pick
    return picks, used


def _training_from_pool(problem, sizes, rng, validation_size, with_solutions, pool_seed):
    X, F = feasible_pool(problem, seed=pool_seed)
    cache_key = (problem.name, POOL_SIZE, pool_seed)
    picks, used = _skeleton_picks(problem.name, F, sizes, rng, cache_key)
    training = {
        face: SampleSet(F[pick], X[pick] if with_solutions else None)
        for face, pick in picks.items()
    }
    front = _face_front(F, tuple(range(problem.n_objectives)), cache_key=cache_key)
    candidates = front[~used[front]]
    if candidates.size == 0:
        raise InsufficientFrontError(f"{problem.name}: no validation points left")
    size = min(validation_size, candidates.size)
    pick = rng.choice(candidates, size=size, replace=False)
    validation = SampleSet(F[pick], X[pick] if with_solutions else None)
    return training, validation


def _training_from_sample(problem: FileProblem, sizes, seed, validation_size, with_solutions):
    """Skeleton split of an externally supplied front sample."""
    sample = problem.front(with_solutions)
    rng = np.random.default_rng(seed)
    picks, used = _skeleton_picks(problem.name, sample.objectives, sizes, rng)
    training = {face: sample.take(pick) for face, pick in picks.items()}
    rest = np.flatnonzero(~used)
    if rest.size == 0:
        raise InsufficientFrontError("no points left for validation")
    if rest.size > validation_size:
        rest = np.sort(rng.choice(rest, size=validation_size, replace=False))
    return training, sample.take(rest)


__all__ = [
    "ProblemDef",
    "FileProblem",
    "check_sizes",
    "evaluate_objectives",
    "feasible_pool",
    "get_problem",
    "make_med",
    "make_training_set",
    "problem_names",
]
