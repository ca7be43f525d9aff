"""Generational distance, its inverse, and grid sampling of fitted models.

Distances are exact: each directed mean equals, bit for bit, a left-to-right
sum of per-point minima of `sqrt(sum((x - y) ** 2))` over every pair (no
spatial index, no approximation). The nearest-point search runs in two passes
per block of rows. Pass 1 approximates all squared distances of the block
with one matrix product, ||x||^2 + ||y||^2 - 2 x.y on centred points, and
keeps as candidates the pairs whose approximation lies within a rigorous
rounding bound of a row's or a column's minimum. Pass 2 recomputes only
those pairs with the exact expression and takes their minima. The bound
covers the rounding of both the approximation and the exact expression, so
the pair that gives the true minimum is always a candidate, and every
candidate's value is an exact pair distance: the minimum is the same number
the full computation gives. Blocks the bound cannot vouch for (non-finite or
overflowing coordinates) or where most pairs tie (so that gathering them would
cost more than the full block) are computed in full with the exact expression.

Large calls split the blocks over one thread per usable CPU (`_min_dists`).
Pass 1's products run in row blocks that OpenBLAS keeps on the calling thread
(`bezier._blocked_matmul`), so the cores go to those threads and not to BLAS
threads that spin between calls.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bezier import BezierSimplex, _blocked_matmul, barycentric_grid
from .errors import DimensionError
from .pareto import SampleSet

_BLOCK_ROWS = 256
_U = np.finfo(float).eps / 2  # unit roundoff
_ETA = np.finfo(float).smallest_subnormal
_SQ_LIMIT = np.finfo(float).max / 16
# Pairs each worker thread gets at least. On 2 cores, two threads gained
# nothing up to 2e7 pairs (med5's 10,626 x 1,000 grid score among them) and
# 1.3-1.5x from 2.5e7 pairs on, so calls of 2^24 pairs and more split.
_PAIRS_PER_WORKER = 1 << 23


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(pairs: int) -> int:
    """Threads for a kernel call over this many pairs: one per CPU, while each
    gets at least `_PAIRS_PER_WORKER` pairs."""
    return max(1, min(_cpu_count(), pairs // _PAIRS_PER_WORKER))


def grid_sample(model: BezierSimplex, resolution: int) -> SampleSet:
    """Model values on the barycentric grid with the given denominator.

    Yields C(resolution + m - 1, m - 1) points in R^ambient.
    """
    grid = barycentric_grid(model.m, resolution)
    return SampleSet(model.evaluate_batch(grid))


def _points(obj) -> np.ndarray:
    if isinstance(obj, SampleSet):
        return obj.objectives
    return np.atleast_2d(np.asarray(obj, dtype=float))


def _pair_dists(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Exact distances of broadcast point pairs; every reported minimum is one of these."""
    return np.sqrt(np.sum((P - Q) ** 2, axis=-1))


def _min_dists(X: np.ndarray, Y: np.ndarray, want_cols: bool):
    """Per-row (and, if asked, per-column) minima of `_pair_dists(X[i], Y[j])`.

    Pass 1 centres both sets on c, the midpoint of their joint bounding box,
    and for each block of `_BLOCK_ROWS` rows takes one matrix product of
    [x^, 1, ||x^||^2] with [-2 y^, ||y^||^2, 1], with x^ = fl(x - c),
    y^ = fl(y - c) and the norms rounded: D approximates ||x^ - y^||^2. Let
    r = fl(sum(fl(fl(x - y)^2))) be the exact expression squared, u = 2^-53
    the unit roundoff and P = ||x^||^2 + ||y^||^2. To first order in u, for a
    pair in R^A:

    - r is within (A + 2) u ||x - y||^2 <= (2A + 4) u P of ||x - y||^2 (the
      difference's rounding, squared, the square's, and A - 1 in the sum, in
      whatever order numpy adds);
    - centring moves each coordinate by at most u |x^_k| (or u |y^_k|), so
      ||x^ - y^||^2 is within 4u P of ||x - y||^2;
    - the two norms are dot products of length A, within A u P together, and
      D is one of length A + 2 whose terms sum in magnitude to at most 2P,
      within (2A + 4) u P whatever the summation order or FMA use; so D is
      within (3A + 4) u P of ||x^ - y^||^2.

    So |D - r| <= E = (5A + 12) u P. If j* minimises r over a row and j'
    minimises D, then D[j*] <= r[j*] + E <= r[j'] + E <= D[j'] + 2E, and the
    same holds for a column against the rows of any earlier blocks. The
    candidate test D <= min + tol therefore keeps j* when
    tol >= 2E + u (|min| + tol) ~ (10A + 26) u P. tol = C(A) u N with
    C(A) = 20 (A + 3) covers that twice over, N being the running maximum of
    ||x^||^2 over the blocks so far plus the maximum of ||y^||^2. A product
    that underflows adds at most half the smallest subnormal eta (4A + 2
    products per pair), hence the C(A) eta term. The square root is
    monotone, so the pair with the least r has the least distance, and as
    every candidate is an exact pair distance, the minimum over the
    candidates is the true minimum.

    N <= max_float / 16 keeps every intermediate of both expressions finite,
    so D is finite whenever N passes. When N is larger, infinite or NaN
    (non-finite or huge coordinates), tol is unusable and the block is
    computed in full. Pass 2 gathers the candidate pairs as (k, A) rows;
    when more than a quarter of a block's pairs are candidates (mass ties),
    the full block is computed instead, so memory stays within that of the
    full block's (rows, n_Y, A) tensors.

    Large calls split the blocks into contiguous chunks, one per worker
    thread (`_workers`). A chunk keeps its own running column minima of D,
    its own N and its own column minima, so the argument above holds within
    each chunk: both terms of tol, and the earlier blocks a column is
    compared against, cover that chunk's blocks only. Chunks write their row
    minima to disjoint slices, and their column minima merge by np.minimum
    in chunk order, which keeps the first NaN just as one pass over the
    blocks would. Workers call numpy only.
    """
    n_x = X.shape[0]
    n_y, ambient = Y.shape
    row_mins = np.empty(n_x)
    lo = np.minimum(X.min(axis=0), Y.min(axis=0))
    hi = np.maximum(X.max(axis=0), Y.max(axis=0))
    W = np.empty((ambient + 2, n_y))
    # pass 1 only screens: non-finite values there send a block to the full path
    with np.errstate(over="ignore", invalid="ignore"):
        centre = 0.5 * lo + 0.5 * hi  # halves first: no overflow
        Yc = Y - centre
        W[:ambient] = -2.0 * Yc.T
        W[ambient] = np.einsum("ij,ij->i", Yc, Yc)
    W[ambient + 1] = 1.0
    y_sq_max = W[ambient].max()
    c_tol = 20 * (ambient + 3)

    def chunk(starts):
        """Row minima of the blocks at `starts` into row_mins; their column minima."""
        col_mins = np.full(n_y, np.inf) if want_cols else None
        col_run = np.full(n_y, np.inf)  # running column minima of D
        x_sq_max = 0.0
        rows_max = min(_BLOCK_ROWS, n_x)
        D_buf = np.empty((rows_max, n_y))
        cand_buf = np.empty((rows_max, n_y), dtype=bool)
        col_buf = np.empty((rows_max, n_y), dtype=bool) if want_cols else None
        for start in starts:
            block = X[start : start + _BLOCK_ROWS]
            nb = block.shape[0]
            rows = slice(start, start + nb)
            Xa = np.empty((nb, ambient + 2))
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(block, centre, out=Xa[:, :ambient])
                Xa[:, ambient] = 1.0
                Xa[:, ambient + 1] = np.einsum("ij,ij->i", Xa[:, :ambient], Xa[:, :ambient])
            bound = np.maximum(x_sq_max, Xa[:, ambient + 1].max())  # NaN propagates
            flat = None
            if bound + y_sq_max <= _SQ_LIMIT:
                x_sq_max = bound
                tol = c_tol * (_U * (x_sq_max + y_sq_max) + _ETA)
                D, cand = D_buf[:nb], cand_buf[:nb]
                _blocked_matmul(Xa, W, out=D)
                np.less_equal(D, (D.min(axis=1) + tol)[:, None], out=cand)
                if want_cols:
                    np.minimum(col_run, D.min(axis=0), out=col_run)
                    near_col = np.less_equal(D, col_run + tol, out=col_buf[:nb])
                    np.logical_or(cand, near_col, out=cand)
                flat = np.flatnonzero(cand)
                if 4 * flat.size > nb * n_y:
                    flat = None  # mostly ties: the full block is cheaper
            if flat is None:
                d = _pair_dists(block[:, None, :], Y[None, :, :])
                row_mins[rows] = d.min(axis=1)
                if want_cols:
                    np.minimum(col_mins, d.min(axis=0), out=col_mins)
                continue
            ii, jj = np.divmod(flat, n_y)
            d = _pair_dists(block[ii], Y[jj])
            # every row has a candidate (its own minimum), and ii is sorted
            row_mins[rows] = np.minimum.reduceat(d, np.flatnonzero(np.diff(ii, prepend=-1)))
            if want_cols:
                np.minimum.at(col_mins, jj, d)
        return col_mins

    starts = range(0, n_x, _BLOCK_ROWS)
    workers = min(_workers(n_x * n_y), len(starts))
    if workers == 1:
        return row_mins, chunk(starts)
    bounds = [i * len(starts) // workers for i in range(workers + 1)]
    err = np.geterr()  # a new thread starts from numpy's default error handling

    def in_thread(part):
        with np.errstate(**err):
            return chunk(part)

    with ThreadPoolExecutor(workers) as pool:
        parts = list(pool.map(in_thread, [starts[a:b] for a, b in zip(bounds[:-1], bounds[1:])]))
    col_mins = parts[0]
    if want_cols:
        for part in parts[1:]:
            np.minimum(col_mins, part, out=col_mins)
    return row_mins, col_mins


def _check_pair(X, Y):
    X, Y = _points(X), _points(Y)
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise DimensionError("distance between point sets needs both nonempty")
    if X.shape[1] != Y.shape[1]:
        raise DimensionError(f"point sets disagree in dimension: {X.shape[1]} vs {Y.shape[1]}")
    return X, Y


def gd(X, Y) -> float:
    """Mean distance from each point of X to its nearest point of Y."""
    X, Y = _check_pair(X, Y)
    row_mins, _ = _min_dists(X, Y, want_cols=False)
    # plain left-to-right sum, same as a scalar loop would produce
    return sum(row_mins.tolist()) / X.shape[0]


def igd(X, Y) -> float:
    """Mean distance from each point of Y to its nearest point of X."""
    return gd(Y, X)


def gd_igd(X, Y) -> tuple[float, float]:
    """Both directed means in one pairwise pass; equals (gd(X, Y), igd(X, Y))."""
    X, Y = _check_pair(X, Y)
    row_mins, col_mins = _min_dists(X, Y, want_cols=True)
    return (
        sum(row_mins.tolist()) / X.shape[0],
        sum(col_mins.tolist()) / Y.shape[0],
    )
