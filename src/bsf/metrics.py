"""Generational distance, its inverse, and grid sampling of fitted models.

Distances are exact: each directed mean equals, bit for bit, a left-to-right
sum of per-point minima of `sqrt(sum((x - y) ** 2))` over every pair (no
spatial index, no approximation). The nearest-point search runs in two passes
per block of rows. Pass 1 approximates all squared distances of the block in
single precision with one matrix product, ||x||^2 + ||y||^2 - 2 x.y on
centred points, and keeps as candidates the pairs whose approximation lies
within a rigorous rounding bound of a row's or a column's minimum. The bound
is per point: it grows with that point's own norm and least distance, so one
far point widens only its own screen. Pass 2 recomputes only those pairs with
the exact double-precision expression and takes their minima. The bound
covers the rounding of both the approximation and the exact expression, so
the pair that gives the true minimum is always a candidate, and every
candidate's value is an exact pair distance: the minimum is the same number
the full computation gives. Blocks the bound cannot vouch for (non-finite
coordinates, or squares past float32's range) or where most pairs tie (so
that gathering them would cost more than the full block) are computed in
full with the exact expression.

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

# Rows per block. Each block makes dozens of small numpy calls, which hold
# the GIL while the kernel's threads run, so fewer, larger blocks run faster
# on two threads; 448 float32 rows against 1,000 points make a 1.75 MB D,
# which with the candidate mask stays below the 2.5 MB that 256 float64 rows
# and two masks took.
_BLOCK_ROWS = 448
# pass 1 runs in float32: its unit roundoff, least subnormal and overflow guard
_U = 2.0**-24
_ETA = float(np.finfo(np.float32).smallest_subnormal)
_SQ_LIMIT = float(np.finfo(np.float32).max) / 16
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

    Pass 1 centres both sets on c, the midpoint of Y's bounding box, and for
    each block of `_BLOCK_ROWS` rows takes one float32 matrix product of
    [x~, 1, s_x] with [-2 y~, s_y, 1], where x~ = fl32(x - c), y~ = fl32(y - c)
    and s_x, s_y are their squared norms summed in float32: D approximates
    ||x - y||^2. Let r = fl(sum(fl(fl(x - y)^2))) be the exact expression
    squared (in float64), u = 2^-24 and eta float32's unit roundoff and least
    subnormal, d = ||x - y||, a = ||x - c|| and b = ||y - c||. To first order
    in u, for a pair in R^A:

    - r is within (A + 2) 2^-53 d^2 <= u d^2 of d^2 (the difference's
      rounding, squared, the square's, and A - 1 in the sum, in whatever order
      numpy adds; its underflow is far below eta);
    - rounding x - c and y - c to float32 moves each coordinate by at most
      u |x_k - c_k| (or u |y_k - c_k|) plus eta / 2, so ||x~ - y~||^2 is
      within 2u d (a + b) + 2 d sqrt(A) eta <= 2u d (a + b) + u d^2 + eta of
      d^2 (A eta < u);
    - s_x and s_y are sums of A products each: together within
      A u (a^2 + b^2) + A eta of ||x~||^2 + ||y~||^2;
    - D is a sum of A + 2 terms whose magnitudes sum to at most (a + b)^2, so
      within (A + 2) u (a + b)^2 + A eta / 2 of s_x + s_y - 2 x~.y~, whatever
      the summation order or FMA use.

    So |D - r| <= E = u F + (3A/2 + 1) eta, where 2 d (a + b) <= d^2 + (a + b)^2
    gives F <= 3 d^2 + A (a^2 + b^2) + (A + 3) (a + b)^2.

    The bound is per point. Take a row x with s_x = a^2, let j* minimise r
    over the row and j' minimise D, and m = D[j']. Then
    D[j*] <= r[j*] + E* <= r[j'] + E* <= m + E' + E*. Both pairs have
    d^2 <= m+ = max(m, 0) (to first order), so by the triangle inequality
    both have b <= min(B, a + sqrt(m+)), B being the largest norm of Y. With
    d^2 = m+ and that b, F bounds F* and F'. The candidate test keeps j* when
    D <= m + 2 (2u F + (3A + 2) eta): twice E* + E', the factor two covering
    the terms of second order, the float64 rounding of x - c before its cast
    (2^-53 more), the float64 arithmetic of the threshold and the float32
    norms standing in for a and b. The threshold is rounded up to
    float32, so the comparison is exact on the safe side. A column is tested
    in the same way against the rows of the blocks so far, with m its running
    minimum of D and B the largest row norm of those blocks, so the row that
    minimises r over them is kept in its own block. A far row therefore
    widens only its own screen, and centring on Y's box keeps every b, and
    so every column's screen, small. The square root is monotone, so the pair
    with the least r has the least distance, and as every candidate is an
    exact pair distance, the minimum over the candidates is the true minimum.

    A block runs pass 1 only when its largest s_x plus the largest s_y is at
    most float32's max / 16, which keeps every intermediate of D finite. When
    the sum is larger, infinite or NaN (non-finite coordinates, or squares
    past float32's range), the block is computed in full. Pass 2 gathers the
    rows' candidate pairs as (k, A) rows and takes the row minima, then does
    the same with the columns' candidates for the column minima; a pair in
    both sets is computed twice, to the same bits. When the two sets hold
    more than a quarter of the block's pairs (mass ties), the full block is
    computed instead, so memory stays within that of the full block's
    (rows, n_Y, A) tensors.

    Large calls split the blocks into contiguous chunks, one per worker
    thread (`_workers`). A chunk keeps its own running column minima of D,
    its own largest row norm and its own column minima, so the argument
    above holds within each chunk: B and the earlier blocks a column is
    compared against cover that chunk's blocks only. Chunks write their row
    minima to disjoint slices, and their column minima merge by np.minimum
    in chunk order, which keeps the first NaN just as one pass over the
    blocks would. Workers call numpy only.
    """
    n_x = X.shape[0]
    n_y, ambient = Y.shape
    row_mins = np.empty(n_x)
    W = np.empty((ambient + 2, n_y), dtype=np.float32)
    # pass 1 only screens: non-finite values there send a block to the full path
    with np.errstate(over="ignore", invalid="ignore"):
        centre = 0.5 * Y.min(axis=0) + 0.5 * Y.max(axis=0)  # halves first: no overflow
        Yc = (Y - centre).astype(np.float32)
        W[:ambient] = -2.0 * Yc.T
        W[ambient] = np.einsum("ij,ij->i", Yc, Yc)
    W[ambient + 1] = 1.0
    y_sq = W[ambient].astype(float)
    y_sq_max = y_sq.max()

    def thresholds(least, sq, other_sq_max):
        """Pass 1's float32 thresholds for points of squared norms `sq` and
        least D `least`, the other set's squared norms being at most `other_sq_max`."""
        near = np.maximum(least, 0.0)
        norm = np.sqrt(sq)
        # the other point's norm: b for a row, a for a column
        other = np.minimum(np.sqrt(other_sq_max), norm + np.sqrt(near))
        err = 3 * near + ambient * (sq + other**2) + (ambient + 3) * (norm + other) ** 2
        thr = least + 2 * (2 * _U * err + (3 * ambient + 2) * _ETA)
        return np.nextafter(thr.astype(np.float32), np.float32(np.inf))  # rounded up

    def chunk(starts):
        """Row minima of the blocks at `starts` into row_mins; their column minima."""
        col_mins = np.full(n_y, np.inf) if want_cols else None
        col_run = np.full(n_y, np.inf, dtype=np.float32)  # running column minima of D
        x_sq_max = 0.0
        rows_max = min(_BLOCK_ROWS, n_x)
        D_buf = np.empty((rows_max, n_y), dtype=np.float32)
        cand_buf = np.empty((rows_max, n_y), dtype=bool)
        for start in starts:
            block = X[start : start + _BLOCK_ROWS]
            nb = block.shape[0]
            rows = slice(start, start + nb)
            Xa = np.empty((nb, ambient + 2), dtype=np.float32)
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(block, centre, out=Xa[:, :ambient])
                Xa[:, ambient] = 1.0
                Xa[:, ambient + 1] = np.einsum("ij,ij->i", Xa[:, :ambient], Xa[:, :ambient])
            x_sq = Xa[:, ambient + 1].astype(float)
            bound = np.maximum(x_sq_max, x_sq.max())  # NaN propagates
            flat = None
            if bound + y_sq_max <= _SQ_LIMIT:
                x_sq_max = bound
                D, cand = D_buf[:nb], cand_buf[:nb]
                _blocked_matmul(Xa, W, out=D)
                row_thr = thresholds(D.min(axis=1).astype(float), x_sq, y_sq_max)
                flat = np.flatnonzero(np.less_equal(D, row_thr[:, None], out=cand))
                n_cand = flat.size
                if want_cols:
                    np.minimum(col_run, D.min(axis=0), out=col_run)
                    col_thr = thresholds(col_run.astype(float), y_sq, x_sq_max)
                    col_flat = np.flatnonzero(np.less_equal(D, col_thr, out=cand))
                    n_cand += col_flat.size
                if 4 * n_cand > nb * n_y:
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
            row_mins[rows] = np.minimum.reduceat(d, np.searchsorted(ii, np.arange(nb)))
            if want_cols:
                ii, jj = np.divmod(col_flat, n_y)
                # these distances are finite, but col_mins may hold a full-path
                # block's NaN, on which np.minimum.at (not np.minimum) flags invalid
                best = np.full(n_y, np.inf)
                np.minimum.at(best, jj, _pair_dists(block[ii], Y[jj]))
                np.minimum(col_mins, best, out=col_mins)
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
