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
full with the exact expression. Every call gives the row and the column
minima, so GD and IGD (`gd_igd`) come from one pass.

The sample side of a call is a row source (`RowSource`): rows made one chunk
at a time. A fitted model's grid is such a source (`grid_rows`, and
`ResponseSurface.grid_rows`), whose chunks are whole row blocks of the grid's
product, so each row has the bits of sampling the whole grid at once; an array
is a source of one kernel block per chunk. The kernel makes each chunk when it
comes to it and runs its blocks from the chunk's first row; the rounding bound
holds per block, so any partition of the rows gives the same minima, and no
array of the whole grid is built to score it.

Large calls split the chunks over one thread per usable CPU (`_min_dists`),
which make their chunks themselves. Pass 1's products run in row blocks that
OpenBLAS keeps on the calling thread (`bezier._blocked_matmul`), so the cores
go to those threads and not to BLAS threads that spin between calls; a
block's row blocks go in one stacked call, which releases the GIL once.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bezier import (
    BezierSimplex,
    _basis_arrays,
    _blocked_matmul,
    _grid_chunks,
    as_barycentric_rows,
    compositions,
    power_tables,
    table_monomials,
    weighted_design_matrix,
)
from .errors import DimensionError
from .pareto import SampleSet, check_finite

# Rows per block. Besides its four passes over D, each block makes about a
# hundred small numpy calls (on a row or a column of D, or on the few
# candidates), which hold the GIL while the kernel's threads run, so fewer,
# larger blocks run faster on two threads. 448 float32 rows against 1,000
# points make a 1.75 MB D; with the 0.44 MB candidate mask and a column
# gather of at most an eighth of D (0.22 MB), that stays below the 2.5 MB
# that 256 float64 rows and two masks took.
_BLOCK_ROWS = 448
# pass 1 runs in float32: its unit roundoff, least subnormal and overflow guard
_U = 2.0**-24
_ETA = float(np.finfo(np.float32).smallest_subnormal)
_SQ_LIMIT = float(np.finfo(np.float32).max) / 16
# Pairs each worker thread gets at least. On 2 cores, rows of the med5
# surface grid against 1,000 points, in two series of 10 alternating
# repeats: two threads took 0.88-1.14x the time of one at 2^22 pairs,
# 0.82-0.97x at 2^23 (faster in 9 and 6 of 10), 0.76-0.91x at 2^24
# (10 and 10 of 10) and 0.86-0.90x at 2^25, so calls of 2^24 pairs and more
# split. med5's Bezier grid score (10,626 x 1,000) stays on one thread.
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


@dataclass(frozen=True)
class RowSource:
    """The rows of an (n, width) point set, made one chunk at a time.

    `chunks` lists the chunks in row order, each as a list of row bounds: its
    first row, the bounds of the products that build it, and the row after
    its last. `make(bounds)` returns that chunk's rows; no array of the whole
    set need exist. len() is n, as for the array itself.
    """

    n: int
    width: int
    chunks: list
    make: Callable[[list], np.ndarray]

    @classmethod
    def of(cls, points) -> "RowSource":
        """A source over the rows of `points` (array-like or SampleSet), a
        `_BLOCK_ROWS` block per chunk; a source is returned as it is."""
        if isinstance(points, RowSource):
            return points
        points = _points(points)
        n = points.shape[0]
        chunks = [[lo, min(lo + _BLOCK_ROWS, n)] for lo in range(0, n, _BLOCK_ROWS)]
        return cls(n, points.shape[1], chunks, lambda bounds: points[bounds[0]:bounds[-1]])

    def __len__(self) -> int:
        return self.n

    def map(self, fn) -> "RowSource":
        """The same chunks, each passed through `fn` (which keeps its shape)."""
        return replace(self, make=lambda bounds: fn(self.make(bounds)))

    def collect(self) -> np.ndarray:
        """Every row in one (n, width) array."""
        out = np.empty((self.n, self.width))
        for bounds in self.chunks:
            out[bounds[0]:bounds[-1]] = self.make(bounds)
        return out


def grid_rows(model: BezierSimplex, resolution: int) -> RowSource:
    """Model values on the barycentric grid with the given denominator, as a
    source of C(resolution + m - 1, m - 1) rows in R^ambient.

    The grid is an integer table (`compositions`), and every coordinate one
    of the values k/resolution, so each chunk's design matrix is gathered
    from one (resolution + 1, K) power table per coordinate and multiplied
    in `monomials`'s order (`table_monomials`), with no power taken per
    entry. A row whose k/resolution do not sum to exactly 1.0 is one that
    `as_barycentric_rows` renormalises; those rows go through it and
    `weighted_design_matrix`. Each chunk is multiplied out on its own, on the
    `_row_blocks` bounds of the whole grid's product, so every row has the
    bits `model.evaluate_batch(barycentric_grid(m, resolution))` gives it. A
    row that overflows raises DimensionError.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    m, degree = model.m, model.degree
    grid = compositions(m, resolution)
    exponents, weights = _basis_arrays(m, degree)
    tables = power_tables(np.arange(resolution + 1) / resolution, exponents)
    n, ambient = grid.shape[0], model.ambient

    def make(bounds):
        lo, hi = bounds[0], bounds[-1]
        index = grid[lo:hi]
        design = table_monomials(tables, index.T)
        design *= weights
        T = index / resolution
        renormalised = np.flatnonzero(T.sum(axis=1) != 1.0)
        if renormalised.size:
            T = as_barycentric_rows(T[renormalised], m)
            design[renormalised] = weighted_design_matrix(m, degree, T)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _blocked_matmul(design, model.points, bounds=bounds)
        return check_finite(out)

    return RowSource(n, ambient, _grid_chunks(n, len(model.indices), ambient), make)


def grid_sample(model: BezierSimplex, resolution: int) -> SampleSet:
    """Model values on the barycentric grid with the given denominator:
    `grid_rows` collected."""
    return SampleSet(grid_rows(model, resolution).collect())


def _points(obj) -> np.ndarray:
    if isinstance(obj, SampleSet):
        return obj.objectives
    return np.atleast_2d(np.asarray(obj, dtype=float))


def _pair_dists(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Exact distances of broadcast point pairs; every reported minimum is one of these."""
    return np.sqrt(np.sum((P - Q) ** 2, axis=-1))


def _thresholds(least, sq, other_sq_max, ambient: int) -> np.ndarray:
    """Pass 1's float32 thresholds (see `_min_dists`) for points in R^ambient
    of squared norms `sq` and least D `least`, the other set's squared norms
    being at most `other_sq_max`."""
    near = np.maximum(least, 0.0)
    norm = np.sqrt(sq)
    # the other point's norm: b for a row, a for a column
    other = np.minimum(np.sqrt(other_sq_max), norm + np.sqrt(near))
    err = 3 * near + ambient * (sq + other**2) + (ambient + 3) * (norm + other) ** 2
    thr = least + 2 * (2 * _U * err + (3 * ambient + 2) * _ETA)
    return np.nextafter(thr.astype(np.float32), np.float32(np.inf))  # rounded up


def _min_dists(X, Y: np.ndarray):
    """Per-row and per-column minima of `_pair_dists(X[i], Y[j])`; X is an
    array or a RowSource, and its chunks are taken in blocks of `_BLOCK_ROWS`
    rows.

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
    past float32's range), the block is computed in full.

    The candidates are found without a full mask of D against either
    threshold. A row's least D (its argmin) is always within its threshold,
    which lies above it. Masking that entry and taking the row minimum again
    gives the second least; only a row whose second least is within its
    threshold can have another candidate, and only such rows are compared
    in full. A column can have a candidate only if its least D in the block
    is within its threshold, so only those columns are compared, or the
    whole block when more than an eighth of them are: past about a fifth a
    gather costs more than a full compare, and an eighth bounds its copy. The
    column thresholds depend only on the running minima and the largest row
    norm, so they are recomputed only when a column's running minimum fell
    or the block raised that norm. So each set holds exactly the entries of
    D within their thresholds, as full masks would give them, and each
    count is that of the full mask. Pass 2 takes the rows' candidate pairs
    as (k, A) rows (each row's least, then the other rows' masks) for the
    row minima, then the columns' for the column minima; a pair in both
    sets is computed twice, to the same bits. When the two sets hold more
    than a quarter of the block's pairs (mass ties), the full block is
    computed instead, so memory stays within that of the full block's
    (rows, n_Y, A) tensors.

    Nothing above depends on where the blocks start, so X's chunks may have
    any sizes: each is made when its turn comes and split into blocks from
    its own first row. An array is a source of one block per chunk.

    Large calls split the chunks into contiguous runs, one per worker thread
    (`_workers`), which makes its chunks itself. A run keeps its own running
    column minima of D, its own largest row norm and its own column minima,
    so the argument above holds within each run: B and the earlier blocks a
    column is compared against cover that run's blocks only. Runs write their
    row minima to disjoint slices, and their column minima merge by
    np.minimum in run order, which keeps the first NaN just as one pass over
    the blocks would. Workers call numpy and the source's chunk maker only.
    """
    X = RowSource.of(X)
    n_x = len(X)
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

    def blocks(chunks):
        """(first row, rows) of each `_BLOCK_ROWS` block of the chunks, made in turn."""
        for bounds in chunks:
            points = X.make(bounds)
            for start in range(0, points.shape[0], _BLOCK_ROWS):
                yield bounds[0] + start, points[start : start + _BLOCK_ROWS]

    def run(chunks):
        """Row minima of the rows of `chunks` into row_mins; their column minima."""
        col_mins = np.full(n_y, np.inf)
        col_run = np.full(n_y, np.inf, dtype=np.float32)  # running column minima of D
        col_thr = None
        x_sq_max = 0.0
        rows_max = min(_BLOCK_ROWS, n_x)
        D_buf = np.empty((rows_max, n_y), dtype=np.float32)
        cand_buf = np.empty(rows_max * n_y, dtype=bool)
        every_row = np.arange(rows_max)
        for start, block in blocks(chunks):
            nb = block.shape[0]
            rows = slice(start, start + nb)
            Xa = np.empty((nb, ambient + 2), dtype=np.float32)
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(block, centre, out=Xa[:, :ambient])
                Xa[:, ambient] = 1.0
                Xa[:, ambient + 1] = np.einsum("ij,ij->i", Xa[:, :ambient], Xa[:, :ambient])
            x_sq = Xa[:, ambient + 1].astype(float)
            bound = np.maximum(x_sq_max, x_sq.max())  # NaN propagates
            screened = False
            if bound + y_sq_max <= _SQ_LIMIT:
                raised, x_sq_max = bound > x_sq_max, bound
                D, every = D_buf[:nb], every_row[:nb]
                _blocked_matmul(Xa, W, out=D)
                # rows: the least D, then the second least with the least masked
                near = D.argmin(axis=1)
                least = D[every, near]
                D[every, near] = np.inf
                second = D.min(axis=1)  # inf for a one-column D
                D[every, near] = least
                row_thr = _thresholds(least.astype(float), x_sq, y_sq_max, ambient)
                multi = np.flatnonzero(second <= row_thr)
                mi = mj = every[:0]
                if multi.size:
                    cand = cand_buf[: multi.size * n_y].reshape(multi.size, n_y)
                    np.less_equal(D[multi], row_thr[multi, None], out=cand)
                    mi, mj = np.divmod(np.flatnonzero(cand), n_y)
                # columns: only those whose least D is within their threshold
                col_least = D.min(axis=0)
                if raised or np.any(col_least < col_run):
                    np.minimum(col_run, col_least, out=col_run)
                    col_thr = _thresholds(col_run.astype(float), y_sq, x_sq_max, ambient)
                live = np.flatnonzero(col_least <= col_thr)
                ci = cj = every[:0]
                if 8 * live.size > n_y:
                    cand = cand_buf[: nb * n_y].reshape(nb, n_y)
                    ci, cj = np.divmod(np.flatnonzero(np.less_equal(D, col_thr, out=cand)), n_y)
                elif live.size:
                    cand = cand_buf[: nb * live.size].reshape(nb, live.size)
                    np.less_equal(D[:, live], col_thr[live], out=cand)
                    ci, cj = np.divmod(np.flatnonzero(cand), live.size)
                    cj = live[cj]
                # the rows' candidates number nb - multi.size + mi.size
                screened = 4 * (nb - multi.size + mi.size + ci.size) <= nb * n_y  # else mostly ties
            if not screened:
                d = _pair_dists(block[:, None, :], Y[None, :, :])
                row_mins[rows] = d.min(axis=1)
                np.minimum(col_mins, d.min(axis=0), out=col_mins)
                continue
            d = _pair_dists(block, Y[near])
            if multi.size:
                # a multi row's candidates include its least D, and mi is sorted
                starts = np.searchsorted(mi, np.arange(multi.size))
                d[multi] = np.minimum.reduceat(_pair_dists(block[multi[mi]], Y[mj]), starts)
            row_mins[rows] = d
            if ci.size:
                # these distances are finite, but col_mins may hold a full-path
                # block's NaN, on which np.minimum.at (not np.minimum) flags invalid
                best = np.full(n_y, np.inf)
                np.minimum.at(best, cj, _pair_dists(block[ci], Y[cj]))
                np.minimum(col_mins, best, out=col_mins)
        return col_mins

    chunks = X.chunks
    workers = min(_workers(n_x * n_y), len(chunks))
    if workers == 1:
        return row_mins, run(chunks)
    splits = [i * len(chunks) // workers for i in range(workers + 1)]
    err = np.geterr()  # a new thread starts from numpy's default error handling

    def in_thread(part):
        with np.errstate(**err):
            return run(part)

    with ThreadPoolExecutor(workers) as pool:
        parts = list(pool.map(in_thread, [chunks[a:b] for a, b in zip(splits[:-1], splits[1:])]))
    col_mins = parts[0]
    for part in parts[1:]:
        np.minimum(col_mins, part, out=col_mins)
    return row_mins, col_mins


def _mean(dists: np.ndarray) -> float:
    """Plain left-to-right sum over the count, as a scalar loop would give it."""
    return float(np.add.accumulate(dists)[-1]) / dists.shape[0]


def gd(X, Y) -> float:
    """Mean distance from each point of X to its nearest point of Y; X may be
    a RowSource."""
    return gd_igd(X, Y)[0]


def igd(X, Y) -> float:
    """Mean distance from each point of Y to its nearest point of X; X may be
    a RowSource."""
    return gd_igd(X, Y)[1]


def gd_igd(X, Y) -> tuple[float, float]:
    """(GD, IGD) of X against Y in one pairwise pass; X may be a RowSource.
    IGD has the bits of gd(Y, X): (x - y)^2 and (y - x)^2 round alike."""
    X, Y = RowSource.of(X), _points(Y)
    if len(X) == 0 or Y.shape[0] == 0:
        raise DimensionError("distance between point sets needs both nonempty")
    if X.width != Y.shape[1]:
        raise DimensionError(f"point sets disagree in dimension: {X.width} vs {Y.shape[1]}")
    row_mins, col_mins = _min_dists(X, Y)
    return _mean(row_mins), _mean(col_mins)
