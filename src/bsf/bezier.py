"""Bezier simplex algebra.

Multi-index combinatorics, multinomial Bernstein monomials, model evaluation
with analytic first and second derivatives and face restriction. Everything
here is pure and immutable; the fitting code treats this module as its
linear-algebra substrate.

A model of degree D over the standard simplex in R^m is determined by one
control point per composition d of D into m nonnegative parts:

    b(t) = sum_d  (D! / (d_1! ... d_m!)) * t_1^d_1 ... t_m^d_m * p_d

Compositions are kept in descending lexicographic order on (d_1, ..., d_m).
That ordering is canonical: serialized model files and least-squares column
order both rely on it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import (
    BarycentricError,
    DimensionError,
    FaceError,
    InvalidIndexError,
    ParseError,
    integer_field,
    reading,
)

# Exact integer multinomials only up to this degree; far beyond practical use.
MAX_EXACT_DEGREE = 20

# A barycentric vector with no coordinate below -REPAIR_TOLERANCE and a sum
# within REPAIR_TOLERANCE of 1 is clamped and renormalized (file-loaded data
# carries rounding); any other is rejected.
REPAIR_TOLERANCE = 1e-9

# OpenBLAS 0.3 runs a GEMM of more than 2^18 multiply-adds, or a GEMV over
# 2304 * 4 matrix entries or more, on its own threads. Those threads spin on
# after the call, on the cores that bsf's own kernel threads need.
_GEMM_LIMIT = 1 << 18
_GEMV_LIMIT = 2304 * 4 - 1
_ROW_UNIT = 8
# rows a grid is made in per step (`_grid_chunks`), rounded down to whole
# product blocks
_GRID_CHUNK_ROWS = 4096


@lru_cache(maxsize=None)
def compositions(m: int, total: int) -> np.ndarray:
    """All compositions of `total` into `m` nonnegative parts, in descending
    lexicographic order: the one table of multi-indices, C(total + m - 1,
    m - 1) rows by m columns of the least unsigned integer type that holds
    `total`. Built a column at a time, without Python tuples, once per
    (m, total) and returned read-only; `multi_indices` is its tuple view."""
    if m < 1:
        raise DimensionError(f"need at least one barycentric coordinate, got m={m}")
    if total < 0:
        raise InvalidIndexError(f"total must be nonnegative, got {total}")
    dtype = np.min_scalar_type(total)
    k = min(m - 1, total)  # the table has C(total + m - 1, k) >= 2^k rows, too many from k = 64
    try:  # first, so that a table too large to hold fails before any work
        table = np.empty((math.comb(total + m - 1, k) if k < 64 else 2**64, m), dtype=dtype)
    except ValueError as exc:  # beyond any array numpy can address
        raise MemoryError(str(exc)) from None
    # `stack` holds the compositions of 0, 1, ..., total into k parts, block
    # after block, and `counts` each block's size. Those of s into k + 1 parts
    # are h = s, s - 1, ..., 0, each put before the compositions of s - h into
    # k parts: the stack's first s + 1 blocks, block j after h = s - j. The
    # last part count needs s = total alone, and fills the table.
    stack = np.arange(total + 1, dtype=dtype)[:, None]
    counts = np.ones(total + 1, dtype=np.intp)
    if m == 1:
        table[0] = total
    for k in range(1, m):
        ends = np.cumsum(counts)
        block = np.repeat(np.arange(total + 1), counts)
        sums = range(total + 1) if k + 1 < m else [total]
        out = table if k + 1 == m else np.empty((int(ends.sum()), k + 1), dtype=dtype)
        lo = 0
        for s in sums:
            hi = lo + ends[s]
            out[lo:hi, 0] = s - block[:ends[s]]
            out[lo:hi, 1:] = stack[:ends[s]]
            lo = hi
        stack, counts = out, ends
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def multi_indices(m: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The rows of `compositions(m, degree)` as tuples, for a net's own
    index lookups; grids use the table itself."""
    if degree < 0:
        raise InvalidIndexError(f"degree must be nonnegative, got {degree}")
    return tuple(map(tuple, compositions(m, degree).tolist()))


@lru_cache(maxsize=None)
def index_rows(m: int, degree: int) -> Mapping[tuple[int, ...], int]:
    """Read-only map from each index of `multi_indices(m, degree)` to its row."""
    return MappingProxyType({d: r for r, d in enumerate(multi_indices(m, degree))})


def barycentric_grid(m: int, resolution: int) -> np.ndarray:
    """All barycentric vectors with denominator `resolution`; canonical order."""
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    return compositions(m, resolution) / resolution


def multinomial(degree: int, index: tuple[int, ...]) -> int:
    """D! / (d_1! ... d_m!), exact integer arithmetic."""
    if degree > MAX_EXACT_DEGREE:
        raise InvalidIndexError(
            f"degree {degree} exceeds exact-arithmetic limit {MAX_EXACT_DEGREE}"
        )
    if any(d < 0 for d in index):
        raise InvalidIndexError(f"negative entry in multi-index {index}")
    if sum(index) != degree:
        raise InvalidIndexError(f"multi-index {index} does not sum to degree {degree}")
    coef = math.factorial(degree)
    for d in index:
        coef //= math.factorial(d)
    return coef


def _row_blocks(n: int, inner: int, cols: int | None) -> list[int]:
    """Bounds of the row blocks of an (n, inner) @ (inner, cols) product, or
    of an (n, inner) @ (inner,) one when `cols` is None.

    Every block stays within OpenBLAS's one-thread limit, and every block but
    the last has a multiple of `_ROW_UNIT` rows. OpenBLAS's kernels take the
    rows in groups of up to that many and finish a call's last rows with a
    narrower kernel, whose sums round differently; so these blocks give each
    row the kernel that one product gives it. No block has 1 row: numpy sends
    a (1, K) @ (K, A) down a vector path, which differs too. A product that
    fits whole, or of which 2 units of rows do not fit, is one block.

    The bits are those of one product on one BLAS thread, with one measured
    exception: OpenBLAS for SkylakeX runs products of at most 10^6
    multiply-adds in a small-matrix kernel, so the blocks of a larger product
    meet a kernel the whole product does not, and for some widths (2-4 and
    9-12 of 2-16 tried, with K >= 20) it rounds differently. A med5 `--graph`
    grid sample, 10,626 x 35 @ 35 x 10, is such a product.
    """
    per_row = inner if cols is None else inner * cols
    limit = (_GEMV_LIMIT if cols is None else _GEMM_LIMIT) // max(per_row, 1)
    if n <= limit or limit < 2 * _ROW_UNIT:
        return [0, n]
    step = limit - limit % _ROW_UNIT
    bounds = list(range(0, n, step)) + [n]
    if bounds[-1] - bounds[-2] == 1:  # end on 1 + _ROW_UNIT rows instead
        bounds[-2] -= _ROW_UNIT
    return bounds


def _blocked_matmul(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None, bounds=None) -> np.ndarray:
    """A @ B for 2-d A, one product per block of `bounds`: row numbers of a
    larger product, of which A holds rows bounds[0]:bounds[-1]. They default
    to the `_row_blocks` of A @ B, which give the bits of one product (but
    see `_row_blocks`) without waking OpenBLAS's threads; bounds of one block
    return np.matmul(A, B, out=out) at once, the BLAS call of A @ B.

    The leading blocks, which have equal rows, go in one stacked np.matmul
    of C-contiguous views: numpy runs the same BLAS call on each block, so
    the bits are those of one call per block, for one call's overhead and
    one release of the GIL."""
    if bounds is None:
        bounds = _row_blocks(A.shape[0], A.shape[1], B.shape[1] if B.ndim == 2 else None)
    if len(bounds) == 2:
        return np.matmul(A, B, out=out)
    if out is None:
        out = np.empty((A.shape[0],) + B.shape[1:], dtype=np.result_type(A, B))
    rows = [b - bounds[0] for b in bounds]
    step = rows[1]
    equal = next((k for k in range(1, len(rows)) if rows[k] != k * step), len(rows)) - 1
    if equal < 2 or not (A.flags.c_contiguous and out.flags.c_contiguous):
        equal = 0
    else:
        stacked = out[:rows[equal]].reshape((equal, step) + out.shape[1:])
        np.matmul(A[:rows[equal]].reshape(equal, step, A.shape[1]), B, out=stacked)
    for lo, hi in zip(rows[equal:-1], rows[equal + 1:]):
        np.matmul(A[lo:hi], B, out=out[lo:hi])
    return out


def _grid_chunks(n: int, inner: int, cols: int | None) -> list[list[int]]:
    """The `_row_blocks` bounds of an (n, inner) product, grouped into chunks of
    whole blocks and about `_GRID_CHUNK_ROWS` rows: a grid made one chunk at a
    time, one product per block of the chunk, has the bits of one product."""
    bounds = _row_blocks(n, inner, cols)
    per_chunk = max(1, _GRID_CHUNK_ROWS // bounds[1])
    return [bounds[k:k + per_chunk + 1] for k in range(0, len(bounds) - 1, per_chunk)]


def monomials(T, E) -> np.ndarray:
    """Entry [n, k] is prod_j T[n, j] ** E[k, j]: one (n, K) power per column,
    multiplied in left to right from column 0's, without an (n, K, m) tensor."""
    T = np.asarray(T, dtype=float)
    E = np.asarray(E, dtype=float)
    out = T[:, :1] ** E[:, 0]
    for j in range(1, E.shape[1]):
        out *= T[:, j:j + 1] ** E[:, j]
    return out


def power_tables(values: np.ndarray, E) -> list[np.ndarray]:
    """Per column j of the exponents E (K, m), the (len(values), K) table
    values[:, None] ** E[:, j]: row i holds the factors `monomials(T, E)`
    takes from a T[n, j] equal to values[i]. The exponent stays an array, as
    in `monomials`, since numpy's scalar-exponent fast paths round
    differently."""
    E = np.asarray(E, dtype=float)
    return [values[:, None] ** E[:, j] for j in range(E.shape[1])]


def table_monomials(tables: list[np.ndarray], index) -> np.ndarray:
    """`monomials(T, E)` for the rows T[n, j] = values[index[j][n]], from
    `power_tables(values, E)`: the same factors, multiplied in the same
    order, so the same bits, with no power taken per entry."""
    out = tables[0].take(index[0], axis=0)
    for table, i in zip(tables[1:], index[1:]):
        out *= table.take(i, axis=0)
    return out


@lru_cache(maxsize=None)
def _basis_arrays(m: int, degree: int):
    weights = [multinomial(degree, d) for d in multi_indices(m, degree)]
    return compositions(m, degree).astype(float), np.array(weights, dtype=float)


def weighted_design_matrix(m: int, degree: int, T: np.ndarray) -> np.ndarray:
    """Rows: evaluation points; columns: multinomial-weighted monomials.

    Column order follows multi_indices(m, degree). Entry [n, k] is the
    coefficient of control point k in b(T[n]).

    At degree 1 the matrix is T itself: its columns are the unit indices in
    order, each weight is 1, and x ** 1 = x, x ** 0 = 1 exactly. For a
    C-contiguous float T with m columns the result is then T, not a copy;
    callers only read it.
    """
    if degree == 1:
        T = np.ascontiguousarray(T, dtype=float)
        if T.ndim == 2 and T.shape[1] == m:
            return T
    idx, w = _basis_arrays(m, degree)
    return w * monomials(T, idx)


@lru_cache(maxsize=None)
def _shift_rows(m: int, degree: int, order: int) -> np.ndarray:
    """Row table for index-shifted control nets.

    Entry [e, i_1, ..., i_order] is the row of e + e_i1 + ... + e_iorder in
    multi_indices(m, degree), for each e in multi_indices(m, degree - order).
    """
    rows = index_rows(m, degree)
    lower = multi_indices(m, degree - order)
    table = np.empty((len(lower),) + (m,) * order, dtype=np.intp)
    for pos in np.ndindex(table.shape):
        d = list(lower[pos[0]])
        for j in pos[1:]:
            d[j] += 1
        table[pos] = rows[tuple(d)]
    table.setflags(write=False)
    return table


def partial_derivatives(m: int, degree: int, points, T, order: int) -> np.ndarray:
    """Partial derivatives of one order of the model at every row of T.

    Returns shape (n, ambient) + (m,) * order; order 0 is the value itself.
    Coordinates are treated as independent variables. Every order is the
    design matrix one order lower applied to an index-shifted control net
    (for order 0 the shift is the identity):

        d^k b / dt_i1 ... dt_ik = D!/(D-k)! * sum_{|e|=D-k} B_e(t) p_{e+e_i1+...+e_ik}

    (Farin, Curves and Surfaces for CAGD). Orders above the degree vanish.
    Rows of T are used as given, without barycentric validation.

    This is `shifted_nets` and then `derivatives_on_runs` for one net (K,
    ambient); a stack of nets, or nets reused across calls, take that pair.
    """
    T = np.asarray(T, dtype=float)
    nets = shifted_nets(m, degree, np.asarray(points, dtype=float)[None], order)
    return derivatives_on_runs(m, degree, nets, T, order, [0, T.shape[0]])


def shifted_nets(m: int, degree: int, points, order: int) -> np.ndarray:
    """The index-shifted nets of one derivative order, for a stack of nets
    (F, K, ambient): shape (F, K_low, m ** order * ambient), C-contiguous,
    where row e of net f holds p_{e+e_i1+...+e_ik} for every (i1, ..., ik)
    and every coordinate. An order above the degree has no terms (K_low = 0).
    """
    points = np.asarray(points, dtype=float)
    if order > degree:
        return np.zeros((points.shape[0], 0, m**order * points.shape[-1]))
    # (F, K_low, m, ..., m, ambient); take copies, so each net is C-contiguous
    net = points.take(_shift_rows(m, degree, order), axis=1)
    return net.reshape(net.shape[:2] + (-1,))


def derivatives_on_runs(m: int, degree: int, nets: np.ndarray, T: np.ndarray, order: int,
                        bounds: list) -> np.ndarray:
    """`partial_derivatives` of one order from its `shifted_nets`: T is a
    float array of rows, and `bounds` a list of F + 1 sorted row numbers, net
    f serving rows bounds[f]:bounds[f+1]. One design matrix serves every row,
    and each non-empty run takes one product with its net, so each run gets
    the bits of `partial_derivatives` on its rows alone."""
    n = T.shape[0]
    if order > degree:
        out = np.zeros((n, nets.shape[-1]))
    else:
        basis = weighted_design_matrix(m, degree - order, T)  # (n, K_low)
        out = np.empty((n, nets.shape[-1]))
        for f, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo < hi:
                np.matmul(basis[lo:hi], nets[f], out=out[lo:hi])
        if order:
            out *= math.perm(degree, order)
    out = out.reshape((n,) + (m,) * order + (nets.shape[-1] // m**order,))
    return out.transpose((0, order + 1) + tuple(range(1, order + 1)))


def as_barycentric(t, m: int | None = None) -> np.ndarray:
    """Validate and repair a single barycentric vector.

    Entries below -1e-9 or a coordinate sum further than 1e-9 from 1 are
    rejected; anything closer is clipped/renormalized onto the simplex.
    """
    return as_barycentric_rows(np.asarray(t, dtype=float).reshape(1, -1), m)[0]


def as_barycentric_rows(T, m: int | None = None) -> np.ndarray:
    """Row-wise version of as_barycentric for (n, m) arrays: a new array.

    Rows with no negative entry and sums within REPAIR_TOLERANCE of 1, such
    as the parameters the fitter produces, pass one combined check and are
    clamped (-0.0 becomes +0.0) and divided by their sums: `clamp_renorm`'s
    operations in its order. Any other input takes the full checks, which
    name what is wrong, and then `clamp_renorm`.
    """
    arr = np.array(T, dtype=float, copy=True)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d array of coordinates, got shape {arr.shape}")
    if m is not None and arr.shape[1] != m:
        raise DimensionError(f"expected {m} barycentric coordinates, got {arr.shape[1]}")
    if arr.size and np.minimum.reduce(arr, axis=None) >= 0.0:  # False on NaN
        np.maximum(arr, 0.0, out=arr)
        sums = np.add.reduce(arr, axis=1)
        if np.logical_and.reduce(np.abs(sums - 1.0) <= REPAIR_TOLERANCE):
            arr /= sums[:, None]
            return arr
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise BarycentricError("non-finite barycentric coordinates")
    if np.logical_or.reduce(arr < -REPAIR_TOLERANCE, axis=None):
        raise BarycentricError("negative barycentric coordinate beyond repair tolerance")
    sums = np.add.reduce(arr, axis=1)
    if np.logical_or.reduce(np.abs(sums - 1.0) > REPAIR_TOLERANCE):
        raise BarycentricError("coordinates do not sum to 1 within repair tolerance")
    return clamp_renorm(arr)[0]


def clamp_renorm(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp rows onto the nonnegative orthant and renormalize them, in place.

    Returns the rows and a mask of those that could be renormalized; rows
    with no positive entry are left unnormalized and flagged False. A row
    that already sums to exactly 1.0 keeps its bits. When every row can be
    renormalized, as on almost every Newton step, T is divided whole, with
    the bits of dividing the masked rows.
    """
    np.maximum(T, 0.0, out=T)
    s = np.add.reduce(T, axis=1)
    ok = s > 0.0
    if np.logical_and.reduce(ok):  # the common case: divide in place, no gather or scatter
        T /= s[:, None]
    else:
        T[ok] /= s[ok, None]
    return T, ok


def embed_on_face(s, face: tuple[int, ...], m: int) -> np.ndarray:
    """Zero-pad barycentric coordinates of a face back into m coordinates."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape[:-1] + (m,))
    out[..., list(face)] = s
    return out


def _check_face(face, m: int) -> tuple[int, ...]:
    face = tuple(sorted(set(int(j) for j in face)))
    if not face:
        raise FaceError("face must contain at least one objective index")
    if face[0] < 0 or face[-1] >= m:
        raise FaceError(f"face {face} out of range for m={m}")
    return face


def face_indices(m: int, degree: int, face) -> tuple[tuple, tuple]:
    """Split the index set of a face into (all, interior): `all` is the
    face's own table `compositions(len(face), degree)` embedded into m
    columns, zeros off the face, in canonical order; `interior` its rows with
    no zero on the face, whose support is exactly the face (not shared with
    any proper subface)."""
    face = _check_face(face, m)
    sub = compositions(len(face), degree)
    embedded = np.zeros((sub.shape[0], m), dtype=int)
    embedded[:, list(face)] = sub
    all_idx = tuple(map(tuple, embedded.tolist()))
    return all_idx, tuple(d for d, inside in zip(all_idx, sub.all(axis=1).tolist()) if inside)


@dataclass(frozen=True, eq=False)
class BezierSimplex:
    """Polynomial map from the standard simplex in R^m to R^ambient.

    `points` has one row per canonical multi-index; row order is the
    descending lexicographic order of multi_indices(m, degree).
    """

    m: int
    degree: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise DimensionError(f"need at least one barycentric coordinate, got m={self.m}")
        if self.degree < 0:
            raise InvalidIndexError(f"degree must be nonnegative, got {self.degree}")
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim != 2:
            raise DimensionError(f"control points must be a 2-d array, got shape {pts.shape}")
        expected = len(multi_indices(self.m, self.degree))
        if pts.shape[0] != expected:
            raise DimensionError(
                f"expected {expected} control points for m={self.m}, degree={self.degree}, "
                f"got {pts.shape[0]}"
            )
        if pts.shape[1] < 1:
            raise DimensionError("ambient dimension must be at least 1")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def ambient(self) -> int:
        return self.points.shape[1]

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return multi_indices(self.m, self.degree)

    def index_row(self, index) -> int:
        try:
            return index_rows(self.m, self.degree)[tuple(index)]
        except KeyError:
            raise InvalidIndexError(
                f"{tuple(index)} is not a degree-{self.degree} index over {self.m} coordinates"
            ) from None

    def control_point(self, index) -> np.ndarray:
        return self.points[self.index_row(index)]

    def with_points(self, points) -> "BezierSimplex":
        return BezierSimplex(self.m, self.degree, points)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, t) -> np.ndarray:
        return self.evaluate_batch(np.asarray(t, dtype=float).reshape(1, -1))[0]

    def evaluate_batch(self, T) -> np.ndarray:
        T = as_barycentric_rows(T, self.m)
        return _blocked_matmul(weighted_design_matrix(self.m, self.degree, T), self.points)

    def gradient(self, t) -> np.ndarray:
        """Partial derivatives as an (ambient, m) matrix; column j is d b / d t_j.

        Coordinates are treated as independent variables; the simplex
        constraint is the caller's concern.
        """
        t = as_barycentric(t, self.m)
        return partial_derivatives(self.m, self.degree, self.points, t[None, :], 1)[0]

    def hessian(self, t) -> np.ndarray:
        """Second partials as an (ambient, m, m) tensor, symmetric in the last two axes."""
        t = as_barycentric(t, self.m)
        return partial_derivatives(self.m, self.degree, self.points, t[None, :], 2)[0]

    # -- structure ----------------------------------------------------------

    def restrict(self, face) -> "BezierSimplex":
        """Sub-model over the face's own simplex; agrees with the parent on it.
        Its control points are the parent's at the face's `face_indices`, in
        order."""
        face = _check_face(face, self.m)
        all_idx, _ = face_indices(self.m, self.degree, face)
        return BezierSimplex(len(face), self.degree, self.points[[self.index_row(d) for d in all_idx]])

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "M": self.m,
            "D": self.degree,
            "A": self.ambient,
            "control_points": [
                {"index": list(d), "point": [float(v) for v in p]}
                for d, p in zip(self.indices, self.points)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BezierSimplex":
        """The simplex of a `to_dict` record; ParseError names the first
        control point that is not a vector of finite numbers."""
        m, degree, ambient = (integer_field(data, name) for name in ("M", "D", "A"))
        entries = {tuple(e["index"]): e["point"] for e in data["control_points"]}
        n = len(data["control_points"])
        # count before building the table: it has C(M - 1 + D, k) >= 2^k rows,
        # so a k past n's bit length cannot match. With the count right, a
        # repeated index leaves another out; for k < 0 multi_indices names the
        # M below 1 or the negative D
        k = min(m - 1, degree)
        counted = k < 0 or (k < n.bit_length() and math.comb(m - 1 + degree, k) == n)
        if not counted or set(entries) != set(idx := multi_indices(m, degree)):
            raise InvalidIndexError("control point index set is incomplete or has extras")
        rows = []
        for d in idx:
            try:
                row = np.array(entries[d], dtype=float)
            except (TypeError, ValueError):
                row = None
            if row is None or row.ndim != 1:
                raise ParseError(f"Bezier simplex: control point {list(d)} is not a list of numbers")
            if row.shape[0] != ambient:
                raise DimensionError(f"points have dimension {row.shape[0]}, header says {ambient}")
            if not np.all(np.isfinite(row)):
                raise ParseError(f"Bezier simplex: control point {list(d)} must be finite")
            rows.append(row)
        return cls(m, degree, np.array(rows))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "BezierSimplex":
        with reading(path, "model file"):
            return cls.from_dict(json.loads(Path(path).read_text()))

