"""Pareto dominance, non-dominated filtering, and skeleton decomposition.

All comparisons are exact floating-point comparisons under minimization; there
is no epsilon-dominance. Points with identical (projected) objective vectors
never dominate each other and are all retained.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import DimensionError, FaceError, ParseError, reading
from .bezier import _check_face


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Labeled point cloud in objective (optionally solution x objective) space."""

    objectives: np.ndarray = field(repr=False)
    solutions: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        obj = np.atleast_2d(np.array(self.objectives, dtype=float, copy=True))
        if obj.ndim != 2:
            raise DimensionError(f"objectives must be 2-d, got shape {obj.shape}")
        check_finite(obj)
        obj.setflags(write=False)
        object.__setattr__(self, "objectives", obj)
        if self.solutions is not None:
            sol = np.atleast_2d(np.array(self.solutions, dtype=float, copy=True))
            if sol.shape[0] != obj.shape[0]:
                raise DimensionError("solutions and objectives disagree in point count")
            check_finite(sol, "solutions")
            sol.setflags(write=False)
            object.__setattr__(self, "solutions", sol)

    @property
    def n(self) -> int:
        return self.objectives.shape[0]

    @property
    def m(self) -> int:
        return self.objectives.shape[1]

    @property
    def l(self) -> int | None:
        return None if self.solutions is None else self.solutions.shape[1]

    def ambient(self) -> np.ndarray:
        """Fitting-space coordinates: (solution, objectives) pairs when
        solutions are present, plain objectives otherwise."""
        if self.solutions is None:
            return self.objectives
        return np.hstack([self.solutions, self.objectives])

    def take(self, rows) -> "SampleSet":
        rows = np.asarray(rows, dtype=int)
        return SampleSet(
            self.objectives[rows],
            None if self.solutions is None else self.solutions[rows],
        )

    @staticmethod
    def concat(sets) -> "SampleSet":
        sets = list(sets)
        if not sets:
            raise DimensionError("cannot concatenate zero sample sets")
        ms = {s.m for s in sets}
        ls = {s.l for s in sets}
        if len(ms) != 1 or len(ls) != 1:
            raise DimensionError("sample sets disagree in dimensions")
        obj = np.vstack([s.objectives for s in sets])
        sol = None
        if sets[0].solutions is not None:
            sol = np.vstack([s.solutions for s in sets])
        return SampleSet(obj, sol)


def check_finite(points: np.ndarray, name: str = "objectives") -> np.ndarray:
    """`points`, or a DimensionError if any entry is NaN or infinite."""
    if not np.all(np.isfinite(points)):
        raise DimensionError(f"{name} must be finite")
    return points


def normalizer_from(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate (lo, span) of a min-max normalisation, (p - lo) / span;
    a coordinate with no range gets span 1."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return lo, span


def dominates(x, y) -> bool:
    """True iff x is no worse everywhere and strictly better somewhere (minimization)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionError(f"objective vectors disagree in shape: {x.shape} vs {y.shape}")
    return bool(np.all(x <= y) and np.any(x < y))


_SCAN_BLOCK = 512


def nondominated_mask(F: np.ndarray) -> np.ndarray:
    """Boolean mask of rows of the (n, M) array F not dominated by any other row.

    Exact: the mask equals the quadratic pairwise check. Identical rows never
    dominate each other and share one verdict. F must be 2-d with at least
    one column and free of NaN, since the method needs a total order; +-inf
    are valid values.

    Sort the rows lexicographically, column 0 first, and merge each run of
    identical rows into one group, whose start is the run's first sorted
    position. If row p dominates row q, then p <= q everywhere and p != q, so
    p sorts strictly before q's group start. Conversely, a row p sorted before
    q's group start differs from q and has p[0] <= q[0]; if also p[k] <= q[k]
    for every k >= 1, then p <= q everywhere with some strict inequality, so
    p dominates q. Hence q is dominated iff an earlier group is <= q in
    columns 1..M-1: column 0 and the strict test drop out.

    - M = 1: every group but the first is dominated.
    - M = 2: a group is dominated iff the prefix minimum of column 1 over the
      groups before it is <= its own value; O(n log n) in all.
    - M = 3: a bottom-up merge over the group order (Kung, Luccio and
      Preparata, 1975), O(n log n) in all; see `_merge_dominated`.
    - M >= 4: scan the groups in blocks of `_SCAN_BLOCK`, keeping an archive
      of the non-dominated groups of earlier blocks. Dominance is a strict
      partial order, so a dominated group q has a non-dominated dominator p,
      which sorts before q. If p lies in an earlier block it is in the
      archive. If it lies in q's block, no archive row covers it, so it
      survives the screen against the archive. Screening each block against
      the archive and then comparing its survivors with the block's earlier
      survivors is therefore exact. Each comparison is a (b, a) boolean
      matrix built column by column with `&=`.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] == 0:
        raise DimensionError(f"objectives must be 2-d with at least one column, got shape {F.shape}")
    if np.isnan(F).any():
        raise DimensionError("objectives must not contain NaN")
    n = F.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort(F.T[::-1])
    starts = np.zeros(n, dtype=bool)  # True at each group start
    starts[0] = True
    for column in F.T:  # one sorted column at a time keeps memory at O(n)
        c = column[order]
        starts[1:] |= c[1:] != c[:-1]
    dominated = _dominated_groups(F[order[starts]])
    keep = np.empty(n, dtype=bool)
    keep[order] = ~dominated[np.cumsum(starts) - 1]  # each sorted row's group
    return keep


def _covered_by(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(len(P), len(Q)) matrix, True at [i, j] iff Q[j] <= P[i] in every column."""
    out = Q[None, :, 0] <= P[:, None, 0]
    for k in range(1, P.shape[1]):
        out &= Q[None, :, k] <= P[:, None, k]
    return out


def _dominated_groups(U: np.ndarray) -> np.ndarray:
    """Rows of U, distinct and in lexicographic order, that an earlier row is
    <= in columns 1..M-1: the dominated ones; see `nondominated_mask`."""
    u, m = U.shape
    if m == 1:
        return np.arange(u) > 0
    if m == 2:
        dominated = np.zeros(u, dtype=bool)
        dominated[1:] = np.minimum.accumulate(U[:-1, 1]) <= U[1:, 1]
        return dominated
    if m == 3:
        return _merge_dominated(U[:, 1], U[:, 2])
    V = U[:, 1:]
    dominated = np.ones(u, dtype=bool)
    archive = np.empty_like(V)
    count = 0
    for start in range(0, u, _SCAN_BLOCK):
        block = V[start : start + _SCAN_BLOCK]
        rows = np.arange(block.shape[0])
        if count:
            rows = rows[~_covered_by(block, archive[:count]).any(axis=1)]
        survivors = block[rows]
        # only an earlier row can dominate: keep the strict lower triangle
        earlier = _covered_by(survivors, survivors)
        earlier &= np.tri(rows.size, k=-1, dtype=bool)
        rows = rows[~earlier.any(axis=1)]
        dominated[start + rows] = False
        archive[count : count + rows.size] = block[rows]
        count += rows.size
    return dominated


def _merge_dominated(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows q with some earlier row p (p < q) such that a[p] <= a[q] and
    b[p] <= b[q]: `_dominated_groups` for M = 3, with a and b its columns 1
    and 2.

    The rows are padded to a power of two with (+inf, +inf) rows at the end;
    a padded row lies after every real row, so it only ever tests another
    padded row. For half-width s = 1, 2, 4, ..., each block of 2s rows is
    put in order of a by a stable sort of its two halves, each already in
    that order, so on a tie an earlier-half row stays before a later-half
    one. A later-half row is then dominated by an earlier-half row iff some
    earlier-half row before it in this order has b <= its own: a running
    minimum of b over the earlier-half rows, with a running flag for having
    met one (a +inf placeholder alone would mark a later row whose b is
    +inf). Every pair p < q lies in opposite halves of exactly one block, so
    the union over the levels is exact.
    """
    u = a.shape[0]
    size = 1 << (u - 1).bit_length()
    if size > u:
        pad = np.full(size - u, np.inf)
        a, b = np.concatenate((a, pad)), np.concatenate((b, pad))
    dominated = np.zeros(size, dtype=bool)
    order = np.arange(size)  # row numbers, each block of s in order of a
    s = 1
    while s < size:
        blocks = order.reshape(-1, 2 * s)
        moved = np.argsort(a[blocks], axis=1, kind="stable")
        blocks = np.take_along_axis(blocks, moved, axis=1)
        early = moved < s
        col = b[blocks]
        hit = np.logical_or.accumulate(early, axis=1)
        hit &= np.minimum.accumulate(np.where(early, col, np.inf), axis=1) <= col
        hit &= ~early
        dominated[blocks[hit]] = True
        order = blocks.reshape(-1)
        s *= 2
    return dominated[:u]


def nondominated_filter(S: SampleSet) -> SampleSet:
    """Points of S not dominated within S; input order kept, duplicates kept."""
    return S.take(np.flatnonzero(nondominated_mask(S.objectives)))


def subsample(S: SampleSet, face) -> SampleSet:
    """Points whose projection onto the face's objectives is non-dominated in S."""
    face = _check_face(face, S.m)
    mask = nondominated_mask(S.objectives[:, list(face)])
    return S.take(np.flatnonzero(mask))


def enumerate_faces(m: int, max_size: int):
    """Nonempty objective subsets of size <= max_size: ascending size, then lexicographic."""
    if not 1 <= max_size <= m:
        raise FaceError(f"max face size must lie in 1..{m}, got {max_size}")
    for size in range(1, max_size + 1):
        yield from combinations(range(m), size)


def face_label(face) -> str:
    """1-based objective numbers joined by dashes, e.g. (0, 2) -> "1-3"."""
    return "-".join(str(j + 1) for j in face)


def skeleton_decompose(S: SampleSet, m_max: int) -> dict[tuple[int, ...], SampleSet]:
    """Face subsamples for every nonempty face with |face| <= m_max."""
    return {face: subsample(S, face) for face in enumerate_faces(S.m, m_max)}


# -- CSV interchange ---------------------------------------------------------
# Header: f1,...,fM[,x1,...,xL]. Floats are written with repr so finite doubles
# round-trip bit-exactly.


def save_sample(S: SampleSet, path) -> None:
    path = Path(path)
    header = [f"f{i + 1}" for i in range(S.m)]
    if S.solutions is not None:
        header += [f"x{i + 1}" for i in range(S.l)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(S.n):
            row = [repr(float(v)) for v in S.objectives[i]]
            if S.solutions is not None:
                row += [repr(float(v)) for v in S.solutions[i]]
            writer.writerow(row)


def load_sample(path) -> SampleSet:
    path = Path(path)
    with reading(path), path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file")
        m = 0
        while m < len(header) and header[m] == f"f{m + 1}":
            m += 1
        if m == 0:
            raise ParseError("line 1: header must start with f1,f2,...")
        l = len(header) - m
        if header[m:] != [f"x{i + 1}" for i in range(l)]:
            raise ParseError("line 1: trailing columns must be x1,x2,...")
        obj_rows, sol_rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if not all(np.isfinite(values)):
                raise ParseError(f"line {lineno}: non-finite value")
            obj_rows.append(values[:m])
            sol_rows.append(values[m:])
        if not obj_rows:
            raise ParseError("no data rows")
    solutions = np.array(sol_rows) if l else None
    return SampleSet(np.array(obj_rows), solutions)
