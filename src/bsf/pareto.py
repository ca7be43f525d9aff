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

from .errors import DimensionError, FaceError, ParseError
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
        if not np.all(np.isfinite(obj)):
            raise DimensionError("objectives must be finite")
        obj.setflags(write=False)
        object.__setattr__(self, "objectives", obj)
        if self.solutions is not None:
            sol = np.atleast_2d(np.array(self.solutions, dtype=float, copy=True))
            if sol.shape[0] != obj.shape[0]:
                raise DimensionError("solutions and objectives disagree in point count")
            if not np.all(np.isfinite(sol)):
                raise DimensionError("solutions must be finite")
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

    def __len__(self) -> int:
        return self.n

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
    """Boolean mask of rows not dominated by any other row.

    Scans in lexicographic order, where a dominating point always sorts
    strictly earlier, in blocks: a point is dominated iff some earlier point
    dominates it, and any such chain grounds out at a non-dominated point, so
    comparing against (a) all accepted points of earlier blocks and (b) all
    earlier points of the own block is exact. Results are identical to the
    quadratic pairwise check.
    """
    F = np.asarray(F, dtype=float)
    n, m = F.shape
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    order = np.lexsort(F.T[::-1])
    G = F[order]
    archive = np.empty_like(F)
    count = 0
    for start in range(0, n, _SCAN_BLOCK):
        block = G[start : start + _SCAN_BLOCK]
        b = block.shape[0]
        # [i, j] True iff block[j] dominates block[i]; only j < i can apply
        le = np.all(block[None, :, :] <= block[:, None, :], axis=2)
        lt = np.any(block[None, :, :] < block[:, None, :], axis=2)
        earlier = np.tril(np.ones((b, b), dtype=bool), k=-1)
        dominated = np.any(le & lt & earlier, axis=1)
        if count:
            a = archive[:count]
            le_a = np.all(a[None, :, :] <= block[:, None, :], axis=2)
            lt_a = np.any(a[None, :, :] < block[:, None, :], axis=2)
            dominated |= np.any(le_a & lt_a, axis=1)
        kept = block[~dominated]
        archive[count : count + kept.shape[0]] = kept
        count += kept.shape[0]
        keep[order[start : start + b][~dominated]] = True
    return keep


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
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        m = 0
        while m < len(header) and header[m] == f"f{m + 1}":
            m += 1
        if m == 0:
            raise ParseError(f"{path}: line 1: header must start with f1,f2,...")
        l = len(header) - m
        if [h for h in header[m:]] != [f"x{i + 1}" for i in range(l)]:
            raise ParseError(f"{path}: line 1: trailing columns must be x1,x2,...")
        obj_rows, sol_rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not all(np.isfinite(values)):
                raise ParseError(f"{path}: line {lineno}: non-finite value")
            obj_rows.append(values[:m])
            sol_rows.append(values[m:])
    if not obj_rows:
        raise ParseError(f"{path}: no data rows")
    solutions = np.array(sol_rows) if l else None
    return SampleSet(np.array(obj_rows), solutions)
