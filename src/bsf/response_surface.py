"""Reduced-cubic response surface: predict the last objective from the rest.

The basis is the constant, every monomial of total degree at most two, and
the pure cubes; mixed degree-three terms are dropped to keep the coefficient
count below typical small-sample sizes. Objectives are min-max normalized to
the unit box before fitting (several benchmarks lie far outside [0, 1]), and
the sampling grid is taken in that normalized space and mapped back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from .bezier import _blocked_matmul, _grid_chunks, monomials, power_tables, table_monomials
from .errors import DimensionError, ParseError, integer_field, reading
from .metrics import RowSource
from .pareto import SampleSet, check_finite, normalizer_from


def cubic_basis_exponents(n_inputs: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples for {1} + {degree <= 2 monomials} + {pure cubes}."""
    if n_inputs < 1:
        raise DimensionError("need at least one explanatory variable")
    exps = [tuple([0] * n_inputs)]
    for degree in (1, 2):
        for combo in combinations_with_replacement(range(n_inputs), degree):
            e = [0] * n_inputs
            for j in combo:
                e[j] += 1
            exps.append(tuple(e))
    for j in range(n_inputs):
        e = [0] * n_inputs
        e[j] = 3
        exps.append(tuple(e))
    return tuple(exps)


@dataclass(frozen=True, eq=False)
class ResponseSurface:
    m: int
    exponents: tuple[tuple[int, ...], ...]
    coefficients: np.ndarray = field(repr=False)
    lo: np.ndarray = field(repr=False)  # (m,) per-objective minima at fit time
    span: np.ndarray = field(repr=False)  # (m,) per-objective ranges, 1 where degenerate

    def predict_normalized(self, U) -> np.ndarray:
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[1] != self.m - 1:
            raise DimensionError(f"expected {self.m - 1} inputs, got {U.shape[1]}")
        return _blocked_matmul(monomials(U, self.exponents), self.coefficients)

    def sample_grid(self, resolution: int) -> SampleSet:
        """(resolution + 1)^(m-1) surface points over the normalized unit box,
        mapped back to objective space: `grid_rows` collected."""
        return SampleSet(self.grid_rows(resolution).collect())

    def grid_rows(self, resolution: int) -> RowSource:
        """`sample_grid`'s points as a row source, in the row order of
        itertools.product(axis, repeat=m-1).

        The rows are made a few thousand at a time, so no full-grid array
        need exist. Each is the row of one C-contiguous design matrix
        `monomials(U)` of the whole grid, and each product runs on the block
        `_blocked_matmul` would give it: every bit is that of predicting the
        whole grid at once. A row that overflows raises DimensionError.
        """
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        axis = np.arange(resolution + 1) / resolution
        # every coordinate is an axis value, so each input's factors of the
        # design matrix are rows of one (resolution + 1, K) power table
        tables = power_tables(axis, self.exponents)
        shape = (resolution + 1,) * (self.m - 1)
        n = (resolution + 1) ** (self.m - 1)

        def make(bounds):
            c0 = bounds[0]
            rows = np.empty((bounds[-1] - c0, self.m))
            with np.errstate(over="ignore", invalid="ignore"):
                # design rows one product block at a time: K columns each, to a chunk row's M
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    idx = np.unravel_index(np.arange(lo, hi), shape)
                    design = table_monomials(tables, idx)
                    block = rows[lo - c0:hi - c0]
                    for j, i in enumerate(idx):
                        block[:, j] = axis[i]
                    block[:, -1] = np.matmul(design, self.coefficients)
                rows *= self.span  # lo + span * row, as one whole-grid expression rounds it
                rows += self.lo
            return check_finite(rows)

        return RowSource(n, self.m, _grid_chunks(n, len(self.exponents), None), make)

    def to_dict(self) -> dict:
        return {
            "type": "response-surface",
            "M": self.m,
            "exponents": [list(e) for e in self.exponents],
            "coefficients": [float(c) for c in self.coefficients],
            "lo": [float(v) for v in self.lo],
            "span": [float(v) for v in self.span],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResponseSurface":
        """The surface of a `to_dict` record; ParseError names the first field
        that no fit could have written."""
        m = integer_field(data, "M")
        if m < 2:
            raise ParseError(f"response surface: M is {m}, need at least 2")
        try:
            given = [list(e) for e in data["exponents"]]
        except TypeError:
            given = None
        # count the terms, 1 + 2n + n(n + 1)/2 for n = M - 1, before building the basis
        counted = given is not None and len(given) == 1 + 2 * (m - 1) + (m - 1) * m // 2
        exponents = cubic_basis_exponents(m - 1) if counted else ()
        if not counted or given != [list(e) for e in exponents]:
            raise ParseError(f"response surface: exponents are not the reduced-cubic basis of {m - 1} inputs")
        fields = {}
        for name, size in (("coefficients", len(exponents)), ("lo", m), ("span", m)):
            values = np.asarray(data[name], dtype=float)
            if values.shape != (size,):
                raise ParseError(f"response surface: {name} has shape {values.shape}, expected ({size},)")
            if not np.all(np.isfinite(values)):
                raise ParseError(f"response surface: {name} must be finite")
            fields[name] = values
        if not np.all(fields["span"] > 0):
            raise ParseError("response surface: span must be positive")
        return cls(m, exponents, fields["coefficients"], fields["lo"], fields["span"])

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "ResponseSurface":
        with reading(path, "model file"):
            return cls.from_dict(json.loads(Path(path).read_text()))


def fit_response_surface(S: SampleSet) -> ResponseSurface:
    """Least-squares reduced-cubic fit of the last objective from the others.

    Underdetermined systems take the minimum-norm coefficients.
    """
    if S.m < 2:
        raise DimensionError("response surface needs at least two objectives")
    lo, span = normalizer_from(S.objectives)
    normalized = (S.objectives - lo) / span
    U, y = normalized[:, :-1], normalized[:, -1]
    exponents = cubic_basis_exponents(S.m - 1)
    coef, *_ = np.linalg.lstsq(monomials(U, exponents), y, rcond=None)
    return ResponseSurface(S.m, exponents, coef, lo, span)

