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

from .bezier import _blocked_matmul, monomials
from .errors import DimensionError
from .pareto import SampleSet, normalizer_from


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
        mapped back to objective space."""
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        axis = np.arange(resolution + 1) / resolution
        # the rows of itertools.product(axis, repeat=m-1), C-contiguous: the
        # design matrix's layout decides its summation order, so its last bits
        U = np.ascontiguousarray(
            axis[np.indices((resolution + 1,) * (self.m - 1)).reshape(self.m - 1, -1).T]
        )
        y = self.predict_normalized(U)
        normalized = np.column_stack([U, y])
        return SampleSet(self.lo + self.span * normalized)

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
        return cls(
            int(data["M"]),
            tuple(tuple(e) for e in data["exponents"]),
            np.asarray(data["coefficients"], dtype=float),
            np.asarray(data["lo"], dtype=float),
            np.asarray(data["span"], dtype=float),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "ResponseSurface":
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

