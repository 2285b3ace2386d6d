"""Regression-based polynomial chaos over an orthonormal Legendre tensor basis.

Basis functions are products of sqrt(2n+1) * P_n(xi) per dimension,
orthonormal under the uniform density on [-1, 1]^d, so the mean is the
zero-index coefficient and the variance is the sum of squares of the
remaining coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputSpace, nearest_rank_quantile, sample_surrogate, standard_points

__all__ = [
    "FitError",
    "legendre_table",
    "total_degree_basis",
    "PCESurrogate",
    "fit_regression",
    "pce_moments",
    "pce_quantile",
]


# A regression fit needs at least this many samples per basis term.
OVERSAMPLING = 2.0

# Fewest samples pce_quantile reads a quantile from.
MIN_QUANTILE_SAMPLES = 10**4


class FitError(RuntimeError):
    """Raised when a surrogate fit cannot be completed."""


def legendre_table(xi: np.ndarray, max_degree: int) -> np.ndarray:
    """Orthonormal Legendre values for degrees 0..max_degree at points xi.

    Three-term recurrence (n+1) P_{n+1} = (2n+1) xi P_n - n P_{n-1},
    scaled so E[P~_n^2] = 1 under U(-1, 1). Returns shape (len(xi), max_degree+1).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    table = np.empty((xi.size, max_degree + 1))
    table[:, 0] = 1.0
    if max_degree >= 1:
        table[:, 1] = xi
    for n in range(1, max_degree):
        table[:, n + 1] = ((2 * n + 1) * xi * table[:, n] - n * table[:, n - 1]) / (n + 1)
    return table * np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)


def total_degree_basis(d: int, p: int) -> list[tuple[int, ...]]:
    """All d-dimensional multi-indices of total degree <= p, graded-lex order."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if p < 0:
        raise ValueError("max degree cannot be negative")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    basis: list[tuple[int, ...]] = []
    for total in range(p + 1):
        basis.extend(compositions(total, d))
    assert len(basis) == math.comb(d + p, p)
    return basis


@dataclass(frozen=True)
class PCESurrogate:
    """Fitted chaos expansion: multi-index basis plus coefficients in QoI units."""

    space: InputSpace
    basis: tuple[tuple[int, ...], ...]
    coefficients: np.ndarray

    def predict(self, xi: np.ndarray) -> np.ndarray:
        """Evaluate the expansion at standard points, shape (n, d) or (d,)."""
        xi = standard_points(xi, self.space.dimension, "PCESurrogate.predict")
        return _design_matrix(xi, self.basis) @ self.coefficients


def _design_matrix(xi: np.ndarray, basis) -> np.ndarray:
    n, d = xi.shape
    max_deg = max(max(alpha) for alpha in basis)
    tables = [legendre_table(xi[:, j], max_deg) for j in range(d)]
    psi = np.ones((n, len(basis)))
    for col, alpha in enumerate(basis):
        for j, deg in enumerate(alpha):
            if deg:
                psi[:, col] *= tables[j][:, deg]
    return psi


def fit_regression(points: np.ndarray, values: np.ndarray, p: int,
                   space: InputSpace) -> PCESurrogate:
    """Least-squares chaos fit of degree-p total basis on standard points.

    Requires at least ``OVERSAMPLING`` times as many samples as basis
    terms; raises on undersampled or rank-deficient designs.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    d = space.dimension
    if points.shape[1] != d:
        raise ValueError(f"points have {points.shape[1]} columns, space has dimension {d}")
    basis = total_degree_basis(d, p)
    required = int(math.ceil(OVERSAMPLING * len(basis)))
    if points.shape[0] < required:
        raise ValueError(
            f"degree {p} in dimension {d} needs at least {required} samples "
            f"({OVERSAMPLING}x the {len(basis)} basis terms), got {points.shape[0]}"
        )
    psi = _design_matrix(points, basis)
    coeffs, _, rank, _ = np.linalg.lstsq(psi, values, rcond=None)
    if rank < len(basis):
        raise FitError(f"rank-deficient design matrix (rank {rank} < {len(basis)} terms)")
    return PCESurrogate(space=space, basis=tuple(basis), coefficients=coeffs)


def pce_moments(surrogate: PCESurrogate) -> tuple[float, float]:
    """(mean, std) from the coefficients of the orthonormal expansion."""
    c = surrogate.coefficients
    return float(c[0]), float(np.sqrt(np.sum(c[1:] ** 2)))


def pce_quantile(surrogate: PCESurrogate, p: float, n_samples: int = 10**6,
                 seed: int = 0) -> float:
    """Nearest-rank quantile of the surrogate sampled at seeded uniform points."""
    if n_samples < MIN_QUANTILE_SAMPLES:
        raise ValueError("quantile sampling needs at least 1e4 samples")
    samples = sample_surrogate(surrogate.predict, surrogate.space.dimension, n_samples,
                               seed, "pce-quantile")
    return nearest_rank_quantile(samples, p)
