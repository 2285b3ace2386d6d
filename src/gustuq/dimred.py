"""Univariate dimension reduction (UDR) and its gradient-enhanced variant (GUDR).

The model is approximated additively about the input-space midpoint:

    f(x) ~= sum_i g_i(x_i) - (d - 1) f(mu)

where g_i interpolates the univariate slice through the midpoint at
Gauss-Legendre nodes (plus the midpoint itself, so the approximation is
exact at the center).  GUDR additionally matches the slice derivative at
each node, doubling the polynomial exactness per node.  Each slice is
stored as orthonormal-Legendre coefficients, solved for directly from
its interpolation conditions in that basis, which makes moments analytic
and gives the additive chaos surrogate used for quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputSpace, nearest_rank_quantile, sample_surrogate, standard_points
from .pce import legendre_table

__all__ = [
    "gauss_legendre",
    "UDRApprox",
    "udr_build",
    "gudr_build",
    "udr_build_scalar",
    "gudr_build_scalar",
    "dr_moments",
    "dr_quantile",
]

_NODE_TOL = 1e-12


def gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-point Gauss-Legendre (nodes, weights) on [-1, 1], exact for degree <= 2k-1.

    The nodes ascend and the weights sum to 2.
    """
    if not 1 <= k <= 20:
        raise ValueError(f"quadrature order must be in [1, 20], got {k}")
    return np.polynomial.legendre.leggauss(k)


@dataclass(frozen=True)
class UDRApprox:
    """Additive decomposition of one scalar output about the midpoint.

    ``coefficients[i]`` is the orthonormal Legendre expansion of dimension
    i's slice interpolant.
    """

    space: InputSpace
    center_value: float
    coefficients: tuple[np.ndarray, ...]

    def __call__(self, xi) -> np.ndarray:
        """Evaluate the additive approximation at standard points (n, d) or (d,)."""
        xi = np.asarray(xi, dtype=float)
        d = self.space.dimension
        pts = standard_points(xi, d, "UDRApprox")
        out = np.full(pts.shape[0], -(d - 1) * self.center_value)
        for i, c in enumerate(self.coefficients):
            out += legendre_table(pts[:, i], c.size - 1) @ c
        return float(out[0]) if xi.ndim == 1 else out


def _legendre_slopes(x: np.ndarray, max_degree: int) -> np.ndarray:
    """d/dx of ``legendre_table(x, max_degree)`` (max_degree >= 1), by numpy's legder."""
    derivative = np.polynomial.legendre.legder(np.eye(max_degree + 1))
    scale = np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)
    return np.polynomial.legendre.legvander(x, max_degree - 1) @ derivative * scale


def _slice_points(space: InputSpace, nodes: np.ndarray, dim: int) -> np.ndarray:
    mu = space.midpoint
    half_width = 0.5 * (space.upper - space.lower)
    pts = np.tile(mu, (nodes.size, 1))
    pts[:, dim] = mu[dim] + nodes * half_width[dim]
    return pts


def _assemble(space: InputSpace, nodes: np.ndarray, center_value: float,
              node_values: np.ndarray, node_derivatives: np.ndarray | None) -> UDRApprox:
    """Every slice's coefficients from one confluent Vandermonde solve.

    Each row is one interpolation condition in the orthonormal Legendre
    basis: the value at each node, at the center unless a node sits there,
    then (GUDR) the derivative at each node. The degree is one less than
    the number of conditions.
    """
    xs, conditions = nodes, [node_values]
    if np.abs(nodes).min() > _NODE_TOL:
        xs = np.append(nodes, 0.0)
        conditions.append(np.full((space.dimension, 1), center_value))
    degree = xs.size - 1
    if node_derivatives is None:
        matrix = legendre_table(xs, degree)
    else:
        degree += nodes.size
        matrix = np.vstack([legendre_table(xs, degree), _legendre_slopes(nodes, degree)])
        conditions.append(node_derivatives)
    coefficients = np.linalg.solve(matrix, np.hstack(conditions).T).T.copy()
    return UDRApprox(space=space, center_value=center_value, coefficients=tuple(coefficients))


def _build(space: InputSpace, k: int, center, values, partial=None) -> tuple[UDRApprox, ...]:
    """One additive approximation per output column.

    ``center(x)`` gives the outputs at the midpoint, ``values(points)`` the
    (d*k, m) outputs at every slice node of every dimension in one call,
    and ``partial(x, i)``, if given, the physical partials along dimension i
    at one node (GUDR).
    """
    nodes, _ = gauss_legendre(k)
    d = space.dimension
    half_width = 0.5 * (space.upper - space.lower)
    center_values = np.atleast_1d(np.asarray(center(space.midpoint), dtype=float))
    pts = np.stack([_slice_points(space, nodes, i) for i in range(d)])
    node_values = np.asarray(values(pts.reshape(d * k, d)), dtype=float).reshape(d, k, -1)
    node_derivatives = None
    if partial is not None:
        # chain rule: the slice lives in the standard coordinate
        node_derivatives = (np.array([[partial(x, i) for x in pts[i]] for i in range(d)])
                            .reshape(d, k, -1) * half_width[:, None, None])
    return tuple(
        _assemble(space, nodes, float(center_values[j]), node_values[..., j],
                  None if node_derivatives is None else node_derivatives[..., j])
        for j in range(center_values.size))


def _scalar_values(f):
    return lambda points: np.array([[float(f(x))] for x in points])


def udr_build_scalar(f, space: InputSpace, k: int) -> UDRApprox:
    """UDR of a scalar function f(physical point) using d*k + 1 evaluations."""
    return _build(space, k, f, _scalar_values(f))[0]


def gudr_build_scalar(f, df, space: InputSpace, k: int) -> UDRApprox:
    """GUDR of a scalar function; df(x, i) is the physical partial along dimension i."""
    return _build(space, k, f, _scalar_values(f), lambda x, i: float(df(x, i)))[0]


def udr_build(oracle, space: InputSpace, k: int) -> tuple[UDRApprox, UDRApprox]:
    """UDR of both benchmark QoIs from exactly d*k + 1 oracle evaluations.

    The midpoint is one ``evaluate`` call; the d*k slice nodes are one
    ``evaluate_batch`` call.
    """
    return _build(space, k, lambda x: oracle.evaluate(x).as_array(), oracle.evaluate_batch)


def gudr_build(oracle, space: InputSpace, k: int) -> tuple[UDRApprox, UDRApprox]:
    """GUDR of both QoIs; adds one ``gradient`` call at each of the d*k slice nodes."""
    if not hasattr(oracle, "gradient"):
        raise TypeError("GUDR requires an oracle with gradient capability")
    return _build(space, k, lambda x: oracle.evaluate(x).as_array(), oracle.evaluate_batch,
                  lambda x, i: np.asarray(oracle.gradient(x))[:, i])


def dr_moments(approx: UDRApprox) -> tuple[float, float]:
    """(mean, std) of the additive approximation, exact for its interpolants.

    Independence of the additive terms makes the variance the sum of the
    per-slice variances; each slice's moments read off its orthonormal
    coefficients.
    """
    d = approx.space.dimension
    mean = -(d - 1) * approx.center_value
    var = 0.0
    for c in approx.coefficients:
        mean += float(c[0])
        var += float(np.sum(c[1:] ** 2))
    return mean, float(np.sqrt(var))


def dr_quantile(approx: UDRApprox, p: float, n_samples: int = 10**6,
                seed: int = 0) -> float:
    """Nearest-rank quantile of the additive chaos surrogate, seeded sampling."""
    samples = sample_surrogate(approx, approx.space.dimension, n_samples, seed, "dr-quantile")
    return nearest_rank_quantile(samples, p)
