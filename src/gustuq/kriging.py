"""Ordinary kriging with an anisotropic squared-exponential kernel.

Hyperparameters maximize the concentrated log-likelihood over a
log-spaced multi-start grid followed by coordinate descent, which keeps
the fit deterministic. Also used as the ground-truth engine for the
benchmark, per the 500-point protocol.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

# nearest_rank_quantile stays bound here for the benchmark tracer's import-site tests.
from .core import (RiskMeasures, nearest_rank_quantile, require_finite, risk_from_samples,
                   sample_surrogate, standard_points)
from .pce import FitError

__all__ = ["KrigingModel", "kriging_fit", "kriging_predict", "kriging_risk"]

_THETA_BOUNDS = (1e-2, 1e2)
_GRID_POINTS = 5
_MAX_NUGGET = 1e-4


@dataclass(frozen=True)
class KrigingModel:
    """Fitted constant-trend Gaussian-process interpolant in standard coordinates."""

    train_points: np.ndarray  # (n, d) in [-1, 1]^d
    train_values: np.ndarray  # (n,)
    lengthscales: np.ndarray  # (d,) positive rate parameters theta
    process_variance: float
    trend: float
    nugget: float
    _alpha: np.ndarray  # (R + nugget I)^-1 (y - beta 1), cached for prediction

    def predict(self, xi: np.ndarray) -> np.ndarray:
        return kriging_predict(self, xi)

    def to_json(self) -> str:
        return json.dumps({
            "train_points": self.train_points.tolist(),
            "train_values": self.train_values.tolist(),
            "lengthscales": self.lengthscales.tolist(),
            "process_variance": self.process_variance,
            "trend": self.trend,
            "nugget": self.nugget,
        })

    @classmethod
    def from_json(cls, doc: str) -> "KrigingModel":
        """The model ``to_json`` wrote; a malformed document is a ValueError naming its field."""
        data = json.loads(doc)
        where = "KrigingModel.from_json"
        points = np.array(data["train_points"], dtype=float)
        values = np.array(data["train_values"], dtype=float)
        theta = np.array(data["lengthscales"], dtype=float)
        nugget = float(data["nugget"])
        trend = float(data["trend"])
        sq = _checked_design(where, nugget, train_points=points, train_values=values)
        require_finite(where, lengthscales=theta, trend=trend)
        if theta.shape != points.shape[1:] or not np.all(theta > 0.0):
            raise ValueError(f"{where}: lengthscales must be {points.shape[1]} positive rates, "
                             f"got {theta.tolist()}")
        alpha = _solve(_cholesky(_correlation(sq, theta, nugget)), values - trend)
        return cls(train_points=points, train_values=values, lengthscales=theta,
                   process_variance=float(data["process_variance"]),
                   trend=trend, nugget=nugget, _alpha=alpha)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise squared differences, shape (len(a), len(b), d)."""
    return (a[:, None, :] - b[None, :, :]) ** 2


def _correlation(sq: np.ndarray, theta: np.ndarray, nugget: float) -> np.ndarray:
    """R + nugget I from the design's cached (n, n, d) squared differences."""
    corr = sq @ theta
    np.negative(corr, out=corr)
    np.exp(corr, out=corr)
    corr.flat[::corr.shape[0] + 1] += nugget
    return corr


@functools.cache
def _lapack():
    """scipy's LAPACK ``(dpotrf, dpotrs)``, imported at the first factorization.

    Importing ``scipy.linalg`` costs about 0.25 s and 28 MB (2-core Xeon VM),
    which a process that never factors a correlation matrix does not pay.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs
    return dpotrf, dpotrs


def _cholesky(corr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of R + nugget I, computed in place over ``corr``.

    ``corr`` is exactly symmetric, so its transpose is the same matrix in
    Fortran order and LAPACK factors it without a copy or a finiteness
    pass (callers check their inputs). The upper triangle keeps R.
    """
    dpotrf, _ = _lapack()
    factor, info = dpotrf(corr.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return factor


def _solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(R + nugget I)^-1 rhs from ``_cholesky``'s factor.

    One right-hand side per call: a multi-column solve is not bit-identical
    to single-column ones on every BLAS kernel.
    """
    _, dpotrs = _lapack()
    x, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: argument {-info} is invalid")
    return x


# Smallest acceptable ratio of Cholesky diagonal extremes; below this the
# correlation matrix is too ill-conditioned for nugget-scale interpolation.
_MIN_DIAG_RATIO = 1e-3


@functools.lru_cache(maxsize=1)
def _rejected_thetas(design: bytes, shape: tuple, nugget: float, ratio: float) -> set[bytes]:
    """θ values (as bytes) whose R + nugget I failed to factor or failed the
    ``_MIN_DIAG_RATIO`` guard on the design with these point bytes and shape.
    Rejection does not depend on the values, so the second QoI fitted on a
    design skips the θ the first one rejected. One entry: another key replaces
    it, so a concurrent fit on another design costs a miss, never a wrong entry."""
    return set()


def _concentrated_fit(sq, values, theta, nugget):
    """(log-likelihood, trend, process variance, alpha) at fixed theta.

    alpha is (R + nugget I)^-1 (y - beta 1), the model's prediction weights.
    Raises LinAlgError for non-SPD or numerically near-singular
    correlation matrices, so the optimizer treats both alike.
    """
    n = sq.shape[0]
    factor = _cholesky(_correlation(sq, theta, nugget))
    diag = np.diag(factor)
    if diag.min() < _MIN_DIAG_RATIO * diag.max():
        raise LinAlgError("correlation matrix too ill-conditioned")
    ones = np.ones(n)
    rinv_ones = _solve(factor, ones)
    rinv_y = _solve(factor, values)
    beta = float(ones @ rinv_y) / float(ones @ rinv_ones)
    resid = values - beta
    alpha = _solve(factor, resid)
    sigma2 = float(resid @ alpha) / n
    logdet = 2.0 * np.sum(np.log(diag))
    scale = max(float(values @ values) / n, 1.0)
    if sigma2 <= 1e-15 * scale:
        # Degenerate (e.g. constant data): flat likelihood, any theta works.
        return math.inf, beta, max(sigma2, 0.0), alpha
    ll = -0.5 * n * math.log(sigma2) - 0.5 * logdet
    return ll, beta, sigma2, alpha


def check_design_size(n: int, d: int, caller: str = "kriging_fit") -> None:
    """Raise the ValueError ``kriging_fit`` gives for fewer than d + 2 training points."""
    if n < d + 2:
        raise ValueError(f"{caller}: need at least d + 2 = {d + 2} training points, got {n}")


def _checked_design(caller: str, nugget: float, **design: np.ndarray) -> np.ndarray:
    """The (n, n, d) squared differences of a design that passes every kriging check.

    ``design`` names the (n, d) points, then the (n,) values; a failed check
    is a ValueError naming ``caller`` and the field.
    """
    (points_name, points), (values_name, values) = design.items()
    if points.ndim != 2:
        raise ValueError(f"{caller}: {points_name} must be an (n, d) array, got shape "
                         f"{points.shape}")
    n, d = points.shape
    check_design_size(n, d, caller)
    if values.shape != (n,):
        raise ValueError(f"{caller}: {values_name} must have shape ({n},) to match "
                         f"{points_name}, got {values.shape}")
    require_finite(caller, **design, nugget=nugget)
    if nugget <= 0.0:  # the tenfold escalation could never leave zero
        raise ValueError(f"{caller}: nugget is {nugget}; it must be positive")
    sq = _sq_dists(points, points)
    diffs = sq.sum(axis=2)
    np.fill_diagonal(diffs, np.inf)
    if diffs.min() < 1e-20:
        i, j = np.unravel_index(int(np.argmin(diffs)), diffs.shape)
        raise ValueError(f"{caller}: duplicate {points_name} at indices {i} and {j}")
    return sq


def kriging_fit(points: np.ndarray, values: np.ndarray, nugget: float = 1e-10) -> KrigingModel:
    """Fit ordinary kriging on standard points by concentrated MLE.

    The lengthscale search covers a 5-per-dimension log grid on
    [1e-2, 1e2] refined by coordinate descent in log space; the positive nugget
    escalates tenfold (up to 1e-4) while the search finds no usable θ. The model
    keeps copies of ``points`` and ``values``.
    """
    points = np.array(points, dtype=float, ndmin=2)
    values = np.array(values, dtype=float)
    sq = _checked_design("kriging_fit", nugget, points=points, values=values)
    current = nugget
    while (model := _fit_at_nugget(points, sq, values, current)) is None:
        if current >= _MAX_NUGGET:
            raise FitError("correlation matrix is not positive definite even at nugget "
                           f"{current:g}; increase the nugget or thin the design")
        current = min(current * 10.0, _MAX_NUGGET)
    return model


def _fit_at_nugget(points, sq, values, nugget) -> KrigingModel | None:
    """The model at this nugget, or None if it rejects every grid θ."""
    d = points.shape[1]
    log_lo, log_hi = math.log10(_THETA_BOUNDS[0]), math.log10(_THETA_BOUNDS[1])
    grid = np.logspace(log_lo, log_hi, _GRID_POINTS)
    rejected = _rejected_thetas(points.tobytes(), points.shape, nugget, _MIN_DIAG_RATIO)
    # ``_concentrated_fit`` of each θ this fit has tried: coordinate descent comes
    # back to the θ it just left, and the best θ's fit is the model.
    fits: dict[bytes, tuple] = {}

    def log_likelihood(theta):
        """Concentrated log-likelihood at θ; −∞ where the design rejects θ."""
        key = theta.tobytes()
        if key not in fits:
            fits[key] = (-math.inf,)
            if key not in rejected:
                try:
                    fits[key] = _concentrated_fit(sq, values, theta, nugget)
                except LinAlgError:
                    rejected.add(key)
        return fits[key][0]

    best_ll, best_theta = -math.inf, None
    for theta in map(np.array, itertools.product(grid, repeat=d)):
        ll = log_likelihood(theta)
        if ll > best_ll:  # strict: ties keep the lowest grid index
            best_ll, best_theta = ll, theta
    if best_theta is None:
        return None

    # Coordinate descent on log10(theta), clipped to the search box.
    log_theta = np.log10(best_theta)
    step = 0.5
    while step >= 0.05 and math.isfinite(best_ll):
        improved = False
        for j in range(d):
            for delta in (step, -step):
                trial = log_theta.copy()
                trial[j] = min(max(trial[j] + delta, log_lo), log_hi)
                if trial[j] == log_theta[j]:
                    continue
                ll = log_likelihood(theta := 10.0 ** trial)
                if ll > best_ll:
                    best_ll, best_theta, log_theta = ll, theta, trial
                    improved = True
        if not improved:
            step *= 0.5

    _, beta, sigma2, alpha = fits[best_theta.tobytes()]
    return KrigingModel(train_points=points, train_values=values,
                        lengthscales=best_theta, process_variance=sigma2,
                        trend=beta, nugget=nugget, _alpha=alpha)


def kriging_predict(model: KrigingModel, xi: np.ndarray) -> np.ndarray:
    """Kriging mean prediction at standard points (n, d) or a single (d,) point.

    The scaled squared distance expands as |sqrt(theta) a|^2 + |sqrt(theta) b|^2
    - 2 (theta a).b; both sides carry two extra columns so that one GEMM yields
    its negative in the only (n, n_train) array; ``sample_surrogate`` bounds n.
    """
    xi = np.asarray(xi, dtype=float)
    train, theta = model.train_points, model.lengthscales
    n, d = train.shape
    pts = standard_points(xi, d, "kriging_predict")
    # -|sqrt(theta) (a - b)|^2 = [2 theta a, -1, -|sqrt(theta) a|^2] . [b, |sqrt(theta) b|^2, 1]
    right = np.empty((d + 2, n))
    right[:d] = train.T
    right[d] = train ** 2 @ theta
    right[d + 1] = 1.0
    left = np.empty((pts.shape[0], d + 2))
    np.multiply(pts, 2.0 * theta, out=left[:, :d])
    left[:, d] = -1.0
    np.matmul(pts ** 2, -theta, out=left[:, d + 1])
    r = left @ right
    np.minimum(r, 0.0, out=r)  # rounding may leave a coincident pair just above 0
    np.exp(r, out=r)
    out = r @ model._alpha
    out += model.trend
    return float(out[0]) if xi.ndim == 1 else out


def kriging_risk(model: KrigingModel, p: float = 0.95, n_samples: int = 10**6,
                 seed: int = 0) -> RiskMeasures:
    """Risk measures from seeded uniform sampling of the fitted surrogate."""
    samples = sample_surrogate(model.predict, model.train_points.shape[1], n_samples,
                               seed, "kriging-risk")
    return risk_from_samples(samples, p)
