"""Shared domain types: input spaces, sampling plans, and risk measures.

All estimators in this package consume the same primitives: a box of
independent uniform inputs, seeded sampling plans drawn from a
counter-based generator, and a sample-based (mean, std, quantile)
summary.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "UncertainInput",
    "InputSpace",
    "QoIRecord",
    "RiskMeasures",
    "CountingOracle",
    "default_input_space",
    "to_standard",
    "from_standard",
    "latin_hypercube",
    "uniform_standard_samples",
    "uniform_physical_samples",
    "nearest_rank_quantile",
    "risk_from_samples",
    "substream",
]


@dataclass(frozen=True)
class UncertainInput:
    """A named uniform random input on [lower, upper] in physical units."""

    name: str
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(
                f"input {self.name!r}: lower ({self.lower}) must be strictly "
                f"below upper ({self.upper})"
            )


@dataclass(frozen=True)
class InputSpace:
    """An ordered box of mutually independent uniform inputs."""

    inputs: tuple[UncertainInput, ...]

    def __post_init__(self):
        if len(self.inputs) < 1:
            raise ValueError("input space needs at least one input")
        names = [u.name for u in self.inputs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate input names: {names}")
        object.__setattr__(self, "inputs", tuple(self.inputs))

    @property
    def dimension(self) -> int:
        return len(self.inputs)

    @property
    def lower(self) -> np.ndarray:
        return np.array([u.lower for u in self.inputs])

    @property
    def upper(self) -> np.ndarray:
        return np.array([u.upper for u in self.inputs])

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(u.name for u in self.inputs)


def default_input_space() -> InputSpace:
    """Benchmark input box: freestream velocity, gust length, peak gust velocity."""
    return InputSpace((
        UncertainInput("freestream_velocity", 40.0, 60.0),
        UncertainInput("gust_length", 4.0, 8.0),
        UncertainInput("peak_gust_velocity", 5.0, 15.0),
    ))


@dataclass(frozen=True)
class QoIRecord:
    """The two benchmark outputs: max tip displacement (m), average strain energy (J)."""

    max_tip_displacement: float
    avg_strain_energy: float

    def __post_init__(self):
        if self.avg_strain_energy < 0:
            raise ValueError("strain energy is a quadratic form and cannot be negative")

    def as_array(self) -> np.ndarray:
        return np.array([self.max_tip_displacement, self.avg_strain_energy])


QOI_NAMES = ("max_tip_displacement", "avg_strain_energy")


@dataclass(frozen=True)
class RiskMeasures:
    """(mean, standard deviation, upper quantile) of one quantity of interest."""

    mean: float
    std_dev: float
    p95: float

    def __post_init__(self):
        if self.std_dev < 0:
            raise ValueError("standard deviation cannot be negative")

    def as_dict(self) -> dict:
        return {"mean": self.mean, "std_dev": self.std_dev, "p95": self.p95}


class CountingOracle:
    """Wrapper that counts oracle work for budget accounting.

    Each point evaluated counts one unit, whether it comes through
    ``evaluate`` or as one row of an ``evaluate_batch`` call; each
    ``gradient`` call counts one unit more.  ``total_cost`` is the sum,
    the convention used when reporting budgets.
    """

    def __init__(self, inner):
        self.inner = inner
        self.evaluations = 0
        self.gradient_evaluations = 0

    def evaluate(self, x):
        self.evaluations += 1
        return self.inner.evaluate(x)

    def evaluate_batch(self, points):
        points = np.atleast_2d(points)
        self.evaluations += points.shape[0]
        return self.inner.evaluate_batch(points)

    def gradient(self, x):
        self.gradient_evaluations += 1
        return self.inner.gradient(x)

    @property
    def total_cost(self) -> int:
        """Evaluations plus gradients, each gradient counted as one extra evaluation."""
        return self.evaluations + self.gradient_evaluations


# ---------------------------------------------------------------------------
# coordinate transforms


def to_standard(x: np.ndarray, space: InputSpace) -> np.ndarray:
    """Affine map from the physical box to [-1, 1]^d.

    Accepts a single point (d,) or a stack (n, d). Raises on
    out-of-bounds components, naming the offending input.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = space.lower, space.upper
    below = x < lo
    above = x > hi
    if below.any() or above.any():
        bad = np.atleast_1d((below | above).any(axis=0) if x.ndim > 1 else (below | above))
        name = space.inputs[int(np.argmax(bad))].name
        raise ValueError(f"input {name!r} outside its [lower, upper] range")
    return 2.0 * (x - lo) / (hi - lo) - 1.0


def from_standard(xi: np.ndarray, space: InputSpace) -> np.ndarray:
    """Inverse of :func:`to_standard`."""
    xi = np.asarray(xi, dtype=float)
    lo, hi = space.lower, space.upper
    return lo + 0.5 * (xi + 1.0) * (hi - lo)


# ---------------------------------------------------------------------------
# seeded sampling


def substream(seed: int, *tags) -> np.random.Generator:
    """Counter-based generator for a named substream of the master seed.

    Every consumer of randomness in the package derives its stream this
    way, so results are reproducible regardless of evaluation order.
    """
    entropy = [int(seed)] + [
        zlib.crc32(t.encode()) if isinstance(t, str) else int(t) for t in tags
    ]
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy)))


def latin_hypercube(n: int, space: InputSpace, seed: int) -> np.ndarray:
    """Seeded Latin hypercube design of n physical points.

    Each dimension places exactly one point in each of the n equal-width
    strata of [lower, upper]. Deterministic for fixed (n, seed).
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    rng = substream(seed, "lhs", n)
    d = space.dimension
    u = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        jitter = rng.random(n)
        u[:, j] = (perm + jitter) / n
    lo, hi = space.lower, space.upper
    return lo + u * (hi - lo)


def uniform_standard_samples(n: int, d: int, seed: int, *tags) -> np.ndarray:
    """n independent uniform points on [-1, 1]^d from a seeded substream."""
    rng = substream(seed, "unif", *tags)
    return rng.random((n, d)) * 2.0 - 1.0


def uniform_physical_samples(n: int, space: InputSpace, seed: int, *tags) -> np.ndarray:
    """n independent uniform points on the physical box.

    Stream-prefix stable: the first n points of an (m > n, seed) draw
    equal the (n, seed) draw.
    """
    rng = substream(seed, "unif", *tags)
    u = rng.random((n, space.dimension))
    lo, hi = space.lower, space.upper
    return lo + u * (hi - lo)


# ---------------------------------------------------------------------------
# risk measures


def nearest_rank_quantile(values: np.ndarray, p: float) -> float:
    """Nearest-rank quantile: the ceil(p*N)-th order statistic (1-based)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("empty sample")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p}")
    rank = int(np.ceil(p * n))
    rank = min(max(rank, 1), n)
    return float(np.sort(values)[rank - 1])


def risk_from_samples(values: Sequence[float], p: float = 0.95) -> RiskMeasures:
    """Sample mean, Bessel-corrected std, and nearest-rank quantile."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least 2 values (sample std is undefined otherwise)")
    return RiskMeasures(
        mean=float(values.mean()),
        std_dev=float(values.std(ddof=1)),
        p95=nearest_rank_quantile(values, p),
    )
