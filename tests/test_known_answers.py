"""Known-answer sweep: the protocol run on an oracle whose risk measures are exact.

Each QoI of ``AdditiveOracle`` is y = a0 + a1 ξ1 + a2 ξ1² + b2 ξ2 + b3 ξ3 in
the standardized inputs ξ of the default box: additive, and of degree 1
(``a2 = 0``) or 2. Its mean and standard deviation are closed forms, and its
p95 solves F(y) = 0.95 for a CDF that is a 1-D integral over ξ1 of the
closed-form CDF of b2 ξ2 + b3 ξ3, integrated exactly piece by piece. So
every estimator's error is measured against the true value, and theory
says which cells must be exact.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import brentq

from gustuq import (GroundTruth, QoIRecord, RiskMeasures, StudyConfig, default_input_space,
                    run_convergence, to_standard)
from gustuq.core import QOI_NAMES, uniform_physical_samples

SPACE = default_input_space()
D = SPACE.dimension


@dataclass(frozen=True)
class AdditiveQoI:
    """y = a0 + a1 ξ1 + a2 ξ1² + b2 ξ2 + b3 ξ3, each ξ uniform on [-1, 1]."""

    a0: float
    a1: float
    a2: float
    b2: float
    b3: float

    @property
    def degree(self) -> int:
        return 2 if self.a2 else 1

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        x1, x2, x3 = xi.T
        return self.a0 + self.a1 * x1 + self.a2 * x1 ** 2 + self.b2 * x2 + self.b3 * x3

    def partials(self, xi: np.ndarray) -> np.ndarray:
        """dy/dξ at one standard point."""
        return np.array([self.a1 + 2.0 * self.a2 * xi[0], self.b2, self.b3])

    def mean(self) -> float:
        return self.a0 + self.a2 / 3.0  # E ξ² = 1/3

    def std(self) -> float:
        # Var ξ = 1/3, Var ξ² = 1/5 - 1/9 = 4/45 and Cov(ξ, ξ²) = E ξ³ = 0
        return math.sqrt((self.a1 ** 2 + self.b2 ** 2 + self.b3 ** 2) / 3.0
                         + 4.0 * self.a2 ** 2 / 45.0)

    def _linear_cdf(self, z: float) -> float:
        """P(b2 ξ2 + b3 ξ3 <= z): the CDF of a trapezoid density on [-(u+v), u+v]."""
        u, v = sorted((abs(self.b2), abs(self.b3)), reverse=True)
        if z <= -(u + v):
            return 0.0
        if z <= v - u:
            return (z + u + v) ** 2 / (8.0 * u * v)
        if z <= u - v:
            return 0.5 + z / (2.0 * u)
        if z <= u + v:
            return 1.0 - (u + v - z) ** 2 / (8.0 * u * v)
        return 1.0

    def cdf(self, y: float) -> float:
        """P(Y <= y) = 1/2 ∫ P(b2 ξ2 + b3 ξ3 <= y - g(ξ1)) dξ1 over [-1, 1].

        Between the ξ1 where y - g(ξ1) meets a breakpoint of the linear
        part's CDF, the integrand is a polynomial of degree <= 4 in ξ1, so
        5-point Gauss-Legendre integrates each piece exactly.
        """
        u, v = abs(self.b2), abs(self.b3)
        cuts = [-1.0, 1.0]
        for t in (-(u + v), -abs(u - v), abs(u - v), u + v):
            for root in np.roots([self.a2, self.a1, self.a0 - y + t]):
                if abs(root.imag) == 0.0 and -1.0 < root.real < 1.0:
                    cuts.append(float(root.real))
        cuts.sort()
        nodes, weights = np.polynomial.legendre.leggauss(5)
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            for node, weight in zip(nodes, weights):
                x1 = mid + half * node
                total += half * weight * self._linear_cdf(
                    y - (self.a0 + self.a1 * x1 + self.a2 * x1 ** 2))
        return 0.5 * total

    def quantile(self, p: float) -> float:
        width = abs(self.a1) + abs(self.a2) + abs(self.b2) + abs(self.b3)
        return brentq(lambda y: self.cdf(y) - p, self.a0 - width, self.a0 + width,
                      xtol=1e-14, rtol=4 * np.finfo(float).eps)


# Degree 1 and degree 2; the second stays positive, as a strain energy must.
QOIS = (AdditiveQoI(2.0, 0.6, 0.0, -0.3, 0.45),
        AdditiveQoI(5.0, 1.2, 0.8, -0.5, 0.25))


class AdditiveOracle:
    """The two ``QOIS`` as a gustuq oracle over ``SPACE``'s physical points."""

    def evaluate(self, x) -> QoIRecord:
        return QoIRecord(*self.evaluate_batch(x)[0])

    def evaluate_batch(self, points) -> np.ndarray:
        xi = np.atleast_2d(to_standard(np.asarray(points, dtype=float), SPACE))
        return np.column_stack([qoi(xi) for qoi in QOIS])

    def gradient(self, x) -> np.ndarray:
        """(2, d) physical partials: dξ/dx is 2 / (upper - lower)."""
        xi = to_standard(np.asarray(x, dtype=float), SPACE)
        return np.stack([qoi.partials(xi) for qoi in QOIS]) * (2.0 / (SPACE.upper - SPACE.lower))


P = 0.95
EXACT = GroundTruth(risk=tuple(RiskMeasures(q.mean(), q.std(), q.quantile(P)) for q in QOIS),
                    models=(), n_train=0, seed=0, check={})


def test_the_reference_is_the_distribution_of_the_oracle():
    oracle = AdditiveOracle()
    # 3-point Gauss-Legendre per input is exact for the degree-4 integrand of E y²
    nodes, weights = np.polynomial.legendre.leggauss(3)
    grid = np.array(list(itertools.product(nodes, repeat=D)))
    w = np.prod(list(itertools.product(weights, repeat=D)), axis=1) / 2.0 ** D
    physical = SPACE.lower + 0.5 * (grid + 1.0) * (SPACE.upper - SPACE.lower)
    values = oracle.evaluate_batch(physical)
    n = 200_000
    draws = oracle.evaluate_batch(uniform_physical_samples(n, SPACE, 3, "known-answers"))
    for j, (qoi, truth) in enumerate(zip(QOIS, EXACT.risk)):
        mean = w @ values[:, j]
        assert truth.mean == pytest.approx(mean, rel=1e-14)
        assert truth.std_dev == pytest.approx(math.sqrt(w @ (values[:, j] - mean) ** 2),
                                              rel=1e-13)
        assert qoi.cdf(truth.p95) == pytest.approx(P, abs=1e-14)
        for level in (0.05, 0.3, 0.5, P):  # the CDF against the sampled distribution
            y = qoi.quantile(level)
            assert abs(np.mean(draws[:, j] <= y) - level) < 4.0 * math.sqrt(
                level * (1.0 - level) / n)


def _nipc_degree(budget: int) -> int:
    """The highest total degree whose basis the budget oversamples twice."""
    return max((p for p in range(1, 7) if 2 * math.comb(D + p, p) <= budget), default=0)


def _dr_nodes(method: str, budget: int) -> int:
    """k from a DR cell's oracle cost: d k + 1 for UDR, 2 d k + 1 for GUDR."""
    return (budget - 1) // (D * (2 if method == "gudr" else 1))


def test_the_sweep_recovers_the_known_answers():
    config = StudyConfig(surrogate_samples=10**4, seed=0)
    records = run_convergence(config, EXACT, AdditiveOracle())
    assert {r.status for r in records} == {"ok"}
    checked = Counter()
    for r in records:
        j = QOI_NAMES.index(r.qoi)
        qoi, truth = QOIS[j], EXACT.risk[j]
        if r.measure == "p95":
            continue
        if r.method == "nipc" and _nipc_degree(r.budget) >= qoi.degree:
            assert r.rel_error <= 1e-12, r  # least squares reproduces the polynomial
        elif r.method in ("udr", "gudr") and _dr_nodes(r.method, r.budget) >= 2:
            # k >= 2 nodes and the center interpolate a quadratic slice exactly,
            # and the sum of the slices is the function
            assert r.rel_error <= 1e-10, r
        elif r.method == "mc" and r.measure == "mean":
            assert abs(r.estimate - truth.mean) <= 4.0 * truth.std_dev / math.sqrt(r.budget), r
        else:
            continue
        checked[r.method] += 1
    # NIPC: the linear QoI from budget 8 (degree 1), the quadratic from 32 (degree 2);
    # UDR has k = 2 from budget 8, GUDR from 16; MC: every mean
    assert checked == {"nipc": 2 * (6 + 4), "udr": 2 * 2 * 6, "gudr": 2 * 2 * 5, "mc": 6 * 2}
