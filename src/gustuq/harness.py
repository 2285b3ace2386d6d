"""Benchmark harness: ground truth, convergence sweeps, and PDF export.

Reproduces the experimental protocol: a kriging ground truth fit on 500
design points, per-method convergence records against evaluation
budgets, and density-normalized histograms of both outputs.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (CountingOracle, InputSpace, QOI_NAMES, RiskMeasures,
                   UncertainInput, default_input_space, latin_hypercube,
                   substream, to_standard)
from .dimred import dr_moments, dr_quantile, gudr_build, udr_build
from .gust import GustOracle, SimulationConfig, WingModel
from .kriging import KrigingModel, kriging_fit, kriging_risk
from .montecarlo import mc_estimate
from .pce import fit_regression, pce_moments, pce_quantile

__all__ = [
    "StudyConfig",
    "GroundTruth",
    "ConvergenceRecord",
    "build_oracle",
    "run_ground_truth",
    "run_convergence",
    "export_pdf_data",
    "write_convergence_csv",
    "write_convergence_json",
]

METHODS = ("nipc", "kriging", "mc", "udr", "gudr")
MEASURES = ("mean", "std_dev", "p95")

CSV_COLUMNS = ("method", "qoi", "measure", "budget", "estimate",
               "rel_error", "wall_time_s", "status")

_SIM_KEYS = ("time_step", "final_time", "newmark_beta", "newmark_gamma")
_SCALAR_KEYS = ("air_density", "gust_onset_time", "seed", "quantile",
                "truth_train", "truth_surrogate_samples", "truth_check_samples",
                "surrogate_samples", "bins", "timing")
_CONFIG_KEYS = frozenset(("inputs", "wing", "methods", "budgets")
                         + _SIM_KEYS + _SCALAR_KEYS)
_COUNT_FIELDS = ("truth_train", "truth_surrogate_samples", "truth_check_samples",
                 "surrogate_samples", "bins")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StudyConfig:
    """Everything a benchmark run needs, loadable from a single JSON document."""

    space: InputSpace = field(default_factory=default_input_space)
    wing: WingModel = field(default_factory=WingModel)
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    air_density: float = 1.225
    gust_onset_time: float = 0.1
    methods: tuple[str, ...] = METHODS
    budgets: tuple[int, ...] = (8, 16, 32, 64, 128, 256)
    seed: int = 0
    quantile: float = 0.95
    truth_train: int = 500
    truth_surrogate_samples: int = 10**6
    truth_check_samples: int = 10**5
    surrogate_samples: int = 10**6
    bins: int = 100
    timing: bool = False

    def __post_init__(self):
        if list(self.budgets) != sorted(set(self.budgets)):
            raise ValueError("budgets must be strictly increasing")
        if self.budgets and self.budgets[0] < 1:
            raise ValueError(f"budgets must be at least 1, got {self.budgets}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {self.quantile}")
        for name in _COUNT_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; pick from {METHODS}")

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; "
                             f"valid keys are {sorted(_CONFIG_KEYS)}")
        kwargs = {}
        if "inputs" in data:
            kwargs["space"] = InputSpace(tuple(
                UncertainInput(name, lo, hi) for name, lo, hi in data["inputs"]))
        if "wing" in data:
            kwargs["wing"] = WingModel(**data["wing"])
        sim_keys = {k: data[k] for k in _SIM_KEYS if k in data}
        if sim_keys:
            kwargs["sim"] = SimulationConfig(**sim_keys)
        for key in _SCALAR_KEYS:
            if key in data:
                kwargs[key] = data[key]
        if "methods" in data:
            kwargs["methods"] = tuple(data["methods"])
        if "budgets" in data:
            kwargs["budgets"] = tuple(data["budgets"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "StudyConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def build_oracle(config: StudyConfig) -> GustOracle:
    return GustOracle(wing=config.wing, config=config.sim,
                      air_density=config.air_density,
                      gust_onset_time=config.gust_onset_time,
                      space=config.space)


# ---------------------------------------------------------------------------
# ground truth


@dataclass(frozen=True)
class GroundTruth:
    """Kriging-based reference risk measures, cross-checked against direct MC."""

    risk: tuple[RiskMeasures, RiskMeasures]
    models: tuple[KrigingModel, KrigingModel]
    n_train: int
    seed: int
    check: dict

    def to_json(self) -> str:
        return json.dumps({
            "method": "kriging",
            "n_train": self.n_train,
            "seed": self.seed,
            "risk": {name: r.as_dict() for name, r in zip(QOI_NAMES, self.risk)},
            "cross_check": self.check,
        }, indent=2)


def run_ground_truth(config: StudyConfig, oracle=None) -> GroundTruth:
    """Fit the ground-truth kriging surrogates and verify them against direct MC.

    The surrogate risk measures must agree with a direct-oracle Monte
    Carlo run (mean within 3 standard errors of the MC mean, std within
    3 of its approximate standard error), otherwise the run aborts.
    """
    oracle = oracle or build_oracle(config)
    points = latin_hypercube(config.truth_train, config.space, config.seed + 101)
    values = oracle.evaluate_batch(points)
    xi = to_standard(points, config.space)

    models = []
    risks = []
    for j in range(2):
        model = kriging_fit(xi, values[:, j])
        models.append(model)
        risks.append(kriging_risk(model, config.quantile,
                                  config.truth_surrogate_samples, config.seed))

    mc = mc_estimate(oracle, config.space, config.truth_check_samples,
                     config.seed + 707, config.quantile)
    check = {"n_check": config.truth_check_samples, "qois": {}}
    for j, name in enumerate(QOI_NAMES):
        # Floor keeps the check meaningful when the output is (numerically)
        # constant and the standard errors collapse to zero.
        floor = 1e-9 * max(1.0, abs(mc.risk[j].mean))
        mean_tol = 3 * mc.mean_standard_error[j] + floor
        std_tol = 3 * mc.risk[j].std_dev / math.sqrt(2.0 * (mc.n - 1)) + floor
        mean_gap = abs(risks[j].mean - mc.risk[j].mean)
        std_gap = abs(risks[j].std_dev - mc.risk[j].std_dev)
        check["qois"][name] = {
            "mc_mean": mc.risk[j].mean, "mc_std": mc.risk[j].std_dev,
            "mean_gap": mean_gap, "mean_tol": mean_tol,
            "std_gap": std_gap, "std_tol": std_tol,
        }
        if mean_gap > mean_tol or std_gap > std_tol:
            raise RuntimeError(
                f"ground-truth fidelity check failed for {name}: surrogate and "
                f"direct MC disagree beyond 3 standard errors "
                f"(mean gap {mean_gap:.3g} vs {mean_tol:.3g}, "
                f"std gap {std_gap:.3g} vs {std_tol:.3g}); "
                "increase the ground-truth training budget"
            )
    return GroundTruth(risk=(risks[0], risks[1]), models=(models[0], models[1]),
                       n_train=config.truth_train, seed=config.seed, check=check)


# ---------------------------------------------------------------------------
# per-method estimators at a given budget


def _nipc_degree(budget: int, d: int, max_degree: int = 6) -> int:
    best = 0
    for p in range(1, max_degree + 1):
        if 2 * math.comb(d + p, p) <= budget:
            best = p
    return best


def _run_nipc(counting, config, budget):
    d = config.space.dimension
    p = _nipc_degree(budget, d)
    if p < 1:
        raise ValueError(f"budget {budget} cannot support a degree-1 chaos fit in d={d}")
    points = latin_hypercube(budget, config.space, config.seed + budget)
    values = counting.evaluate_batch(points)
    xi = to_standard(points, config.space)
    out = {}
    for j, name in enumerate(QOI_NAMES):
        surrogate = fit_regression(xi, values[:, j], p, config.space)
        mean, std = pce_moments(surrogate)
        q = pce_quantile(surrogate, config.quantile,
                         config.surrogate_samples, config.seed)
        out[name] = RiskMeasures(mean, std, q)
    return out


def _run_kriging(counting, config, budget):
    points = latin_hypercube(budget, config.space, config.seed + budget)
    values = counting.evaluate_batch(points)
    xi = to_standard(points, config.space)
    out = {}
    for j, name in enumerate(QOI_NAMES):
        model = kriging_fit(xi, values[:, j])
        out[name] = kriging_risk(model, config.quantile,
                                 config.surrogate_samples, config.seed)
    return out


def _run_mc(counting, config, budget):
    result = mc_estimate(counting, config.space, budget,
                         config.seed + budget, config.quantile)
    return dict(zip(QOI_NAMES, result.risk))


def _udr_k(budget: int, d: int) -> int:
    return min(max((budget - 1) // d, 1), 20)


def _gudr_k(budget: int, d: int) -> int:
    # 2k+1 interpolation conditions per slice; cap keeps the Hermite
    # interpolant inside KroghInterpolator's numerically stable range.
    return min(max((budget - 1) // (2 * d), 1), 14)


def _run_dr(build, k_rule, counting, config, budget):
    """UDR or GUDR: ``build`` with k = k_rule(budget, d) slice nodes per input."""
    approxes = build(counting, config.space, k_rule(budget, config.space.dimension))
    out = {}
    for name, approx in zip(QOI_NAMES, approxes):
        mean, std = dr_moments(approx)
        q = dr_quantile(approx, config.quantile,
                        config.surrogate_samples, config.seed)
        out[name] = RiskMeasures(mean, std, q)
    return out


# The DR builds are named inside the lambdas, so each call looks them up on
# this module and sees any wrapper installed there (the benchmark's tracer).
_RUNNERS = {
    "nipc": _run_nipc,
    "kriging": _run_kriging,
    "mc": _run_mc,
    "udr": lambda *args: _run_dr(udr_build, _udr_k, *args),
    "gudr": lambda *args: _run_dr(gudr_build, _gudr_k, *args),
}


# ---------------------------------------------------------------------------
# convergence study


@dataclass(frozen=True)
class ConvergenceRecord:
    method: str
    qoi: str
    measure: str
    budget: int  # actual oracle-evaluation count, gradients counted once each
    estimate: float
    rel_error: float
    wall_time_s: float
    status: str  # "ok" or "failed"


def run_convergence(config: StudyConfig, truth: GroundTruth | None = None,
                    oracle=None) -> list[ConvergenceRecord]:
    """Sweep every configured method over the budget grid against ground truth.

    A method failure at one budget yields records flagged "failed" and a
    logged warning naming its cause; the sweep continues. Reported budgets
    are the wrapped oracle's exact invocation counts. A ground-truth
    measure of 0 leaves relative errors undefined and raises ValueError
    before the sweep starts.
    """
    oracle = oracle or build_oracle(config)
    truth = truth or run_ground_truth(config, oracle)
    truth_by_qoi = dict(zip(QOI_NAMES, truth.risk))
    for qoi, risk in truth_by_qoi.items():
        for measure in MEASURES:
            if getattr(risk, measure) == 0.0:
                raise ValueError(f"ground truth for {qoi} has {measure} = 0, so "
                                 "relative errors against it are undefined")

    records = []
    for method in config.methods:
        runner = _RUNNERS[method]
        for budget in config.budgets:
            counting = CountingOracle(oracle)
            start = time.perf_counter()
            try:
                estimates = runner(counting, config, budget)
                status = "ok"
            except Exception as exc:
                _log.warning("method %s failed at budget %d: %s: %s",
                             method, budget, type(exc).__name__, exc)
                estimates = None
                status = "failed"
            elapsed = time.perf_counter() - start if config.timing else 0.0
            spent = counting.total_cost
            for qoi in QOI_NAMES:
                for measure in MEASURES:
                    if status == "ok":
                        est = getattr(estimates[qoi], measure)
                        ref = getattr(truth_by_qoi[qoi], measure)
                        rel = abs(est - ref) / abs(ref)
                    else:
                        est = math.nan
                        rel = math.nan
                    records.append(ConvergenceRecord(
                        method=method, qoi=qoi, measure=measure,
                        budget=spent, estimate=est, rel_error=rel,
                        wall_time_s=elapsed, status=status))
    return records


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_convergence_csv(records, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.method, r.qoi, r.measure, r.budget,
                             _fmt(r.estimate), _fmt(r.rel_error),
                             _fmt(r.wall_time_s), r.status])


def write_convergence_json(records, path) -> None:
    with open(path, "w") as f:
        json.dump([{
            "method": r.method, "qoi": r.qoi, "measure": r.measure,
            "budget": r.budget, "estimate": r.estimate,
            "rel_error": r.rel_error, "wall_time_s": r.wall_time_s,
            "status": r.status,
        } for r in records], f, indent=2)


# ---------------------------------------------------------------------------
# PDF export


def export_pdf_data(model: KrigingModel, n_samples: int = 10**6, bins: int = 100,
                    seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Density-normalized histogram of the surrogate's output distribution.

    Returns (bin_centers, densities); the densities integrate to one over
    the sampled range.
    """
    rng = substream(seed, "pdf")
    d = model.train_points.shape[1]
    xi = rng.random((n_samples, d)) * 2.0 - 1.0
    samples = model.predict(xi)
    lo, hi = samples.min(), samples.max()
    if hi == lo:  # constant model: one occupied bin
        hi = lo + max(abs(lo), 1.0) * 1e-12
    densities, edges = np.histogram(samples, bins=bins, range=(lo, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, densities


def write_pdf_csv(centers, densities, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bin_center", "density"])
        for c, dens in zip(centers, densities):
            writer.writerow([_fmt(c), _fmt(dens)])
