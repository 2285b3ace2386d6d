"""Benchmark harness: ground truth, convergence sweeps, and PDF export.

Reproduces the experimental protocol: a kriging ground truth fit on 500
design points, per-method convergence records against evaluation
budgets, and density-normalized histograms of both outputs.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import numbers
import time
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

# substream stays bound here for the benchmark tracer's import-site tests.
from .core import (CountingOracle, InputSpace, QOI_NAMES, RiskMeasures,
                   UncertainInput, default_input_space, latin_hypercube,
                   sample_surrogate, substream, to_standard)
from .dimred import dr_moments, dr_quantile, gudr_build, udr_build
from .gust import GustOracle, SimulationConfig, WingModel
from .kriging import KrigingModel, check_design_size, kriging_fit, kriging_risk
from .montecarlo import mc_estimate
from .pce import MIN_QUANTILE_SAMPLES, OVERSAMPLING, fit_regression, pce_moments, pce_quantile

__all__ = [
    "StudyConfig",
    "GroundTruth",
    "TruthCheckError",
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

_COUNT_FIELDS = ("truth_train", "truth_surrogate_samples", "truth_check_samples",
                 "surrogate_samples", "bins")
_NIPC_MAX_DEGREE = 6

_log = logging.getLogger(__name__)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_keys(data, known, what: str) -> None:
    """Reject a non-object ``data`` or a key outside ``known``, naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {data!r}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; valid keys are {sorted(known)}")


def _field_kwargs(cls, data: dict, prefix: str = "") -> dict:
    """Keyword arguments for ``cls`` from the keys of ``data`` named after its fields.

    A ``float`` field takes a number (not a boolean) and a ``tuple`` field
    an array; anything else is a ValueError naming ``prefix + field``.
    """
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.type in (float, "float") and not _is_real(value):
            raise ValueError(f"{prefix}{f.name} must be a number, got {value!r}")
        if str(f.type).startswith("tuple"):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{prefix}{f.name} must be an array, got {value!r}")
            value = tuple(value)
        kwargs[f.name] = value
    return kwargs


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

    def __post_init__(self):
        for name in ("seed",) + _COUNT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:  # substream's SeedSequence takes non-negative entropy only
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("methods", "budgets"):
            if not getattr(self, name):  # an empty sweep would fit the truth for nothing
                raise ValueError(f"{name} must not be empty")
        if not all(map(_is_int, self.budgets)):
            raise ValueError(f"budgets must be integers, got {self.budgets}")
        if list(self.budgets) != sorted(set(self.budgets)):
            raise ValueError("budgets must be strictly increasing")
        if self.budgets[0] < 1:
            raise ValueError(f"budgets must be at least 1, got {self.budgets}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {self.quantile}")
        for name in _COUNT_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; pick from {METHODS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:  # a repeat would run the method again and write its rows twice
            raise ValueError(f"methods repeat {repeated}; name each method once")
        d = self.space.dimension
        for name, floor, need in (  # a floor of 0 belongs to a method not in the sweep
                ("truth_train", d + 2, f"the ground truth fits kriging in d = {d} inputs"),
                ("truth_surrogate_samples", 2, "the ground truth takes a sample std"),
                ("truth_check_samples", 2,
                 "the ground truth's Monte Carlo check takes a sample std"),
                ("surrogate_samples", MIN_QUANTILE_SAMPLES * ("nipc" in self.methods),
                 "method nipc samples its p95"),
                ("surrogate_samples", 2 * ("kriging" in self.methods),
                 "method kriging takes a sample std")):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} is {getattr(self, name)}; {need} "
                                 f"from at least {floor} points")

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        """A config from its JSON document: ``inputs`` gives ``space``, ``wing`` the
        ``WingModel`` fields, the ``SimulationConfig`` fields sit at top level, and
        every other field goes by its own name."""
        sim_keys = [f.name for f in fields(SimulationConfig)]
        _check_keys(data, ["inputs"] + sim_keys
                    + [f.name for f in fields(cls) if f.name not in ("space", "sim")], "config")
        kwargs = _field_kwargs(cls, data)  # its raw ``wing``, if any, is replaced below
        if "inputs" in data:
            if not isinstance(data["inputs"], (list, tuple)):
                raise ValueError(f"inputs must be an array, got {data['inputs']!r}")
            for i, entry in enumerate(data["inputs"]):
                if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                        and _is_real(entry[1]) and _is_real(entry[2])):
                    raise ValueError(f"inputs[{i}] must be [name, lower, upper], got {entry!r}")
            kwargs["space"] = InputSpace(tuple(
                UncertainInput(name, lo, hi) for name, lo, hi in data["inputs"]))
        if "wing" in data:
            _check_keys(data["wing"], [f.name for f in fields(WingModel)], "wing")
            kwargs["wing"] = WingModel(**_field_kwargs(WingModel, data["wing"], "wing."))
        sim = _field_kwargs(SimulationConfig, data)
        if sim:
            kwargs["sim"] = SimulationConfig(**sim)
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "StudyConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def build_oracle(config: StudyConfig) -> GustOracle:
    """The config's oracle; a ValueError names the input box unless it takes all of it.

    Each of the oracle's conditions is monotone in every input, so the box's corners decide.
    """
    oracle = GustOracle(wing=config.wing, config=config.sim,
                        air_density=config.air_density,
                        gust_onset_time=config.gust_onset_time,
                        space=config.space)
    corners = np.array(list(itertools.product(*zip(config.space.lower, config.space.upper))))
    try:
        oracle._check_oracle_points(corners, "at its corners")
    except ValueError as exc:
        box = ", ".join(f"{u.name} in [{u.lower:g}, {u.upper:g}]" for u in config.space.inputs)
        raise ValueError(f"the oracle cannot take every point of the input box {box}; "
                         f"{exc}") from None
    return oracle


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


class TruthCheckError(RuntimeError):
    """The ground-truth surrogates disagree with direct Monte Carlo."""


def run_ground_truth(config: StudyConfig, oracle=None) -> GroundTruth:
    """Fit the ground-truth kriging surrogates and verify them against direct MC.

    The surrogate risk measures must agree with a direct-oracle Monte
    Carlo run (mean within 3 standard errors of the MC mean, std within
    3 of its approximate standard error), otherwise a TruthCheckError
    names the first output that does not.
    """
    oracle = oracle or build_oracle(config)
    models, risks = _kriging(oracle, config, config.truth_train, config.seed + 101,
                             config.truth_surrogate_samples)
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
            raise TruthCheckError(
                f"ground-truth fidelity check failed for {name}: surrogate and "
                f"direct MC disagree beyond 3 standard errors "
                f"(mean gap {mean_gap:.3g} vs {mean_tol:.3g}, "
                f"std gap {std_gap:.3g} vs {std_tol:.3g}); "
                "increase the ground-truth training budget"
            )
    return GroundTruth(risk=risks, models=models,
                       n_train=config.truth_train, seed=config.seed, check=check)


# ---------------------------------------------------------------------------
# per-method estimators at a given budget


def _nipc_degree(budget: int, d: int) -> int:
    best = 0
    for p in range(1, _NIPC_MAX_DEGREE + 1):
        if OVERSAMPLING * math.comb(d + p, p) <= budget:
            best = p
    return best


def _design(oracle, space, n, seed):
    points = latin_hypercube(n, space, seed)
    return to_standard(points, space), oracle.evaluate_batch(points)


def _kriging(oracle, config, n, design_seed, n_samples):
    """The ground truth's and the kriging cells' path: (models, risks), one per QoI."""
    xi, values = _design(oracle, config.space, n, design_seed)
    models = tuple(kriging_fit(xi, column) for column in values.T)
    return models, tuple(kriging_risk(m, config.quantile, n_samples, config.seed) for m in models)


def _moments_and_p95(surrogates, moments, quantile, config):
    """Per QoI: (mean, std) by ``moments``, p95 by ``quantile``; ``surrogates`` read lazily."""
    return {name: RiskMeasures(*moments(surrogate),
                               quantile(surrogate, config.quantile,
                                        config.surrogate_samples, config.seed))
            for name, surrogate in zip(QOI_NAMES, surrogates)}


def _run_nipc(counting, config, budget):
    d = config.space.dimension
    p = _nipc_degree(budget, d)
    if p < 1:
        raise ValueError(f"budget {budget} cannot support a degree-1 chaos fit in d={d}")
    xi, values = _design(counting, config.space, budget, config.seed + budget)
    return _moments_and_p95((fit_regression(xi, column, p, config.space) for column in values.T),
                            pce_moments, pce_quantile, config)


def _run_kriging(counting, config, budget):
    check_design_size(budget, config.space.dimension)  # before the design spends the budget
    _, risks = _kriging(counting, config, budget, config.seed + budget,
                        config.surrogate_samples)
    return dict(zip(QOI_NAMES, risks))


def _run_mc(counting, config, budget):
    result = mc_estimate(counting, config.space, budget,
                         config.seed + budget, config.quantile)
    return dict(zip(QOI_NAMES, result.risk))


def _udr_k(budget: int, d: int) -> int:
    return min(max((budget - 1) // d, 1), 20)


def _gudr_k(budget: int, d: int) -> int:
    # 2k+1 interpolation conditions per slice (2k for odd k). The cap of 14
    # is the protocol's budget rule, kept so that budgets and outputs stay
    # as they are; the slice solve itself holds well past it.
    return min(max((budget - 1) // (2 * d), 1), 14)


def _run_dr(build, k_rule, counting, config, budget):
    """UDR or GUDR: ``build`` with k = k_rule(budget, d) slice nodes per input."""
    approxes = build(counting, config.space, k_rule(budget, config.space.dimension))
    return _moments_and_p95(approxes, dr_moments, dr_quantile, config)


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
    status: str  # "ok" or "failed"


CSV_COLUMNS = tuple(f.name for f in fields(ConvergenceRecord))


def run_convergence(config: StudyConfig, truth: GroundTruth | None = None,
                    oracle=None) -> list[ConvergenceRecord]:
    """Sweep every configured method over the budget grid against ground truth.

    A method failure at one budget yields records flagged "failed" and a
    logged warning naming its cause; the sweep continues. Each cell logs
    its method, budget, status, oracle cost and elapsed seconds at INFO.
    Reported budgets are the wrapped oracle's exact invocation counts. A ground-truth
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
            spent = counting.total_cost
            _log.info("method %s at budget %d: %s, oracle cost %d, %.3f s",
                      method, budget, status, spent, time.perf_counter() - start)
            for qoi in QOI_NAMES:
                for measure in MEASURES:
                    if status == "ok":
                        est = getattr(estimates[qoi], measure)
                        ref = getattr(truth_by_qoi[qoi], measure)
                        rel = abs(est - ref) / abs(ref)
                    else:
                        est = rel = math.nan
                    records.append(ConvergenceRecord(
                        method=method, qoi=qoi, measure=measure,
                        budget=spent, estimate=est, rel_error=rel, status=status))
    return records


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_convergence_csv(records, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_fmt(v) if isinstance(v, float) else v
                             for v in astuple(r)])


def write_convergence_json(records, path) -> None:
    """Records as standard JSON: non-finite numbers (a failed cell's NaN) become null."""
    rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in asdict(r).items()} for r in records]
    with open(path, "w") as f:
        json.dump(rows, f, indent=2)


# ---------------------------------------------------------------------------
# PDF export


def export_pdf_data(model: KrigingModel, n_samples: int = 10**6, bins: int = 100,
                    seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Density-normalized histogram of the surrogate's output distribution.

    Returns (bin_centers, densities); the densities integrate to one over
    the sampled range.
    """
    samples = sample_surrogate(model.predict, model.train_points.shape[1], n_samples,
                               seed, "pdf")
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
