"""The benchmark's workloads: ``protocol``, ``fits`` and ``mc-direct``.

Each workload makes its inputs from the seed in ``setup``, does one pass
of work in ``run`` and checks what the passes produced in ``checks``.
Library calls go through module attributes (``kriging.kriging_fit``) so
the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gustuq import cli, core, dimred, harness, kriging, montecarlo, pce

import spans

QOIS = core.QOI_NAMES
MEASURES = ("mean", "std_dev", "p95")
METHODS = ("nipc", "kriging", "mc", "udr", "gudr")
BUDGETS = (8, 16, 32, 64, 128, 256)  # the paper's budget grid

# Mean and standard deviation average N sample perturbations, which
# cancel; the nearest-rank p95 is a single order statistic and moves by
# the largest perturbation of any one sample, hence its looser tolerance.
ESTIMATE_RTOL = 1e-9
P95_RTOL = 1e-7
# Kriging with a 1e-10 nugget reproduces its training values to about
# 3e-7 of their largest magnitude on the benchmark's designs.
INTERPOLATION_RTOL = 1e-5
CHECK_POINTS = 16
# Known defect of GustOracle: the batch energy is a time mean summed in a
# batch-width-dependent order, so it differs from evaluate() by up to
# 10 ulp (measured over 2000 points); about 1 point in 5 is bit-identical.
KNOWN_ENERGY_ULPS = 16

# The program's ground-truth acceptance test (harness.run_ground_truth)
# compares four statistics with a direct Monte Carlo run at 3 standard
# errors, so it rejects a share of master seeds by design, and `converge`
# aborts on them.  At the protocol's sample counts that share is about 1 in
# 100: 3 sigma on four statistics, the surrogate's own sampling noise, and
# a strain-energy std tolerance that assumes normal data (its kurtosis is
# 3.4).  The protocol workload therefore runs the n-th master seed, modulo
# the pool, among 0..255 that the test accepts at these sizes; the
# cross-check still runs and is checked on every pass, and a test asserts
# that each listed seed is still rejected.
TRUTH_REJECTED_SEEDS = frozenset({85})
TRUTH_SEED_POOL = tuple(s for s in range(256) if s not in TRUTH_REJECTED_SEEDS)


def protocol_master_seed(seed: int) -> int:
    return TRUTH_SEED_POOL[seed % len(TRUTH_SEED_POOL)]


# ---------------------------------------------------------------------------
# the protocol's budget rules, stated independently of the harness


def udr_k(budget: int, d: int) -> int:
    return min(max((budget - 1) // d, 1), 20)


def gudr_k(budget: int, d: int) -> int:
    return min(max((budget - 1) // (2 * d), 1), 14)


def nipc_degree(budget: int, d: int, max_degree: int = 6) -> int:
    return max((p for p in range(1, max_degree + 1) if 2 * math.comb(d + p, p) <= budget),
               default=0)


def oracle_cost(method: str, budget: int, d: int) -> int:
    """Exact oracle work of one sweep cell; a gradient counts as one evaluation."""
    if method == "udr":
        return d * udr_k(budget, d) + 1
    if method == "gudr":
        return 2 * d * gudr_k(budget, d) + 1
    return budget


# ---------------------------------------------------------------------------
# shared checks


def add_check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def oracle_checks(oracle, points: np.ndarray) -> list:
    """Batch against one-at-a-time evaluation, and linearity in V_p.

    GustOracle documents batch results as bit-identical to evaluate().
    The displacement check is strict.  The energy check passes only while
    the known defect is present and within KNOWN_ENERGY_ULPS, so that the
    allowance fails, rather than outlives the fix, once gust.py sums in a
    fixed order; the check must then become strict.
    """
    checks = []
    batch = oracle.evaluate_batch(points)
    single = np.array([oracle.evaluate(x).as_array() for x in points])
    add_check(checks, "oracle.batch_equals_evaluate.max_tip_displacement",
           np.array_equal(batch[:, 0], single[:, 0]), "bit-identical")
    ulps = float(np.max(np.abs(batch[:, 1] - single[:, 1]) / np.spacing(np.abs(single[:, 1]))))
    add_check(checks, "oracle.batch_equals_evaluate.avg_strain_energy",
           0 < ulps <= KNOWN_ENERGY_ULPS,
           f"max {ulps:g} ulp from evaluate(); the known defect is allowed up to "
           f"{KNOWN_ENERGY_ULPS} ulp"
           + ("; now bit-identical, so make this check strict" if ulps == 0 else ""))
    base = points.copy()
    base[:, 2] = 5.0 + (points[:, 2] - 5.0) / 4.0  # V_p in [5, 7.5]
    doubled = base.copy()
    doubled[:, 2] *= 2.0
    a, b = oracle.evaluate_batch(base), oracle.evaluate_batch(doubled)
    add_check(checks, "oracle.linear_in_vp",
           np.allclose(b[:, 0], 2.0 * a[:, 0], rtol=1e-12, atol=0.0)
           and np.allclose(b[:, 1], 4.0 * a[:, 1], rtol=1e-12, atol=0.0),
           "displacement x2 and energy x4 when V_p doubles")
    return checks


def interpolation_check(checks: list, label: str, model) -> None:
    resid = np.max(np.abs(kriging.kriging_predict(model, model.train_points) - model.train_values))
    scale = np.max(np.abs(model.train_values))
    add_check(checks, f"kriging.interpolates.{label}", resid <= INTERPOLATION_RTOL * scale,
           f"max residual {resid:.3g} vs {INTERPOLATION_RTOL:g} x {scale:.3g}")


def compare_reference(reference: dict, values: dict) -> list:
    """Checks of ``values`` against stored reference values of the same keys."""
    checks = []
    missing = sorted(set(reference) ^ set(values))
    add_check(checks, "reference.keys", not missing, f"differing keys {missing[:5]}")
    for key in sorted(set(reference) & set(values)):
        ref, got = reference[key], values[key]
        if isinstance(ref, float):
            rtol = P95_RTOL if key.endswith(".p95") else ESTIMATE_RTOL
            ok = math.isclose(got, ref, rel_tol=rtol, abs_tol=0.0)
            detail = f"{got!r} vs {ref!r} (rtol {rtol:g})"
        else:
            ok = got == ref
            detail = f"{got!r} vs {ref!r}"
        if not ok:
            add_check(checks, f"reference.{key}", False, detail)
    add_check(checks, "reference.values", all(c["ok"] for c in checks),
           f"{len(reference)} values compared")
    return checks


@dataclass
class Inputs:
    seed: int
    config: harness.StudyConfig
    oracle: object
    check_points: np.ndarray
    data: dict


def _inputs(seed: int, config: harness.StudyConfig, **data) -> Inputs:
    oracle = harness.build_oracle(config)
    points = core.uniform_physical_samples(CHECK_POINTS, config.space, seed, "bench-check")
    return Inputs(seed, config, oracle, points, data)


class Workload:
    """One workload: ``setup(seed, workdir)`` makes the inputs, ``run(inputs, out)``
    does one pass, ``values`` flattens a pass's outputs for the reference,
    ``checks`` tests the passes and ``expected_oracle_cost`` states the
    oracle work of set-up plus one pass."""

    name: str
    required_layers: tuple[str, ...]

    def params(self) -> dict:
        return json.loads(json.dumps(dataclasses.asdict(self)))

    def operations(self, inputs, output) -> tuple[int, int]:
        """(attempted, failed) operations of one pass."""
        raise NotImplementedError

    def fingerprint(self, inputs, output):
        """What must be identical between passes of one seed."""
        return self.values(inputs, output)

    def output_metrics(self, inputs, output) -> dict:
        return {}

    def attribute(self, inputs, output, tracer):
        """Extra traced stages after the passes: (metrics, checks)."""
        return {}, []


# ---------------------------------------------------------------------------
# protocol: the user's end-to-end command


@dataclass(frozen=True)
class Protocol(Workload):
    """``gustuq converge`` with all five methods over the paper's budget grid."""

    name = "protocol"
    required_layers = (
        "cli.main", "harness.truth", "harness.sweep", "harness.write",
        "gust.evaluate", "gust.evaluate_batch", "gust.gradient", "gust.newmark_response",
        "kriging.fit", "kriging.predict", "kriging.risk", "pce.fit_regression",
        "pce.predict", "pce.quantile", "dimred.build", "dimred.eval", "dimred.quantile",
        "montecarlo.estimate", "core.quantile", "core.latin_hypercube", "core.substream")

    truth_train: int = 500
    truth_surrogate_samples: int = 20_000
    truth_check_samples: int = 2_000
    surrogate_samples: int = 10_000
    budgets: tuple[int, ...] = BUDGETS

    def setup(self, seed: int, workdir: Path) -> Inputs:
        seed = protocol_master_seed(seed)
        doc = {"seed": seed, "methods": list(METHODS), "budgets": list(self.budgets),
               "truth_train": self.truth_train,
               "truth_surrogate_samples": self.truth_surrogate_samples,
               "truth_check_samples": self.truth_check_samples,
               "surrogate_samples": self.surrogate_samples}
        path = workdir / "config.json"
        path.write_text(json.dumps(doc))
        return _inputs(seed, harness.StudyConfig.from_json_file(path), config_path=path)

    def run(self, inputs: Inputs, out: Path) -> dict:
        argv = ["converge", "--config", str(inputs.data["config_path"]), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gustuq converge exited with {code}")
        return {name: (out / name).read_bytes()
                for name in ("convergence.csv", "truth.json", "truth_surrogate.json")}

    def fingerprint(self, inputs, output):
        return output

    def _cells(self, inputs, output) -> list[tuple[str, int, list[dict]]]:
        """Rows grouped by sweep cell, with each cell's method and nominal budget."""
        rows = list(csv.DictReader(io.StringIO(output["convergence.csv"].decode())))
        per_cell = len(QOIS) * len(MEASURES)
        config = inputs.config
        nominal = [(m, b) for m in config.methods for b in config.budgets]
        if len(rows) != per_cell * len(nominal):
            raise ValueError(f"{len(rows)} rows for {len(nominal)} cells")
        return [(m, b, rows[i * per_cell:(i + 1) * per_cell]) for i, (m, b) in enumerate(nominal)]

    def operations(self, inputs, output) -> tuple[int, int]:
        cells = self._cells(inputs, output)
        failed = sum(1 for _, _, rows in cells if any(r["status"] != "ok" for r in rows))
        return 1 + len(cells), failed

    def values(self, inputs, output) -> dict:
        truth = json.loads(output["truth.json"])
        values = {f"truth.{q}.{m}": truth["risk"][q][m] for q in QOIS for m in MEASURES}
        for method, budget, rows in self._cells(inputs, output):
            for r in rows:
                key = f"{method}.{budget}.{r['qoi']}.{r['measure']}"
                values[key + ".budget"] = int(r["budget"])
                values[key + ".status"] = r["status"]
                # The key suffix selects the comparison tolerance.
                values[key + (".p95" if r["measure"] == "p95" else ".estimate")] = float(
                    r["estimate"])
        return values

    def output_metrics(self, inputs, output) -> dict:
        seen, duplicates = set(), 0
        cells = self._cells(inputs, output)
        for method, _, rows in cells:
            # A capped UDR/GUDR cell repeats the previous cell's work exactly.
            key = (method, rows[0]["budget"])
            duplicates += key in seen
            seen.add(key)
        return {"harness.cells": len(cells), "harness.duplicate_cells": duplicates}

    def checks(self, inputs: Inputs, outputs: list, reference: dict | None) -> list:
        checks = []
        output = outputs[0]
        truth = json.loads(output["truth.json"])
        for q, c in truth["cross_check"]["qois"].items():
            add_check(checks, f"truth.cross_check.{q}",
                   c["mean_gap"] <= c["mean_tol"] and c["std_gap"] <= c["std_tol"],
                   f"mean gap {c['mean_gap']:.3g}/{c['mean_tol']:.3g}, "
                   f"std gap {c['std_gap']:.3g}/{c['std_tol']:.3g}")
        d = inputs.config.space.dimension
        for method, budget, rows in self._cells(inputs, output):
            want = oracle_cost(method, budget, d)
            got = {int(r["budget"]) for r in rows}
            add_check(checks, f"budget.{method}.{budget}", got == {want},
                   f"reported {sorted(got)}, oracle count of the method {want}")
            bad = [r for r in rows if r["status"] == "ok" and not math.isclose(
                float(r["rel_error"]),
                abs(float(r["estimate"]) - truth["risk"][r["qoi"]][r["measure"]])
                / abs(truth["risk"][r["qoi"]][r["measure"]]), rel_tol=1e-12, abs_tol=1e-300)]
            add_check(checks, f"rel_error.{method}.{budget}", not bad,
                   f"{len(bad)} rows disagree with |estimate - truth| / |truth|")
        models = json.loads(output["truth_surrogate.json"])
        for q in QOIS:
            interpolation_check(checks, f"truth.{q}",
                                kriging.KrigingModel.from_json(json.dumps(models[q])))
        return checks + oracle_checks(inputs.oracle, inputs.check_points)

    def expected_oracle_cost(self, inputs: Inputs, output) -> int:
        d = inputs.config.space.dimension
        return (self.truth_train + self.truth_check_samples
                + sum(oracle_cost(m, b, d) for m, b, _ in self._cells(inputs, output)))

    def attribute(self, inputs: Inputs, output, tracer):
        """Re-run the sweep one method at a time against the pass's truth.

        Cells are independent, so the per-method rows must equal the rows
        of the single full sweep.
        """
        truth_doc = json.loads(output["truth.json"])
        models = json.loads(output["truth_surrogate.json"])
        truth = harness.GroundTruth(
            risk=tuple(core.RiskMeasures(**truth_doc["risk"][q]) for q in QOIS),
            models=tuple(kriging.KrigingModel.from_json(json.dumps(models[q])) for q in QOIS),
            n_train=truth_doc["n_train"], seed=truth_doc["seed"],
            check=truth_doc["cross_check"])
        oracle = harness.build_oracle(inputs.config)
        metrics, checks, records = {}, [], []
        d = inputs.config.space.dimension
        for method in METHODS:
            config = dataclasses.replace(inputs.config, methods=(method,))
            first = len(tracer.spans)
            with tracer.stage(f"harness.method.{method}") as span:
                part = harness.run_convergence(config, truth, oracle)
            metrics[f"harness.method.{method}.s"] = span.duration
            want = sum(oracle_cost(method, b, d) for b in config.budgets)
            got = spans.oracle_cost(tracer.spans[first:])
            add_check(checks, f"traced.oracle_count.{method}", got == want,
                   f"traced oracle work {got}, sum of reported budgets {want}")
            records.extend(part)
        path = Path(inputs.data["config_path"]).with_name("per_method.csv")
        harness.write_convergence_csv(records, path)
        add_check(checks, "traced.per_method_rows_equal_sweep",
               path.read_bytes() == output["convergence.csv"],
               "per-method sweeps vs the single full sweep")
        return metrics, checks


# ---------------------------------------------------------------------------
# fits: every surrogate the sweep builds, moments only


@dataclass(frozen=True)
class Fits(Workload):
    """Kriging MLE, PCE least squares and UDR/GUDR assembly without sampling."""

    name = "fits"
    required_layers = ("kriging.fit", "pce.fit_regression", "dimred.build", "gust.evaluate",
                       "gust.gradient", "gust.evaluate_batch", "gust.newmark_response",
                       "core.latin_hypercube", "core.substream")

    truth_train: int = 500
    budgets: tuple[int, ...] = BUDGETS

    def setup(self, seed: int, workdir: Path) -> Inputs:
        config = harness.StudyConfig(seed=seed, budgets=self.budgets,
                                     truth_train=self.truth_train)
        inputs = _inputs(seed, config)
        # The sweep's designs: budget b uses seed + b, the truth seed + 101.
        designs = []
        for label, n, design_seed in ([(str(b), b, seed + b) for b in self.budgets]
                                      + [("truth", self.truth_train, seed + 101)]):
            points = core.latin_hypercube(n, config.space, design_seed)
            designs.append((label, core.to_standard(points, config.space),
                            inputs.oracle.evaluate_batch(points)))
        inputs.data["designs"] = designs
        return inputs

    def run(self, inputs: Inputs, out: Path) -> dict:
        space = inputs.config.space
        d = space.dimension
        models, moments, costs = {}, {}, {}
        for label, xi, values in inputs.data["designs"]:
            for j, q in enumerate(QOIS):
                models[f"{label}.{q}"] = kriging.kriging_fit(xi, values[:, j])
                if label != "truth":
                    surrogate = pce.fit_regression(xi, values[:, j],
                                                   nipc_degree(int(label), d), space)
                    moments[f"nipc.{label}.{q}"] = pce.pce_moments(surrogate)
        for method, build, k_rule in (("udr", dimred.udr_build, udr_k),
                                      ("gudr", dimred.gudr_build, gudr_k)):
            for b in self.budgets:
                counting = core.CountingOracle(inputs.oracle)
                approxes = build(counting, space, k_rule(b, d))
                costs[f"{method}.{b}"] = counting.total_cost
                for q, approx in zip(QOIS, approxes):
                    moments[f"{method}.{b}.{q}"] = dimred.dr_moments(approx)
        return {"models": models, "moments": moments, "costs": costs}

    def operations(self, inputs, output) -> tuple[int, int]:
        return len(output["models"]) + len(output["moments"]), 0

    def values(self, inputs, output) -> dict:
        values = {}
        for key, model in output["models"].items():
            for i, theta in enumerate(model.lengthscales):
                values[f"kriging.{key}.theta{i}"] = float(theta)
            values[f"kriging.{key}.trend"] = model.trend
            values[f"kriging.{key}.process_variance"] = model.process_variance
            values[f"kriging.{key}.nugget"] = model.nugget
        for key, (mean, std) in output["moments"].items():
            values[f"{key}.mean"] = mean
            values[f"{key}.std_dev"] = std
        for key, cost in output["costs"].items():
            values[f"{key}.budget"] = cost
        return values

    def checks(self, inputs: Inputs, outputs: list, reference: dict | None) -> list:
        checks = []
        output = outputs[0]
        d = inputs.config.space.dimension
        for key, cost in output["costs"].items():
            method, b = key.split(".")
            want = oracle_cost(method, int(b), d)
            add_check(checks, f"budget.{key}", cost == want,
                   f"counted {cost}, oracle count of the method {want}")
        for key, (mean, std) in output["moments"].items():
            add_check(checks, f"moments.{key}", math.isfinite(mean) and std > 0,
                   f"mean {mean!r}, std {std!r}")
        for key, model in output["models"].items():
            interpolation_check(checks, key, model)
        return checks + oracle_checks(inputs.oracle, inputs.check_points)

    def expected_oracle_cost(self, inputs: Inputs, output) -> int:
        return (sum(len(xi) for _, xi, _ in inputs.data["designs"])
                + sum(output["costs"].values()))


# ---------------------------------------------------------------------------
# mc-direct: one large batched Monte Carlo estimate


@dataclass(frozen=True)
class MCDirect(Workload):
    """A single ``mc_estimate``: the batched oracle plus a large sort."""

    name = "mc-direct"
    required_layers = ("montecarlo.estimate", "gust.evaluate_batch", "gust.newmark_response",
                       "core.quantile", "core.substream")

    n: int = 400_000

    def setup(self, seed: int, workdir: Path) -> Inputs:
        config = harness.StudyConfig(seed=seed)
        inputs = _inputs(seed, config)
        # The first points of the prefix-stable stream mc_estimate draws itself.
        inputs.check_points = core.uniform_physical_samples(CHECK_POINTS, config.space, seed, "mc")
        return inputs

    def run(self, inputs: Inputs, out: Path):
        return montecarlo.mc_estimate(inputs.oracle, inputs.config.space, self.n,
                                      inputs.seed, inputs.config.quantile)

    def operations(self, inputs, output) -> tuple[int, int]:
        return 1, 0

    def values(self, inputs, output) -> dict:
        values = {}
        for q, risk, se in zip(QOIS, output.risk, output.mean_standard_error):
            values[f"mc.{q}.mean"] = risk.mean
            values[f"mc.{q}.std_dev"] = risk.std_dev
            values[f"mc.{q}.p95"] = risk.p95
            values[f"mc.{q}.mean_se"] = float(se)
        return values

    def checks(self, inputs: Inputs, outputs: list, reference: dict | None) -> list:
        checks = []
        values = self.values(inputs, outputs[0])
        for q in QOIS:
            mean, std, se = (values[f"mc.{q}.{m}"] for m in ("mean", "std_dev", "mean_se"))
            add_check(checks, f"mc.{q}.standard_error", math.isclose(se, std / math.sqrt(self.n),
                                                                  rel_tol=1e-12),
                   f"{se!r} vs std/sqrt(n)")
            if reference is not None:
                # Independent seeds: the two means differ by sampling error only.
                ref_mean, ref_se = reference[f"mc.{q}.mean"], reference[f"mc.{q}.mean_se"]
                bound = 5.0 * math.hypot(se, ref_se)
                add_check(checks, f"mc.{q}.mean_agrees_with_reference",
                       abs(mean - ref_mean) <= bound,
                       f"|{mean:.6g} - {ref_mean:.6g}| vs 5 sigma {bound:.3g}")
        return checks + oracle_checks(inputs.oracle, inputs.check_points)

    def expected_oracle_cost(self, inputs: Inputs, output) -> int:
        return self.n


WORKLOADS = {w.name: w for w in (Protocol(), Fits(), MCDirect())}
