"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "protocol": wl.Protocol(truth_train=40, truth_surrogate_samples=20_000,
                            truth_check_samples=2_000, surrogate_samples=10_000,
                            budgets=(8, 64, 128)),
    "fits": wl.Fits(truth_train=40, budgets=(8, 16)),
    "mc-direct": wl.MCDirect(n=2_000),
}
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A working directory laid out like a checkout, with the sources linked in."""
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv, workloads=TINY, setup_repeats=1)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def test_run_length_defaults_to_benchmark_json():
    assert run.parse_args(["--workload", "fits"]).seconds == SPEC["run_seconds"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_reports_every_metric(checkout, name, trace):
    code, result = _run(["--workload", name, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    results_file = checkout / ".bench_out" / "results" / f"{name}-seed3-trace{trace}.json"
    record = json.loads(results_file.read_text())
    assert record["environment"]["blas_threads"] == run.BLAS_THREADS


def test_traced_protocol_layers_are_exercised(checkout):
    _, result = _run(["--workload", "protocol", "--seconds", "0.1", "--trace", "1"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("kriging.predict.pair_evals", "harness.cells", "harness.duplicate_cells",
                 "harness.method.gudr.s", "gust.gradient.calls", "montecarlo.estimate.points"):
        assert metrics[name] > 0, name
    assert metrics["harness.sampling.distinct_clouds"] < metrics["harness.sampling.clouds"]


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fits"]) != 0
    assert capsys.readouterr().out == ""


def _bindings():
    import gustuq
    from gustuq import core, gust, harness, kriging
    return {
        "harness.kriging_fit": harness.kriging_fit, "kriging.kriging_fit": kriging.kriging_fit,
        "gustuq.kriging_fit": gustuq.kriging_fit, "kriging.nearest_rank_quantile":
            kriging.nearest_rank_quantile, "core.substream": core.substream,
        "harness.substream": harness.substream,
        "GustOracle.evaluate": gust.GustOracle.__dict__["evaluate"],
        "wl.kriging_predict": wl.kriging.kriging_predict,
    }


def test_install_wraps_every_import_site_and_remove_restores():
    before = _bindings()
    undo = spans.install(spans.Tracer())
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert during["harness.kriging_fit"] is during["kriging.kriging_fit"]
    finally:
        spans.remove(undo)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_install_fails_loudly_on_a_missing_name(monkeypatch):
    before = _bindings()
    monkeypatch.setattr(spans, "WRAPS", spans.WRAPS + (
        ("kriging.gone", "gustuq.kriging", "no_such_function", None),))
    with pytest.raises(RuntimeError, match="no_such_function"):
        spans.install(spans.Tracer())
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_batch_calls_inside_evaluate_are_not_counted_as_batched():
    from gustuq import harness
    oracle = harness.build_oracle(harness.StudyConfig())
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        oracle.evaluate(oracle.space.midpoint)
        oracle.evaluate_batch(oracle.space.lower[None, :])
    finally:
        spans.remove(undo)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["gust.evaluate.calls"] == 1
    assert metrics["gust.evaluate_batch.calls"] == 1
    assert metrics["gust.evaluate_batch.points"] == 1
    assert spans.oracle_cost(tracer.spans) == 2


def test_self_time_of_a_synthetic_span_tree():
    S = spans.Span
    tree = [S("root", None, 0.0, 10.0), S("a", 0, 1.0, 4.0), S("b", 0, 5.0, 6.0),
            S("a.child", 1, 2.0, 3.0)]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    # Overlapping children are covered once.
    overlap = [S("root", None, 0.0, 10.0), S("x", 0, 1.0, 4.0), S("y", 0, 3.0, 5.0)]
    assert spans.self_times(overlap)[0] == pytest.approx(6.0)
    metrics = spans.layer_metrics([S("dimred.build", None, 0.0, 2.0),
                                   S("gust.evaluate", 0, 0.5, 1.0),
                                   S("gust.gradient", 0, 1.0, 1.75)])
    assert metrics["dimred.build.self_s"] == pytest.approx(0.75)
    assert metrics["dimred.build.oracle_calls"] == 2


def test_checker_rejects_a_perturbed_estimate():
    reference = {"kriging.8.q.mean.estimate": 1.25, "kriging.8.q.p95.p95": 2.5,
                 "kriging.8.q.mean.budget": 8, "kriging.8.q.mean.status": "ok"}

    def failed(values):
        return [c["name"] for c in wl.compare_reference(reference, values) if not c["ok"]]

    assert failed(dict(reference)) == []
    perturbed = dict(reference, **{"kriging.8.q.mean.estimate": 1.25 * (1 + 1e-7)})
    assert "reference.kriging.8.q.mean.estimate" in failed(perturbed)
    # The p95 tolerance is looser, but not unbounded.
    assert failed(dict(reference, **{"kriging.8.q.p95.p95": 2.5 * (1 + 1e-8)})) == []
    assert failed(dict(reference, **{"kriging.8.q.p95.p95": 2.5 * (1 + 1e-5)})) != []
    assert failed(dict(reference, **{"kriging.8.q.mean.budget": 9})) != []
    assert failed({k: v for k, v in reference.items() if "status" not in k}) != []


def test_energy_allowance_fails_once_batch_is_bit_identical():
    import numpy as np
    from gustuq.core import QoIRecord

    class ExactOracle:
        """Batch and single evaluation agree bit for bit; linear in V_p."""

        def evaluate_batch(self, points):
            return np.column_stack([points[:, 2], points[:, 2] ** 2])

        def evaluate(self, x):
            return QoIRecord(*self.evaluate_batch(np.asarray(x)[None, :])[0])

    points = np.array([[20.0, 5.0, 6.0], [25.0, 8.0, 9.0]])
    failed = {c["name"]: c["detail"] for c in wl.oracle_checks(ExactOracle(), points)
              if not c["ok"]}
    assert list(failed) == ["oracle.batch_equals_evaluate.avg_strain_energy"]
    assert "make this check strict" in failed["oracle.batch_equals_evaluate.avg_strain_energy"]


def test_budget_rules_match_the_protocol():
    from gustuq import harness
    d = 3
    assert [wl.oracle_cost("udr", b, d) for b in wl.BUDGETS] == [7, 16, 31, 61, 61, 61]
    assert [wl.oracle_cost("gudr", b, d) for b in wl.BUDGETS] == [7, 13, 31, 61, 85, 85]
    assert [wl.nipc_degree(b, d) for b in wl.BUDGETS] == [
        harness._nipc_degree(b, d) for b in wl.BUDGETS]


def test_protocol_master_seeds_skip_rejected_ones():
    assert [wl.protocol_master_seed(s) for s in range(4)] == [0, 1, 2, 3]
    assert wl.protocol_master_seed(len(wl.TRUTH_SEED_POOL)) == 0
    assert not {wl.protocol_master_seed(s) for s in range(1000)} & wl.TRUTH_REJECTED_SEEDS


@pytest.mark.parametrize("seed", sorted(wl.TRUTH_REJECTED_SEEDS))
def test_listed_master_seeds_are_still_rejected(seed):
    """A listed seed the program now accepts means the pool is stale."""
    from gustuq import harness
    p = wl.Protocol()
    config = harness.StudyConfig(seed=seed, truth_train=p.truth_train,
                                 truth_surrogate_samples=p.truth_surrogate_samples,
                                 truth_check_samples=p.truth_check_samples)
    with pytest.raises(RuntimeError, match="ground-truth fidelity check failed"):
        harness.run_ground_truth(config)
