import dataclasses
import json
import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gustuq import (CountingOracle, QoIRecord, RiskMeasures, StudyConfig, run_convergence,
                    run_ground_truth)
from gustuq import gust, harness
from gustuq.cli import main as cli_main
from gustuq.harness import (CSV_COLUMNS, TruthCheckError, build_oracle, export_pdf_data,
                            write_convergence_csv)
from gustuq.kriging import kriging_fit


SMALL = dict(truth_train=120, truth_surrogate_samples=10**5,
             truth_check_samples=2 * 10**4, surrogate_samples=2 * 10**4)


@pytest.fixture(scope="module")
def small_config():
    return StudyConfig(budgets=(8, 16, 32), **SMALL)


@pytest.fixture(scope="module")
def small_truth(small_config):
    return run_ground_truth(small_config)


def test_config_validates_budgets():
    with pytest.raises(ValueError, match="increasing"):
        StudyConfig(budgets=(16, 8))


def test_config_validates_methods():
    with pytest.raises(ValueError, match="unknown"):
        StudyConfig(methods=("nipc", "bogus"))


@pytest.mark.parametrize("methods", [("mc", "mc"), ("nipc", "mc", "udr", "mc")])
def test_config_rejects_a_repeated_method_by_name(methods):
    # a repeat would run the method twice and write each of its rows twice
    with pytest.raises(ValueError, match=re.escape("methods repeat ['mc']")):
        StudyConfig(methods=methods)
    with pytest.raises(ValueError, match=re.escape("methods repeat ['mc']")):
        StudyConfig.from_dict({"methods": list(methods)})


def test_cli_converge_rejects_a_repeated_method_as_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_truth(*args, **kwargs):
        raise AssertionError("the config must fail before the ground truth")

    monkeypatch.setattr("gustuq.cli.run_ground_truth", no_truth)
    with pytest.raises(SystemExit) as exc:
        cli_main(["converge", "--methods", "mc,mc", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "gustuq converge: error: invalid configuration: methods repeat ['mc']" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["methods", "budgets"])
def test_config_rejects_an_empty_sweep_by_name(name):
    with pytest.raises(ValueError, match=f"{name} must not be empty"):
        StudyConfig(**{name: ()})
    with pytest.raises(ValueError, match=f"{name} must not be empty"):
        StudyConfig.from_dict({name: []})


def test_config_from_dict_overrides():
    config = StudyConfig.from_dict({
        "inputs": [["a", 0.0, 1.0], ["b", 2.0, 3.0]],
        "wing": {"modal_mass": 10.0},
        "time_step": 0.02,
        "seed": 7,
        "budgets": [10, 20],
    })
    assert config.space.dimension == 2
    assert config.wing.modal_mass == 10.0
    assert config.sim.time_step == 0.02
    assert config.seed == 7
    assert config.budgets == (10, 20)


@pytest.mark.parametrize("entry, index", [(["a", 1], 0), ("abc", 1), (["a", 0, 1, 2], 1),
                                          (["a", "0", 1], 0)])
def test_config_from_dict_names_a_malformed_inputs_entry(entry, index):
    inputs = [["x", 0, 1], entry] if index else [entry]
    with pytest.raises(ValueError, match=re.escape(
            f"inputs[{index}] must be [name, lower, upper], got {entry!r}")):
        StudyConfig.from_dict({"inputs": inputs})


SWAPPED_INPUTS = [["peak_gust_velocity", 5, 15], ["gust_length", 4, 8],
                  ["freestream_velocity", 40, 60]]


def test_build_oracle_rejects_inputs_the_gust_oracle_would_misread():
    config = StudyConfig.from_dict({"inputs": SWAPPED_INPUTS})
    with pytest.raises(ValueError, match="peak_gust_velocity', 'gust_length', "
                                         "'freestream_velocity'"):
        build_oracle(config)


# Configs whose input box holds a point the oracle cannot take, with what the
# error says about the corner that shows it.
UNTAKEABLE_BOXES = [
    ({"inputs": [["freestream_velocity", 40, 60], ["gust_length", 4, 8],
                 ["peak_gust_velocity", -5, 15]]},
     "peak_gust_velocity = -5.0; it must be finite and non-negative"),
    ({"final_time": 0.2}, "has its gust window ending at 0.3 s; the time grid ends at 0.2 s"),
    ({"time_step": 0.1}, "has a gust window of 0.1 s, shorter than 2 time steps of 0.1 s"),
]
UNTAKEABLE_IDS = ["negative-peak-velocity", "short-final-time", "coarse-time-step"]


def _box_text(config):
    return "input box " + ", ".join(f"{u.name} in [{u.lower:g}, {u.upper:g}]"
                                    for u in config.space.inputs)


@pytest.mark.parametrize("doc, message", UNTAKEABLE_BOXES, ids=UNTAKEABLE_IDS)
def test_build_oracle_rejects_a_box_the_oracle_cannot_take(doc, message):
    config = StudyConfig.from_dict(doc)
    with pytest.raises(ValueError) as exc:
        build_oracle(config)
    assert _box_text(config) in str(exc.value)
    assert message in str(exc.value)


def test_build_oracle_accepts_a_box_whose_corners_the_oracle_takes():
    config = StudyConfig.from_dict({"inputs": [["freestream_velocity", 20, 60],
                                               ["gust_length", 4, 8],
                                               ["peak_gust_velocity", 0, 15]]})
    assert build_oracle(config).space == config.space


def test_other_inputs_still_run_against_a_test_oracle(constant_oracle):
    config = dataclasses.replace(StudyConfig.from_dict({"inputs": SWAPPED_INPUTS}), **SMALL)
    truth = run_ground_truth(config, oracle=constant_oracle)
    assert truth.risk[0].mean == pytest.approx(0.25, rel=1e-9)


def test_config_from_dict_names_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown config keys \['budget', 'quantlie'\];"):
        StudyConfig.from_dict({"budget": [8, 16], "seed": 1, "quantlie": 0.9})
    with pytest.raises(ValueError, match=r"unknown config keys \['timing'\];"):
        StudyConfig.from_dict({"timing": False})


# (document, the error it raises, which names the bad key)
MALFORMED_DOCS = [
    ({"wing": {"modal_mas": 1}}, r"unknown wing keys \['modal_mas'\]"),
    ({"budgets": 8}, "budgets must be an array, got 8"),
    ({"time_step": "a"}, "time_step must be a number, got 'a'"),
    ({"methods": "nipc"}, "methods must be an array, got 'nipc'"),
    ({"methods": [["nipc"]]}, r"unknown methods \[\['nipc'\]\]"),
    ({"wing": [1]}, r"wing must be an object, got \[1\]"),
    ({"wing": {"modal_mass": "50"}}, "wing.modal_mass must be a number, got '50'"),
    ({"quantile": True}, "quantile must be a number, got True"),
    ({"inputs": 3}, "inputs must be an array, got 3"),
    ([8], r"config must be an object, got \[8\]"),
    # the oracle integrates with average acceleration only (beta 1/4, gamma 1/2)
    ({"newmark_beta": 0.3}, r"unknown config keys \['newmark_beta'\]"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_DOCS,
                         ids=["wing-key", "budgets", "time_step", "methods", "methods-entry",
                              "wing", "wing.modal_mass", "quantile", "inputs", "config",
                              "newmark_beta"])
def test_config_from_dict_names_a_malformed_field(doc, message):
    with pytest.raises(ValueError, match=message):
        StudyConfig.from_dict(doc)


def test_config_keys_follow_the_dataclass_fields():
    wing = {f.name: 1.0 for f in dataclasses.fields(gust.WingModel)}
    sim = {f.name: 0.5 for f in dataclasses.fields(gust.SimulationConfig)}
    config = StudyConfig.from_dict({"wing": wing} | sim)
    assert dataclasses.asdict(config.wing) == wing
    assert dataclasses.asdict(config.sim) == sim


def test_config_from_dict_accepts_every_documented_key():
    doc = {
        "inputs": [["freestream_velocity", 50, 150], ["gust_length", 10, 50],
                   ["peak_gust_velocity", 5, 15]],
        "wing": {"modal_mass": 50.0},
        "time_step": 0.01, "final_time": 2.0,
        "air_density": 1.225, "gust_onset_time": 0.1,
        "methods": ["nipc", "kriging", "mc", "udr", "gudr"],
        "budgets": [8, 16, 32, 64, 128, 256],
        "seed": 0, "quantile": 0.95,
        "truth_train": 500, "truth_surrogate_samples": 20000,
        "truth_check_samples": 2000, "surrogate_samples": 10000,
        "bins": 100,
    }
    assert StudyConfig.from_dict(doc).truth_check_samples == 2000


@pytest.mark.parametrize("budgets", [(0, 8), (-4, 8), (-1,)])
def test_config_rejects_budgets_below_one(budgets):
    with pytest.raises(ValueError, match="budgets"):
        StudyConfig(budgets=budgets)


@pytest.mark.parametrize("quantile", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_config_rejects_quantile_outside_unit_interval(quantile):
    with pytest.raises(ValueError, match="quantile"):
        StudyConfig(quantile=quantile)


@pytest.mark.parametrize("key", ["truth_train", "truth_surrogate_samples",
                                 "truth_check_samples", "surrogate_samples", "bins"])
@pytest.mark.parametrize("value", [0, -5])
def test_config_rejects_non_positive_counts(key, value):
    with pytest.raises(ValueError, match=f"{key} must be positive"):
        StudyConfig(**{key: value})


# Positive counts below what the truth or a method needs, with the floor each names.
BELOW_FLOOR = [
    ({"truth_train": 4}, "truth_train is 4; the ground truth fits kriging in d = 3 inputs "
                         "from at least 5 points"),
    ({"truth_surrogate_samples": 1}, "truth_surrogate_samples is 1; the ground truth takes a "
                                     "sample std from at least 2 points"),
    ({"truth_check_samples": 1}, "truth_check_samples is 1; the ground truth's Monte Carlo "
                                 "check takes a sample std from at least 2 points"),
    ({"surrogate_samples": 1, "methods": ["kriging"]},
     "surrogate_samples is 1; method kriging takes a sample std from at least 2 points"),
]
BELOW_FLOOR_IDS = ["truth_train", "truth_surrogate_samples", "truth_check_samples",
                   "kriging-surrogate_samples"]


@pytest.mark.parametrize("doc, message", BELOW_FLOOR, ids=BELOW_FLOOR_IDS)
def test_config_rejects_counts_below_the_floor_of_their_stage(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        StudyConfig.from_dict(doc)


def test_config_accepts_counts_at_the_floor_of_their_stage():
    StudyConfig(truth_train=5, truth_surrogate_samples=2, truth_check_samples=2,
                surrogate_samples=2, methods=("kriging",))
    # the floor follows the input count, and only kriging needs two surrogate samples
    two_inputs = StudyConfig.from_dict({"inputs": [["a", 0, 1], ["b", 0, 1]]}).space
    StudyConfig(space=two_inputs, truth_train=4)
    StudyConfig(surrogate_samples=1, methods=("mc", "udr", "gudr"))


@pytest.mark.parametrize("key", ["seed", "truth_train", "truth_surrogate_samples",
                                 "truth_check_samples", "surrogate_samples", "bins"])
@pytest.mark.parametrize("value", [1e4, 2.5, True, "100"])
def test_config_requires_integer_fields_by_name(key, value):
    with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
        StudyConfig.from_dict({key: value})


@pytest.mark.parametrize("budgets", [[8.0, 16], [True, 8], [8, 16.5]])
def test_config_requires_integer_budgets(budgets):
    with pytest.raises(ValueError, match=re.escape(
            f"budgets must be integers, got {tuple(budgets)}")):
        StudyConfig.from_dict({"budgets": budgets})


def test_config_rejects_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        StudyConfig(seed=-1)


def test_config_accepts_numpy_integers():
    config = StudyConfig(seed=np.int64(3), budgets=(np.int32(8), 16), bins=np.uint8(10))
    assert (config.seed, config.budgets[0], config.bins) == (3, 8, 10)


def test_ground_truth_constant_model(constant_oracle):
    config = StudyConfig(**SMALL)
    truth = run_ground_truth(config, oracle=constant_oracle)
    for risk, c in zip(truth.risk, (0.25, 100.0)):
        assert risk.mean == pytest.approx(c, rel=1e-9)
        assert risk.std_dev == pytest.approx(0.0, abs=1e-8)
        assert risk.p95 == pytest.approx(c, rel=1e-9)


def test_ground_truth_deterministic(small_config, small_truth):
    again = run_ground_truth(small_config)
    for a, b in zip(small_truth.risk, again.risk):
        assert a == b


def test_ground_truth_passes_cross_check(small_truth):
    for stats in small_truth.check["qois"].values():
        assert stats["mean_gap"] <= stats["mean_tol"]
        assert stats["std_gap"] <= stats["std_tol"]


def test_convergence_records_structure(small_config, small_truth):
    config = small_config
    records = run_convergence(config, small_truth)
    assert len(records) == len(config.methods) * len(config.budgets) * 6
    for r in records:
        assert r.status in ("ok", "failed")
        if r.status == "ok":
            assert np.isfinite(r.estimate) and np.isfinite(r.rel_error)


def test_budget_accounting(small_truth):
    config = StudyConfig(methods=("udr", "gudr", "mc"), budgets=(16,), **SMALL)
    records = run_convergence(config, small_truth)
    by_method = {r.method: r.budget for r in records}
    # udr: k = 5 -> 3*5+1; gudr: k = 2 -> value evals 7 plus 6 gradients
    assert by_method["udr"] == 16
    assert by_method["gudr"] == 13
    assert by_method["mc"] == 16


class LinearOracle:
    """Oracle whose two QoIs are fixed linear functions of the physical point."""

    weights = np.array([[0.01, 0.2, 0.1], [2.0, 30.0, 40.0]])

    def evaluate(self, x):
        return QoIRecord(*(self.weights @ np.asarray(x, dtype=float)))

    def evaluate_batch(self, points):
        return np.atleast_2d(points) @ self.weights.T

    def gradient(self, x):
        return self.weights.copy()


# (floor, error, whether the failed cell spent its budget): a budget below a
# method's floor fails by name.
FLOORS = {"nipc": (8, "cannot support a degree-1 chaos fit", False),
          "kriging": (5, r"need at least d \+ 2 = 5 training points", False),
          "mc": (2, "Monte Carlo needs at least 2 samples", False)}


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(harness.METHODS), budget=st.integers(1, 128))
@example(method="udr", budget=128)  # k capped at 20
@example(method="gudr", budget=128)  # k capped at 14
def test_each_cell_costs_what_the_protocol_budget_rule_says(method, budget):
    config = StudyConfig(methods=(method,), budgets=(budget,), surrogate_samples=10**4)
    d = config.space.dimension
    counting = CountingOracle(LinearOracle())
    floor, message, spent = FLOORS.get(method, (1, None, False))
    if budget < floor:
        with pytest.raises(ValueError, match=message):
            harness._RUNNERS[method](counting, config, budget)
        assert counting.total_cost == (budget if spent else 0)
        return
    harness._RUNNERS[method](counting, config, budget)
    expected = {"udr": d * min(max((budget - 1) // d, 1), 20) + 1,
                "gudr": 2 * d * min(max((budget - 1) // (2 * d), 1), 14) + 1}
    assert counting.total_cost == expected.get(method, budget)


class ValuesOnlyOracle:
    """LinearOracle's values, without its gradient."""

    weights = LinearOracle.weights
    evaluate = LinearOracle.evaluate
    evaluate_batch = LinearOracle.evaluate_batch


def test_gudr_cell_without_gradients_fails_before_any_oracle_call():
    counting = CountingOracle(ValuesOnlyOracle())
    with pytest.raises(TypeError, match="GUDR requires an oracle with gradient capability"):
        harness._RUNNERS["gudr"](counting, StudyConfig(), 16)
    assert counting.total_cost == 0
    assert not hasattr(counting, "gradient")
    assert hasattr(CountingOracle(LinearOracle()), "gradient")


def test_failure_is_flagged_not_silent(small_truth):
    config = StudyConfig(methods=("nipc", "mc"), budgets=(4, 8), **SMALL)
    records = run_convergence(config, small_truth)
    nipc4 = [r for r in records if r.method == "nipc" and r.status == "failed"]
    assert len(nipc4) == 6  # budget 4 cannot support a degree-1 fit
    assert all(r.status == "ok" for r in records if r.method == "mc")


def test_convergence_columns_are_the_protocol_record():
    assert CSV_COLUMNS == ("method", "qoi", "measure", "budget", "estimate",
                           "rel_error", "status")


def test_each_cell_logs_its_cost_and_time(small_truth, caplog):
    config = StudyConfig(methods=("mc", "nipc"), budgets=(4, 8), **SMALL)
    with caplog.at_level(logging.INFO, logger="gustuq.harness"):
        run_convergence(config, small_truth)
    cells = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(cells) == 4
    for message, (method, budget) in zip(cells, [("mc", 4), ("mc", 8), ("nipc", 4),
                                                 ("nipc", 8)]):
        assert re.fullmatch(rf"method {method} at budget {budget}: (ok|failed), "
                            r"oracle cost \d+, \d+\.\d{3} s", message)
    assert "nipc at budget 4: failed" in cells[2]


def test_failed_cell_is_logged_with_its_cause(small_truth, caplog):
    config = StudyConfig(methods=("nipc",), budgets=(4,), **SMALL)
    with caplog.at_level(logging.WARNING, logger="gustuq.harness"):
        run_convergence(config, small_truth)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1
    assert "nipc" in messages[0] and "budget 4" in messages[0]
    assert "cannot support a degree-1" in messages[0]


@pytest.mark.parametrize("measure", ["mean", "std_dev", "p95"])
def test_zero_truth_measure_is_named_before_the_sweep(small_truth, oracle, measure):
    energy = dataclasses.replace(small_truth.risk[1], **{measure: 0.0})
    truth = dataclasses.replace(small_truth, risk=(small_truth.risk[0], energy))
    counting = CountingOracle(oracle)
    config = StudyConfig(methods=("mc",), budgets=(8,), **SMALL)
    with pytest.raises(ValueError, match=f"avg_strain_energy.*{measure}"):
        run_convergence(config, truth, counting)
    assert counting.total_cost == 0


def test_pdf_density_normalized(small_truth):
    centers, densities = export_pdf_data(small_truth.models[0],
                                         n_samples=10**5, bins=100, seed=0)
    width = centers[1] - centers[0]
    assert densities @ np.full(100, width) == pytest.approx(1.0, abs=1e-6)


def test_pdf_constant_model():
    pts = np.array([[-0.5, 0, 0], [0.5, 0, 0], [0, -0.5, 0], [0, 0.5, 0], [0, 0, 0.4]])
    model = kriging_fit(pts, np.full(5, 2.0))
    centers, densities = export_pdf_data(model, n_samples=10**4, bins=50, seed=0)
    assert np.count_nonzero(densities) == 1


def test_pdf_flat_for_linear_model():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (60, 1))
    model = kriging_fit(pts, pts[:, 0])
    centers, densities = export_pdf_data(model, n_samples=10**6, bins=20, seed=1)
    interior = densities[1:-1]  # edge bins clip the sample extremes
    assert np.abs(interior - 0.5).max() / 0.5 < 0.05


# -- CLI ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "study.json"
    path.write_text(json.dumps({
        "budgets": [8, 16],
        "methods": ["nipc", "mc", "udr"],
        "truth_train": 100,
        "truth_surrogate_samples": 50000,
        "truth_check_samples": 20000,
        "surrogate_samples": 20000,
        "seed": 3,
    }))
    return path


def test_cli_truth(config_file, tmp_path):
    assert cli_main(["truth", "--config", str(config_file),
                     "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "truth.json").read_text())
    assert set(doc["risk"]) == {"max_tip_displacement", "avg_strain_energy"}
    assert (tmp_path / "truth_surrogate.json").exists()


def test_cli_converge_deterministic(config_file, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["converge", "--config", str(config_file), "--out", str(out1)]) == 0
    assert cli_main(["converge", "--config", str(config_file), "--out", str(out2)]) == 0
    assert (out1 / "convergence.csv").read_bytes() == (out2 / "convergence.csv").read_bytes()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_cli_converge_json_format(config_file, tmp_path):
    assert cli_main(["converge", "--config", str(config_file), "--out", str(tmp_path),
                     "--format", "json", "--methods", "mc"]) == 0
    records = json.loads((tmp_path / "convergence.json").read_text())
    assert {r["method"] for r in records} == {"mc"}
    # budget 4 is too small for some cells: their NaN estimate and error are written as null
    doc = json.loads(config_file.read_text()) | {"budgets": [4, 8]}
    small = tmp_path / "small.json"
    small.write_text(json.dumps(doc))
    assert cli_main(["converge", "--config", str(small), "--out", str(tmp_path),
                     "--format", "json", "--methods", "nipc,udr"]) == 0
    records = json.loads((tmp_path / "convergence.json").read_text(),
                         parse_constant=_reject_constant)
    failed = [r for r in records if r["status"] == "failed"]
    assert failed and all(r["estimate"] is None and r["rel_error"] is None for r in failed)
    assert all(isinstance(r["estimate"], float) for r in records if r["status"] == "ok")


def test_cli_pdf(config_file, tmp_path):
    assert cli_main(["pdf", "--config", str(config_file), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pdf_max_tip_displacement.csv").exists()
    assert (tmp_path / "pdf_avg_strain_energy.csv").exists()


def test_cli_simulate(config_file, tmp_path):
    assert cli_main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
                     "--point", "52,6.5,11"]) == 0
    lines = (tmp_path / "timehistory.csv").read_text().splitlines()
    assert lines[0] == "t,q,qdot,w_tip,U"
    assert len(lines) == 202  # 2.0 s at dt = 0.01 plus header


def test_cli_simulate_integrates_once_and_prints_the_history_qois(config_file, tmp_path,
                                                                  capsys, monkeypatch):
    calls = []
    integrate = gust.newmark_response
    monkeypatch.setattr(gust, "newmark_response",
                        lambda *args, **kwargs: calls.append(1) or integrate(*args, **kwargs))
    assert cli_main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
                     "--point", "52,6.5,11"]) == 0
    assert len(calls) == 1
    rec = build_oracle(StudyConfig.from_json_file(config_file)).evaluate([52.0, 6.5, 11.0])
    assert capsys.readouterr().out.splitlines() == [
        f"point [52.0, 6.5, 11.0]: max_tip_displacement={rec.max_tip_displacement:.6g} m, "
        f"avg_strain_energy={rec.avg_strain_energy:.6g} J",
        f"wrote {tmp_path / 'timehistory.csv'}",
    ]


@pytest.mark.parametrize("point", ["a,b,c", "1,2", "1,2,3,4", "", "52,,11"])
def test_cli_simulate_rejects_malformed_point(config_file, tmp_path, capsys, point):
    with pytest.raises(SystemExit) as exc:
        cli_main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
                  "--point", point])
    assert exc.value.code == 2
    assert "--point" in capsys.readouterr().err
    assert not (tmp_path / "timehistory.csv").exists()


@pytest.mark.parametrize("point, message", [
    ("-5,6,10", "row 0 has freestream_velocity = -5.0; it must be finite and positive"),
    ("52,6.5,nan", "row 0 has peak_gust_velocity = nan; it must be finite and non-negative"),
    ("1,6.5,11", "has its gust window ending at"),
])
def test_cli_simulate_rejects_point_outside_oracle_domain(config_file, tmp_path, capsys,
                                                          point, message):
    with pytest.raises(SystemExit) as exc:
        cli_main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
                  f"--point={point}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "gustuq simulate: error: argument --point:" in err
    assert message in err
    assert not (tmp_path / "timehistory.csv").exists()


@pytest.mark.parametrize("command", ["truth", "converge", "pdf", "simulate"])
def test_cli_rejects_a_bad_config_as_a_usage_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"budget": [8]}))
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--config", str(bad), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gustuq {command}: error: invalid configuration: unknown config keys ['budget']" in err
    assert not (tmp_path / "out").exists()


# Eight training points cannot carry the 20000-sample truth past the check.
FAILING_TRUTH = {"truth_train": 8, "truth_surrogate_samples": 20000,
                 "truth_check_samples": 2000, "budgets": [8], "methods": ["mc"]}


def test_failed_truth_check_raises_truth_check_error():
    config = StudyConfig.from_dict(FAILING_TRUTH)
    with pytest.raises(TruthCheckError, match="ground-truth fidelity check failed"):
        run_ground_truth(config)
    assert issubclass(TruthCheckError, RuntimeError)


@pytest.mark.parametrize("command", ["truth", "converge", "pdf"])
def test_cli_reports_a_failed_truth_check_without_a_traceback(tmp_path, capsys, command):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(FAILING_TRUTH))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"gustuq {command}: error: ground-truth fidelity check "
                                   "failed for ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert not (out / "truth.json").exists()


@pytest.mark.parametrize("name", ["methods", "budgets"])
def test_cli_converge_rejects_an_empty_sweep_as_a_usage_error(tmp_path, capsys, monkeypatch,
                                                              name):
    def no_truth(*args, **kwargs):
        raise AssertionError("an empty sweep must fail before the ground truth")

    monkeypatch.setattr("gustuq.cli.run_ground_truth", no_truth)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({name: []}))
    with pytest.raises(SystemExit) as exc:
        cli_main(["converge", "--config", str(empty), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gustuq converge: error: invalid configuration: {name} must not be empty" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# The NIPC p95 needs pce_quantile's sample floor; this config sits below it.
SPARSE_NIPC = {"budgets": [32], "methods": ["nipc", "udr"], "truth_train": 200,
               "truth_surrogate_samples": 20000, "truth_check_samples": 2000,
               "surrogate_samples": 5000}


def test_config_rejects_nipc_below_the_quantile_sample_floor():
    with pytest.raises(ValueError, match=re.escape(
            "surrogate_samples is 5000; method nipc samples its p95 from at least "
            "10000 points")):
        StudyConfig.from_dict(SPARSE_NIPC)
    StudyConfig.from_dict({**SPARSE_NIPC, "methods": ["udr"]})  # only NIPC has the floor
    StudyConfig.from_dict({**SPARSE_NIPC, "surrogate_samples": 10**4})


def test_cli_converge_rejects_nipc_below_the_quantile_sample_floor(tmp_path, capsys,
                                                                   monkeypatch):
    def no_truth(*args, **kwargs):
        raise AssertionError("the config must fail before the ground truth")

    monkeypatch.setattr("gustuq.cli.run_ground_truth", no_truth)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(SPARSE_NIPC))
    with pytest.raises(SystemExit) as exc:
        cli_main(["converge", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "gustuq converge: error: invalid configuration: surrogate_samples is 5000" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", UNTAKEABLE_BOXES + BELOW_FLOOR,
                         ids=UNTAKEABLE_IDS + BELOW_FLOOR_IDS)
def test_cli_rejects_a_config_the_run_cannot_take_before_the_truth(tmp_path, capsys,
                                                                    monkeypatch, doc, message):
    def no_truth(*args, **kwargs):
        raise AssertionError("the config must fail before the ground truth")

    monkeypatch.setattr("gustuq.cli.run_ground_truth", no_truth)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli_main(["converge", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "gustuq converge: error: invalid configuration: " in err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),
    ("{budgets: [8]}", "Expecting property name"),
    (json.dumps({"inputs": SWAPPED_INPUTS}), "GustOracle reads its input columns"),
], ids=["missing-file", "malformed-json", "misread-inputs"])
def test_cli_reports_any_config_error_as_a_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "study.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli_main(["truth", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
