import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gustuq import (GustOracle, GustProfile, InputSpace, QoIRecord, SimulationConfig,
                    TimeHistory, UncertainInput, WingModel, gust_velocity, qois)
from gustuq import gust
from gustuq.gust import _gust_shape, _time_grid, newmark_response

NOMINAL = np.array([50.0, 6.0, 10.0])  # V_inf, l_g, V_p
NOMINAL_WINDOW_END = 0.1 + NOMINAL[1] / NOMINAL[0]  # the default onset plus l_g / V_inf
SCALAR_COLUMNS = gust._SCALAR_COLUMNS  # widest reduction newmark_response reduces from a history


# -- gust profile ------------------------------------------------------------

def test_gust_zero_before_onset():
    profile = GustProfile(10.0, 6.0, onset_time=0.1)
    assert gust_velocity(0.05, profile, 50.0) == 0.0
    assert gust_velocity(0.1, profile, 50.0) == 0.0


def test_gust_peak_at_window_center():
    profile = GustProfile(10.0, 6.0, onset_time=0.1)
    t_peak = 0.1 + 6.0 / (2 * 50.0)
    assert gust_velocity(t_peak, profile, 50.0) == pytest.approx(10.0, abs=1e-12)


def test_gust_zero_at_window_end():
    profile = GustProfile(10.0, 6.0, onset_time=0.1)
    assert gust_velocity(0.1 + 6.0 / 50.0, profile, 50.0) == 0.0


@pytest.mark.parametrize("vinf", [0.0, -50.0, np.nan, np.inf])
def test_gust_velocity_rejects_a_freestream_velocity_that_is_not_positive(vinf):
    with pytest.raises(ValueError, match=re.escape(
            f"gust_velocity: freestream velocity is {vinf!r}; it must be finite and positive")):
        gust_velocity(np.linspace(0.0, 1.0, 5), GustProfile(10.0, 5.0), vinf)


def test_gust_bounded_and_continuous():
    rng = np.random.default_rng(1)
    for _ in range(200):
        vinf, lg, vp = rng.uniform([40, 4, 5], [60, 8, 15])
        profile = GustProfile(vp, lg, onset_time=0.1)
        t = rng.uniform(0, 0.5, 100)
        v = gust_velocity(t, profile, vinf)
        assert (v >= 0).all() and (v <= vp + 1e-12).all()
        # continuity at the edges: values just inside are near zero
        eps = 1e-9
        edge = gust_velocity(np.array([0.1 + eps, 0.1 + lg / vinf - eps]), profile, vinf)
        assert np.abs(edge).max() < 1e-6


def test_gust_integral_matches_closed_form():
    profile = GustProfile(10.0, 6.0, onset_time=0.1)
    integral, _ = quad(lambda t: float(gust_velocity(t, profile, 50.0)),
                       0.1, 0.1 + 6.0 / 50.0, limit=200)
    assert integral == pytest.approx(0.5 * 10.0 * 6.0 / 50.0, rel=1e-9)


# -- simulation --------------------------------------------------------------

def test_zero_gust_zero_response(oracle):
    hist = oracle.simulate([50.0, 6.0, 0.0])
    assert np.all(hist.modal_coordinate == 0.0)
    rec = qois(hist)
    assert rec.max_tip_displacement == 0.0 and rec.avg_strain_energy == 0.0


def test_step_force_response_matches_closed_form():
    # Undamped step response is q(t) = (F/k)(1 - cos(w t)): peak 2F/k about F/k.
    wing = WingModel()
    m, k = wing.modal_mass, wing.stiffness
    dt = 0.001
    n_steps = int(round(2.0 / dt))
    F = 100.0
    q, _ = newmark_response(m, 0.0, k, np.full(n_steps + 1, F), dt)
    assert q.max() == pytest.approx(2 * F / k, rel=1e-3)
    assert q.mean() == pytest.approx(F / k, rel=1e-2)


def test_linearity_in_peak_velocity(oracle):
    h1 = oracle.simulate([50.0, 6.0, 5.0])
    h2 = oracle.simulate([50.0, 6.0, 10.0])
    np.testing.assert_allclose(h2.tip_displacement, 2.0 * h1.tip_displacement,
                               rtol=1e-13, atol=1e-300)


def test_post_gust_energy_conserved(oracle):
    hist = oracle.simulate(NOMINAL)
    m, k = oracle.wing.modal_mass, oracle.wing.stiffness
    energy = 0.5 * m * hist.modal_velocity**2 + 0.5 * k * hist.modal_coordinate**2
    post = hist.times > NOMINAL_WINDOW_END
    e = energy[post]
    assert (e.max() - e.min()) / e.mean() < 1e-3


def test_argmax_after_gust_peak(oracle):
    hist = oracle.simulate(NOMINAL)
    t_star = hist.times[np.argmax(hist.tip_displacement)]
    t_gust_peak = 0.1 + NOMINAL[1] / (2 * NOMINAL[0])
    assert t_star > t_gust_peak


def test_post_gust_peak_amplitudes_constant(oracle):
    hist = oracle.simulate(NOMINAL)
    w = hist.tip_displacement
    t_end = NOMINAL_WINDOW_END
    peaks = [w[i] for i in range(1, len(w) - 1)
             if w[i] >= w[i - 1] and w[i] >= w[i + 1] and hist.times[i] > t_end]
    peaks = np.array(peaks)
    assert (peaks.max() - peaks.min()) / peaks.mean() < 0.01


def test_grid_convergence():
    coarse = qois(GustOracle(config=SimulationConfig(time_step=0.01)).simulate(NOMINAL))
    fine = qois(GustOracle(config=SimulationConfig(time_step=0.005)).simulate(NOMINAL))
    assert abs(coarse.max_tip_displacement - fine.max_tip_displacement) \
        / fine.max_tip_displacement < 0.005
    assert abs(coarse.avg_strain_energy - fine.avg_strain_energy) \
        / fine.avg_strain_energy < 0.005


def _closed_form_qois(oracle, x):
    """QoIs of the exact undamped response to the 1 - cos pulse, at the oracle's time nodes.

    In the window, m q'' + k q = A (1 - cos W tau) from rest gives
    q = A/k (1 - cos w tau) - A/(k - m W^2) (cos W tau - cos w tau), with
    A = 1/2 scale V_p and W = 2 pi V_inf / l_g; after it, free vibration.
    """
    vinf, lg, vp = x
    wing = oracle.wing
    m, k = wing.modal_mass, wing.stiffness
    w, W = np.sqrt(k / m), 2.0 * np.pi * vinf / lg
    A = 0.25 * oracle.air_density * vinf * wing.reference_area * wing.lift_curve_slope * vp
    B = A / (k - m * W**2)

    def window(tau):
        q = A / k * (1.0 - np.cos(w * tau)) - B * (np.cos(W * tau) - np.cos(w * tau))
        v = A / k * w * np.sin(w * tau) - B * (w * np.sin(w * tau) - W * np.sin(W * tau))
        return q, v

    tau = _time_grid(oracle.config) - oracle.gust_onset_time
    T = lg / vinf
    q_end, v_end = window(T)
    q = np.where(tau <= 0.0, 0.0,
                 np.where(tau < T, window(tau)[0],
                          q_end * np.cos(w * (tau - T)) + v_end / w * np.sin(w * (tau - T))))
    return np.array([wing.mode_tip_value * q.max(), (0.5 * k * q * q).mean()])


# Each window, l_g / V_inf = 0.2, 0.12 and 0.1 s after the 0.1 s onset, ends
# on a time node at every step below; an end between nodes makes the observed
# order erratic.
@pytest.mark.parametrize("x", [(40.0, 8.0, 15.0), (50.0, 6.0, 10.0), (60.0, 6.0, 5.0)])
def test_evaluate_converges_at_second_order_to_the_closed_form_response(x):
    errors = []
    for dt in (0.01, 0.005, 0.0025, 0.00125):
        oracle = GustOracle(config=SimulationConfig(time_step=dt))
        exact = _closed_form_qois(oracle, x)
        errors.append(np.abs(oracle.evaluate(x).as_array() - exact) / exact)
    errors = np.array(errors)
    orders = np.log2(errors[:-1] / errors[1:])
    assert ((orders > 1.8) & (orders < 2.2)).all(), orders
    assert errors[0, 0] < 3e-3 and errors[0, 1] < 7e-3, errors[0]


def test_final_time_must_cover_gust_window():
    with pytest.raises(ValueError, match="window"):
        GustOracle(config=SimulationConfig(final_time=0.15)).simulate(NOMINAL)


# (entry point, its input, the row it reports); the final time 0.25 s
# covers the window of NOMINAL (ending at 0.22 s) but not that of LATE (0.3 s)
LATE = np.array([40.0, 8.0, 10.0])
WINDOW_CALLS = [
    ("evaluate_batch", np.array([NOMINAL, LATE, LATE]), 1),
    ("evaluate", LATE, 0),
    ("gradient", LATE, 0),
    ("simulate", LATE, 0),
]


@pytest.mark.parametrize("caller, x, row", WINDOW_CALLS, ids=[c[0] for c in WINDOW_CALLS])
def test_uncovered_gust_window_names_row_input_and_end(caller, x, row):
    short = GustOracle(config=SimulationConfig(final_time=0.25))
    with pytest.raises(ValueError, match=rf"^{caller}: row {row} .*\[40\.0, 8\.0, 10\.0\]"
                                         r".*window ending at 0\.3 s"):
        getattr(short, caller)(x)


def test_window_is_checked_against_the_last_time_node():
    # 0.3 / 0.1 rounds below 3, so the grid stops at 0.2 s, short of the
    # window of [40, 6, 10], which ends at 0.25 s
    coarse = GustOracle(config=SimulationConfig(time_step=0.1, final_time=0.3))
    with pytest.raises(ValueError,
                       match=r"window ending at 0\.25 s; the time grid ends at 0\.2 s"):
        coarse.evaluate(np.array([40.0, 6.0, 10.0]))


SWAPPED = (("peak_gust_velocity", 5.0, 15.0), ("gust_length", 4.0, 8.0),
           ("freestream_velocity", 40.0, 60.0))
RENAMED = (("freestream_velocity", 40.0, 60.0), ("gust_length", 4.0, 8.0),
           ("peak", 5.0, 15.0))


@pytest.mark.parametrize("inputs", [SWAPPED, SWAPPED[1:], RENAMED],
                         ids=["swapped", "two-inputs", "renamed"])
def test_oracle_rejects_an_input_space_it_would_misread(inputs):
    space = InputSpace(tuple(UncertainInput(*u) for u in inputs))
    given_names = re.escape(str(space.names))
    with pytest.raises(ValueError, match=r"\('freestream_velocity', 'gust_length', "
                                         rf"'peak_gust_velocity'\).*{given_names}"):
        GustOracle(space=space)


def test_oracle_accepts_its_inputs_on_other_bounds():
    space = InputSpace((UncertainInput("freestream_velocity", 45.0, 55.0),
                        UncertainInput("gust_length", 5.0, 7.0),
                        UncertainInput("peak_gust_velocity", 0.0, 20.0)))
    assert GustOracle(space=space).space is space


# (entry point, its input, the row it reports); at V_inf = 500 the 4 m gust
# lasts 8 ms, less than one 10 ms time step, so the grid misses it entirely
FAST = np.array([500.0, 4.0, 10.0])
RESOLUTION_CALLS = [
    ("evaluate_batch", np.array([NOMINAL, NOMINAL, FAST]), 2),
    ("evaluate", FAST, 0),
    ("gradient", FAST, 0),
    ("simulate", FAST, 0),
]


@pytest.mark.parametrize("caller, x, row", RESOLUTION_CALLS,
                         ids=[c[0] for c in RESOLUTION_CALLS])
def test_unresolved_gust_window_names_row_input_and_length(oracle, caller, x, row):
    with pytest.raises(ValueError, match=rf"^{caller}: row {row} .*\[500\.0, 4\.0, 10\.0\]"
                                         r".*window of 0\.008 s.*2 time steps of 0\.01 s"):
        getattr(oracle, caller)(x)


def test_gust_window_of_exactly_two_steps_is_resolved(oracle):
    # 4 m at 200 m/s lasts 0.02 s, exactly two 0.01 s steps
    assert oracle.evaluate(np.array([200.0, 4.0, 10.0])).max_tip_displacement > 0.0


def test_history_invariants(oracle):
    hist = oracle.simulate(NOMINAL)
    wing, config = oracle.wing, oracle.config
    assert len(hist.times) == int(np.floor(config.final_time / config.time_step)) + 1
    np.testing.assert_array_equal(hist.tip_displacement,
                                  wing.mode_tip_value * hist.modal_coordinate)
    np.testing.assert_allclose(hist.strain_energy,
                               0.5 * wing.stiffness * hist.modal_coordinate**2)


def test_history_csv_export(oracle, tmp_path):
    hist = oracle.simulate(NOMINAL)
    path = tmp_path / "hist.csv"
    hist.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,q,qdot,w_tip,U"
    assert len(lines) == len(hist.times) + 1


# -- QoIs ---------------------------------------------------------------------

def test_qois_sinusoid():
    t = np.linspace(0, 2 * np.pi, 5000)
    hist = TimeHistory(times=t, modal_coordinate=np.sin(t), modal_velocity=np.cos(t),
                       tip_displacement=np.sin(t), strain_energy=np.sin(t) ** 2)
    assert qois(hist).max_tip_displacement == pytest.approx(1.0, abs=1e-6)


def test_qois_scaling(oracle):
    hist = oracle.simulate(NOMINAL)
    lam = 3.0
    scaled = TimeHistory(times=hist.times,
                         modal_coordinate=lam * hist.modal_coordinate,
                         modal_velocity=lam * hist.modal_velocity,
                         tip_displacement=lam * hist.tip_displacement,
                         strain_energy=lam**2 * hist.strain_energy)
    base, res = qois(hist), qois(scaled)
    assert res.max_tip_displacement == pytest.approx(lam * base.max_tip_displacement)
    assert res.avg_strain_energy == pytest.approx(lam**2 * base.avg_strain_energy)


# -- gradients ----------------------------------------------------------------

def test_gradient_homogeneity_identities(oracle):
    rec = oracle.evaluate(NOMINAL)
    grad = oracle.gradient(NOMINAL)
    # response linear in V_p, so max is 1-homogeneous and energy 2-homogeneous
    assert grad[0, 2] == pytest.approx(rec.max_tip_displacement / 10.0, rel=1e-12)
    assert grad[1, 2] == pytest.approx(2 * rec.avg_strain_energy / 10.0, rel=1e-12)


def _stable_fd_points(oracle, space, count, seed=42):
    """Interior points whose discrete model is smooth under FD perturbation.

    Skips points where the perturbed argmax index moves (max-QoI tie) or
    where the gust-window edge sits on a time grid node (forcing kink).
    """
    rng = np.random.default_rng(seed)
    lo, hi = space.lower, space.upper
    dt = oracle.config.time_step
    points = []
    while len(points) < count:
        x = lo + (0.1 + 0.8 * rng.random(3)) * (hi - lo)
        frac = ((oracle.gust_onset_time + x[1] / x[0]) / dt) % 1.0
        if min(frac, 1 - frac) < 0.02:
            continue
        base_idx = np.argmax(oracle.simulate(x).tip_displacement)
        stable = True
        for i in range(3):
            h = 1e-4 * x[i]
            for sign in (+1, -1):
                xp = x.copy()
                xp[i] += sign * h
                if np.argmax(oracle.simulate(xp).tip_displacement) != base_idx:
                    stable = False
        if stable:
            points.append(x)
    return points


def finite_difference_gradient(oracle, x, rel_step=1e-4):
    fd = np.empty((2, 3))
    for i in range(3):
        h = rel_step * x[i]
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[:, i] = (oracle.evaluate_batch(xp[None])[0]
                    - oracle.evaluate_batch(xm[None])[0]) / (2 * h)
    return fd


def test_gradient_matches_finite_differences(oracle, space):
    for x in _stable_fd_points(oracle, space, count=20):
        grad = oracle.gradient(x)
        fd = finite_difference_gradient(oracle, x)
        # relative error per QoI gradient row; componentwise relative error
        # is ill-posed where a single partial passes through zero
        for row in range(2):
            err = np.linalg.norm(grad[row] - fd[row]) / np.linalg.norm(fd[row])
            assert err < 1e-6


# -- input validation ----------------------------------------------------------

# (point, the input it breaks); each breaks exactly one input
BAD_POINTS = [
    ([-50.0, 6.0, 10.0], "freestream_velocity"),
    ([0.0, 6.0, 10.0], "freestream_velocity"),
    ([np.nan, 6.0, 10.0], "freestream_velocity"),
    ([np.inf, 6.0, 10.0], "freestream_velocity"),
    ([50.0, -6.0, 10.0], "gust_length"),
    ([50.0, 0.0, 10.0], "gust_length"),
    ([50.0, np.inf, 10.0], "gust_length"),
    ([50.0, 6.0, -10.0], "peak_gust_velocity"),
    ([50.0, 6.0, np.nan], "peak_gust_velocity"),
    ([50.0, 6.0, -np.inf], "peak_gust_velocity"),
]


@pytest.mark.parametrize("point, name", BAD_POINTS)
def test_evaluate_batch_names_bad_input_and_row(oracle, point, name):
    points = np.array([NOMINAL, NOMINAL, point, point])
    with pytest.raises(ValueError, match=rf"row 2 .*{name}"):
        oracle.evaluate_batch(points)


@pytest.mark.parametrize("point, name", BAD_POINTS)
def test_evaluate_rejects_bad_input(oracle, point, name):
    with pytest.raises(ValueError, match=rf"^evaluate: row 0 .*{name}"):
        oracle.evaluate(np.array(point))


@pytest.mark.parametrize("point, name", BAD_POINTS)
def test_gradient_names_bad_input(oracle, point, name):
    with pytest.raises(ValueError, match=rf"row 0 .*{name}"):
        oracle.gradient(np.array(point))


@pytest.mark.parametrize("caller", ["simulate", "evaluate", "gradient"])
@pytest.mark.parametrize("x, shape", [(5.0, "()"), ([[50.0, 6.0, 10.0]], "(1, 3)"),
                                      ([50.0, 6.0], "(2,)")],
                         ids=["scalar", "nested", "2-vector"])
def test_pointwise_oracle_names_a_point_that_is_not_a_3_vector(oracle, caller, x, shape):
    message = f"{caller}: x must be one point (V_inf, l_g, V_p), got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(oracle, caller)(x)


def test_evaluate_batch_rejects_wrong_shape(oracle):
    with pytest.raises(ValueError, match="3 columns"):
        oracle.evaluate_batch(np.ones((4, 2)))


def test_zero_peak_velocity_is_valid(oracle):
    point = np.array([50.0, 6.0, 0.0])
    np.testing.assert_array_equal(oracle.evaluate_batch(point[None]), [[0.0, 0.0]])
    grad = oracle.gradient(point)
    assert np.isfinite(grad).all()
    np.testing.assert_array_equal(grad[1], 0.0)  # energy is quadratic in V_p


@pytest.mark.parametrize("make", [
    lambda: GustProfile(np.nan, 6.0),
    lambda: GustProfile(np.inf, 6.0),
    lambda: GustProfile(10.0, np.nan),
    lambda: GustProfile(10.0, np.inf),
    lambda: GustProfile(10.0, 6.0, onset_time=np.nan),
    lambda: GustOracle().simulate([np.nan, 6.0, 10.0]),
    lambda: GustOracle().simulate([np.inf, 6.0, 10.0]),
    lambda: GustOracle(air_density=np.inf),
    lambda: GustOracle(air_density=np.nan),
    lambda: GustOracle(air_density=-1.225),
    lambda: GustOracle(gust_onset_time=np.inf),
    lambda: WingModel(modal_mass=np.nan),
    lambda: WingModel(modal_mass=-50.0),
    lambda: WingModel(natural_frequency=np.inf),
    lambda: WingModel(reference_area=np.nan),
    lambda: WingModel(lift_curve_slope=np.inf),
    lambda: WingModel(mode_tip_value=np.nan),
    lambda: WingModel(damping_ratio=np.nan),
    lambda: WingModel(damping_ratio=np.inf),
    lambda: WingModel(damping_ratio=-0.01),
    lambda: SimulationConfig(time_step=np.nan),
    lambda: SimulationConfig(final_time=np.inf),
    lambda: SimulationConfig(time_step=0.0),
    lambda: SimulationConfig(time_step=-0.01),
    lambda: SimulationConfig(final_time=np.nan),
    lambda: SimulationConfig(final_time=0.0),
    lambda: newmark_response(0.0, 0.0, 1.0, np.ones(3), 0.01),
    lambda: newmark_response(np.nan, 0.0, 1.0, np.ones(3), 0.01),
    lambda: newmark_response(1.0, 0.0, np.nan, np.ones(3), 0.01),
    lambda: newmark_response(1.0, 0.0, 0.0, np.ones(3), 0.01),
    lambda: newmark_response(1.0, -0.1, 1.0, np.ones(3), 0.01),
    lambda: newmark_response(1.0, np.inf, 1.0, np.ones(3), 0.01),
    lambda: newmark_response(1.0, 0.0, 1.0, np.ones(3), 0.0),
    lambda: newmark_response(1.0, 0.0, 1.0, np.ones(3), -0.01),
    lambda: newmark_response(1.0, 0.0, 1.0, np.ones(3), np.nan),
    lambda: newmark_response(np.inf, 0.0, 1.0, np.ones(3), 0.01),
    lambda: newmark_response(1.0, 0.0, -1.0, np.ones(3), 0.01),
    lambda: newmark_response(1.0, 0.0, 1.0, np.ones(3), np.inf),
])
def test_gust_and_flight_reject_non_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("forcing", [np.empty(0), np.empty((0, 3)), np.ones((3, 2, 2)),
                                     np.float64(1.0)],
                         ids=["empty", "no-rows", "3-D", "scalar"])
def test_newmark_response_rejects_bad_forcing_shape(forcing):
    with pytest.raises(ValueError, match="forcing"):
        newmark_response(1.0, 0.0, 1.0, forcing, 0.01)


# -- oracle properties over the input box --------------------------------------

box_points = st.tuples(st.floats(40.0, 60.0), st.floats(4.0, 8.0),
                       st.floats(5.0, 15.0)).map(np.array)


@settings(max_examples=60, deadline=None)
@given(x=box_points, lam=st.floats(0.05, 4.0))
def test_scaling_peak_velocity_scales_outputs(oracle, x, lam):
    scaled = x.copy()
    scaled[2] *= lam
    base, out = oracle.evaluate_batch(np.array([x, scaled]))
    assert out[0] == pytest.approx(lam * base[0], rel=1e-12, abs=0.0)
    assert out[1] == pytest.approx(lam**2 * base[1], rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(points=st.lists(box_points, min_size=1, max_size=12))
def test_energy_non_negative_and_batch_displacement_bit_identical(oracle, points):
    points = np.array(points)
    batch = oracle.evaluate_batch(points)
    assert (batch[:, 1] >= 0).all()
    single = np.array([oracle.evaluate(x).max_tip_displacement for x in points])
    np.testing.assert_array_equal(batch[:, 0], single)


@settings(max_examples=60, deadline=None)
@given(x=box_points)
def test_simulate_qois_bit_identical_to_evaluate(oracle, x):
    assert qois(oracle.simulate(x)) == oracle.evaluate(x)


# -- window-only forcing ---------------------------------------------------------

def _full_grid_forcing(oracle, points, sensitivities):
    """Lift forcing and its partials built from ``_gust_shape`` on every time node."""
    t = _time_grid(oracle.config)[:, None]
    t0 = oracle.gust_onset_time
    vinf, lg, vp = points[:, 0], points[:, 1], points[:, 2]
    phase, inside, shape = _gust_shape(t, t0, vinf, lg)
    scale = (0.5 * oracle.air_density * vinf
             * oracle.wing.reference_area * oracle.wing.lift_curve_slope)
    vg = 0.5 * vp * shape
    if not sensitivities:
        return scale * vg
    sin_term = 0.5 * vp * np.sin(phase)
    d_vinf = np.where(inside, sin_term * 2.0 * np.pi * (t - t0) / lg, 0.0)
    d_lg = np.where(inside, -sin_term * 2.0 * np.pi * (t - t0) * vinf / lg**2, 0.0)
    return np.stack([scale * vg, scale * d_vinf + (scale / vinf) * vg,
                     scale * d_lg, scale * (0.5 * shape)], axis=-1)


def _assert_forcing_is_window_only(oracle, points):
    """``_forcing`` equals the full-grid forcing bit for bit, and is +0.0 off the window rows."""
    t = _time_grid(oracle.config)
    t0 = oracle.gust_onset_time
    lo = np.searchsorted(t, t0, side="right")
    hi = np.searchsorted(t, (t0 + points[:, 1] / points[:, 0]).max(), side="left")
    for sensitivities in (False, True):
        out = oracle._forcing(points, sensitivities)
        ref = _full_grid_forcing(oracle, points, sensitivities)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))
        off_window = np.concatenate([out[:lo], out[hi:]])
        assert (off_window == 0.0).all() and not np.signbit(off_window).any()


@settings(max_examples=60, deadline=None)
@given(points=st.lists(box_points, min_size=1, max_size=12))
def test_forcing_is_built_on_window_rows_only(oracle, points):
    _assert_forcing_is_window_only(oracle, np.array(points))


def test_forcing_window_ending_on_a_time_node(oracle):
    points = np.array([[50.0, 6.0, 10.0], [55.0, 5.0, 12.0]])
    # the latest window, (0.1 s, 0.1 + 6/50 s), ends exactly on the node at 0.22 s
    assert oracle.gust_onset_time + 6.0 / 50.0 == _time_grid(oracle.config)[22]
    _assert_forcing_is_window_only(oracle, points)


@pytest.mark.parametrize("points", [
    [[45.0, 7.0, 0.0], [60.0, 4.0, 0.0]],
    [[40.0, 8.0, 15.0]],
], ids=["zero-peak-velocity", "one-point"])
def test_forcing_window_rows_fixed_cases(oracle, points):
    _assert_forcing_is_window_only(oracle, np.array(points))


def test_empty_batch_evaluates_to_no_rows(oracle):
    out = oracle.evaluate_batch(np.empty((0, 3)))
    assert out.shape == (0, 2)


# -- Newmark kernel against the allocating loop it replaced ----------------------

def _reference_newmark(m, c, k, forcing, dt):
    """The general Newmark step loop, kept verbatim, at average acceleration.

    ``newmark_response`` drops the factors this form has at beta = 1/4,
    gamma = 1/2 that are exactly 1 or 0; comparing bits checks that.
    """
    beta, gamma = 0.25, 0.5
    forcing = np.asarray(forcing, dtype=float)
    squeeze = forcing.ndim == 1
    F = forcing[:, None] if squeeze else forcing
    n_nodes, batch = F.shape

    q = np.zeros((n_nodes, batch))
    v = np.zeros((n_nodes, batch))
    a = np.empty(batch)
    a[:] = F[0] / m  # zero initial displacement and velocity

    k_eff = k + gamma * c / (beta * dt) + m / (beta * dt * dt)
    c0 = 1.0 / (beta * dt * dt)
    c1 = 1.0 / (beta * dt)
    c2 = 1.0 / (2.0 * beta) - 1.0
    c3 = gamma / (beta * dt)
    c4 = gamma / beta - 1.0
    c5 = dt * (gamma / (2.0 * beta) - 1.0)

    qn = q[0]
    vn = v[0]
    for i in range(1, n_nodes):
        rhs = (F[i]
               + m * (c0 * qn + c1 * vn + c2 * a)
               + c * (c3 * qn + c4 * vn + c5 * a))
        qn1 = rhs / k_eff
        an1 = c0 * (qn1 - qn) - c1 * vn - c2 * a
        vn1 = vn + dt * ((1.0 - gamma) * a + gamma * an1)
        q[i] = qn1
        v[i] = vn1
        qn, vn, a = qn1, vn1, an1

    if squeeze:
        return q[:, 0], v[:, 0]
    return q, v


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


# Forcing values: ordinary magnitudes, signed zeros and subnormals.
forcing_values = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.7e-308]),
)


@st.composite
def newmark_cases(draw):
    """Keyword arguments of ``newmark_response``.

    Widths straddle ``_SCALAR_COLUMNS``, so both reduction paths are drawn,
    width 1 and the last narrow and the first wide width always among them.
    """
    widths = st.one_of(st.sampled_from([1, SCALAR_COLUMNS, SCALAR_COLUMNS + 1]),
                       st.integers(1, 2 * SCALAR_COLUMNS + 2))
    width = draw(st.one_of(st.none(), widths))  # None: 1-D forcing
    n_nodes = draw(st.integers(1, min(40, 480 // (width or 1))))  # at most 480 forcing values
    shape = (n_nodes,) if width is None else (n_nodes, width)
    forcing = draw(st.lists(forcing_values, min_size=int(np.prod(shape)),
                            max_size=int(np.prod(shape))))
    return dict(
        m=draw(st.floats(0.1, 500.0)),
        c=draw(st.one_of(st.just(0.0), st.floats(1e-3, 100.0))),
        k=draw(st.floats(1.0, 1e5)),
        forcing=np.array(forcing).reshape(shape),
        dt=draw(st.floats(1e-3, 0.05)),
    )


@settings(max_examples=200, deadline=None)
@given(case=newmark_cases())
def test_newmark_response_bit_identical_to_reference_loop(case):
    q, v = newmark_response(**case)
    q_ref, v_ref = _reference_newmark(**case)
    _assert_same_bits(q, q_ref)
    _assert_same_bits(v, v_ref)


def test_newmark_response_keeps_the_zero_damping_term():
    # With dt = 2 the constants are 4/dt^2 = 1, 4/dt = 2 and 2/dt = 1, and
    # k_eff = 1.25.  From a0 = 4s (s = 5e-324) the first step gives q1 = s,
    # v1 = +0 and a1 = -3s.  In the second, the mass part of the right-hand
    # side is F[2] + m * (q1 + 2 v1 + a1) = -0 + 0.25 * (-2s) = -0 + -0 (the
    # product underflows), and the damping term is 0 * (q1 + v1) = +0, so
    # the sum is +0.  Leaving the term out when c == 0 would give q2 = -0.
    forcing = np.array([[5e-324, 0.0], [0.0, 0.0], [-0.0, 0.0]])
    case = dict(m=0.25, c=0.0, k=1.0, forcing=forcing, dt=2.0)
    q, v = newmark_response(**case)
    q_ref, v_ref = _reference_newmark(**case)
    assert q[1, 0] == 5e-324
    assert q[2, 0] == 0.0 and not np.signbit(q[2, 0])
    _assert_same_bits(q, q_ref)
    _assert_same_bits(v, v_ref)


@pytest.mark.parametrize("width", [1, 2, SCALAR_COLUMNS, SCALAR_COLUMNS + 1, 257])
@pytest.mark.parametrize("wing", [WingModel(mode_tip_value=0.73),
                                  WingModel(mode_tip_value=2.9, damping_ratio=0.02)],
                         ids=["tip-0.73", "tip-2.9-damped"])
def test_evaluate_chunk_reductions_bit_identical_to_full_products(wing, width, space):
    oracle = GustOracle(wing=wing)
    rng = np.random.default_rng(8)
    points = space.lower + (space.upper - space.lower) * rng.random((width, 3))
    q, _ = oracle._response(points)
    k = wing.stiffness
    expected = np.column_stack([(wing.mode_tip_value * q).max(axis=0),
                                (0.5 * k * q * q).mean(axis=0)])
    _assert_same_bits(oracle.evaluate_batch(points), expected)


# -- history-free reductions -------------------------------------------------------

def _history_reductions(q, k):
    """Max and time-mean strain energy of a (T,) or (T, n) displacement history, as numpy takes them."""
    return q.max(axis=0), (0.5 * k * q * q).mean(axis=0)


@settings(max_examples=200, deadline=None)
@given(case=newmark_cases())
def test_newmark_reduce_bit_identical_to_history_reductions(case):
    q, _ = newmark_response(**case)
    q_max, energy = newmark_response(**case, reduce=True)
    q_max_ref, energy_ref = _history_reductions(q, case["k"])
    _assert_same_bits(np.asarray(q_max), np.asarray(q_max_ref))
    _assert_same_bits(np.asarray(energy), np.asarray(energy_ref))


@pytest.mark.parametrize("width", [None, 1, SCALAR_COLUMNS, SCALAR_COLUMNS + 1])
def test_newmark_reduce_max_keeps_the_signed_zero_tie_of_np_maximum(width):
    # q runs +0, +0, -0 (the last step is -5e-324 / k_eff with k_eff = 801,
    # which underflows), and np.maximum(+0, -0) returns its second
    # argument, so the running maximum ends at -0.  A maximum that keeps its
    # first argument on a tie would end at +0.
    column = np.array([0.0, 0.0, -5e-324])
    forcing = column if width is None else np.tile(column[:, None], (1, width))
    case = dict(m=0.5, c=0.0, k=1.0, forcing=forcing, dt=0.05)
    q_ref, _ = _reference_newmark(**case)
    assert np.all(q_ref[-1] == 0.0) and np.all(np.signbit(q_ref[-1]))
    q_max, _ = newmark_response(**case, reduce=True)
    _assert_same_bits(np.atleast_1d(q_max), np.full(width or 1, -0.0))


def test_evaluate_batch_chunk_edges(oracle, space, monkeypatch):
    monkeypatch.setattr(gust, "_BATCH_CHUNK", 5)
    rng = np.random.default_rng(11)
    points = space.lower + (space.upper - space.lower) * rng.random((11, 3))
    out = oracle.evaluate_batch(points)
    for start in (0, 5):  # two full chunks reduce their (T, 5) histories
        q, _ = oracle._response(points[start:start + 5])
        q_max, energy = _history_reductions(q, oracle.wing.stiffness)
        _assert_same_bits(out[start:start + 5],
                          np.column_stack([oracle.wing.mode_tip_value * q_max, energy]))
    # a trailing 1-point chunk is numpy's pairwise mean of one column, as evaluate() takes it
    _assert_same_bits(out[10], oracle.evaluate(points[10]).as_array())


def test_evaluate_batch_peak_memory_below_two_histories(oracle, space):
    n = gust._BATCH_CHUNK
    rng = np.random.default_rng(12)
    points = space.lower + (space.upper - space.lower) * rng.random((n, 3))
    history_bytes = _time_grid(oracle.config).size * n * 8
    tracemalloc.start()
    try:
        oracle.evaluate_batch(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * history_bytes
