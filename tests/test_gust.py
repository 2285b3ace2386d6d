import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gustuq import (FlightCondition, GustOracle, GustProfile, QoIRecord,
                    SimulationConfig, TimeHistory, WingModel, gradient,
                    gust_velocity, qois, simulate)
from gustuq.gust import newmark_response

NOMINAL = np.array([50.0, 6.0, 10.0])


def make_parts(vinf=50.0, lg=6.0, vp=10.0):
    return (GustProfile(peak_velocity=vp, gust_length=lg, onset_time=0.1),
            FlightCondition(freestream_velocity=vinf),
            WingModel(),
            SimulationConfig())


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

def test_zero_gust_zero_response():
    gust, flight, wing, config = make_parts(vp=0.0)
    hist = simulate(gust, flight, wing, config)
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


def test_linearity_in_peak_velocity():
    gust1, flight, wing, config = make_parts(vp=5.0)
    gust2 = GustProfile(10.0, 6.0, onset_time=0.1)
    h1 = simulate(gust1, flight, wing, config)
    h2 = simulate(gust2, flight, wing, config)
    np.testing.assert_allclose(h2.tip_displacement, 2.0 * h1.tip_displacement,
                               rtol=1e-13, atol=1e-300)


def test_post_gust_energy_conserved():
    gust, flight, wing, config = make_parts()
    hist = simulate(gust, flight, wing, config)
    m, k = wing.modal_mass, wing.stiffness
    energy = 0.5 * m * hist.modal_velocity**2 + 0.5 * k * hist.modal_coordinate**2
    post = hist.times > gust.onset_time + gust.gust_length / flight.freestream_velocity
    e = energy[post]
    assert (e.max() - e.min()) / e.mean() < 1e-3


def test_argmax_after_gust_peak():
    gust, flight, wing, config = make_parts()
    hist = simulate(gust, flight, wing, config)
    t_star = hist.times[np.argmax(hist.tip_displacement)]
    t_gust_peak = gust.onset_time + gust.gust_length / (2 * flight.freestream_velocity)
    assert t_star > t_gust_peak


def test_post_gust_peak_amplitudes_constant():
    gust, flight, wing, config = make_parts()
    hist = simulate(gust, flight, wing, config)
    w = hist.tip_displacement
    t_end = gust.onset_time + gust.gust_length / flight.freestream_velocity
    peaks = [w[i] for i in range(1, len(w) - 1)
             if w[i] >= w[i - 1] and w[i] >= w[i + 1] and hist.times[i] > t_end]
    peaks = np.array(peaks)
    assert (peaks.max() - peaks.min()) / peaks.mean() < 0.01


def test_grid_convergence():
    gust, flight, wing, _ = make_parts()
    coarse = qois(simulate(gust, flight, wing, SimulationConfig(time_step=0.01)))
    fine = qois(simulate(gust, flight, wing, SimulationConfig(time_step=0.005)))
    assert abs(coarse.max_tip_displacement - fine.max_tip_displacement) \
        / fine.max_tip_displacement < 0.005
    assert abs(coarse.avg_strain_energy - fine.avg_strain_energy) \
        / fine.avg_strain_energy < 0.005


def test_final_time_must_cover_gust_window():
    gust, flight, wing, _ = make_parts()
    with pytest.raises(ValueError, match="window"):
        simulate(gust, flight, wing, SimulationConfig(final_time=0.15))


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


def test_history_invariants():
    gust, flight, wing, config = make_parts()
    hist = simulate(gust, flight, wing, config)
    assert len(hist.times) == int(np.floor(config.final_time / config.time_step)) + 1
    np.testing.assert_array_equal(hist.tip_displacement,
                                  wing.mode_tip_value * hist.modal_coordinate)
    np.testing.assert_allclose(hist.strain_energy,
                               0.5 * wing.stiffness * hist.modal_coordinate**2)


def test_history_csv_export(tmp_path):
    gust, flight, wing, config = make_parts()
    hist = simulate(gust, flight, wing, config)
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


def test_qois_scaling():
    gust, flight, wing, config = make_parts()
    hist = simulate(gust, flight, wing, config)
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
    lambda: FlightCondition(np.nan),
    lambda: FlightCondition(np.inf),
    lambda: FlightCondition(50.0, air_density=np.nan),
    lambda: GustOracle(air_density=np.nan),
    lambda: GustOracle(air_density=-1.225),
    lambda: GustOracle(gust_onset_time=np.inf),
])
def test_gust_and_flight_reject_non_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


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
