"""Reduced-order gust-response benchmark.

A single-mode cantilever-wing oscillator under quasi-steady lift forcing
from a one-minus-cosine vertical gust:

    m q'' + c q' + k q = Q(t),   Q(t) = 1/2 rho V_inf S C_La * Vg(t)

with k = m (2 pi f_n)^2, c = 2 zeta sqrt(k m), zero initial conditions,
integrated with Newmark average acceleration.  Outputs are the signed
maximum tip displacement and the time-averaged strain energy; parameter
gradients come from co-integrated forward sensitivity equations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import QoIRecord, InputSpace, default_input_space

__all__ = [
    "GustProfile",
    "FlightCondition",
    "WingModel",
    "SimulationConfig",
    "TimeHistory",
    "gust_velocity",
    "gust_velocity_gradients",
    "newmark_response",
    "simulate",
    "qois",
    "gradient",
    "GustOracle",
]


@dataclass(frozen=True)
class GustProfile:
    """One-minus-cosine vertical gust: peak velocity, spatial length, onset time."""

    peak_velocity: float  # m/s
    gust_length: float  # m
    onset_time: float = 0.1  # s

    def __post_init__(self):
        if not (math.isfinite(self.peak_velocity) and self.peak_velocity >= 0):
            raise ValueError("peak gust velocity must be finite and non-negative")
        if not (math.isfinite(self.gust_length) and self.gust_length > 0):
            raise ValueError("gust length must be finite and positive")
        if not (math.isfinite(self.onset_time) and self.onset_time >= 0):
            raise ValueError("gust onset time must be finite and non-negative")


@dataclass(frozen=True)
class FlightCondition:
    freestream_velocity: float  # m/s
    air_density: float = 1.225  # kg/m^3

    def __post_init__(self):
        if not (math.isfinite(self.freestream_velocity) and self.freestream_velocity > 0):
            raise ValueError("freestream velocity must be finite and positive")
        if not (math.isfinite(self.air_density) and self.air_density > 0):
            raise ValueError("air density must be finite and positive")


@dataclass(frozen=True)
class WingModel:
    """Single structural mode of the wing plus a quasi-steady lift closure."""

    modal_mass: float = 50.0  # kg
    natural_frequency: float = 1.5  # Hz; soft enough that dt = 0.01 s resolves it
    reference_area: float = 8.0  # m^2
    lift_curve_slope: float = 2.0 * math.pi  # 1/rad
    mode_tip_value: float = 1.0
    damping_ratio: float = 0.0

    def __post_init__(self):
        for name in ("modal_mass", "natural_frequency", "reference_area",
                     "lift_curve_slope", "mode_tip_value"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.damping_ratio < 0:
            raise ValueError("damping ratio cannot be negative")

    @property
    def stiffness(self) -> float:
        return self.modal_mass * (2.0 * math.pi * self.natural_frequency) ** 2

    @property
    def damping(self) -> float:
        return 2.0 * self.damping_ratio * math.sqrt(self.stiffness * self.modal_mass)


@dataclass(frozen=True)
class SimulationConfig:
    time_step: float = 0.01  # s
    final_time: float = 2.0  # s
    newmark_beta: float = 0.25
    newmark_gamma: float = 0.5

    def __post_init__(self):
        if self.time_step <= 0:
            raise ValueError("time step must be positive")
        if self.final_time <= 0:
            raise ValueError("final time must be positive")


@dataclass(frozen=True)
class TimeHistory:
    """Time-discretized structural response of one simulation."""

    times: np.ndarray
    modal_coordinate: np.ndarray
    modal_velocity: np.ndarray
    tip_displacement: np.ndarray
    strain_energy: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["t", "q", "qdot", "w_tip", "U"])
            for row in zip(self.times, self.modal_coordinate, self.modal_velocity,
                           self.tip_displacement, self.strain_energy):
                writer.writerow([f"{v:.17g}" for v in row])


# ---------------------------------------------------------------------------
# gust profile


def gust_velocity(t, profile: GustProfile, freestream_velocity: float):
    """One-minus-cosine gust velocity at time(s) t; zero outside the window.

    The window is (T0, T0 + l_g/V_inf); inside it the velocity is
    1/2 V_p (1 - cos(2 pi (t - T0) V_inf / l_g)), peaking at exactly V_p
    halfway through.
    """
    t = np.asarray(t, dtype=float)
    t0 = profile.onset_time
    duration = profile.gust_length / freestream_velocity
    phase = 2.0 * np.pi * (t - t0) / duration
    v = 0.5 * profile.peak_velocity * (1.0 - np.cos(phase))
    inside = (t > t0) & (t < t0 + duration)
    return np.where(inside, v, 0.0)


def gust_velocity_gradients(t, profile: GustProfile, freestream_velocity: float):
    """Partial derivatives of the gust velocity wrt (V_inf, l_g, V_p).

    Returns three arrays shaped like t. The window edges carry zero
    velocity and zero phase derivative, so the parameter derivatives are
    continuous there.
    """
    t = np.asarray(t, dtype=float)
    t0 = profile.onset_time
    vinf = freestream_velocity
    lg = profile.gust_length
    vp = profile.peak_velocity
    phase = 2.0 * np.pi * (t - t0) * vinf / lg
    inside = (t > t0) & (t < t0 + lg / vinf)
    sin_term = 0.5 * vp * np.sin(phase)
    d_vinf = np.where(inside, sin_term * 2.0 * np.pi * (t - t0) / lg, 0.0)
    d_lg = np.where(inside, -sin_term * 2.0 * np.pi * (t - t0) * vinf / lg**2, 0.0)
    d_vp = np.where(inside, 0.5 * (1.0 - np.cos(phase)), 0.0)
    return d_vinf, d_lg, d_vp


# ---------------------------------------------------------------------------
# time integration


def newmark_response(m: float, c: float, k: float, forcing: np.ndarray, dt: float,
                     beta: float = 0.25, gamma: float = 0.5):
    """Newmark time stepping for m q'' + c q' + k q = F(t), zero ICs.

    ``forcing`` holds F at the time nodes, shape (n_steps+1,) or
    (n_steps+1, batch); the batch axis is integrated in lockstep.
    Returns (q, qdot) with the same shape as forcing.
    """
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


def _time_grid(config: SimulationConfig) -> np.ndarray:
    n_steps = int(math.floor(config.final_time / config.time_step))
    return np.arange(n_steps + 1) * config.time_step


def _check_window(gust: GustProfile, flight: FlightCondition, config: SimulationConfig):
    window_end = gust.onset_time + gust.gust_length / flight.freestream_velocity
    if config.final_time < window_end:
        raise ValueError(
            f"final time {config.final_time} s does not cover the gust window "
            f"ending at {window_end:.4g} s"
        )


def _force_scale(flight: FlightCondition, wing: WingModel) -> float:
    return (0.5 * flight.air_density * flight.freestream_velocity
            * wing.reference_area * wing.lift_curve_slope)


def simulate(gust: GustProfile, flight: FlightCondition, wing: WingModel,
             config: SimulationConfig) -> TimeHistory:
    """Integrate the forced oscillator and return the full response history."""
    _check_window(gust, flight, config)
    times = _time_grid(config)
    forcing = _force_scale(flight, wing) * gust_velocity(times, gust, flight.freestream_velocity)
    q, v = newmark_response(wing.modal_mass, wing.damping, wing.stiffness,
                            forcing, config.time_step,
                            config.newmark_beta, config.newmark_gamma)
    return TimeHistory(
        times=times,
        modal_coordinate=q,
        modal_velocity=v,
        tip_displacement=wing.mode_tip_value * q,
        strain_energy=0.5 * wing.stiffness * q * q,
    )


def qois(history: TimeHistory) -> QoIRecord:
    """Signed maximum tip displacement and time-averaged strain energy."""
    if history.times.size == 0:
        raise ValueError("empty time history")
    return QoIRecord(
        max_tip_displacement=float(history.tip_displacement.max()),
        avg_strain_energy=float(history.strain_energy.mean()),
    )


def gradient(gust: GustProfile, flight: FlightCondition, wing: WingModel,
             config: SimulationConfig) -> np.ndarray:
    """2x3 gradient of (max tip displacement, avg strain energy) wrt (V_inf, l_g, V_p).

    Forward sensitivities satisfy the same oscillator equation with the
    forcing replaced by its parameter derivative, so they are
    co-integrated with the identical Newmark recursion.  The max-QoI
    derivative freezes the primal argmax time step (earliest on ties).
    """
    _check_window(gust, flight, config)
    times = _time_grid(config)
    vinf = flight.freestream_velocity
    scale = _force_scale(flight, wing)
    vg = gust_velocity(times, gust, vinf)
    d_vinf, d_lg, d_vp = gust_velocity_gradients(times, gust, vinf)

    # Q = scale(V_inf) * Vg; the V_inf column picks up the prefactor too.
    forcing = np.column_stack([
        scale * d_vinf + (scale / vinf) * vg,
        scale * d_lg,
        scale * d_vp,
        scale * vg,  # primal in the same batch for a shared argmax
    ])
    q, _ = newmark_response(wing.modal_mass, wing.damping, wing.stiffness,
                            forcing, config.time_step,
                            config.newmark_beta, config.newmark_gamma)
    s, q_primal = q[:, :3], q[:, 3]
    k = wing.stiffness
    i_star = int(np.argmax(q_primal))  # argmax of w_tip; phi_tip > 0

    grad_max = wing.mode_tip_value * s[i_star]
    grad_energy = (k * q_primal[:, None] * s).mean(axis=0)
    return np.vstack([grad_max, grad_energy])


# ---------------------------------------------------------------------------
# oracle over the benchmark input space (V_inf, l_g, V_p)


# Oracle input columns: each value finite, V_inf > 0, l_g > 0, V_p >= 0.
_ORACLE_INPUTS = ("freestream_velocity", "gust_length", "peak_gust_velocity")


def _check_oracle_points(points: np.ndarray, caller: str) -> None:
    """Raise a ValueError naming the first row, and its input, that the oracle cannot take."""
    if points.ndim != 2 or points.shape[1] != len(_ORACLE_INPUTS):
        raise ValueError(f"{caller}: points must have {len(_ORACLE_INPUTS)} columns "
                         f"(V_inf, l_g, V_p), got shape {points.shape}")
    in_range = np.column_stack([points[:, 0] > 0, points[:, 1] > 0, points[:, 2] >= 0])
    if in_range.all() and np.isfinite(points).all():
        return
    valid = in_range & np.isfinite(points)
    row = int(np.argmin(valid.all(axis=1)))
    col = int(np.argmin(valid[row]))
    raise ValueError(f"{caller}: row {row} has {_ORACLE_INPUTS[col]} = {float(points[row, col])!r}; "
                     f"it must be finite and {'non-negative' if col == 2 else 'positive'}")


class GustOracle:
    """Model oracle mapping (V_inf, l_g, V_p) to the two benchmark QoIs.

    Pure: results depend only on the input point and the frozen model
    constants.  Batch evaluation integrates all points in lockstep.  Its
    displacement is bit-identical to one-at-a-time evaluation; its energy
    is a time mean whose summation order depends on the batch width, so it
    agrees with one-at-a-time evaluation to about 10 ulp.  Points must be
    finite with V_inf > 0, l_g > 0 and V_p >= 0; ``evaluate``,
    ``evaluate_batch`` and ``gradient`` raise a ValueError naming the first
    row that is not.
    """

    def __init__(self, wing: WingModel | None = None,
                 config: SimulationConfig | None = None,
                 air_density: float = 1.225,
                 gust_onset_time: float = 0.1,
                 space: InputSpace | None = None,
                 batch_chunk: int = 20000):
        self.wing = wing or WingModel()
        self.config = config or SimulationConfig()
        self.air_density = air_density
        self.gust_onset_time = gust_onset_time
        self.space = space or default_input_space()
        self.batch_chunk = batch_chunk

    def _unpack(self, x):
        vinf, lg, vp = (float(v) for v in np.asarray(x, dtype=float))
        gust = GustProfile(peak_velocity=vp, gust_length=lg, onset_time=self.gust_onset_time)
        flight = FlightCondition(freestream_velocity=vinf, air_density=self.air_density)
        return gust, flight

    def simulate(self, x) -> TimeHistory:
        gust, flight = self._unpack(x)
        return simulate(gust, flight, self.wing, self.config)

    def evaluate(self, x) -> QoIRecord:
        point = np.asarray(x, dtype=float)[None, :]
        _check_oracle_points(point, "evaluate")
        out = self.evaluate_batch(point)[0]
        return QoIRecord(max_tip_displacement=float(out[0]), avg_strain_energy=float(out[1]))

    def evaluate_batch(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        _check_oracle_points(points, "evaluate_batch")
        out = np.empty((points.shape[0], 2))
        for start in range(0, points.shape[0], self.batch_chunk):
            chunk = points[start:start + self.batch_chunk]
            out[start:start + self.batch_chunk] = self._evaluate_chunk(chunk)
        return out

    def _evaluate_chunk(self, points) -> np.ndarray:
        times = _time_grid(self.config)
        t0 = self.gust_onset_time
        vinf, lg, vp = points[:, 0], points[:, 1], points[:, 2]
        window_end = t0 + lg / vinf
        if np.any(self.config.final_time < window_end):
            raise ValueError("final time does not cover the gust window for some points")

        tt = times[:, None]
        phase = 2.0 * np.pi * (tt - t0) * vinf / lg
        vg = np.where((tt > t0) & (tt < window_end),
                      0.5 * vp * (1.0 - np.cos(phase)), 0.0)
        scale = (0.5 * self.air_density * vinf
                 * self.wing.reference_area * self.wing.lift_curve_slope)
        q, _ = newmark_response(self.wing.modal_mass, self.wing.damping,
                                self.wing.stiffness, scale * vg,
                                self.config.time_step,
                                self.config.newmark_beta, self.config.newmark_gamma)
        k = self.wing.stiffness
        w_tip = self.wing.mode_tip_value * q
        return np.column_stack([w_tip.max(axis=0), (0.5 * k * q * q).mean(axis=0)])

    def gradient(self, x) -> np.ndarray:
        _check_oracle_points(np.asarray(x, dtype=float)[None, :], "gradient")
        gust, flight = self._unpack(x)
        return gradient(gust, flight, self.wing, self.config)
