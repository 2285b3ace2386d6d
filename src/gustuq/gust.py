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


def _gust_shape(t, onset_time, freestream_velocity, gust_length):
    """Phase, window mask and unit profile of the one-minus-cosine gust.

    The phase is 2 pi (t - T0) V_inf / l_g, the window is
    (T0, T0 + l_g/V_inf), and the unit profile is 1 - cos(phase) inside
    the window and 0 outside.  The arguments broadcast together.
    """
    phase = 2.0 * np.pi * (t - onset_time) * freestream_velocity / gust_length
    inside = (t > onset_time) & (t < onset_time + gust_length / freestream_velocity)
    return phase, inside, np.where(inside, 1.0 - np.cos(phase), 0.0)


def gust_velocity(t, profile: GustProfile, freestream_velocity: float):
    """One-minus-cosine gust velocity at time(s) t; zero outside the window.

    The window is (T0, T0 + l_g/V_inf); inside it the velocity is
    1/2 V_p (1 - cos(2 pi (t - T0) V_inf / l_g)), peaking at exactly V_p
    halfway through.
    """
    _, _, shape = _gust_shape(np.asarray(t, dtype=float), profile.onset_time,
                              freestream_velocity, profile.gust_length)
    return 0.5 * profile.peak_velocity * shape


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


def _oracle_and_point(gust: GustProfile, flight: FlightCondition, wing: WingModel,
                      config: SimulationConfig):
    oracle = GustOracle(wing=wing, config=config, air_density=flight.air_density,
                        gust_onset_time=gust.onset_time)
    return oracle, [flight.freestream_velocity, gust.gust_length, gust.peak_velocity]


def simulate(gust: GustProfile, flight: FlightCondition, wing: WingModel,
             config: SimulationConfig) -> TimeHistory:
    """Integrate the forced oscillator and return the full response history."""
    oracle, x = _oracle_and_point(gust, flight, wing, config)
    return oracle.simulate(x)


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

    See ``GustOracle.gradient``.
    """
    oracle, x = _oracle_and_point(gust, flight, wing, config)
    return oracle.gradient(x)


# ---------------------------------------------------------------------------
# oracle over the benchmark input space (V_inf, l_g, V_p)


# Oracle input columns: each value finite, V_inf > 0, l_g > 0, V_p >= 0.
_ORACLE_INPUTS = ("freestream_velocity", "gust_length", "peak_gust_velocity")

# Points integrated in lockstep per Newmark call; bounds the (time x point)
# temporaries of large batches.
_BATCH_CHUNK = 20000


class GustOracle:
    """Model oracle mapping (V_inf, l_g, V_p) to the two benchmark QoIs.

    Pure: results depend only on the input point and the frozen model
    constants.  ``simulate``, ``evaluate``, ``evaluate_batch`` and
    ``gradient`` share one forcing builder and one Newmark integration, so
    the QoIs of a ``simulate`` history are bit-identical to ``evaluate``.
    Batch evaluation integrates all points in lockstep.  Its displacement
    is bit-identical to one-at-a-time evaluation; its energy is a time mean
    whose summation order depends on the batch width, so it agrees with
    one-at-a-time evaluation to about 10 ulp.  Points must be finite with
    V_inf > 0, l_g > 0 and V_p >= 0, and the final time must cover their
    gust windows; each entry point raises a ValueError naming the first
    row that does not.
    """

    def __init__(self, wing: WingModel | None = None,
                 config: SimulationConfig | None = None,
                 air_density: float = 1.225,
                 gust_onset_time: float = 0.1,
                 space: InputSpace | None = None):
        if not (math.isfinite(air_density) and air_density > 0):
            raise ValueError("air density must be finite and positive")
        if not (math.isfinite(gust_onset_time) and gust_onset_time >= 0):
            raise ValueError("gust onset time must be finite and non-negative")
        self.wing = wing or WingModel()
        self.config = config or SimulationConfig()
        self.air_density = air_density
        self.gust_onset_time = gust_onset_time
        self.space = space or default_input_space()

    def _check_oracle_points(self, points: np.ndarray, caller: str) -> np.ndarray:
        """Return ``points``, or raise a ValueError naming the first row the oracle cannot take."""
        if points.ndim != 2 or points.shape[1] != len(_ORACLE_INPUTS):
            raise ValueError(f"{caller}: points must have {len(_ORACLE_INPUTS)} columns "
                             f"(V_inf, l_g, V_p), got shape {points.shape}")
        valid = np.column_stack([points[:, 0] > 0, points[:, 1] > 0, points[:, 2] >= 0])
        valid &= np.isfinite(points)
        if not valid.all():
            row = int(np.argmin(valid.all(axis=1)))
            col = int(np.argmin(valid[row]))
            raise ValueError(f"{caller}: row {row} has {_ORACLE_INPUTS[col]} = "
                             f"{float(points[row, col])!r}; it must be finite and "
                             f"{'non-negative' if col == 2 else 'positive'}")
        window_end = self.gust_onset_time + points[:, 1] / points[:, 0]
        grid_end = _time_grid(self.config)[-1]
        late = grid_end < window_end
        if late.any():
            row = int(np.argmax(late))
            raise ValueError(f"{caller}: row {row} (V_inf, l_g, V_p) = {points[row].tolist()} "
                             f"has its gust window ending at {window_end[row]:.6g} s; "
                             f"the time grid ends at {grid_end:.6g} s "
                             f"(final time {self.config.final_time} s)")
        return points

    def _forcing(self, points: np.ndarray, sensitivities: bool) -> np.ndarray:
        """Lift forcing Q(t) = 1/2 rho V_inf S C_La Vg(t) for each row of ``points``.

        Returns (T, n) for n points; with ``sensitivities``, (T, n, 4): Q
        followed by its partial derivatives wrt V_inf, l_g and V_p.  The
        window edges carry zero velocity and zero phase derivative, so the
        partials are continuous there.
        """
        t = _time_grid(self.config)[:, None]
        t0 = self.gust_onset_time
        vinf, lg, vp = points[:, 0], points[:, 1], points[:, 2]
        phase, inside, shape = _gust_shape(t, t0, vinf, lg)
        scale = (0.5 * self.air_density * vinf
                 * self.wing.reference_area * self.wing.lift_curve_slope)
        vg = 0.5 * vp * shape
        if not sensitivities:
            return scale * vg
        sin_term = 0.5 * vp * np.sin(phase)
        d_vinf = np.where(inside, sin_term * 2.0 * np.pi * (t - t0) / lg, 0.0)
        d_lg = np.where(inside, -sin_term * 2.0 * np.pi * (t - t0) * vinf / lg**2, 0.0)
        # Q = scale(V_inf) * Vg; the V_inf column picks up the prefactor too.
        return np.stack([scale * vg, scale * d_vinf + (scale / vinf) * vg,
                         scale * d_lg, scale * (0.5 * shape)], axis=-1)

    def _response(self, points: np.ndarray, sensitivities: bool = False):
        """(q, qdot) of the forced oscillator, shaped like ``_forcing``'s result."""
        forcing = self._forcing(points, sensitivities)
        q, v = newmark_response(self.wing.modal_mass, self.wing.damping, self.wing.stiffness,
                                forcing.reshape(forcing.shape[0], -1), self.config.time_step,
                                self.config.newmark_beta, self.config.newmark_gamma)
        return q.reshape(forcing.shape), v.reshape(forcing.shape)

    def simulate(self, x) -> TimeHistory:
        """Integrate the forced oscillator at one point and return the full response history."""
        point = self._check_oracle_points(np.asarray(x, dtype=float)[None, :], "simulate")
        q, v = self._response(point)
        q, v = q[:, 0], v[:, 0]
        return TimeHistory(
            times=_time_grid(self.config),
            modal_coordinate=q,
            modal_velocity=v,
            tip_displacement=self.wing.mode_tip_value * q,
            strain_energy=0.5 * self.wing.stiffness * q * q,
        )

    def evaluate(self, x) -> QoIRecord:
        point = self._check_oracle_points(np.asarray(x, dtype=float)[None, :], "evaluate")
        out = self.evaluate_batch(point)[0]
        return QoIRecord(max_tip_displacement=float(out[0]), avg_strain_energy=float(out[1]))

    def evaluate_batch(self, points) -> np.ndarray:
        points = self._check_oracle_points(np.atleast_2d(np.asarray(points, dtype=float)),
                                           "evaluate_batch")
        out = np.empty((points.shape[0], 2))
        for start in range(0, points.shape[0], _BATCH_CHUNK):
            out[start:start + _BATCH_CHUNK] = self._evaluate_chunk(
                points[start:start + _BATCH_CHUNK])
        return out

    def _evaluate_chunk(self, points) -> np.ndarray:
        q, _ = self._response(points)
        k = self.wing.stiffness
        w_tip = self.wing.mode_tip_value * q
        return np.column_stack([w_tip.max(axis=0), (0.5 * k * q * q).mean(axis=0)])

    def gradient(self, x) -> np.ndarray:
        """2x3 gradient of (max tip displacement, avg strain energy) wrt (V_inf, l_g, V_p).

        Forward sensitivities satisfy the same oscillator equation with the
        forcing replaced by its parameter derivative, so they are
        co-integrated with the identical Newmark recursion.  The max-QoI
        derivative freezes the primal argmax time step (earliest on ties).
        """
        point = self._check_oracle_points(np.asarray(x, dtype=float)[None, :], "gradient")
        q, _ = self._response(point, sensitivities=True)
        q_primal, s = q[:, 0, 0], q[:, 0, 1:]
        i_star = int(np.argmax(q_primal))  # argmax of w_tip; phi_tip > 0
        grad_max = self.wing.mode_tip_value * s[i_star]
        grad_energy = (self.wing.stiffness * q_primal[:, None] * s).mean(axis=0)
        return np.vstack([grad_max, grad_energy])
