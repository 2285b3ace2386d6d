"""Reduced-order gust-response benchmark.

A single-mode cantilever-wing oscillator under quasi-steady lift forcing
from a one-minus-cosine vertical gust:

    m q'' + c q' + k q = Q(t),   Q(t) = 1/2 rho V_inf S C_La * Vg(t)

with k = m (2 pi f_n)^2, c = 2 zeta sqrt(k m), zero initial conditions,
integrated with Newmark average acceleration (beta = 1/4, gamma = 1/2).
Outputs are the signed maximum tip displacement and the time-averaged
strain energy; parameter gradients come from co-integrated forward
sensitivity equations.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import QoIRecord, InputSpace, default_input_space

__all__ = [
    "GustProfile",
    "WingModel",
    "SimulationConfig",
    "TimeHistory",
    "gust_velocity",
    "newmark_response",
    "qois",
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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if not (math.isfinite(self.damping_ratio) and self.damping_ratio >= 0):
            raise ValueError("damping ratio must be finite and non-negative")

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

    def __post_init__(self):
        if not (math.isfinite(self.time_step) and self.time_step > 0):
            raise ValueError("time step must be finite and positive")
        if not (math.isfinite(self.final_time) and self.final_time > 0):
            raise ValueError("final time must be finite and positive")


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
    the window and +0.0 outside.  ``t`` is an array of at least one
    dimension; ``freestream_velocity`` and ``gust_length`` share one shape
    that broadcasts with it, and the results have the broadcast shape.  The
    phase and the profile are each one array written in place, operation
    by operation in the order of those formulas, so they carry the bits of
    the formulas written as expressions.
    """
    phase = np.multiply(2.0 * np.pi * (t - onset_time), freestream_velocity)
    np.divide(phase, gust_length, out=phase)
    inside = (t > onset_time) & (t < onset_time + gust_length / freestream_velocity)
    shape = np.cos(phase)
    np.subtract(1.0, shape, out=shape)
    np.copyto(shape, 0.0, where=~inside)
    return phase, inside, shape


def gust_velocity(t, profile: GustProfile, freestream_velocity: float):
    """One-minus-cosine gust velocity at time(s) t; zero outside the window.

    The window is (T0, T0 + l_g/V_inf); inside it the velocity is
    1/2 V_p (1 - cos(2 pi (t - T0) V_inf / l_g)), peaking at exactly V_p
    halfway through.  V_inf must be finite and positive.
    """
    if not (math.isfinite(freestream_velocity) and freestream_velocity > 0):
        raise ValueError(f"gust_velocity: freestream velocity is {float(freestream_velocity)!r}; "
                         "it must be finite and positive")
    t = np.asarray(t, dtype=float)
    _, _, shape = _gust_shape(np.atleast_1d(t), profile.onset_time,
                              freestream_velocity, profile.gust_length)
    return 0.5 * profile.peak_velocity * shape.reshape(t.shape)


# ---------------------------------------------------------------------------
# time integration


# Widest forcing that newmark_response reduces from its history, stepped one
# column at a time in Python floats; wider reductions go through the ufunc
# loop.  Per 201-node call the ufunc loop costs 1.6-1.9 ms at any width
# from 4 to 64, the Python loop about 0.07 ms per column, so they cross
# between 24 and 32 columns (2-core Xeon VM, Python 3.11, numpy 2.4); 16
# keeps a margin of about 1.6x.
_SCALAR_COLUMNS = 16


def newmark_response(m: float, c: float, k: float, forcing: np.ndarray, dt: float, *,
                     reduce: bool = False, n_nodes: int | None = None):
    """Newmark average-acceleration stepping for m q'' + c q' + k q = F(t), zero ICs.

    ``forcing`` holds F at the first time nodes, shape (rows,) or (rows,
    batch) with at least one node; each column is its own system.
    ``n_nodes`` is the number of time nodes stepped, by default ``rows``:
    F is exactly +0.0 at every node from ``rows`` up to ``n_nodes``, so a
    forcing that ends in zeros may be passed without them.  Returns (q,
    qdot), each shaped like the forcing with ``n_nodes`` rows.  ``m``,
    ``k`` and ``dt`` must be finite and positive, ``c`` finite and
    non-negative, and ``n_nodes`` an integer (not a bool) no smaller than
    ``rows``; a ValueError names the first that is not.  The forcing's
    values are not scanned.

    The scheme is fixed at beta = 1/4, gamma = 1/2 (Newmark 1959), the
    unconditionally stable, second-order case.  Every column follows this
    update, term by term and in the same order:

        rhs     = F + m (4/dt^2 q + 4/dt v + a) + c (2/dt q + v)
        q_next  = rhs / (k + 2 c / dt + 4 m / dt^2)
        a_next  = 4/dt^2 (q_next - q) - 4/dt v - a
        v_next  = v + dt (1/2 a + 1/2 a_next)

    That is the general beta-gamma update without its factors that are
    exactly 1 or 0 there, so it gives the same bits.  The damping term is
    kept when ``c == 0``: dropping it can change the sign of a zero.  The
    history is stepped one column at a time in Python floats
    (``_newmark_column``), which avoids numpy's per-call cost.

    The nodes past the forcing's rows are stepped with F = +0.0, the value
    a zero-padded forcing holds there, so the result is that of the padded
    call bit for bit.

    With ``reduce`` the call returns ``(q.max(axis=0), (0.5 * k * q *
    q).mean(axis=0))`` of that history, bit for bit, shaped like one forcing
    row.  Up to ``_SCALAR_COLUMNS`` columns it is exactly that: the history
    is stepped and numpy reduces it.  A wider reduction keeps no history:
    it is stepped a whole row at a time in ufuncs (``_newmark_rows``), with
    a running ``np.maximum`` and an energy sum added node by node, from the
    first node to the last, then divided by the node count.  For two or
    more columns that is the order numpy's ``mean(axis=0)`` adds the rows
    of a C-ordered history, and each Python float operation is the same
    correctly rounded IEEE operation as the ufunc's, so both paths give the
    same bits.
    """
    for name, value, positive in (("m", m, True), ("c", c, False), ("k", k, True),
                                  ("dt", dt, True)):
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            raise ValueError(f"newmark_response: {name} must be finite and "
                             f"{'positive' if positive else 'non-negative'}, got {value!r}")
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim not in (1, 2) or forcing.shape[0] == 0:
        raise ValueError("newmark_response: forcing must be 1-D or 2-D with at least one "
                         f"time node, got shape {forcing.shape}")
    rows = forcing.shape[0]
    if n_nodes is None:
        n_nodes = rows
    elif isinstance(n_nodes, bool) or not isinstance(n_nodes, numbers.Integral) or n_nodes < rows:
        raise ValueError(f"newmark_response: n_nodes must be an integer no smaller than the "
                         f"forcing's {rows} time nodes, got {n_nodes!r}")
    n_nodes = int(n_nodes)
    squeeze = forcing.ndim == 1
    F = forcing[:, None] if squeeze else forcing
    batch = F.shape[1]

    k_eff = k + 2.0 * c / dt + 4.0 * m / (dt * dt)  # > 0 for every argument checked above
    constants = (m, c, dt, k_eff, 4.0 / (dt * dt), 4.0 / dt, 2.0 / dt)

    if reduce and batch > _SCALAR_COLUMNS:
        out = _newmark_rows(F, n_nodes, *map(np.array, constants + (0.5 * k,)))
    else:
        q, v = np.empty((n_nodes, batch)), np.empty((n_nodes, batch))
        constants = tuple(map(float, constants))
        for j, column in enumerate(F.T.tolist()):
            q[:, j], v[:, j] = _newmark_column(column, n_nodes, *constants)
        out = (q.max(axis=0), (0.5 * k * q * q).mean(axis=0)) if reduce else (q, v)
    return tuple(x[..., 0] for x in out) if squeeze else out


def _newmark_column(f, n_nodes, m, c, dt, k_eff, c0, c1, c3):
    """``newmark_response`` on one forcing column given as a list of floats: the q and qdot lists.

    The column is continued with 0.0 up to ``n_nodes`` nodes.
    """
    a = f[0] / m  # zero initial displacement and velocity
    q = v = 0.0
    qs, vs = [q], [v]
    for f_next in itertools.chain(f[1:], itertools.repeat(0.0, n_nodes - len(f))):
        c1v = c1 * v
        q_next = (f_next + m * (c0 * q + c1v + a) + c * (c3 * q + v)) / k_eff
        a_next = c0 * (q_next - q) - c1v - a
        v = v + dt * (0.5 * a + 0.5 * a_next)
        q, a = q_next, a_next
        qs.append(q)
        vs.append(v)
    return qs, vs


def _newmark_rows(F, n_nodes, m, c, dt, k_eff, c0, c1, c3, half_k):
    """``newmark_response(..., reduce=True)`` on a (rows, batch) forcing in ufuncs.

    One ufunc per term and row; the state lives in two rolling rows.  The
    nodes from ``rows`` up to ``n_nodes`` read one row of +0.0.  The
    constants are 0-d arrays, which skips the Python-float conversion a
    ufunc makes on every call.
    """
    rows, batch = F.shape
    zero_row = np.zeros(batch)
    # Step i reads row (i - 1) % 2 and writes row i % 2.
    q = np.zeros((2, batch))
    v = np.zeros((2, batch))
    a = F[0] / m  # zero initial displacement and velocity

    mul, add, sub = np.multiply, np.add, np.subtract
    c1v, t, u = (np.empty(batch) for _ in range(3))
    q_max, energy_sum = np.zeros(batch), np.zeros(batch)  # node 0 is at rest: +0 both
    half = np.array(0.5)
    for i in range(1, n_nodes):
        qn, vn, qn1, vn1 = q[(i - 1) % 2], v[(i - 1) % 2], q[i % 2], v[i % 2]
        mul(c1, vn, c1v)
        # rhs, accumulated in qn1: the mass term ...
        mul(c0, qn, t)
        add(t, c1v, t)
        add(t, a, t)
        mul(m, t, t)
        add(F[i] if i < rows else zero_row, t, qn1)
        # ... then the damping term
        mul(c3, qn, t)
        add(t, vn, t)
        mul(c, t, t)
        add(qn1, t, qn1)
        np.divide(qn1, k_eff, qn1)
        # a_next, in t, which then becomes a
        sub(qn1, qn, t)
        mul(c0, t, t)
        sub(t, c1v, t)
        sub(t, a, t)
        mul(half, a, u)
        a, t = t, a
        mul(half, a, t)
        add(u, t, u)
        mul(dt, u, u)
        add(vn, u, vn1)
        # t is free until the next step
        np.maximum(q_max, qn1, out=q_max)
        mul(half_k, qn1, t)
        mul(t, qn1, t)
        add(energy_sum, t, energy_sum)

    return q_max, np.divide(energy_sum, n_nodes, energy_sum)


def _time_grid(config: SimulationConfig) -> np.ndarray:
    n_steps = int(math.floor(config.final_time / config.time_step))
    return np.arange(n_steps + 1) * config.time_step


def qois(history: TimeHistory) -> QoIRecord:
    """Signed maximum tip displacement and time-averaged strain energy."""
    if history.times.size == 0:
        raise ValueError("empty time history")
    return QoIRecord(
        max_tip_displacement=float(history.tip_displacement.max()),
        avg_strain_energy=float(history.strain_energy.mean()),
    )


# ---------------------------------------------------------------------------
# oracle over the benchmark input space (V_inf, l_g, V_p)


# Oracle input columns: each value finite, V_inf > 0, l_g > 0, V_p >= 0.
_ORACLE_INPUTS = ("freestream_velocity", "gust_length", "peak_gust_velocity")

# Shortest gust window, in time steps, that the oracle accepts; a shorter
# window can fall between two nodes and leave the response silently zero.
_MIN_WINDOW_STEPS = 2

# Points integrated in lockstep per Newmark call; bounds the (time x point)
# forcing of large batches.
_BATCH_CHUNK = 20000


class GustOracle:
    """Model oracle mapping (V_inf, l_g, V_p) to the two benchmark QoIs.

    Pure: results depend only on the input point and the frozen model
    constants.  ``simulate``, ``evaluate``, ``evaluate_batch`` and
    ``gradient`` share one forcing builder and one Newmark average-
    acceleration integration, so the QoIs of a ``simulate`` history are
    bit-identical to ``evaluate``.  The forcing is built only up to the
    latest gust-window end of the points at hand (30 of 201 rows in the
    default box); ``newmark_response`` steps the later nodes with zero
    forcing, and histories still come back on the whole time grid.  Batch
    evaluation integrates its points ``_BATCH_CHUNK`` at a time through
    ``newmark_response(..., reduce=True)``, which is numpy's max and time
    mean of the chunk's history, bit for bit, so a chunk holds no (time x
    point) array beyond those window rows.  So a 1-point batch equals
    ``evaluate``; in a batch of two or more points numpy adds each
    column's energies in node order rather than pairwise, so the
    displacement is bit-identical to one-at-a-time evaluation but the
    energy agrees with it to about 10 ulp.  Points must
    be finite with V_inf > 0, l_g > 0 and V_p >= 0, the final time must
    cover their gust windows, and each window must last at least
    ``_MIN_WINDOW_STEPS`` time steps; each entry point raises a ValueError
    naming the first row that does not.  ``simulate``, ``evaluate`` and
    ``gradient`` take one point, a 3-vector, and name any other shape.
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
        if space is not None and space.names != _ORACLE_INPUTS:
            raise ValueError(f"GustOracle reads its input columns as {_ORACLE_INPUTS}; "
                             f"the input space given is {space.names}")
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
        duration = points[:, 1] / points[:, 0]
        window_end = self.gust_onset_time + duration
        grid_end = _time_grid(self.config)[-1]
        late = grid_end < window_end
        if late.any():
            row = int(np.argmax(late))
            raise ValueError(f"{caller}: row {row} (V_inf, l_g, V_p) = {points[row].tolist()} "
                             f"has its gust window ending at {window_end[row]:.6g} s; "
                             f"the time grid ends at {grid_end:.6g} s "
                             f"(final time {self.config.final_time} s)")
        dt = self.config.time_step
        short = duration < _MIN_WINDOW_STEPS * dt
        if short.any():
            row = int(np.argmax(short))
            raise ValueError(f"{caller}: row {row} (V_inf, l_g, V_p) = {points[row].tolist()} "
                             f"has a gust window of {duration[row]:.6g} s, "
                             f"shorter than {_MIN_WINDOW_STEPS} time steps of {dt:.6g} s")
        return points

    def _forcing(self, points: np.ndarray, sensitivities: bool) -> np.ndarray:
        """Lift forcing Q(t) = 1/2 rho V_inf S C_La Vg(t) for each row of ``points``.

        Returns (hi, n) for n points; with ``sensitivities``, (hi, n, 4): Q
        followed by its partial derivatives wrt V_inf, l_g and V_p.  Row i
        is time node i, and ``hi`` is the first node at or after the
        batch's latest window end; the gust is zero from there on, so the
        forcing is exactly +0.0 at every later node and is left out (the
        caller steps those nodes with ``newmark_response(..., n_nodes=)``).
        Only the window rows are computed, from the first node after the
        onset up to ``hi``; the rows before them are +0.0.  The window
        edges carry zero velocity and zero phase derivative, so the
        partials are continuous there.
        """
        t_grid = _time_grid(self.config)
        t0 = self.gust_onset_time
        vinf, lg, vp = points[:, 0], points[:, 1], points[:, 2]
        lo = np.searchsorted(t_grid, t0, side="right")
        hi = np.searchsorted(t_grid, (t0 + lg / vinf).max(), side="left")
        out = np.zeros((hi, points.shape[0]) + ((4,) if sensitivities else ()))
        t = t_grid[lo:hi, None]
        phase, inside, shape = _gust_shape(t, t0, vinf, lg)
        scale = (0.5 * self.air_density * vinf
                 * self.wing.reference_area * self.wing.lift_curve_slope)
        if not sensitivities:
            vg = np.multiply(0.5 * vp, shape, out=shape)
            np.multiply(scale, vg, out=out[lo:])
            return out
        vg = 0.5 * vp * shape
        sin_term = 0.5 * vp * np.sin(phase)
        d_vinf = np.where(inside, sin_term * 2.0 * np.pi * (t - t0) / lg, 0.0)
        d_lg = np.where(inside, -sin_term * 2.0 * np.pi * (t - t0) * vinf / lg**2, 0.0)
        # Q = scale(V_inf) * Vg; the V_inf column picks up the prefactor too.
        out[lo:] = np.stack([scale * vg, scale * d_vinf + (scale / vinf) * vg,
                             scale * d_lg, scale * (0.5 * shape)], axis=-1)
        return out

    def _response(self, points: np.ndarray, sensitivities: bool = False,
                  reduce: bool = False):
        """(q, qdot) of the forced oscillator on the whole time grid.

        Shaped (T, n), or (T, n, 4) with ``sensitivities``, for T time
        nodes; with ``reduce``, ``newmark_response``'s (max q, mean strain
        energy) instead, shaped like one time row.
        """
        forcing = self._forcing(points, sensitivities)
        n_nodes = _time_grid(self.config).size
        out = newmark_response(self.wing.modal_mass, self.wing.damping, self.wing.stiffness,
                               forcing.reshape(forcing.shape[0], -1), self.config.time_step,
                               reduce=reduce, n_nodes=n_nodes)
        shape = forcing.shape[1:] if reduce else (n_nodes,) + forcing.shape[1:]
        return tuple(x.reshape(shape) for x in out)

    def _check_one_point(self, x, caller: str) -> np.ndarray:
        """``x`` as a checked (1, 3) point, or a ValueError naming ``caller`` and the shape given."""
        x = np.asarray(x, dtype=float)
        if x.shape != (len(_ORACLE_INPUTS),):
            raise ValueError(f"{caller}: x must be one point (V_inf, l_g, V_p), "
                             f"got shape {x.shape}")
        return self._check_oracle_points(x[None, :], caller)

    def simulate(self, x) -> TimeHistory:
        """Integrate the forced oscillator at one point and return the full response history."""
        return self._history(self._check_one_point(x, "simulate"))

    def _history(self, point: np.ndarray) -> TimeHistory:
        """The response history at one checked (1, 3) point."""
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
        return qois(self._history(self._check_one_point(x, "evaluate")))

    def evaluate_batch(self, points) -> np.ndarray:
        points = self._check_oracle_points(np.atleast_2d(np.asarray(points, dtype=float)),
                                           "evaluate_batch")
        out = np.empty((points.shape[0], 2))
        for start in range(0, points.shape[0], _BATCH_CHUNK):
            q_max, energy = self._response(points[start:start + _BATCH_CHUNK], reduce=True)
            # max(phi q) == phi max(q) exactly: phi > 0 and rounding is monotone.
            out[start:start + _BATCH_CHUNK] = np.column_stack(
                [self.wing.mode_tip_value * q_max, energy])
        return out

    def gradient(self, x) -> np.ndarray:
        """2x3 gradient of (max tip displacement, avg strain energy) wrt (V_inf, l_g, V_p).

        Forward sensitivities satisfy the same oscillator equation with the
        forcing replaced by its parameter derivative, so they are
        co-integrated with the identical Newmark recursion.  The max-QoI
        derivative freezes the primal argmax time step (earliest on ties).
        """
        point = self._check_one_point(x, "gradient")
        q, _ = self._response(point, sensitivities=True)
        q_primal, s = q[:, 0, 0], q[:, 0, 1:]
        i_star = int(np.argmax(q_primal))  # argmax of w_tip; phi_tip > 0
        grad_max = self.wing.mode_tip_value * s[i_star]
        grad_energy = (self.wing.stiffness * q_primal[:, None] * s).mean(axis=0)
        return np.vstack([grad_max, grad_energy])
