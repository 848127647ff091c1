"""Method-of-lines integrator for the transformed wave equation.

The second-order equation from module transform is rewritten as a first-order
system in (v, w) = (v, v_t) on the uniform reference grid y_i = i/N:

    v_t = w
    w_t = -(c_yt D w + c_yy D2 v + c_y D v)
          - a (w - (y alpha'/alpha) D v) - b v - beta(t) |v|^rho v + f

with D the central first-difference and D2 the central second-difference.
Time stepping is classical four-stage Runge-Kutta with a fixed step chosen
from the characteristic speed bound s_max = 1 + sup alpha' (the last step is
shortened to land exactly on T). Dirichlet rows are forced to zero after
every stage and every step, so the boundary invariant holds exactly.

Manufactured-solution support lives here too: given the exact-field
descriptor u = amp sin(mode pi x / alpha(t)) exp(-rate t), the matching
source f = u_tt - u_xx + a u_t + b u + beta |u|^rho u is written in closed
form from (alpha, alpha', alpha''), which every alpha family returns, and
evaluated directly in reference coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, ConfigError, ResourceLimitError, ValidationError
from .model import ManufacturedField, ProblemSpec, sup_alpha_prime, validate_assumptions
from .transform import coefficient_grids, hyperbolicity_check

SNAPSHOT_CAP_BYTES = 256 * 2**20


def simpson_weights(n: int, dy: float) -> np.ndarray:
    """Composite Simpson quadrature weights over n uniform intervals.

    For odd n the last three intervals use the 3/8 rule, keeping the full
    weight vector fourth-order accurate.
    """
    w = np.zeros(n + 1)
    if n % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= dy / 3.0
    else:
        m = n - 3
        if m > 0:
            w[0] = w[m] = 1.0
            w[1:m:2] = 4.0
            w[2:m:2] = 2.0
            w[: m + 1] *= dy / 3.0
        w[m:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * dy / 8.0)
    return w


@dataclass(frozen=True)
class Grid:
    """Uniform reference grid with N intervals (N+1 nodes), N >= 8."""

    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ConfigError(f"grid: N must be an integer, got {self.n!r}")
        if self.n < 8:
            raise ConfigError(f"grid: N must be >= 8, got {self.n}")

    @property
    def dy(self) -> float:
        return 1.0 / self.n

    @cached_property
    def y(self) -> np.ndarray:
        nodes = np.linspace(0.0, 1.0, self.n + 1)
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def quad_weights(self) -> np.ndarray:
        w = simpson_weights(self.n, self.dy)
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class ReferenceState:
    """One snapshot (t, v, w) on the reference grid; arrays are frozen copies."""

    t: float
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        w = np.array(self.w, dtype=float)
        if v.ndim != 1 or v.shape != w.shape:
            raise ConfigError("state: v and w must be one-dimensional and equal-length")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class Trajectory:
    """Ordered snapshots of one run plus the fixed step the run used."""

    spec: ProblemSpec
    grid: Grid
    states: tuple[ReferenceState, ...]
    dt: float

    def __post_init__(self):
        times = [s.t for s in self.states]
        if len(times) < 1 or times[0] != 0.0:
            raise ConfigError("trajectory: snapshots must start at t = 0")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ConfigError("trajectory: snapshot times must be strictly increasing")
        if len(times) > 1 and abs(times[-1] - self.spec.horizon) > 1e-12 * max(1.0, self.spec.horizon):
            raise ConfigError("trajectory: snapshots must end at t = T")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])


# ---------------------------------------------------------------------------
# setup


def initialize(spec: ProblemSpec, grid: Grid) -> ReferenceState:
    """Initial reference-frame state at t = 0.

    Plain runs take v_i = u0(y_i), w_i = u1(y_i) (alpha(0) = 1 makes the
    position map the identity at t = 0; the velocity is reference-frame data).
    Manufactured runs ignore init and sample the exact reference fields, so
    convergence is measured against the field actually being solved for.
    Endpoint rows are clamped to zero either way.
    """
    if spec.source is not None:
        v_fn, w_fn = exact_reference_fields(spec.source, spec)
        v0 = np.asarray(v_fn(grid.y, 0.0), dtype=float).copy()
        w0 = np.asarray(w_fn(grid.y, 0.0), dtype=float).copy()
    else:
        u0, u1 = spec.init.sample(grid.y)
        v0 = np.asarray(u0, dtype=float).copy()
        w0 = np.asarray(u1, dtype=float).copy()
    v0[0] = v0[-1] = 0.0
    w0[0] = w0[-1] = 0.0
    return ReferenceState(0.0, v0, w0)


def step_size(spec: ProblemSpec, grid: Grid, t: float = 0.0, cfl: float = 0.5) -> float:
    """Fixed stable step dt = CFL dy / s_max with s_max = 1 + sup alpha'.

    The transformed characteristic speeds satisfy |y alpha' +/- 1|/alpha
    <= 1 + sup alpha' (alpha >= 1), so the bound is uniform in t and the
    step never needs adapting.
    """
    if not (cfl > 0.0) or not math.isfinite(cfl):
        raise ConfigError(f"cfl must be positive and finite, got {cfl!r}")
    s_max = 1.0 + max(sup_alpha_prime(spec.alpha), 0.0)
    return cfl * grid.dy / s_max


# ---------------------------------------------------------------------------
# right-hand side


def _rhs_arrays(t, v, w, spec: ProblemSpec, grid: Grid, forcing):
    dy = grid.dy
    y = grid.y
    c_yt, c_yy, c_y, drift = coefficient_grids(y, t, spec.alpha)
    a = spec.damping.a
    b = spec.damping.b
    bt, _ = spec.beta_at(t)

    Dv = np.zeros_like(v)
    Dw = np.zeros_like(v)
    D2v = np.zeros_like(v)
    Dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * dy)
    Dw[1:-1] = (w[2:] - w[:-2]) / (2.0 * dy)
    D2v[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dy * dy)

    dw = -(c_yt * Dw + c_yy * D2v + c_y * Dv) - a * (w - drift * Dv) - b * v
    if bt != 0.0:
        # |v|^rho v, continuously extended by 0 at v = 0 for every rho > 0
        dw = dw - bt * np.abs(v) ** spec.damping.rho * v
    if forcing is not None:
        dw = dw + forcing(y, t)

    dv = w.copy()
    dv[0] = dv[-1] = 0.0
    dw[0] = dw[-1] = 0.0
    return dv, dw


def rhs(
    state: ReferenceState,
    spec: ProblemSpec,
    grid: Grid,
    forcing: Optional[Callable] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (dv/dt, dw/dt) at one state.

    Raises BlowUpError (carrying the time) when the state or the computed
    derivative has left the finite range.
    """
    if not (np.isfinite(state.v).all() and np.isfinite(state.w).all()):
        raise BlowUpError(state.t)
    with np.errstate(over="ignore", invalid="ignore"):
        dv, dw = _rhs_arrays(state.t, state.v, state.w, spec, grid, forcing)
    if not (np.isfinite(dv).all() and np.isfinite(dw).all()):
        raise BlowUpError(state.t)
    return dv, dw


# ---------------------------------------------------------------------------
# time integration


def simulate(
    spec: ProblemSpec,
    grid: Grid,
    sample_every: int = 1,
    cfl: float = 0.5,
    snapshot_cap_bytes: int = SNAPSHOT_CAP_BYTES,
) -> Trajectory:
    """Advance the system from 0 to T with classical RK4 at fixed dt.

    Snapshots are recorded at t = 0, every sample_every steps, and at t = T.
    Raises ValidationError if the spec fails the admissibility checks,
    BlowUpError when the solution leaves the finite range, and
    ResourceLimitError if the snapshot storage estimate exceeds the cap.
    """
    report = validate_assumptions(spec)
    if not report.ok:
        raise ValidationError(report)
    hyperbolicity_check(spec.alpha, spec.horizon)
    if isinstance(sample_every, bool) or not isinstance(sample_every, int) or sample_every < 1:
        raise ConfigError(f"sample_every must be a positive integer, got {sample_every!r}")

    T = spec.horizon
    dt = step_size(spec, grid, 0.0, cfl)
    nsteps = int(math.ceil(T / dt - 1e-12))
    est_snapshots = nsteps // sample_every + 2
    est_bytes = est_snapshots * 2 * (grid.n + 1) * 8
    if est_bytes > snapshot_cap_bytes:
        raise ResourceLimitError(
            f"run would store about {est_bytes} bytes of snapshots "
            f"(cap {snapshot_cap_bytes}); raise sample_every or the cap"
        )

    forcing = manufactured_forcing(spec.source, spec) if spec.source is not None else None
    first = initialize(spec, grid)
    v = first.v.copy()
    w = first.w.copy()
    states = [first]
    t = 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            t_next = min((k + 1) * dt, T)
            h = t_next - t
            dv1, dw1 = _rhs_arrays(t, v, w, spec, grid, forcing)
            dv2, dw2 = _rhs_arrays(t + 0.5 * h, v + 0.5 * h * dv1, w + 0.5 * h * dw1, spec, grid, forcing)
            dv3, dw3 = _rhs_arrays(t + 0.5 * h, v + 0.5 * h * dv2, w + 0.5 * h * dw2, spec, grid, forcing)
            dv4, dw4 = _rhs_arrays(t + h, v + h * dv3, w + h * dw3, spec, grid, forcing)
            v = v + (h / 6.0) * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
            w = w + (h / 6.0) * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
            v[0] = v[-1] = 0.0
            w[0] = w[-1] = 0.0
            t = t_next
            if not (np.isfinite(v).all() and np.isfinite(w).all()):
                raise BlowUpError(t)
            if (k + 1) % sample_every == 0 or k == nsteps - 1:
                states.append(ReferenceState(t, v, w))

    return Trajectory(spec=spec, grid=grid, states=tuple(states), dt=dt)


# ---------------------------------------------------------------------------
# manufactured solutions


def manufactured_forcing(field: ManufacturedField, spec: ProblemSpec) -> Callable:
    """Source term f(y, t) that makes the descriptor's field an exact solution.

    f = u_tt - u_xx + a u_t + b u + beta |u|^rho u in reference coordinates,
    written out by hand from (alpha, alpha', alpha'') with theta = mode pi y,
    E = amp exp(-rate t), g = alpha'/alpha and g' = alpha''/alpha - g^2:

        u    = E sin(theta)
        u_t  = E (-theta g cos(theta) - rate sin(theta))
        u_tt = E [(theta g^2 - theta g' + 2 rate theta g) cos(theta)
                  + (rate^2 - theta^2 g^2) sin(theta)]
        u_xx = -(mode pi / alpha)^2 u
    """
    a, b, rho = spec.damping.a, spec.damping.b, spec.damping.rho
    amp, rate, k = field.amp, field.rate, field.mode * math.pi

    def forcing(y_nodes, t_val):
        al, al1, al2 = spec.alpha.eval(t_val)
        g = al1 / al
        g1 = al2 / al - g * g
        theta = k * y_nodes
        sin, cos = np.sin(theta), np.cos(theta)
        scale = amp * math.exp(-rate * t_val)
        u = scale * sin
        u_t = scale * (-g * theta * cos - rate * sin)
        u_tt = scale * (
            (g * g - g1 + 2.0 * rate * g) * theta * cos + (rate * rate - g * g * theta * theta) * sin
        )
        f = u_tt + (k / al) ** 2 * u + a * u_t + b * u
        bt, _ = spec.beta_at(t_val)
        if bt != 0.0:
            f = f + bt * np.abs(u) ** rho * u
        return f

    return forcing


def exact_reference_fields(field: ManufacturedField, spec: ProblemSpec):
    """Callables (v_exact, w_exact) of (y, t) for the descriptor's field.

    v(y,t) = u(alpha(t) y, t) = amp sin(mode pi y) exp(-rate t), and
    w = dv/dt = -rate v is the reference-frame velocity.
    """
    amp, rate, k = field.amp, field.rate, field.mode * math.pi

    def v_exact(y_nodes, t_val):
        return amp * math.exp(-rate * t_val) * np.sin(k * y_nodes)

    def w_exact(y_nodes, t_val):
        return -rate * v_exact(y_nodes, t_val)

    return v_exact, w_exact
