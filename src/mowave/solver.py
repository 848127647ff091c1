"""Method-of-lines integrator for the transformed wave equation.

The second-order equation from module transform is rewritten as a first-order
system in (v, w) = (v, v_t) on the uniform reference grid y_i = i/N:

    v_t = w
    w_t = -(c_yt D w + c_yy D2 v + c_y D v)
          - a (w - (y alpha'/alpha) D v) - b v - beta(t) |v|^rho v + f

with D the central first-difference and D2 the central second-difference.
Time stepping is classical four-stage Runge-Kutta with a fixed step chosen
from the characteristic speed bound s_max = 1 + sup alpha' (the last step is
shortened to land exactly on T). Only interior nodes are ever written, so
the Dirichlet rows stay exactly zero.

The kernel advances a (rows, N+1) state: simulate_batch solves several
specs with one batch_key (alpha, rho, horizon and linear_mode, hence dt,
the step count and the stage times, and all forced or all unforced) in one
loop, and simulate is its batch of one.
a, b, beta(t) and the source are per-row columns. Every operation is
elementwise per row, so a row's bits never depend on its neighbours; rho is
shared because numpy takes scalar fast paths for some exponents (x ** 2.0,
x ** 0.5) that differ in the last bit from pow with an array exponent.

The step allocates nothing. Each RK stage owns one (3, rows, N+1) buffer
[v_k, w_k, dw_k]; its state z_k = buf[0:2] and its derivative dz_k =
buf[1:3] (dv/dt = w) are overlapping views, so a stage update z1 + c dz_k
and the final z1 + (h/6)(dz1 + 2 dz2 + 2 dz3 + dz4) are a few whole-state
calls written in place. _rhs_arrays writes through views bound once per
buffer into scratch arrays allocated once per batch. Every call keeps the
operand order of the plain one-row formulas, so the results are bit for
bit those of a loop that allocates a fresh array per operation.

The coefficients, beta and the source come from a stage table built for
_BLOCK steps at a time: the distinct stage times of the block (t, t + h/2,
t + h, and the next step's t when it is not that t + h) are listed in
Python, alpha, beta and the source scales are evaluated there as Python
scalars, and the (times, nodes) coefficient and source arrays follow in
one vectorised pass. A row that blows up is dropped; the others go on
with fresh buffers and a fresh table from the next step.

Manufactured-solution support lives here too: given the exact-field
descriptor u = amp sin(mode pi x / alpha(t)) exp(-rate t), the matching
source f = u_tt - u_xx + a u_t + b u + beta |u|^rho u is written in closed
form from (alpha, alpha', alpha''), which every alpha family returns, and
evaluated directly in reference coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BlowUpError, ConfigError, MowaveError, ResourceLimitError, ValidationError
from .model import ManufacturedField, ProblemSpec, validate_assumptions
from .transform import coefficient_grids, hyperbolicity_check

SNAPSHOT_CAP_BYTES = 256 * 2**20
_BLOCK = 32  # steps per stage table of simulate_batch; bounds the table's memory


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
    """One state (t, v, w) on the reference grid, as initialize, rhs, energy and
    boundary_flux take or return it; arrays are frozen copies."""

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
    """The snapshots of one run plus the fixed step the run used: row k of V
    and W, shape (nsnap, N+1), holds v and w at times[k]. The arrays are
    taken as given, not copied, and made read-only."""

    spec: ProblemSpec
    grid: Grid
    dt: float
    times: np.ndarray
    V: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        times, V, W = (np.asarray(x, dtype=float) for x in (self.times, self.V, self.W))
        if times.ndim != 1 or V.shape != (times.size, self.grid.n + 1) or W.shape != V.shape:
            raise ConfigError("trajectory: times must have shape (nsnap,), V and W (nsnap, N+1)")
        if times.size < 1 or times[0] != 0.0:
            raise ConfigError("trajectory: snapshots must start at t = 0")
        if np.any(times[1:] <= times[:-1]):
            raise ConfigError("trajectory: snapshot times must be strictly increasing")
        if times.size > 1 and abs(times[-1] - self.spec.horizon) > 1e-12 * max(1.0, self.spec.horizon):
            raise ConfigError("trajectory: snapshots must end at t = T")
        for name, array in (("times", times), ("V", V), ("W", W)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def steps(self) -> int:
        """The RK4 steps from 0 to T at dt (four RHS evaluations each)."""
        return _steps(self.spec.horizon, self.dt)


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


def step_size(spec: ProblemSpec, grid: Grid, cfl: float = 0.5) -> float:
    """Fixed stable step dt = CFL dy / s_max with s_max = 1 + sup alpha'.

    The transformed characteristic speeds satisfy |y alpha' +/- 1|/alpha
    <= 1 + sup alpha' (alpha >= 1), so the bound is uniform in t and the
    step never needs adapting.
    """
    if not (cfl > 0.0) or not math.isfinite(cfl):
        raise ConfigError(f"cfl must be positive and finite, got {cfl!r}")
    s_max = 1.0 + max(spec.alpha.sup_prime(), 0.0)
    return cfl * grid.dy / s_max


# ---------------------------------------------------------------------------
# per-row constants of a batch


def _column(values: list) -> float | np.ndarray:
    """Per-row scalars as a (rows, 1) column; a plain float for one row."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def batch_key(spec: ProblemSpec) -> tuple:
    """What rows of one simulate_batch call share: alpha, rho, horizon,
    linear_mode, and whether a manufactured source is present."""
    return (spec.alpha, spec.damping.rho, spec.horizon, spec.linear_mode, spec.source is not None)


class _Source:
    """Manufactured source f(y, t) of several rows on fixed nodes.

    f = u_tt - u_xx + a u_t + b u + beta |u|^rho u in reference coordinates,
    written out by hand from (alpha, alpha', alpha'') with theta = mode pi y,
    E = amp exp(-rate t), g = alpha'/alpha and g' = alpha''/alpha - g^2:

        u    = E sin(theta)
        u_t  = E (-theta g cos(theta) - rate sin(theta))
        u_tt = E [(theta g^2 - theta g' + 2 rate theta g) cos(theta)
                  + (rate^2 - theta^2 g^2) sin(theta)]
        u_xx = -(mode pi / alpha)^2 u

    alpha and rho are shared, a and b are the rows' columns; theta, sin and
    cos do not depend on t and are computed once. The factors that depend on
    t are Python scalars, per time and per row, broadcast as columns.
    """

    def __init__(self, fields: list[ManufacturedField], alpha, rho: float, a, b, y: np.ndarray):
        self.alpha, self.rho, self.a, self.b = alpha, rho, a, b
        self.amp = [f.amp for f in fields]
        self.rates = [f.rate for f in fields]
        self.k = [f.mode * math.pi for f in fields]
        self.rate = np.array(self.rates)[:, None]
        self.theta = np.array(self.k)[:, None] * y
        self.sin, self.cos = np.sin(self.theta), np.cos(self.theta)

    def __call__(self, times, bt) -> np.ndarray:
        """The source at each of times, shape (times, rows, nodes); bt is the
        (times, rows, 1) beta(t) column, None in linear mode."""
        per_time, per_row = [], []
        for t in times:
            al, al1, al2 = self.alpha.eval(t)
            g = al1 / al
            g1 = al2 / al - g * g
            per_time.append((-g, g, g * g, g * g - g1))
            per_row.append(
                [(amp * math.exp(-r * t), (k / al) ** 2) for amp, r, k in zip(self.amp, self.rates, self.k)]
            )
        neg_g, g, g_sq, g_sq_g1 = np.array(per_time).T[..., None, None]
        scale, k_al_sq = np.moveaxis(np.array(per_row), 2, 0)[..., None]
        theta, sin, cos, rate = self.theta, self.sin, self.cos, self.rate
        # the formulas above, evaluated left to right in place: few temporaries
        u = scale * sin
        u_t = neg_g * theta
        u_t *= cos
        u_t -= rate * sin
        u_t *= scale
        f = (g_sq_g1 + 2.0 * rate * g) * theta
        f *= cos
        tmp = g_sq * theta
        tmp *= theta
        np.subtract(rate * rate, tmp, out=tmp)
        tmp *= sin
        f += tmp
        f *= scale  # u_tt
        f += np.multiply(k_al_sq, u, out=tmp)
        f += np.multiply(self.a, u_t, out=tmp)
        f += np.multiply(self.b, u, out=tmp)
        if bt is not None:
            np.absolute(u, out=tmp)
            tmp **= self.rho
            tmp *= bt
            tmp *= u
            f += tmp
        return f


class _Rows:
    """Per-row constants of specs with one batch_key, and their stage table.

    a, b, beta(t) and the source differ per row and broadcast as columns
    over the interior nodes. The nonlinear term is on exactly when
    linear_mode is off: validation (A2) makes beta(t) > 0 then.
    """

    def __init__(self, specs: list[ProblemSpec], grid: Grid):
        self.specs = specs
        self.alpha, self.rho = specs[0].alpha, specs[0].damping.rho
        self.nonlinear = not specs[0].linear_mode
        self.y = grid.y[1:-1]
        self.two_dy, self.dy2 = 2.0 * grid.dy, grid.dy * grid.dy
        self.a = _column([s.damping.a for s in specs])
        self.b = _column([s.damping.b for s in specs])
        self.source = (
            _Source([s.source for s in specs], self.alpha, self.rho, self.a, self.b, self.y)
            if specs[0].source is not None
            else None
        )

    def stage_table(self, times: list[float]) -> list[tuple]:
        """What _rhs_arrays needs at each of times: (c_yt, c_yy, c_y, drift, bt, f).

        The coefficients are (1, nodes) rows, the shape of a one-row state,
        which numpy multiplies faster than a broadcast (nodes,) vector; bt is
        the (rows, 1) beta(t) column and f the (rows, nodes) source, None when
        off. All times are done in one vectorised pass; the entry of a time is
        bit for bit what a pass at that time alone gives.
        """
        coefficients = [c[:, None] for c in coefficient_grids(self.y, times, self.alpha)]
        bt = f = None
        if self.nonlinear:
            bt = np.array([[s.beta.eval(t)[0] for s in self.specs] for t in times])[..., None]
        if self.source is not None:
            f = self.source(times, bt)
        none = itertools.repeat(None)
        return list(zip(*coefficients, none if bt is None else bt, none if f is None else f))


# ---------------------------------------------------------------------------
# right-hand side


def _stages(z: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """The four RK stage buffers of a (2, rows, N+1) state z, and their views.

    Buffer k, shape (3, rows, N+1), holds [v_k, w_k, dw_k]: its state is
    buf[0:2] and, since dv/dt = w, its derivative is the overlapping buf[1:3].
    Stage 1 starts as (z, 0); the rest start zeroed. The views of each buffer
    are bound once here, with scratch arrays the four stages share.
    """
    rows, nodes = z.shape[1:]
    bufs = np.zeros((4, 3, rows, nodes))
    bufs[0, 0:2] = z
    D = np.empty((2, rows, nodes - 2))  # (Dv, Dw)
    scratch = (D, D[0], D[1], *np.empty((3, rows, nodes - 2)))
    views = []
    for buf in bufs:
        inner = buf[:, :, 1:-1]  # v, w and dw at the interior nodes
        views.append((*inner, buf[0:2, :, 2:], buf[0:2, :, :-2], buf[0, :, 2:], buf[0, :, :-2], *scratch))
    return bufs, views


def _rhs_arrays(stage: tuple, coef: tuple, rows: _Rows) -> None:
    """Interior dw/dt of every row of one stage buffer, written into its dw.

    stage is a buffer's views from _stages, coef the stage time's entry of
    the stage table. Every call writes into preallocated arrays, in the
    operation order of the plain formula. dv/dt is w itself: the boundary
    columns of w are zero at every stage, and those of dw are never written.
    """
    vi, wi, dw, z_right, z_left, v_right, v_left, D, Dv, Dw, D2v, s, r = stage
    c_yt, c_yy, c_y, drift, bt, f = coef
    np.subtract(z_right, z_left, out=D)
    D /= rows.two_dy
    np.multiply(vi, 2.0, out=D2v)
    np.subtract(v_right, D2v, out=D2v)
    D2v += v_left
    D2v /= rows.dy2
    # -(c_yt Dw + c_yy D2v + c_y Dv) - a (w - drift Dv) - b v
    np.multiply(c_yt, Dw, out=s)
    np.multiply(c_yy, D2v, out=r)
    s += r
    np.multiply(c_y, Dv, out=r)
    s += r
    np.negative(s, out=s)
    np.multiply(drift, Dv, out=r)
    np.subtract(wi, r, out=r)
    r *= rows.a
    s -= r
    np.multiply(rows.b, vi, out=r)
    np.subtract(s, r, out=dw)
    if bt is not None:
        # |v|^rho v, continuously extended by 0 at v = 0 for every rho > 0
        np.absolute(vi, out=r)
        r **= rows.rho  # not np.power: keeps numpy's scalar fast paths
        r *= bt
        r *= vi
        dw -= r
    if f is not None:
        dw += f


def rhs(state: ReferenceState, spec: ProblemSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (dv/dt, dw/dt) at one state.

    The one-row case of the solver's kernel, manufactured source included.
    Raises BlowUpError (carrying the time) when the state or the computed
    derivative has left the finite range.
    """
    if not (np.isfinite(state.v).all() and np.isfinite(state.w).all()):
        raise BlowUpError(state.t)
    rows = _Rows([spec], grid)
    bufs, stages = _stages(np.array([[state.v], [state.w]]))
    with np.errstate(over="ignore", invalid="ignore"):
        _rhs_arrays(stages[0], rows.stage_table([state.t])[0], rows)
    dv = state.w.copy()
    dv[0] = dv[-1] = 0.0
    dw = bufs[0, 2, 0].copy()
    if not np.isfinite(dw).all():
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
    """Advance one spec from 0 to T: the batch of one of simulate_batch.

    Raises ValidationError if the spec fails the admissibility checks,
    BlowUpError when the solution leaves the finite range, and
    ResourceLimitError if the snapshot storage estimate exceeds the cap.
    """
    (result,) = simulate_batch([spec], grid, sample_every, cfl, snapshot_cap_bytes)
    if isinstance(result, MowaveError):
        raise result
    return result


def _steps(horizon: float, dt: float) -> int:
    """Steps of size dt from 0 to the horizon, the last one shortened to land on it."""
    return int(math.ceil(horizon / dt - 1e-12))


def _step_count(spec: ProblemSpec, grid: Grid, cfl: float) -> tuple[float, int]:
    """The fixed step dt and the number of steps from 0 to T."""
    dt = step_size(spec, grid, cfl)
    return dt, _steps(spec.horizon, dt)


def snapshot_bytes(spec: ProblemSpec, grid: Grid, sample_every: int = 1, cfl: float = 0.5) -> int:
    """Estimated bytes of the snapshots one row of spec stores (v and w)."""
    if isinstance(sample_every, bool) or not isinstance(sample_every, int) or sample_every < 1:
        raise ConfigError(f"sample_every must be a positive integer, got {sample_every!r}")
    _, nsteps = _step_count(spec, grid, cfl)
    return (nsteps // sample_every + 2) * 2 * (grid.n + 1) * 8


def _block(k0: int, k1: int, t: float, dt: float, T: float) -> tuple[list[tuple], list[float]]:
    """Steps k0 .. k1-1, the first starting at t, and their distinct stage times.

    Each step is (h/2, h, h/6, t_next, j): stage 1 is at times[j], stages 2
    and 3 at times[j+1] = t + h/2, stage 4 at times[j+2] = t + h. A step's
    t shares the previous step's t + h when the two are equal, else gets a
    time of its own. (They are equal for these step times: t_next - t is
    exact by Sterbenz's lemma once k >= 1, and so is t + h; the check keeps
    the table exact without relying on that.)
    """
    steps, times = [], []
    for k in range(k0, k1):
        t_next = min((k + 1) * dt, T)
        h = t_next - t
        if not times or times[-1] != t:
            times.append(t)
        steps.append((0.5 * h, h, h / 6.0, t_next, len(times) - 1))
        times += (t + 0.5 * h, t + h)
        t = t_next
    return steps, times


def simulate_batch(
    specs,
    grid: Grid,
    sample_every: int = 1,
    cfl: float = 0.5,
    snapshot_cap_bytes: int = SNAPSHOT_CAP_BYTES,
) -> list:
    """Advance several specs from 0 to T as one (rows, N+1) state.

    The specs must have one batch_key: they share alpha, rho, horizon and
    linear_mode, and with them dt, the step count and the stage times, and
    are all forced or all unforced; a, b, beta and the source may differ.
    Classical RK4 at fixed dt; snapshots are recorded at t = 0, every
    sample_every steps, and at t = T. Every operation is elementwise per
    row, so each row is bit-identical to its run alone.

    Returns one Trajectory per spec, or the row's error: ValidationError if
    the spec fails the admissibility checks, BlowUpError once the row left
    the finite range (it is then dropped and the others carry on). Raises
    ConfigError if the specs differ in batch_key, and ResourceLimitError if
    the snapshots of all admissible rows together would exceed the cap.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("simulate_batch needs at least one spec")
    if any(batch_key(spec) != batch_key(specs[0]) for spec in specs):
        raise ConfigError(
            "simulate_batch: rows must share alpha, rho, horizon, linear_mode and being forced"
        )
    results: list = [None] * len(specs)
    for i, spec in enumerate(specs):
        report = validate_assumptions(spec)
        if not report.ok:
            results[i] = ValidationError(report)
    live = [i for i, result in enumerate(results) if result is None]  # spec index of each state row
    if not live:
        return results
    hyperbolicity_check(specs[0].alpha, specs[0].horizon)
    est_bytes = len(live) * snapshot_bytes(specs[0], grid, sample_every, cfl)
    if est_bytes > snapshot_cap_bytes:
        raise ResourceLimitError(
            f"run would store about {est_bytes} bytes of snapshots "
            f"(cap {snapshot_cap_bytes}); raise sample_every or the cap"
        )

    T = specs[0].horizon
    dt, nsteps = _step_count(specs[0], grid, cfl)
    rows = _Rows([specs[r] for r in live], grid)
    firsts = [initialize(specs[r], grid) for r in live]
    bufs, stages = _stages(np.array([[first.v for first in firsts], [first.w for first in firsts]]))
    # snapshots at t = 0, after every sample_every-th step and after the last
    nsnap = 1 + nsteps // sample_every + (nsteps % sample_every != 0)
    times = np.zeros(nsnap)
    snaps = {r: np.empty((2, nsnap, grid.n + 1)) for r in live}  # (V, W) of each row
    for i, r in enumerate(live):
        snaps[r][:, 0] = bufs[0, 0:2, i]
    taken = 1
    k, t = 0, 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        while live and k < nsteps:
            steps, stage_times = _block(k, min(k + _BLOCK, nsteps), t, dt, T)
            table = rows.stage_table(stage_times)
            s1, s2, s3, s4 = stages
            z1, z2, z3, z4 = bufs[:, 0:2]
            dz1, dz2, dz3, dz4 = bufs[:, 1:3]
            finite = np.empty(z1.shape, dtype=bool)
            for hh, h, h6, t_next, j in steps:
                _rhs_arrays(s1, table[j], rows)
                np.multiply(dz1, hh, out=z2)
                z2 += z1
                _rhs_arrays(s2, table[j + 1], rows)
                np.multiply(dz2, hh, out=z3)
                z3 += z1
                _rhs_arrays(s3, table[j + 1], rows)
                np.multiply(dz3, h, out=z4)
                z4 += z1
                _rhs_arrays(s4, table[j + 2], rows)
                # z1 += (h/6) (dz1 + 2 dz2 + 2 dz3 + dz4), summed left to right in dz2
                dz2 *= 2.0
                dz2 += dz1
                dz3 *= 2.0
                dz2 += dz3
                dz2 += dz4
                dz2 *= h6
                z1 += dz2
                k, t = k + 1, t_next
                blown = not np.isfinite(z1, out=finite).all()
                if blown:
                    bad = ~finite.all(axis=(0, 2))
                    for i in np.flatnonzero(bad):
                        results[live[i]] = BlowUpError(t)
                        del snaps[live[i]]
                    live = [r for r, b in zip(live, bad) if not b]
                    if not live:
                        break
                    # the remaining rows go on from fresh buffers and a fresh table
                    bufs, stages = _stages(z1[:, ~bad])
                    rows = _Rows([specs[r] for r in live], grid)
                if k % sample_every == 0 or k == nsteps:
                    times[taken] = t
                    for i, r in enumerate(live):
                        snaps[r][:, taken] = bufs[0, 0:2, i]
                    taken += 1
                if blown:
                    break
            del table  # before the next block's table is built

    for r in live:
        results[r] = Trajectory(specs[r], grid, dt, times, *snaps[r])
    return results


# ---------------------------------------------------------------------------
# manufactured solutions


def manufactured_forcing(field: ManufacturedField, spec: ProblemSpec) -> Callable:
    """Source term f(y, t) that makes the descriptor's field an exact solution.

    The one-row case of the solver's source (see _Source for the formula).
    t may also be a sequence of times: f is then a (times, nodes) array, one
    vectorised pass whose row j is bit for bit f at t[j] alone.
    """

    damping = spec.damping

    def forcing(y_nodes, t_val):
        times = np.atleast_1d(t_val).tolist()
        source = _Source([field], spec.alpha, damping.rho, damping.a, damping.b, y_nodes)
        bt = None if spec.linear_mode else np.array([spec.beta.eval(t)[0] for t in times])[:, None, None]
        f = source(times, bt)[:, 0]
        return f if np.ndim(t_val) else f[0]

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
