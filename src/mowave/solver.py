"""Method-of-lines integrator for the wave equation on the growing interval.

With y = x/alpha(t) and v(y,t) = u(x,t), the interval (0, alpha(t)) becomes
(0,1) and, by the chain rule, the equation becomes

    v_tt + c_yt v_yt + c_yy v_yy + c_y v_y + a (v_t - drift v_y) + b v + beta |v|^rho v = f

with drift = y alpha'/alpha (u_t = v_t - drift v_y at fixed x), c_yt = -2 drift,
c_yy = drift^2 - 1/alpha^2 and c_y = -(y alpha''/alpha - 2 y (alpha'/alpha)^2);
the tests re-derive them symbolically, and coefficient_grids evaluates them.
The characteristic speeds (y alpha' +/- 1)/alpha are real and distinct while
y alpha' < 1, so (A1), sup alpha' < 1, keeps the operator hyperbolic with
margin 1 - sup alpha'; simulate_batch steps only specs that pass validation.
As a first-order system in (v, w) = (v, v_t) on the uniform reference grid
y_i = i/N:

    v_t = w
    w_t = -(c_yt D w + c_yy D2 v + c_y D v) - a (w - drift D v) - b v - beta(t) |v|^rho v + f

with D the central first-difference and D2 the central second-difference.
Time stepping is classical four-stage Runge-Kutta with a fixed step (the
last step is shortened to land exactly on T). Only interior nodes are ever
written, so the Dirichlet rows stay exactly zero.

step_plan picks the step. Snapshots lie on a time grid that does not depend
on it: one every sample_every h0, where h0 = dy / (2 s_max) is the wave step
at cfl 0.5 and s_max = 1 + sup alpha' bounds the characteristic speeds. The
step is capped by the smallest of three bounds, each written as a cfl:

    wave      dt <= cfl dy / s_max                       (cfl from the caller)
    damping   a dt <= 2.5                                (RK4's real-axis limit is 2.785)
    reaction  dt sqrt(b + (rho+1) beta(0) |v0|^rho) <= 1.4   (v0 the initial state)

and then shortened so that m = ceil(sample_every / (2 c)) whole steps fill a
snapshot interval. At cfl 0.5 that is m = sample_every steps of the cfl 0.5
step, and at cfl 1.0 with an even sample_every m = sample_every / 2 steps of
the cfl 1.0 step, bit for bit.

The kernel advances a (rows, N+1) state: simulate_batch solves several
specs with one batch_key (alpha, rho, horizon, linear_mode, all forced or
all unforced, and one step and snapshot stride, hence one step count and
one set of stage times) in one loop, and simulate is its batch of one.
a, b, beta(t) and the source are per-row columns (a and b plain floats
when every row shares them). Every operation is
elementwise per row, so a row's bits never depend on its neighbours; rho is
shared because numpy takes scalar fast paths for some exponents (x ** 2.0,
x ** 0.5) that differ in the last bit from pow with an array exponent.

The step allocates nothing. Each RK stage owns one (3, rows, N+1) buffer
[v_k, w_k, dw_k]; its state z_k = buf[0:2] and its derivative dz_k =
buf[1:3] (dv/dt = w) are overlapping views, so a stage update z1 + c dz_k
and the final z1 + (h/6)(dz1 + 2 dz2 + 2 dz3 + dz4) are a few whole-state
calls written in place. _rhs_arrays writes through views bound once per
buffer into scratch arrays allocated once per batch.

The linear part of dw/dt is a 3-point stencil in v and in w whose node
weights K depend only on the stage time and on a and b. The stage table
holds K, so the right-hand side is one multiply of K with a strided band
view of the state and one add.reduce over the six (v or w, left, centre,
right) terms, then the nonlinear term and the source. Collecting the
formula above into weights regroups its roundings: the results differ
from it in the last bits (a drift of about 1e-13 of a column's largest
value over a run), and are bit for bit those of a plain loop over the
banded formula with the same operand order.

The table is built for _BLOCK steps at a time. A block of S steps has the
2S + 1 stage times t_0, t_0 + h_0/2, t_1, t_1 + h_1/2, ..., t_S, one step's
stage 4 being the next step's stage 1 (t_k + h_k is t_{k+1} exactly), so
step j reads entries 2j, 2j + 1 and 2j + 2. The times are listed in
Python, alpha, beta and the source scales are evaluated there as Python
scalars, and K and the source arrays of every time follow in a few
vectorised passes. A row that blows up is dropped;
the others go on with fresh buffers and a fresh table from the next step.

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
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BlowUpError, ConfigError, MowaveError, ResourceLimitError, ValidationError
from .model import AlphaFamily, ManufacturedField, ProblemSpec, validate_assumptions

SNAPSHOT_CAP_BYTES = 256 * 2**20
WORK_CAP_BYTES = 256 * 2**20  # what one run allocates besides the snapshots between 0 and T; N alone sets it
_BLOCK = 32  # steps per stage table of simulate_batch; bounds the table's memory
DAMPING_LIMIT = 2.5  # a dt at most this: RK4's real-axis stability limit is 2.785
REACTION_LIMIT = 1.4  # dt sqrt(b + (rho+1) beta(0) |v0|^rho) at most this: RK4's imaginary-axis limit is 2 sqrt 2


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
    """One state (t, v, w) on the reference grid, as initialize returns it and
    energy.boundary_flux takes it; arrays are frozen copies."""

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
    """The snapshots of one run plus the step plan the run used: row k of V
    and W, shape (nsnap, N+1), holds v and w at times[k]. The arrays are
    taken as given, not copied, and made read-only."""

    spec: ProblemSpec
    grid: Grid
    plan: StepPlan
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
    def dt(self) -> float:
        """The fixed step, plan.dt."""
        return self.plan.dt

    @cached_property
    def integrals(self):
        """The run's energy.snapshot_integrals table (read-only arrays), one pass on first use."""
        from .energy import snapshot_integrals  # energy imports this module

        return snapshot_integrals(self.spec, self.grid, self.times, self.V, self.W)


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
    """The wave step dt = CFL dy / s_max with s_max = 1 + sup alpha'.

    The transformed characteristic speeds satisfy |y alpha' +/- 1|/alpha
    <= 1 + sup alpha' (alpha >= 1), so the bound is uniform in t and the
    step never needs adapting. step_plan caps it further where a or the
    reaction is stiff.
    """
    if not (cfl > 0.0) or not math.isfinite(cfl):
        raise ConfigError(f"cfl must be positive and finite, got {cfl!r}")
    return cfl * grid.dy / _s_max(spec)


def _s_max(spec: ProblemSpec) -> float:
    return 1.0 + max(spec.alpha.sup_prime(), 0.0)


class StepPlan(NamedTuple):
    """How a run steps from 0 to T: the fixed step dt, the number of steps,
    the steps between two snapshots, the bound that sets dt: "wave"
    (--cfl), "damping" or "reaction", and the cap that bound sets, written
    as a cfl: the smallest of the caller's cfl and the stiffness bounds. A
    plan made at cfl = plan.cfl takes the same step."""

    dt: float
    steps: int
    per_snapshot: int
    bound: str
    cfl: float


def _reaction_rate(spec: ProblemSpec, grid: Grid) -> float:
    """sqrt(b + (rho+1) beta(0) |v0|^rho), v0 the state initialize returns;
    sqrt(b) in linear mode. A term that is not positive, or a rho that is
    not (an inadmissible spec), is left out; a term past the doubles makes
    the rate infinite."""
    b, rho = spec.damping.b, spec.damping.rho
    rate2 = b if b > 0.0 else 0.0
    if not spec.linear_mode and rho > 0.0:
        peak = float(np.max(np.abs(initialize(spec, grid).v)))
        try:
            term = (rho + 1.0) * spec.beta.eval(0.0)[0] * peak**rho
        except OverflowError:
            term = math.inf
        if term > 0.0:
            rate2 += term
    return math.sqrt(rate2)


def _stiffness_bounds(spec: ProblemSpec, grid: Grid) -> list[tuple[float, str, str]]:
    """(cfl, bound, who) of the damping bound a dt <= DAMPING_LIMIT and the
    reaction bound dt rate <= REACTION_LIMIT, each as the cfl at which dt
    reaches it; who names the bound in an error."""
    per_dt = _s_max(spec) / grid.dy  # cfl per unit of dt
    bounds = []
    a = spec.damping.a
    if a > 0.0:
        bounds.append((DAMPING_LIMIT / a * per_dt, "damping", f"damping a = {a!r} is too stiff"))
    rate = _reaction_rate(spec, grid)
    if rate > 0.0:
        who = f"reaction rate sqrt(b + (rho+1) beta(0) |v0|^rho) = {rate:.6g} is too stiff"
        bounds.append((REACTION_LIMIT / rate * per_dt, "reaction", who))
    return bounds


def _steps_to(horizon: float, dt: float, who: str) -> int:
    """The steps of size dt from 0 to the horizon; at most 2**53, past which
    the step times (k + 1) * dt of _block are no longer exact, and none to a
    horizon that is not positive (validation rejects it before a run steps)."""
    if dt == 0.0 or not math.isfinite(horizon / dt):
        raise ConfigError(f"{who}: dt = {dt!r} gives no finite number of steps to T")
    nsteps = max(int(math.ceil(horizon / dt - 1e-12)), 0)  # the last step shortened to land on T
    if nsteps > 2**53:
        raise ConfigError(
            f"{who}: dt = {dt!r} gives about {horizon / dt:.3g} steps to T, "
            "more than the 2**53 whose step times stay exact"
        )
    return nsteps


def step_plan(
    spec: ProblemSpec, grid: Grid, sample_every: int = 1, cfl: float = 0.5, stiff: bool = True
) -> StepPlan:
    """The step, the step count and the snapshot stride of one run.

    Snapshots are sample_every h0 apart in time, h0 = step_size at cfl 0.5,
    whatever the step. The step is capped at the cfl c (plan.cfl), the smallest
    of cfl and (when stiff) the damping and reaction bounds, and divides a snapshot
    interval into m = ceil(sample_every / (2 c)) whole steps: dt =
    step_size(cfl = sample_every / (2 m)). At cfl 0.5 that is m =
    sample_every and the cfl 0.5 step, bit for bit. Raises ConfigError,
    naming the binding bound, when dt gives no finite step count or more
    than 2**53 steps, and ResourceLimitError, before any array of the grid
    exists, when one run's working memory on the grid exceeds the cap.
    """
    if isinstance(sample_every, bool) or not isinstance(sample_every, int) or sample_every < 1:
        raise ConfigError(f"sample_every must be a positive integer, got {sample_every!r}")
    step_size(spec, grid, cfl)  # rejects a cfl that is not positive and finite
    # one block's stage table (about 10 arrays of the N-1 interior nodes per stage time:
    # K's 6 weights and the 4 coefficients), the 4 stage buffers of 3 arrays, and v and w at 0 and T
    need = 8 * ((2 * _BLOCK + 1) * 10 * (grid.n - 1) + (4 * 3 + 2 * 2) * (grid.n + 1))
    if need > WORK_CAP_BYTES:
        raise ResourceLimitError(
            f"grid N = {grid.n} needs about {need} bytes for a stage table, the stage buffers "
            f"and two snapshots (cap {WORK_CAP_BYTES}); lower N"
        )
    c, bound, who = cfl, "wave", f"cfl {cfl!r} is too small"
    if stiff:
        for limit, name, what in _stiffness_bounds(spec, grid):
            if limit < c:
                c, bound, who = limit, name, what
    _steps_to(spec.horizon, step_size(spec, grid, c) if c > 0.0 else 0.0, who)  # dt at the cap
    num, den = c.as_integer_ratio()
    m = -(-sample_every * den // (2 * num))  # ceil(sample_every / (2 c)), exact for any sample_every
    dt = step_size(spec, grid, sample_every / (2 * m))
    return StepPlan(dt, _steps_to(spec.horizon, dt, who), m, bound, c)



# ---------------------------------------------------------------------------
# per-row constants of a batch


def _column(values: list) -> float | np.ndarray:
    """Per-row scalars as a (rows, 1) column; a plain float when every row
    has the same value (compared by repr, so 0.0 and -0.0 stay apart)."""
    return values[0] if len({repr(v) for v in values}) == 1 else np.array(values)[:, None]


def batch_key(spec: ProblemSpec, plan: StepPlan) -> tuple:
    """What rows of one simulate_batch call share: alpha, rho, horizon,
    linear_mode, whether a manufactured source is present, and the step and
    snapshot stride of plan, the spec's step_plan."""
    forced = spec.source is not None
    return (spec.alpha, spec.damping.rho, spec.horizon, spec.linear_mode, forced, plan.dt, plan.per_snapshot)


def rows_within_cap(plan: StepPlan, grid: Grid) -> int:
    """The most rows of one batch stepping by plan whose snapshots fit
    SNAPSHOT_CAP_BYTES together, read at the call.

    A row stores about steps // per_snapshot + 2 snapshots of v and w.
    Raises ResourceLimitError when not even one row fits.
    """
    per_row = (plan.steps // plan.per_snapshot + 2) * 2 * (grid.n + 1) * 8
    if per_row > SNAPSHOT_CAP_BYTES:
        raise ResourceLimitError(
            f"run would store about {per_row} bytes of snapshots (cap {SNAPSHOT_CAP_BYTES}); "
            "raise sample_every or the cap"
        )
    return SNAPSHOT_CAP_BYTES // per_row


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
        scale, k_al_sq = np.array(per_row).transpose(2, 0, 1)[..., None]
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


def _alpha_ratios(t: float, alpha: AlphaFamily) -> tuple[float, float, float, float]:
    """alpha'/alpha, 1/alpha^2, alpha''/alpha and (alpha'/alpha)^2 at t."""
    al, ap, app = alpha.eval(t)
    return ap / al, 1.0 / (al * al), app / al, (ap / al) ** 2


def coefficient_grids(y: np.ndarray, times, alpha: AlphaFamily):
    """Coefficients of the transformed equation at nodes y and each of times.

    Returns (c_yt, c_yy, c_y, drift) with drift = y alpha'/alpha, the term the
    damping correction and the velocity reconstruction both need. Each is a
    (times, nodes) array whose row j holds the coefficient at times[j]; the
    alpha ratios are Python scalars per time, so row j does not depend on
    the other times.
    """
    g, inv_al2, g2, g_sq = np.array([_alpha_ratios(t, alpha) for t in times]).T[..., None]
    drift = y * g
    c_yt = -2.0 * drift
    c_yy = drift * drift - inv_al2
    c_y = -(y * g2 - 2.0 * y * g_sq)
    return c_yt, c_yy, c_y, drift


class _Rows:
    """Per-row constants of specs with one batch_key, and their stage table.

    a, b, beta(t) and the source differ per row and broadcast as columns
    over the interior nodes; a and b are plain floats when every row shares
    them. The nonlinear term is on exactly when linear_mode is off:
    validation (A2) makes beta(t) > 0 then.
    """

    def __init__(self, specs: list[ProblemSpec], grid: Grid):
        self.specs = specs
        self.alpha, self.rho = specs[0].alpha, specs[0].damping.rho
        self.nonlinear = not specs[0].linear_mode
        self.y = grid.y[1:-1]
        self.two_dy, self.dy2 = 2.0 * grid.dy, grid.dy * grid.dy
        self.a = _column([s.damping.a for s in specs])
        self.b = _column([s.damping.b for s in specs])
        self.weight_rows = 1 if np.ndim(self.a) == np.ndim(self.b) == 0 else len(specs)
        self.source = (
            _Source([s.source for s in specs], self.alpha, self.rho, self.a, self.b, self.y)
            if specs[0].source is not None
            else None
        )

    def stage_table(self, times: list[float]) -> list[tuple]:
        """What _rhs_arrays needs at each of times: (K, bt, f).

        K, shape (2, 3, weight_rows, nodes), holds the weights of the linear
        part of dw/dt as a 3-point stencil in v and w: dw_i is the sum over
        c in (v, w) and s in (left, centre, right) of K[c, s] z_c at node
        i - 1, i, i + 1. With d = drift/(2 dy), the weights are

            v: -c_yy/dy^2 + c_y/(2 dy) - a d,  2 c_yy/dy^2 - b,  -c_yy/dy^2 - c_y/(2 dy) + a d
            w: c_yt/(2 dy),                    -a,               -c_yt/(2 dy)

        the central differences of -(c_yt w_y + c_yy v_yy + c_y v_y)
        - a (w - drift v_y) - b v collected per node. weight_rows is 1 when
        the rows share a and b. bt is the (rows, 1) beta(t) column and f the
        (rows, nodes) source, None when off. The table is built for all times
        in a few whole-array passes from one coefficient_grids call; every
        operation is elementwise, so the entry of a time is bit for bit what
        a table of that time alone gives.
        """
        c_yt, c_yy, c_y, drift = (c[:, None] for c in coefficient_grids(self.y, times, self.alpha))
        K = np.empty((len(times), 2, 3, self.weight_rows, self.y.size))
        (v_left, v_mid, v_right), (w_left, w_mid, w_right) = K.transpose(1, 2, 0, 3, 4)
        # the formulas above, rearranged only where the result is exactly equal
        c_yy /= self.dy2
        c_y /= self.two_dy
        drift /= self.two_dy
        np.multiply(self.a, drift, out=v_right)
        np.subtract(c_y, c_yy, out=v_left)
        v_left -= v_right
        c_y += c_yy
        v_right -= c_y
        np.multiply(c_yy, 2.0, out=v_mid)
        v_mid -= self.b
        np.divide(c_yt, self.two_dy, out=w_left)
        np.negative(self.a, out=w_mid)
        np.negative(w_left, out=w_right)
        bt = f = None
        if self.nonlinear:
            bt = np.array([[s.beta.eval(t)[0] for s in self.specs] for t in times])[..., None]
        if self.source is not None:
            f = self.source(times, bt)
        none = itertools.repeat(None)
        return list(zip(K, none if bt is None else bt, none if f is None else f))


# ---------------------------------------------------------------------------
# right-hand side


def _stages(z: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """The four RK stage buffers of a (2, rows, N+1) state z, and their views.

    Buffer k, shape (3, rows, N+1), holds [v_k, w_k, dw_k]: its state is
    buf[0:2] and, since dv/dt = w, its derivative is the overlapping buf[1:3].
    Stage 1 starts as (z, 0); the rest start zeroed. The views of each buffer
    are bound once here: its interior v and dw, and its band, a strided
    (2, 3, rows, N-1) view of buf[0:2] whose [c, s] is z_c at the interior
    nodes shifted by s - 1, the operand of the stage table's K. The product
    scratch P, its (6, rows, N-1) reshape and a (rows, N-1) scratch row of it
    are shared by the four stages.
    """
    rows, nodes = z.shape[1:]
    bufs = np.zeros((4, 3, rows, nodes))
    bufs[0, 0:2] = z
    P = np.empty((2, 3, rows, nodes - 2))
    P6 = P.reshape(6, rows, nodes - 2)
    views = []
    for buf in bufs:
        s0, s1, s2 = buf.strides
        band = as_strided(buf, (2, 3, rows, nodes - 2), (s0, s2, s1, s2), writeable=False)
        views.append((buf[0, :, 1:-1], buf[2, :, 1:-1], band, P, P6, P6[0]))
    return bufs, views


def _rhs_arrays(stage: tuple, coef: tuple, rows: _Rows) -> None:
    """Interior dw/dt of every row of one stage buffer, written into its dw.

    stage is a buffer's views from _stages, coef the stage time's entry of
    the stage table. The linear part is K times the band, summed over its
    six (c, s) terms in that order (left to right: v left, centre, right,
    then w); the nonlinear term and the source follow. Every call writes
    into preallocated arrays. dv/dt is w itself: the boundary columns of w
    are zero at every stage, and those of dw are never written.
    """
    vi, dw, band, P, P6, r = stage
    K, bt, f = coef
    np.multiply(K, band, out=P)
    np.add.reduce(P6, axis=0, out=dw)
    if bt is not None:
        # |v|^rho v, continuously extended by 0 at v = 0 for every rho > 0
        np.absolute(vi, out=r)
        r **= rows.rho  # not np.power: keeps numpy's scalar fast paths
        r *= bt
        r *= vi
        dw -= r
    if f is not None:
        dw += f


# ---------------------------------------------------------------------------
# time integration


def simulate(spec: ProblemSpec, grid: Grid, sample_every: int = 1, cfl: float = 0.5) -> Trajectory:
    """Advance one spec from 0 to T: the batch of one of simulate_batch.

    Raises ValidationError if the spec fails the admissibility checks,
    BlowUpError when the solution leaves the finite range, and
    ResourceLimitError if the snapshot storage estimate, or the working
    memory of a run on the grid, exceeds the cap.
    """
    (result,) = simulate_batch([spec], grid, sample_every, cfl)
    if isinstance(result, MowaveError):
        raise result
    return result


def _block(k0: int, k1: int, t: float, dt: float, T: float) -> tuple[list[tuple], list[float]]:
    """Steps k0 .. k1-1, the first starting at t, and their 2 (k1 - k0) + 1 stage times.

    Each step is (h/2, h, h/6, t_next). Step j has stage 1 at times[2j],
    stages 2 and 3 at times[2j+1] = t + h/2, and stage 4 at times[2j+2] =
    t_next, the next step's stage 1. t_next is t + h bit for bit: h =
    t_next - t is exact by Sterbenz's lemma (t_next <= 2 t once k >= 1,
    and t = 0 before), and so is the sum.
    """
    steps, times = [], [t]
    for k in range(k0, k1):
        t_next = min((k + 1) * dt, T)
        h = t_next - t
        steps.append((0.5 * h, h, h / 6.0, t_next))
        times += (t + 0.5 * h, t_next)
        t = t_next
    return steps, times


def simulate_batch(specs, grid: Grid, sample_every: int = 1, cfl: float = 0.5) -> list:
    """Advance several specs from 0 to T as one (rows, N+1) state.

    The admissible specs must have one batch_key: they share alpha, rho,
    horizon and linear_mode, and with them the stage times, are all forced
    or all unforced, and share the step and snapshot stride of their
    step_plan; a, b, beta and the source may differ. Classical RK4 at
    fixed dt; snapshots are recorded at t = 0, every sample_every h0 of
    time (every step_plan per_snapshot steps), and at t = T. Every
    operation is elementwise per row, so each row is bit-identical to its
    run alone.

    Returns one Trajectory per spec, carrying the spec's own step plan, or
    the row's error: ValidationError if the spec fails the admissibility
    checks, BlowUpError once the row left the finite range (it is then
    dropped and the others carry on). Raises ConfigError if the admissible
    specs differ in batch_key or have no step plan, and ResourceLimitError
    if the snapshots of all admissible rows together, or the working memory
    of one run on the grid, would exceed the cap.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("simulate_batch needs at least one spec")
    results: list = [None] * len(specs)
    for i, spec in enumerate(specs):
        report = validate_assumptions(spec)
        if not report.ok:
            results[i] = ValidationError(report)
    live = [i for i, result in enumerate(results) if result is None]  # spec index of each state row
    if not live:
        return results
    lead = specs[live[0]]
    plans = {r: step_plan(specs[r], grid, sample_every, cfl) for r in live}
    plan = plans[live[0]]  # every row steps by the lead's plan; each keeps its own in its Trajectory
    key = batch_key(lead, plan)
    if any(batch_key(specs[r], plans[r]) != key for r in live[1:]):
        raise ConfigError(
            "simulate_batch: rows must share alpha, rho, horizon, linear_mode, being forced and the step"
        )
    fit = rows_within_cap(plan, grid)
    if len(live) > fit:
        raise ResourceLimitError(f"simulate_batch: {len(live)} rows of snapshots exceed the cap, which holds {fit}")

    T = lead.horizon
    dt, nsteps, stride = plan.dt, plan.steps, plan.per_snapshot
    rows = _Rows([specs[r] for r in live], grid)
    firsts = [initialize(specs[r], grid) for r in live]
    bufs, stages = _stages(np.array([[first.v for first in firsts], [first.w for first in firsts]]))
    # snapshots at t = 0, after every stride-th step and after the last
    nsnap = 1 + nsteps // stride + (nsteps % stride != 0)
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
            for j, (hh, h, h6, t_next) in enumerate(steps):
                _rhs_arrays(s1, table[2 * j], rows)
                np.multiply(dz1, hh, out=z2)
                z2 += z1
                _rhs_arrays(s2, table[2 * j + 1], rows)
                np.multiply(dz2, hh, out=z3)
                z3 += z1
                _rhs_arrays(s3, table[2 * j + 1], rows)
                np.multiply(dz3, h, out=z4)
                z4 += z1
                _rhs_arrays(s4, table[2 * j + 2], rows)
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
                if k % stride == 0 or k == nsteps:
                    times[taken] = t
                    for i, r in enumerate(live):
                        snaps[r][:, taken] = bufs[0, 0:2, i]
                    taken += 1
                if blown:
                    break
            del table  # before the next block's table is built; an entry kept by another name would keep it all

    for r in live:
        results[r] = Trajectory(specs[r], grid, plans[r], times, *snaps[r])
    return results


# ---------------------------------------------------------------------------
# manufactured solutions


def manufactured_forcing(field: ManufacturedField, spec: ProblemSpec) -> Callable:
    """Source term f(y, times) that makes the descriptor's field an exact solution.

    The one-row case of the solver's source (see _Source for the formula):
    f is a (times, nodes) array, one vectorised pass whose row j is f at
    times[j] alone. The sin and cos of the nodes are computed once and
    reused while y stays equal.
    """

    damping = spec.damping
    built = []  # (nodes, _Source) of the last node array: sin and cos of the nodes once

    def forcing(y_nodes, times):
        times = np.asarray(times, dtype=float).tolist()
        if not built or not np.array_equal(built[0], y_nodes):
            nodes = np.array(y_nodes, dtype=float)
            built[:] = nodes, _Source([field], spec.alpha, damping.rho, damping.a, damping.b, nodes)
        bt = None if spec.linear_mode else np.array([spec.beta.eval(t)[0] for t in times])[:, None, None]
        return built[1](times, bt)[:, 0]

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
