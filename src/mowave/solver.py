"""Method-of-lines integrator for the wave equation on the growing interval.

With y = x/alpha(t) and v(y,t) = u(x,t), the interval (0, alpha(t)) becomes
(0,1) and, by the chain rule, the equation becomes

    v_tt + c_yt v_yt + c_yy v_yy + c_y v_y + a (v_t - drift v_y) + b v + beta |v|^rho v = f

with drift = y alpha'/alpha (u_t = v_t - drift v_y at fixed x), c_yt = -2 drift,
c_yy = drift^2 - 1/alpha^2 and c_y = y (2 (alpha'/alpha)^2 - alpha''/alpha);
the tests re-derive them, and coefficient_grids evaluates their factors of t.
The characteristic speeds (y alpha' +/- 1)/alpha are real and distinct while
y alpha' < 1, so (A1), sup alpha' < 1, keeps the operator hyperbolic with
margin 1 - sup alpha'; step_plan validates a spec before it can step.
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

The kernel advances a (rows, N+1) state: simulate_batch steps several
admitted specs with one batch_key (one step count and one set of stage
times) in one loop, each by its caller's step plan, and simulate is its
batch of one. a, b, beta(t) and the source
are per-row columns (a and b plain floats when every row shares them).
Every operation is elementwise per row, so a row's bits never depend on
its neighbours; rho is shared because numpy takes scalar fast paths for
some exponents (x ** 2.0, x ** 0.5) that differ in the last bit from pow
with an array exponent.

The step allocates nothing: each RK stage owns one [v_k, w_k, dw_k]
buffer whose overlapping views are its state and its derivative (_stages),
and every call writes in place. The linear part of dw/dt is a 3-point
stencil in v and in w whose node weights K depend only on the stage time
and on a and b. The stage table holds K and -beta(t), so the right-hand
side is one multiply of K with a strided band view of the state, the
nonlinear term (|v|^rho (-beta)) v as a seventh row, one add.reduce over
the seven, and the source. Collecting the formula above into weights of
the node index i = N y regroups its roundings: the results differ from it
in the last bits (about 1e-13 of a column's largest value over a run), and
are bit for bit those of a plain loop over those weights with the same
operand order.

The table is built for _BLOCK steps at a time (_block lists their stage
times), into arrays made once per batch, each family evaluated on all the
times at once. Every operation is elementwise in the time, and numpy's exp
and power give an element the same bits alone or inside a long array, so
the entry of a time is bit for bit a table of that time alone.

A row that leaves the finite range gets its BlowUpError (_instability) and
is dropped; the rows left go on in buffers built for them, so a dead row
costs no further steps. No run keeps its snapshots: simulate_batch hands
them, energy.BLOCK at a time, to each row's energy.IntegralPass, so a
Trajectory holds the integral table and the state at T. batch_bytes
counts what a batch allocates, and no batch may allocate more than
MEMORY_CAP_BYTES.

Manufactured-solution support lives here too: given the exact-field
descriptor u = amp sin(mode pi x / alpha(t)) exp(-rate t), the matching
source f = u_tt - u_xx + a u_t + b u + beta |u|^rho u is written in closed
form from (alpha, alpha', alpha''), which every alpha family returns, and
evaluated directly in reference coordinates.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BlowUpError, ConfigError, ResourceLimitError, ValidationError
from .model import AlphaFamily, ManufacturedField, ProblemSpec, Record, on_times, validate_assumptions

if TYPE_CHECKING:
    from .energy import SnapshotIntegrals

MEMORY_CAP_BYTES = 256 * 2**20  # the most batch_bytes of one simulate_batch call
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


class Grid(Record):
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


class ReferenceState(Record):
    """One state (t, v, w) on the reference grid, as initialize returns it,
    a Trajectory keeps it at T and energy.boundary_flux takes it; arrays
    are frozen copies."""

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
        self.__dict__.update(t=float(self.t), v=v, w=w)


class Trajectory(Record):
    """What one run keeps: the step plan it used, its energy.SnapshotIntegrals
    table (every integral the checks read, one entry per snapshot time) and
    its final state at T. The snapshots themselves pass through simulate_batch
    a block at a time and are not kept."""

    spec: ProblemSpec
    grid: Grid
    plan: StepPlan
    integrals: SnapshotIntegrals
    final: ReferenceState

    def __post_init__(self):
        times = self.times
        if times.size < 1 or times[0] != 0.0:
            raise ConfigError("trajectory: snapshots must start at t = 0")
        if np.any(times[1:] <= times[:-1]):
            raise ConfigError("trajectory: snapshot times must be strictly increasing")
        if times.size > 1 and abs(times[-1] - self.spec.horizon) > 1e-12 * max(1.0, self.spec.horizon):
            raise ConfigError("trajectory: snapshots must end at t = T")
        if self.final.t != times[-1] or self.final.v.shape != (self.grid.n + 1,):
            raise ConfigError("trajectory: the final state must be the last snapshot, with N+1 nodes")

    @property
    def times(self) -> np.ndarray:
        """The snapshot times, integrals.t."""
        return self.integrals.t

    @property
    def dt(self) -> float:
        """The fixed step, plan.dt."""
        return self.plan.dt


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
    plan made at cfl = plan.cap takes the same step. cfl and sample_every
    are the flags the plan was made from, exactly as the caller passed them."""

    dt: float
    steps: int
    per_snapshot: int
    bound: str
    cap: float
    cfl: float
    sample_every: int

    @property
    def snapshots(self) -> int:
        """1 + ceil(steps / per_snapshot): at t = 0, every per_snapshot steps and at T."""
        return 1 - (-self.steps // self.per_snapshot)


def _reaction_rate(spec: ProblemSpec, grid: Grid) -> float:
    """sqrt(b + (rho+1) beta(0) |v0|^rho), v0 the state initialize returns;
    sqrt(b) in linear mode. The spec is admitted, so b >= 0, rho > 0 and
    beta(0) > 0; a term past the doubles makes the rate infinite."""
    rate2 = spec.damping.b
    if not spec.linear_mode:
        peak = np.max(np.abs(initialize(spec, grid).v))
        with np.errstate(over="ignore", invalid="ignore"):  # peak**rho, and beta'(0) that eval also makes
            rate2 += (spec.damping.rho + 1.0) * spec.beta.eval(0.0)[0] * peak**spec.damping.rho
    return math.sqrt(rate2)


def _stiffness_bounds(spec: ProblemSpec, grid: Grid) -> list[tuple[float, str, str]]:
    """(cfl, bound, who) of the damping bound a dt <= DAMPING_LIMIT and the
    reaction bound dt rate <= REACTION_LIMIT, each as the cfl at which dt
    reaches it; who names the bound in an error."""
    per_dt = _s_max(spec) / grid.dy  # cfl per unit of dt
    a = spec.damping.a
    bounds = [(DAMPING_LIMIT / a * per_dt, "damping", f"damping a = {a!r} is too stiff")]
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
    spec: ProblemSpec, grid: Grid, sample_every: int = 1, cfl: float = 0.5, admit: bool = True
) -> StepPlan:
    """The step, the step count and the snapshot stride of one run, once
    validate_assumptions admits its spec (else ValidationError, first).

    Snapshots are sample_every h0 apart in time, h0 = step_size at cfl 0.5,
    whatever the step. The step is capped at the cfl c (plan.cap), the
    smallest of cfl and the damping and reaction bounds, and divides a
    snapshot interval into m = ceil(sample_every / (2 c)) whole steps: dt =
    step_size(cfl = sample_every / (2 m)). At cfl 0.5 that is m =
    sample_every and the cfl 0.5 step, bit for bit. The plan records cfl
    and sample_every as given, for the blow-up remedy and the manifest.
    Raises ConfigError, naming the binding bound, when dt gives no finite
    step count or more than 2**53 steps. It alone admits a run's memory:
    ResourceLimitError when batch_bytes of one row with no snapshots,
    checked before any array of the grid exists, or with the plan's
    snapshots exceeds MEMORY_CAP_BYTES.
    admit=False skips the validation and the stiffness bounds, checking only
    the flags and the wave plan of a spec that never steps: the sweep's base,
    which its axes may override. Only an admit=True plan shows admission.
    """
    if admit:
        report = validate_assumptions(spec)
        if not report.ok:
            raise ValidationError(report)
    if isinstance(sample_every, bool) or not isinstance(sample_every, int) or sample_every < 1:
        raise ConfigError(f"sample_every must be a positive integer, got {sample_every!r}")
    step_size(spec, grid, cfl)  # rejects a cfl that is not positive and finite
    need = batch_bytes(grid, 1, 0, spec.source is not None)
    if need > MEMORY_CAP_BYTES:
        raise ResourceLimitError(
            f"grid N = {grid.n} needs about {need} bytes for a stage table, the stage buffers, "
            f"a snapshot block and the integral pass (cap {MEMORY_CAP_BYTES}); lower N"
        )
    caps = [(cfl, "wave", f"cfl {cfl!r} is too small"), *(_stiffness_bounds(spec, grid) if admit else ())]
    c, bound, who = min(caps, key=lambda cap: cap[0])  # the first of equal caps
    _steps_to(spec.horizon, step_size(spec, grid, c) if c > 0.0 else 0.0, who)  # dt at the cap
    num, den = c.as_integer_ratio()
    m = -(-sample_every * den // (2 * num))  # ceil(sample_every / (2 c)), exact for any sample_every
    dt = step_size(spec, grid, sample_every / (2 * m))
    plan = StepPlan(dt, _steps_to(spec.horizon, dt, who), m, bound, c, cfl, sample_every)
    one = batch_bytes(grid, 1, plan.snapshots, spec.source is not None)
    if one > MEMORY_CAP_BYTES:
        raise ResourceLimitError(
            f"run would keep about {one - need} bytes of snapshot integrals, {one} bytes in all "
            f"(cap {MEMORY_CAP_BYTES}); raise sample_every"
        )
    return plan


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


def batch_bytes(grid: Grid, rows: int, nsnap: int, forced: bool, weight_rows: int = 1) -> int:
    """What simulate_batch allocates at most for rows rows of nsnap
    snapshots on the grid, with weight_rows rows of K (1 when they share a and b).

    Per row: the stage buffers (12 arrays of the N+1 nodes), the product
    scratch (7 of the N-1 interior ones), -beta at the 2 _BLOCK + 1 stage
    times, a block of energy.BLOCK snapshots of v and w, v and w at 0 and T,
    and the integral table (energy.table_columns per snapshot); forced, the
    source at the stage times twice (the table and _Source's scratch) and
    its 4 node vectors in _Rows and in the row's pass. Per weight row, K's
    six weights at the stage times. Once: the pass's PASS_ARRAYS temporaries
    of one block (one more forced), the grid's 2 and _Rows' 3 node vectors.
    Python objects and small arrays: 256 KiB and 8 KiB per row.
    """
    from .energy import BLOCK, PASS_ARRAYS, table_columns  # energy imports this module

    nodes, interior, times = grid.n + 1, grid.n - 1, 2 * _BLOCK + 1
    per_row = (12 + 2 * BLOCK + 4 + 4 * forced) * nodes + (7 + (2 * times + 4) * forced) * interior + times
    per_row += nsnap * len(table_columns(forced))
    once = 6 * times * interior * weight_rows + (PASS_ARRAYS + forced) * BLOCK * nodes + 2 * nodes + 3 * interior
    return 8 * (rows * per_row + once) + 2**18 + 2**13 * rows


def rows_within_cap(plan: StepPlan, grid: Grid, specs: list[ProblemSpec]) -> int:
    """The most rows of specs stepping by plan whose batch_bytes fits
    MEMORY_CAP_BYTES, read at the call, 0 when not even one does (step_plan
    refuses that run): a row keeps plan.snapshots snapshots, and has a weight
    row of its own when the specs differ in a or b."""
    forced = specs[0].source is not None
    differ = any(np.ndim(_column([getattr(s.damping, c) for s in specs])) for c in "ab")  # as _Rows builds K
    one = batch_bytes(grid, 1, plan.snapshots, forced)
    per_row = batch_bytes(grid, 2, plan.snapshots, forced, 1 + differ) - one
    return max(0, 1 + (MEMORY_CAP_BYTES - one) // per_row)


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

    Collected by node vector, with g^2 - g' = 2 g^2 - alpha''/alpha, f is a
    sum of four products:

        f = E (2 g^2 - alpha''/alpha + (2 rate - a) g)     theta cos(theta)
          + E ((mode pi / alpha)^2 + rate (rate - a) + b)  sin(theta)
          - E g^2                                          theta^2 sin(theta)
          + beta |E|^rho E                                 |sin(theta)|^rho sin(theta)

    The per-row node vectors and constants 2 rate - a and rate (rate - a) + b
    do not depend on t and are made once; each scalar is a (times, rows)
    column, evaluated on all times at once from the coefficient_grids columns
    of the shared alpha. rho is shared, a and b are the rows' columns.
    """

    def __init__(self, fields: list[ManufacturedField], rho: float, a, b, y: np.ndarray):
        self.rho = rho
        self.amp = np.array([f.amp for f in fields])[:, None]
        rate = np.array([f.rate for f in fields])[:, None]
        self.neg_rate, self.g_weight, self.sin_offset = -rate, 2.0 * rate - a, rate * (rate - a) + b
        self.k = np.array([f.mode * math.pi for f in fields])[:, None]
        theta = self.k * y
        sin = np.sin(theta)
        self.nodes = (theta * np.cos(theta), sin, theta * theta * sin, np.abs(sin) ** rho * sin)

    def __call__(self, times: np.ndarray, columns: tuple, bt, out: np.ndarray | None = None) -> np.ndarray:
        """The source at each of times, shape (times, rows, nodes), written
        into out when given; columns are coefficient_grids(times, alpha),
        and bt is the (times, rows, 1) beta(t) column, None in linear mode."""
        al, g, g_sq, app_al = columns
        E = self.amp * np.exp(self.neg_rate * times[:, None, None])
        k_al = self.k / al
        scalars = [
            E * (2.0 * g_sq - app_al + self.g_weight * g),
            E * (k_al * k_al + self.sin_offset),
            -(E * g_sq),
        ]
        if bt is not None:
            scalars.append(bt * np.abs(E) ** self.rho * E)
        f = np.multiply(scalars[0], self.nodes[0], out)
        tmp = np.empty_like(f)
        for scalar, node in zip(scalars[1:], self.nodes[1:]):
            f += np.multiply(scalar, node, out=tmp)
        return f


def coefficient_grids(times, alpha: AlphaFamily):
    """The functions of t alone in the transformed equation's coefficients.

    Returns (alpha, g, g^2, alpha''/alpha) with g = alpha'/alpha, each a
    (times, 1, 1) column whose entry j is the value at times[j]: what the
    stage table's weights and _Source read of alpha. At a node y

        c_yt = -2 y g,   c_yy = y^2 g^2 - 1/alpha^2,   c_y = y (2 g^2 - alpha''/alpha),   drift = y g.

    alpha is evaluated on all times at once; every operation is elementwise,
    so entry j does not depend on the other times.
    """
    times = np.asarray(times, dtype=float)
    al, ap, app = (x[:, None, None] for x in on_times(alpha.eval(times), times))
    g = ap / al
    return al, g, g * g, app / al


class _Rows:
    """Per-row constants of specs with one batch_key, and their stage table.

    a, b, beta(t) and the source differ per row and broadcast as columns
    over the interior nodes; a and b are plain floats when every row shares
    them. The nonlinear term is on exactly when linear_mode is off:
    validation (A2) makes beta(t) > 0 then. The stage table's arrays, with
    w_mid = -a, are made here for the 2 _BLOCK + 1 stage times of a block.
    """

    def __init__(self, specs: list[ProblemSpec], grid: Grid):
        self.specs = specs
        self.alpha, self.rho = specs[0].alpha, specs[0].damping.rho
        self.nonlinear = not specs[0].linear_mode
        self.i = np.arange(1.0, grid.n)  # the interior nodes' index N y, exactly
        self.i_sq, self.half_i, self.n_sq = self.i * self.i, 0.5 * self.i, float(grid.n * grid.n)
        self.a = _column([s.damping.a for s in specs])
        self.b = _column([s.damping.b for s in specs])
        self.weight_rows = 1 if np.ndim(self.a) == np.ndim(self.b) == 0 else len(specs)
        self.source = (
            _Source([s.source for s in specs], self.rho, self.a, self.b, grid.y[1:-1])
            if specs[0].source is not None
            else None
        )
        rows, size = len(specs), 2 * _BLOCK + 1
        self.weights = np.empty((2, 3, size, self.weight_rows, self.i.size))
        np.negative(self.a, out=self.weights[1, 1])
        self.neg_bt = np.empty((size, rows, 1)) if self.nonlinear else None
        self.f = np.empty((size, rows, self.i.size)) if self.source is not None else None
        neg_bt = itertools.repeat(None) if self.neg_bt is None else self.neg_bt
        if self.neg_bt is not None and rows == 1:  # 0-d views, which numpy multiplies by without broadcasting
            neg_bt = [column[0, 0, ...] for column in self.neg_bt]
        f = itertools.repeat(None) if self.f is None else self.f
        self.entries = list(zip(self.weights.transpose(2, 0, 1, 3, 4), neg_bt, f))

    def stage_table(self, times) -> list[tuple]:
        """What _rhs_arrays needs at each of times, at most 2 _BLOCK + 1: (K, -bt, f).

        K, shape (2, 3, weight_rows, nodes), holds the weights of the linear
        part of dw/dt as a 3-point stencil in v and w: dw_i is the sum over
        c in (v, w) and s in (left, centre, right) of K[c, s] z_c at node
        i - 1, i, i + 1. The central differences of -(c_yt w_y + c_yy v_yy +
        c_y v_y) - a (w - drift v_y) - b v, collected per node with y = i/N,
        1/dy^2 = N^2 and 1/(2 dy) = N/2, give

            v: S + A,  -2 S - b,  S - A        w: -g i,  -a,  g i

        with S = N^2/alpha^2 - g^2 i^2 and A = (2 g^2 - alpha''/alpha - a g) i/2,
        from the coefficient_grids columns and the node vectors i, i^2, i/2.
        weight_rows is 1 when the rows share a and b. -bt is the (rows, 1)
        -beta(t) column and f the (rows, nodes) source, None when off. Each
        weight is one contiguous (times, weight_rows, nodes) block, and K a
        view across the six; S and A are made in the blocks of w_left and
        w_right, written last, so no other array of the nodes is made. Every
        operation is elementwise, so the entry of a time is bit for bit what
        a table of that time alone gives. The entries are views of arrays
        kept for the next table, which overwrites them.
        """
        times = np.asarray(times, dtype=float)
        n = times.size
        al, g, g_sq, app_al = columns = coefficient_grids(times, self.alpha)
        (v_left, v_mid, v_right), (w_left, _, w_right) = self.weights[:, :, :n]
        S, A = w_left[:, :1], w_right if np.ndim(self.a) else w_right[:, :1]
        np.multiply(g_sq, self.i_sq, out=S)
        np.subtract(self.n_sq * (1.0 / (al * al)), S, out=S)
        np.multiply(2.0 * g_sq - app_al - self.a * g, self.half_i, out=A)
        np.add(S, A, out=v_left)
        np.subtract(S, A, out=v_right)
        np.multiply(S, -2.0, out=v_mid)
        v_mid -= self.b
        np.multiply(g, self.i, out=w_right)
        np.negative(w_right, out=w_left)
        bt = None
        if self.nonlinear:
            bt = self.neg_bt[:n]
            for i, spec in enumerate(self.specs):
                bt[:, i, 0] = spec.beta.eval(times)[0]
        if self.source is not None:
            self.source(times, columns, bt, self.f[:n])
        if bt is not None:
            np.negative(bt, out=bt)
        return self.entries[:n]


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
    scratch P7, (7, rows, N-1), its first six rows P6 and their (2, 3, rows,
    N-1) reshape P, and its seventh row are shared by the four stages.
    """
    rows, nodes = z.shape[1:]
    bufs = np.zeros((4, 3, rows, nodes))
    bufs[0, 0:2] = z
    P7 = np.empty((7, rows, nodes - 2))
    P6 = P7[:6]
    P = P6.reshape(2, 3, rows, nodes - 2)
    views = []
    for buf in bufs:
        s0, s1, s2 = buf.strides
        band = as_strided(buf, (2, 3, rows, nodes - 2), (s0, s2, s1, s2), writeable=False)
        views.append((buf[0, :, 1:-1], buf[2, :, 1:-1], band, P, P6, P7, P7[6]))
    return bufs, views


_add, _multiply, _absolute, _sum = np.add, np.multiply, np.absolute, np.add.reduce  # looked up once, called often


def _rhs_arrays(stage: tuple, coef: tuple, rows: _Rows) -> None:
    """Interior dw/dt of every row of one stage buffer, written into its dw.

    stage is a buffer's views from _stages, coef the stage time's entry of
    the stage table. K times the band gives six (c, s) terms in that order
    (v left, centre, right, then w), (|v|^rho (-beta)) v a seventh, and one
    reduce adds them left to right: bit for bit the six-term sum minus
    beta |v|^rho v, since (-beta) x is -(beta x) and s + (-r) is s - r in
    IEEE arithmetic. The source follows. Every call writes into
    preallocated arrays. dv/dt is w itself: the boundary columns of w are
    zero at every stage, and those of dw are never written.
    """
    vi, dw, band, P, P6, P7, r = stage
    K, neg_bt, f = coef
    _multiply(K, band, P)
    if neg_bt is None:
        _sum(P6, 0, None, dw)
    else:
        # |v|^rho v, continuously extended by 0 at v = 0 for every rho > 0
        _absolute(vi, r)
        if rows.rho != 1.0:  # x ** 1.0 is x exactly
            r **= rows.rho  # not np.power: keeps numpy's scalar fast paths
        _multiply(r, neg_bt, r)
        _multiply(r, vi, r)
        _sum(P7, 0, None, dw)
    if f is not None:
        _add(dw, f, dw)


def _all_finite(z: np.ndarray, mask: np.ndarray) -> bool:
    """Whether every entry of z is finite; when not, mask holds np.isfinite(z).

    An inf or NaN entry makes the sum of z inf or NaN; a sum that is not
    finite, as an overflow of finite entries also gives, takes the exact test.
    """
    return math.isfinite(_sum(z, None)) or bool(np.isfinite(z, mask).all())


# ---------------------------------------------------------------------------
# time integration


def simulate(
    spec: ProblemSpec, grid: Grid, sample_every: int = 1, cfl: float = 0.5, on_block: Callable | None = None
) -> Trajectory:
    """Advance one spec from 0 to T: the batch of one of simulate_batch, whose
    on_block this passes on (its row index is 0).

    Raises step_plan's errors, its ValidationError first, then its
    ConfigError or ResourceLimitError (its memory refusal), and BlowUpError
    when the solution leaves the finite range.
    """
    plan = step_plan(spec, grid, sample_every, cfl)
    (result,) = simulate_batch([spec], [plan], grid, on_block)
    if isinstance(result, BlowUpError):
        raise result
    return result


def _block(k0: int, k1: int, t: float, dt: float, T: float) -> tuple[list[tuple], list[float]]:
    """Steps k0 .. k1-1, the first starting at t, and their 2 (k1 - k0) + 1 stage times.

    Each step is (h/2, h, h/6). Step j has stage 1 at times[2j], stages 2
    and 3 at times[2j+1] = t + h/2, and stage 4 at times[2j+2] = t_next,
    its end and the next step's stage 1. t_next is t + h bit for bit: h =
    t_next - t is exact by Sterbenz's lemma (t_next <= 2 t once k >= 1,
    and t = 0 before), and so is the sum.
    """
    steps, times = [], [t]
    for k in range(k0, k1):
        t_next = min((k + 1) * dt, T)
        h = t_next - t
        steps.append((0.5 * h, h, h / 6.0))
        times += (t + 0.5 * h, t_next)
        t = t_next
    return steps, times


def _instability(spec: ProblemSpec, plan: StepPlan, t: float) -> BlowUpError:
    """The error of a row whose state left the finite range at t.

    The exact solution is finite there: unforced, the energy identity bounds
    its energy by E(0) beta(t)/beta(0) (by E(0) in linear mode); forced, it
    is the manufactured field. So the step is at fault, and any --cfl below
    the step's own, plan.sample_every / (2 per_snapshot), takes a smaller one.
    """
    if spec.source is not None:
        exact = "the exact solution is the manufactured field"
    elif spec.linear_mode:
        exact = "the energy identity bounds the exact energy there by E(0)"
    else:
        ratio = spec.beta.eval(t)[0] / spec.beta.eval(0.0)[0]
        exact = f"the energy identity bounds the exact energy there by E(0) beta(t)/beta(0) = {ratio:.6g} E(0)"
    return BlowUpError(
        t,
        f"numerical instability: the discrete solution left the finite range at t={t:.6g}, although {exact}; "
        f"the step dt = {plan.dt:.6g} was set by the {plan.bound} bound from the data at t = 0: "
        f"lower --cfl below {plan.sample_every / (2 * plan.per_snapshot):.6g}",
    )


def simulate_batch(
    specs: list[ProblemSpec], plans: list[StepPlan], grid: Grid, on_block: Callable | None = None
) -> list:
    """Advance several admitted specs from 0 to T as one (rows, N+1) state.

    The caller admits and plans every row, and nothing here checks it:
    plans[i] is step_plan(specs[i], grid, ...), which admitted specs[i] and
    records the flags it was made from, there are at least one and at most
    rows_within_cap rows, and they have one batch_key, and with it one step
    and one set of stage times; a, b, beta and the source may differ.
    Classical RK4 at fixed dt; snapshots are taken at t = 0, every
    plan.sample_every h0 of time (every per_snapshot steps), and at t = T,
    into a buffer of energy.BLOCK snapshots per row. Each time it fills,
    and at T, the block of every live row goes to the row's
    energy.IntegralPass and then, when given, to on_block(i, times, V, W):
    i is the spec's index in specs, times the block's snapshot times, and V
    and W read-only (len(times), N+1) views of v and w there, overwritten
    by the next block. Blocks are aligned at snapshot 0, as
    snapshot_integrals cuts a run's arrays, so a row's table is bit for bit
    the one of its snapshots. Every operation is elementwise per row, so
    each row is bit-identical to its run alone.

    Returns one Trajectory per spec, carrying its plan, its integral table
    and its state at T, or the row's BlowUpError (see _instability) once
    the row left the finite range (it is then dropped, its blocks so far
    handed on, and the others carry on; the loop stops when every row has).
    """
    from .energy import BLOCK, IntegralPass  # energy imports this module

    results: list = [None] * len(specs)
    live = list(range(len(specs)))  # spec index of each state row
    plan = plans[0]  # every row steps by the first plan; each keeps its own in its Trajectory
    T = specs[0].horizon
    dt, nsteps, stride = plan.dt, plan.steps, plan.per_snapshot
    firsts = [initialize(spec, grid) for spec in specs]
    state = np.array([[first.v for first in firsts], [first.w for first in firsts]])
    passes = [IntegralPass(spec, grid, plan.snapshots) for spec in specs]
    times = np.zeros(BLOCK)  # the block's snapshot times: snapshot j of the run sits at j % BLOCK
    block = np.empty((2, len(specs), BLOCK, grid.n + 1))  # v and w of every row at those times
    block[:, :, 0] = state
    taken = 1
    k, t = 0, 0.0

    def hand_on(n: int) -> None:
        """The block's first n snapshots of every live row to its pass, then to on_block."""
        ts = times[:n]
        ts.flags.writeable = False
        for r, integral_pass, V, W in zip(live, passes, block[0, :, :n], block[1, :, :n]):
            V.flags.writeable = W.flags.writeable = False
            integral_pass.add(ts, V, W)
            if on_block is not None:
                on_block(r, ts, V, W)

    # a block's steps; h/2, h and h/6 are read through 0-d views, which numpy multiplies by without converting a float
    step_scalars = np.empty((_BLOCK, 3))
    scalar_views = [(row[0, ...], row[1, ...], row[2, ...]) for row in step_scalars]
    add, multiply, all_finite = np.add, np.multiply, _all_finite
    with np.errstate(over="ignore", invalid="ignore"):
        while k < nsteps and live:
            if state is not None:  # at the start, and after rows blew up: the rows left, in fresh buffers
                bufs, (s1, s2, s3, s4) = _stages(state)
                z1, z2, z3, z4 = bufs[:, 0:2]
                dz1, dz2, dz3, dz4 = bufs[:, 1:3]
                finite = np.empty(z1.shape, dtype=bool)
                rows = _Rows([specs[r] for r in live], grid)  # made once the old buffers are gone
                state = None
            steps, stage_times = _block(k, min(k + _BLOCK, nsteps), t, dt, T)
            step_scalars[: len(steps)] = steps
            table = rows.stage_table(stage_times)
            ends = stage_times[2::2]  # step j ends at stage time 2j + 2
            for (hh, h, h6), t_next, c1, c2, c4 in zip(scalar_views, ends, table[0::2], table[1::2], table[2::2]):
                _rhs_arrays(s1, c1, rows)
                multiply(dz1, hh, z2)
                add(z2, z1, z2)
                _rhs_arrays(s2, c2, rows)
                multiply(dz2, hh, z3)
                add(z3, z1, z3)
                _rhs_arrays(s3, c2, rows)
                multiply(dz3, h, z4)
                add(z4, z1, z4)
                _rhs_arrays(s4, c4, rows)
                # z1 += (h/6) (dz1 + 2 dz2 + 2 dz3 + dz4), summed left to right in dz2; x + x is 2 x bit for bit
                add(dz2, dz2, dz2)
                add(dz2, dz1, dz2)
                add(dz3, dz3, dz3)
                add(dz2, dz3, dz2)
                add(dz2, dz4, dz2)
                multiply(dz2, h6, dz2)
                add(z1, dz2, z1)
                k, t = k + 1, t_next
                if not all_finite(z1, finite):
                    ok = finite.all(axis=(0, 2))
                    for r in itertools.compress(live, ~ok):
                        results[r] = _instability(specs[r], plans[r], t)
                    for j, i in enumerate(np.flatnonzero(ok)):  # in place: j <= i reads a row not yet moved
                        block[:, j] = block[:, i]
                    live, passes = list(itertools.compress(live, ok)), list(itertools.compress(passes, ok))
                    block, state = block[:, : len(live)], z1[:, ok]
                if k % stride == 0 or k == nsteps:
                    times[taken % BLOCK] = t
                    block[:, :, taken % BLOCK] = z1 if state is None else state
                    taken += 1
                    if taken % BLOCK == 0:
                        hand_on(BLOCK)
                if state is not None:
                    break  # the table holds the blown rows too
        if taken % BLOCK:
            hand_on(taken % BLOCK)

    last = (taken - 1) % BLOCK  # the snapshot at T of every live row
    for r, integral_pass, v, w in zip(live, passes, block[0, :, last], block[1, :, last]):
        results[r] = Trajectory(specs[r], grid, plans[r], integral_pass.table(), ReferenceState(t, v, w))
    return results


# ---------------------------------------------------------------------------
# manufactured solutions


def manufactured_forcing(field: ManufacturedField, spec: ProblemSpec, y: np.ndarray) -> Callable:
    """Source term f(times) at nodes y that makes the descriptor's field an exact solution.

    The one-row case of the solver's source (see _Source for the formula),
    with its node vectors made once here: f is a (times, nodes) array, one
    vectorised pass over the array of times whose row j is f at times[j]
    alone.
    """
    damping = spec.damping
    source = _Source([field], damping.rho, damping.a, damping.b, np.asarray(y, dtype=float))

    def forcing(times):
        times = np.asarray(times, dtype=float)
        bt = None if spec.linear_mode else on_times(spec.beta.eval(times), times)[0][:, None, None]
        return source(times, coefficient_grids(times, spec.alpha), bt)[:, 0]

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
