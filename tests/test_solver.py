"""Grid, quadrature, time stepping, and manufactured-solution machinery."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from mowave import (
    AffineAlpha,
    BlowUpError,
    Bump,
    ConfigError,
    ConstantAlpha,
    ConstantBeta,
    DampingParams,
    EnergySeries,
    ExponentialBeta,
    Grid,
    GridSamples,
    ManufacturedField,
    ProblemSpec,
    ReferenceState,
    ResourceLimitError,
    SaturatingAlpha,
    SineMode,
    SnapshotIntegrals,
    Trajectory,
    ValidationError,
    PolynomialBeta,
    exact_reference_fields,
    simulate,
    snapshot_integrals,
)
from mowave.energy import BLOCK
from mowave.solver import (
    _BLOCK,
    StepPlan,
    _all_finite,
    _Rows,
    _block,
    _rhs_arrays,
    _stages,
    coefficient_grids,
    initialize,
    manufactured_forcing,
    rows_within_cap,
    simpson_weights,
    simulate_batch,
    step_plan,
    step_size,
)


def make_spec(**kw):
    base = dict(
        damping=DampingParams(a=1.0, b=1.0, rho=1.0),
        beta=ConstantBeta(1.0),
        alpha=ConstantAlpha(),
        init=SineMode(m=1, amp_u0=1.0, amp_u1=0.0),
        horizon=1.0,
    )
    base.update(kw)
    return ProblemSpec(**base)


def copies(arrays):
    return [array.copy() for array in arrays]  # on_block's arrays are views of buffers the next block reuses


def batch_with_snapshots(specs, grid, sample_every=1, cfl=0.5):
    """simulate_batch's results, each paired with the snapshots (times, V, W)
    of its row as on_block handed them on, None for a row that failed."""
    blocks = {}
    results = simulate_batch(
        specs, grid, sample_every, cfl, on_block=lambda i, *block: blocks.setdefault(i, []).append(copies(block))
    )
    return [
        (result, None if isinstance(result, Exception) else tuple(np.concatenate(parts) for parts in zip(*blocks[i])))
        for i, result in enumerate(results)
    ]


def with_snapshots(spec, grid, sample_every=1, cfl=0.5):
    """simulate's Trajectory and its snapshots (times, V, W), collected through on_block."""
    blocks = []
    traj = simulate(spec, grid, sample_every, cfl, on_block=lambda i, *block: blocks.append(copies(block)))
    return traj, tuple(np.concatenate(parts) for parts in zip(*blocks))


def rhs(state, spec, grid):
    """(dv/dt, dw/dt) at one state: the kernel's first stage on a batch of one row."""
    rows = _Rows([spec], grid)
    bufs, stages = _stages(np.array([[state.v], [state.w]]))
    _rhs_arrays(stages[0], rows.stage_table([state.t])[0], rows)
    dv = state.w.copy()
    dv[0] = dv[-1] = 0.0
    return dv, bufs[0, 2, 0].copy()


class TestGrid:
    def test_rejects_small_n(self):
        with pytest.raises(ConfigError):
            Grid(4)
        with pytest.raises(ConfigError):
            Grid(0)

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigError):
            Grid(10.0)
        with pytest.raises(ConfigError):
            Grid(True)

    def test_nodes_and_spacing(self):
        g = Grid(8)
        assert g.dy == pytest.approx(0.125)
        assert g.y[0] == 0.0 and g.y[-1] == 1.0
        assert np.allclose(np.diff(g.y), g.dy)

    def test_nodes_are_read_only(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            g.y[0] = 5.0


class TestSimpsonWeights:
    @pytest.mark.parametrize("n", [8, 10, 100, 9, 11, 101])
    def test_exact_on_cubics(self, n):
        # both the Simpson body and the 3/8 tail integrate cubics exactly
        dy = 1.0 / n
        y = np.linspace(0.0, 1.0, n + 1)
        w = simpson_weights(n, dy)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert w @ y**2 == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert w @ y**3 == pytest.approx(1.0 / 4.0, abs=1e-14)

    def test_quartic_error_is_fourth_order(self):
        vals = []
        for n in (16, 32):
            y = np.linspace(0.0, 1.0, n + 1)
            w = simpson_weights(n, 1.0 / n)
            vals.append(abs(w @ y**4 - 0.2))
        assert vals[0] / vals[1] > 12.0  # ~16 for genuine O(dy^4)


class TestStepSize:
    def test_cylindrical(self):
        dt = step_size(make_spec(), Grid(100))
        assert dt == pytest.approx(0.005, abs=1e-15)

    def test_expanding_slows_the_step(self):
        spec = make_spec(alpha=AffineAlpha(k=0.5))
        dt = step_size(spec, Grid(100))
        assert dt == pytest.approx(0.5 * 0.01 / 1.5, abs=1e-15)

    def test_scales_with_cfl(self):
        spec = make_spec()
        assert step_size(spec, Grid(100), cfl=0.25) == pytest.approx(
            0.5 * step_size(spec, Grid(100), cfl=0.5)
        )

    def test_rejects_bad_cfl(self):
        with pytest.raises(ConfigError):
            step_size(make_spec(), Grid(100), cfl=0.0)
        with pytest.raises(ConfigError):
            step_size(make_spec(), Grid(100), cfl=float("nan"))

    def test_step_count_stops_at_2_53(self, monkeypatch):
        # dt = cfl/8 on Grid(8) at T = 1: 2**53 steps have exact step times, 2**54 do not;
        # a snapshot every h0 = 1/16 of time is every 2**49 steps; a row keeps 10 doubles of each
        spec = make_spec()
        plan = step_plan(spec, Grid(8), 1, cfl=2.0**-50)
        per_row = (2**4 + 2) * 10 * 8
        monkeypatch.setattr("mowave.solver.SNAPSHOT_CAP_BYTES", per_row)
        assert rows_within_cap(plan, Grid(8), [spec]) == 1
        monkeypatch.setattr("mowave.solver.SNAPSHOT_CAP_BYTES", per_row - 1)
        with pytest.raises(ResourceLimitError, match=f"about {per_row} bytes"):
            rows_within_cap(plan, Grid(8), [spec])
        with pytest.raises(ConfigError, match=r"cfl .* is too small: .* more than the 2\*\*53"):
            step_plan(spec, Grid(8), 1, cfl=2.0**-51)


def readme_spec(**kw):
    """The README config (T = 10 unless given), with damping and init fields overridden by kw."""
    damping = dict(a=1.0, b=1.0, rho=1.0)
    damping.update({k: kw.pop(k) for k in ("a", "b", "rho") if k in kw})
    return make_spec(
        damping=DampingParams(**damping),
        beta=ExponentialBeta(beta0=1.0, mu=0.1),
        alpha=SaturatingAlpha(k=0.5, tau=1.0),
        init=SineMode(m=1, amp_u0=kw.pop("amp_u0", 1.0), amp_u1=0.0),
        horizon=kw.pop("horizon", 10.0),
        **kw,
    )


class TestStepPlan:
    @pytest.mark.parametrize("every", [1, 3, 10, 10**6, 2**60 + 1])
    def test_cfl_one_half_steps_as_sample_every_counted_steps(self, every):
        spec, g = readme_spec(), Grid(100)
        plan = step_plan(spec, g, every, 0.5)
        assert plan.dt == step_size(spec, g, 0.5) and plan.per_snapshot == every and plan.bound == "wave"

    @pytest.mark.parametrize("every", [2, 10, 64])
    def test_cfl_one_halves_the_steps_of_an_even_stride(self, every):
        spec, g = readme_spec(), Grid(100)
        plan = step_plan(spec, g, every, 1.0)
        assert plan.dt == step_size(spec, g, 1.0) and plan.per_snapshot == every // 2
        assert plan.steps == math.ceil(10.0 / plan.dt - 1e-12) == step_plan(spec, g, every).steps // 2

    def test_cfl_is_an_upper_bound(self):
        spec, g = readme_spec(), Grid(100)
        odd = step_plan(spec, g, 5, 1.0)  # 3 steps per 5 h0: cfl 5/6
        assert odd.per_snapshot == 3 and odd.dt == step_size(spec, g, 5 / 6) < step_size(spec, g, 1.0)
        # the step never exceeds the snapshot interval sample_every h0
        assert step_plan(spec, g, 1, 10.0).dt == step_size(spec, g, 0.5)

    def test_snapshot_times_do_not_depend_on_cfl(self):
        spec, g = readme_spec(horizon=1.0), Grid(32)
        half, one, quarter, other = (simulate(spec, g, sample_every=10, cfl=cfl) for cfl in (0.5, 1.0, 0.25, 0.3))
        assert [run.plan.steps for run in (half, one, quarter, other)] == [96, 48, 192, 164]  # 0.3: 17 steps of cfl 5/17
        assert np.array_equal(one.times, half.times) and np.array_equal(quarter.times, half.times)
        np.testing.assert_allclose(other.times, half.times, rtol=1e-14)

    @pytest.mark.parametrize("a", [600.0, 2000.0])
    def test_damping_caps_the_step(self, a):
        spec, g = readme_spec(a=a), Grid(100)
        plan = step_plan(spec, g, 10, 1.0)
        assert plan.bound == "damping" and a * plan.dt <= 2.5
        assert step_plan(spec, g, 10, 1.0, stiff=False).bound == "wave"
        assert step_plan(readme_spec(), g, 10, 1.0).bound == "wave"

    @pytest.mark.parametrize("amp", [35.0, 50.0])
    def test_reaction_caps_the_step(self, amp):
        spec, g = readme_spec(rho=3.0, amp_u0=amp), Grid(100)
        plan = step_plan(spec, g, 10, 1.0)
        rate = math.sqrt(1.0 + 4.0 * 1.0 * np.max(np.abs(initialize(spec, g).v)) ** 3)
        assert plan.bound == "reaction" and plan.dt * rate <= 1.4
        # linear mode leaves out the nonlinear term, and with it the bound
        assert step_plan(readme_spec(rho=3.0, amp_u0=amp, linear_mode=True), g, 10, 1.0).bound == "wave"

    def test_bounds_leave_the_default_data_alone(self):
        # the bounds do not bind at the default data, so cfl 0.5 runs keep their step
        for spec in (readme_spec(), readme_spec(a=100.0), readme_spec(rho=3.0, amp_u0=10.0)):
            assert step_plan(spec, Grid(200), 10, 0.5).dt == step_size(spec, Grid(200), 0.5)

    @pytest.mark.parametrize("cfl", [0.3, 1.0])
    def test_plan_reports_the_cap_it_stepped_under(self, cfl):
        g = Grid(100)
        wave = step_plan(readme_spec(), g, 10, cfl)
        assert wave.bound == "wave" and wave.cfl == cfl
        damped = step_plan(readme_spec(a=2000.0), g, 10, cfl)
        assert damped.bound == "damping" and damped.cfl == 2.5 / 2000.0 * (1.5 / g.dy)
        # a plan made at its own cap takes the same steps
        assert step_plan(readme_spec(a=2000.0), g, 10, damped.cfl)[:3] == damped[:3]

    def test_inadmissible_coefficients_give_no_bound(self):
        g = Grid(16)
        inadmissible = (
            readme_spec(a=-1.0),
            readme_spec(b=-5.0),
            readme_spec(rho=-1.0, amp_u0=0.0),
            make_spec(beta=ConstantBeta(-1.0)),
        )
        for spec in inadmissible:
            assert step_plan(spec, g, 10, 1.0).bound == "wave"

    @pytest.mark.parametrize(
        "kw, words",
        [
            (dict(a=1e20), r"damping a = 1e\+20 is too stiff: dt = .* more than the 2\*\*53"),
            (dict(rho=3.0, amp_u0=1e12), r"reaction rate .* = 2e\+18 is too stiff: dt = .* more than the 2\*\*53"),
            (dict(rho=3.0, amp_u0=1e300), r"reaction rate .* = inf is too stiff: dt = 0.0 gives no finite number"),
        ],
        ids=["damping", "reaction", "reaction-overflows"],
    )
    def test_step_count_error_names_the_binding_bound(self, kw, words):
        with pytest.raises(ConfigError, match=words):
            simulate(readme_spec(**kw), Grid(16))

    def test_rows_of_one_batch_share_the_step(self):
        specs = [readme_spec(a=a, horizon=0.5) for a in (1.0, 600.0)]
        with pytest.raises(ConfigError, match="the step"):
            simulate_batch(specs, Grid(100), sample_every=10, cfl=1.0)


class TestTimeRefinement:
    """The README config at T = 2, N = 100, snapshots every 8 h0: the step halved three times from cfl 1."""

    @pytest.fixture(scope="class")
    def runs(self):
        spec = readme_spec(horizon=2.0)
        runs = {cfl: simulate(spec, Grid(100), sample_every=8, cfl=cfl) for cfl in (1.0, 0.5, 0.25, 0.125)}
        fine = simulate(spec, Grid(200), sample_every=16, cfl=1.0)  # 16 h0 at N = 200 is 8 h0 at N = 100
        return runs, fine

    def test_snapshot_times_are_bitwise_equal(self, runs):
        runs, fine = runs
        assert [run.plan.steps for run in runs.values()] == [300, 600, 1200, 2400]
        for run in (*runs.values(), fine):
            assert np.array_equal(run.times, runs[1.0].times)

    # measured: the energy at orders 4.2 and a time error 0.2% of the space error,
    # the moving-endpoint flux at orders 3.72 and 4.02 and 7.9%
    @pytest.mark.parametrize("column", ["E", "flux"])
    def test_is_fourth_order_in_time(self, runs, column):
        runs, _ = runs
        values = [getattr(EnergySeries.from_trajectory(run), column) for run in runs.values()]
        diffs = [np.max(np.abs(coarse - fine)) for coarse, fine in zip(values, values[1:])]
        orders = [math.log2(d1 / d2) for d1, d2 in zip(diffs, diffs[1:])]
        assert min(orders) >= 3.5, orders

    @pytest.mark.parametrize("column, share", [("E", 1e-2), ("flux", 0.15)])
    def test_time_error_is_below_the_space_error(self, runs, column, share):
        runs, fine = runs
        values = {cfl: getattr(EnergySeries.from_trajectory(run), column) for cfl, run in runs.items()}
        space = np.max(np.abs(getattr(EnergySeries.from_trajectory(fine), column) - values[1.0]))
        assert np.max(np.abs(values[1.0] - values[0.125])) <= share * space


class TestInitialize:
    def test_sine_mode_values(self):
        state = initialize(make_spec(), Grid(8))
        assert state.t == 0.0
        assert np.allclose(state.v, np.sin(np.pi * np.linspace(0, 1, 9)), atol=1e-15)
        assert np.all(state.w == 0.0)

    def test_endpoints_clamped(self):
        # a bump whose numerical tails are not exactly zero at the nodes
        spec = make_spec(init=Bump(center=0.5, width=0.49, amp=1.0))
        state = initialize(spec, Grid(10))
        assert state.v[0] == 0.0 and state.v[-1] == 0.0
        assert state.w[0] == 0.0 and state.w[-1] == 0.0

    def test_grid_samples_roundtrip(self):
        g = Grid(8)
        u0 = np.sin(np.pi * g.y)
        u1 = 0.3 * np.sin(2 * np.pi * g.y)
        state = initialize(make_spec(init=GridSamples(u0=tuple(u0), u1=tuple(u1))), g)
        assert np.allclose(state.v, u0, atol=1e-15)
        assert np.allclose(state.w, u1, atol=1e-15)

    def test_grid_samples_length_mismatch(self):
        spec = make_spec(init=GridSamples(u0=(0.0,) * 9, u1=(0.0,) * 9))
        with pytest.raises(ConfigError):
            initialize(spec, Grid(16))

    def test_manufactured_overrides_init(self):
        field = ManufacturedField(amp=1.0, rate=0.5, mode=2)
        spec = make_spec(source=field, init=SineMode(m=1, amp_u0=7.0, amp_u1=0.0))
        g = Grid(16)
        state = initialize(spec, g)
        v_fn, w_fn = exact_reference_fields(field, spec)
        assert np.allclose(state.v, v_fn(g.y, 0.0), atol=1e-14)
        assert np.allclose(state.w, w_fn(g.y, 0.0), atol=1e-14)


class TestRhs:
    def test_reduces_to_laplacian(self):
        # alpha = 1, a = b = 0, nonlinearity off: dw = v_yy
        spec = make_spec(
            damping=DampingParams(a=0.0, b=0.0, rho=1.0),
            linear_mode=True,
        )
        g = Grid(200)
        v = np.sin(np.pi * g.y)
        state = ReferenceState(0.0, v, np.zeros_like(v))
        dv, dw = rhs(state, spec, g)
        assert np.all(dv == 0.0)
        interior = slice(1, -1)
        expected = -np.pi**2 * np.sin(np.pi * g.y)
        assert np.allclose(dw[interior], expected[interior], atol=2e-3)
        assert dw[0] == 0.0 and dw[-1] == 0.0

    def test_damping_terms_enter_linearly(self):
        spec0 = make_spec(damping=DampingParams(a=0.0, b=0.0, rho=1.0), linear_mode=True)
        spec_a = make_spec(damping=DampingParams(a=2.0, b=0.0, rho=1.0), linear_mode=True)
        spec_b = make_spec(damping=DampingParams(a=0.0, b=3.0, rho=1.0), linear_mode=True)
        g = Grid(32)
        v = np.sin(np.pi * g.y)
        w = 0.5 * np.sin(2 * np.pi * g.y)
        state = ReferenceState(0.0, v, w)
        _, dw0 = rhs(state, spec0, g)
        _, dwa = rhs(state, spec_a, g)
        _, dwb = rhs(state, spec_b, g)
        inner = slice(1, -1)
        # alpha' = 0 so u_t = w: the a term subtracts a*w, the b term b*v
        assert np.allclose(dwa[inner], (dw0 - 2.0 * w)[inner], atol=1e-12)
        assert np.allclose(dwb[inner], (dw0 - 3.0 * v)[inner], atol=1e-12)

    def test_nonlinear_term_sign_and_power(self):
        spec_lin = make_spec(damping=DampingParams(a=0.0, b=0.0, rho=2.0), linear_mode=True)
        spec_non = make_spec(
            damping=DampingParams(a=0.0, b=0.0, rho=2.0),
            beta=ConstantBeta(4.0),
        )
        g = Grid(32)
        v = 0.5 * np.sin(np.pi * g.y)
        state = ReferenceState(0.0, v, np.zeros_like(v))
        _, dw_lin = rhs(state, spec_lin, g)
        _, dw_non = rhs(state, spec_non, g)
        inner = slice(1, -1)
        assert np.allclose(
            dw_non[inner], (dw_lin - 4.0 * np.abs(v) ** 2 * v)[inner], atol=1e-12
        )


class TestSimulate:
    def test_zero_data_stays_zero(self):
        spec = make_spec(init=SineMode(m=1, amp_u0=0.0, amp_u1=0.0), horizon=0.5)
        traj, (_, V, W) = with_snapshots(spec, Grid(16))
        assert np.all(V == 0.0) and np.all(W == 0.0)
        assert EnergySeries.from_trajectory(traj).E[-1] == 0.0

    def test_boundary_rows_exactly_zero(self):
        spec = make_spec(alpha=SaturatingAlpha(k=0.5, tau=1.0), horizon=0.5)
        _, (_, V, W) = with_snapshots(spec, Grid(32))
        for v, w in zip(V, W):
            assert v[0] == 0.0 and v[-1] == 0.0
            assert w[0] == 0.0 and w[-1] == 0.0

    def test_snapshot_times(self):
        spec = make_spec(horizon=0.5)
        traj = simulate(spec, Grid(16), sample_every=3)
        times = traj.times
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diff(times) > 0)
        # interior snapshots land on multiples of 3 dt
        for t in times[1:-1]:
            assert (t / traj.dt) % 3 == pytest.approx(0.0, abs=1e-9)

    def test_invalid_spec_raises(self):
        spec = make_spec(alpha=AffineAlpha(k=1.0))
        with pytest.raises(ValidationError):
            simulate(spec, Grid(16))

    def test_unstable_cfl_blows_up(self):
        # a step of cfl 10 needs snapshots at least 20 h0 apart
        spec = make_spec(horizon=1.0)
        with pytest.raises(BlowUpError) as exc:
            simulate(spec, Grid(64), sample_every=20, cfl=10.0)
        assert 0.0 < exc.value.time <= 1.0
        # unforced: the message names the instability, the identity bound at that t, the step and the remedy
        beta_t = make_spec().beta.eval(exc.value.time)[0]
        assert str(exc.value) == (
            f"numerical instability: the discrete solution left the finite range at t={exc.value.time:.6g}, "
            f"although the energy identity bounds the exact energy there by E(0) beta(t)/beta(0) = {beta_t:.6g} E(0); "
            "the step dt = 0.15625 was set by the wave bound from the data at t = 0: lower --cfl below 10"
        )

    @pytest.mark.parametrize(
        "kw, exact",
        [
            ({"linear_mode": True, "horizon": 20.0}, "the energy identity bounds the exact energy there by E(0)"),
            ({"source": ManufacturedField(), "horizon": 2.0}, "the exact solution is the manufactured field"),
        ],
    )
    def test_blow_up_names_the_exact_solutions_bound(self, kw, exact):
        spec = make_spec(**kw)
        with pytest.raises(BlowUpError) as exc:
            simulate(spec, Grid(64), sample_every=20, cfl=10.0)
        assert f"left the finite range at t={exc.value.time:.6g}, although {exact}; the step dt = " in str(exc.value)

    def test_snapshot_cap(self, monkeypatch):
        spec = make_spec(horizon=1.0)
        monkeypatch.setattr("mowave.solver.SNAPSHOT_CAP_BYTES", 1024)
        with pytest.raises(ResourceLimitError):
            simulate(spec, Grid(64))

    def test_working_memory_caps_the_grid(self, monkeypatch):
        # two snapshots fit the snapshot cap at any N here; the stage table of N = 2000 does not fit 1 MiB
        spec = readme_spec(horizon=1e-5)
        monkeypatch.setattr("mowave.solver.WORK_CAP_BYTES", 2**20)

        def no_arrays(*args):
            raise AssertionError("initialize called before the grid was checked")

        with monkeypatch.context() as patched:
            patched.setattr("mowave.solver.initialize", no_arrays)
            with pytest.raises(ResourceLimitError, match=r"grid N = 2000 needs about 10650928 bytes .* lower N"):
                simulate(spec, Grid(2000))
        assert simulate(spec, Grid(150)).times.size == 2

    @pytest.mark.parametrize("forced, columns", [(False, 10), (True, 12)])
    def test_peak_memory_grows_by_the_integral_table_alone(self, forced, columns):
        # a run keeps its integral table, 10 doubles per snapshot (12 forced), and its final
        # state, not the 2 (N+1) = 130 doubles of every snapshot's v and w
        g = Grid(64)
        source = ManufacturedField() if forced else None
        simulate(make_spec(horizon=0.1, source=source), g)  # the grid's and numpy's caches, filled before measuring
        peaks, sizes = [], []
        for horizon in (2.0, 8.0):
            tracemalloc.start()
            try:
                sizes.append(simulate(make_spec(horizon=horizon, source=source), g).times.size)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        added = sizes[1] - sizes[0]
        assert added == 768
        assert peaks[1] - peaks[0] <= added * columns * 8 + 16 * 1024

    def test_bad_sample_every(self):
        with pytest.raises(ConfigError):
            simulate(make_spec(), Grid(16), sample_every=0)

    def test_energy_decays_for_reference_setup(self):
        spec = make_spec(
            beta=ExponentialBeta(beta0=1.0, mu=0.1),
            alpha=SaturatingAlpha(k=0.5, tau=1.0),
            horizon=2.0,
        )
        traj = simulate(spec, Grid(64), sample_every=10)
        e = EnergySeries.from_trajectory(traj).E
        assert e[-1] < 0.5 * e[0]


def blow_up_batch():
    """Three rows of one step; the middle one blows up at step 90 of 150 (t = 0.3) at N = 100.

    Its beta = exp(60 t) makes the reaction stiff long after t = 0, where the
    step bounds look, so the row shares its neighbours' step.
    """
    rows = ((1.0, ConstantBeta(1.0)), (1.0, ExponentialBeta(beta0=1.0, mu=60.0)), (1.5, ConstantBeta(1.0)))
    return [
        make_spec(
            damping=DampingParams(a=a, b=1.0, rho=1.0), beta=beta, alpha=SaturatingAlpha(k=0.5, tau=1.0), horizon=0.5
        )
        for a, beta in rows
    ]


def assert_same_run(batch_row, solo):
    """Two (Trajectory, snapshots) pairs agree bit for bit: snapshots, integral table and final state."""
    (ours, snaps), (theirs, solo_snaps) = batch_row, solo
    assert ours.dt == theirs.dt
    for mine, other in zip(snaps, solo_snaps):
        assert mine.tobytes() == other.tobytes()
    for field in fields(SnapshotIntegrals):
        mine, other = getattr(ours.integrals, field.name), getattr(theirs.integrals, field.name)
        assert (mine is None and other is None) or mine.tobytes() == other.tobytes(), field.name
    assert ours.final.v.tobytes() == theirs.final.v.tobytes() and ours.final.w.tobytes() == theirs.final.w.tobytes()


def textbook_coefficients(y, t, alpha):
    """(c_yt, c_yy, c_y, drift) at nodes y and time t, as the change of variables writes them."""
    al, ap, app = alpha.eval(t)
    drift = y * (ap / al)
    return -2.0 * drift, drift * drift - 1.0 / (al * al), y * (2.0 * (ap / al) ** 2 - app / al), drift


def reference_simulate(spec, grid, sample_every):
    """The one-row RK4 loop the batched kernel replaced, kept as its oracle.

    Its coefficients come from textbook_coefficients, not from the solver's
    coefficient_grids, so the oracle shares no transform code with the solver.
    """
    y, dy = grid.y, grid.dy
    a, b, rho = spec.damping.a, spec.damping.b, spec.damping.rho

    def source(t):
        field = spec.source
        al, al1, al2 = spec.alpha.eval(t)
        g = al1 / al
        g1 = al2 / al - g * g
        k = field.mode * math.pi
        theta = k * y
        sin, cos = np.sin(theta), np.cos(theta)
        scale = field.amp * math.exp(-field.rate * t)
        u = scale * sin
        u_t = scale * (-g * theta * cos - field.rate * sin)
        u_tt = scale * (
            (g * g - g1 + 2.0 * field.rate * g) * theta * cos
            + (field.rate * field.rate - g * g * theta * theta) * sin
        )
        f = u_tt + (k / al) ** 2 * u + a * u_t + b * u
        bt, _ = spec.beta_at(t)
        if bt != 0.0:
            f = f + bt * np.abs(u) ** rho * u
        return f

    def rhs_arrays(t, v, w):
        c_yt, c_yy, c_y, drift = textbook_coefficients(y, t, spec.alpha)
        bt, _ = spec.beta_at(t)
        Dv, Dw, D2v = np.zeros_like(v), np.zeros_like(v), np.zeros_like(v)
        Dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * dy)
        Dw[1:-1] = (w[2:] - w[:-2]) / (2.0 * dy)
        D2v[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dy * dy)
        dw = -(c_yt * Dw + c_yy * D2v + c_y * Dv) - a * (w - drift * Dv) - b * v
        if bt != 0.0:
            dw = dw - bt * np.abs(v) ** rho * v
        if spec.source is not None:
            dw = dw + source(t)
        dv = w.copy()
        dv[0] = dv[-1] = 0.0
        dw[0] = dw[-1] = 0.0
        return dv, dw

    T = spec.horizon
    dt = step_size(spec, grid)
    nsteps = int(math.ceil(T / dt - 1e-12))
    first = initialize(spec, grid)
    v, w, t = first.v.copy(), first.w.copy(), 0.0
    states = [(t, v, w)]
    for k in range(nsteps):
        t_next = min((k + 1) * dt, T)
        h = t_next - t
        dv1, dw1 = rhs_arrays(t, v, w)
        dv2, dw2 = rhs_arrays(t + 0.5 * h, v + 0.5 * h * dv1, w + 0.5 * h * dw1)
        dv3, dw3 = rhs_arrays(t + 0.5 * h, v + 0.5 * h * dv2, w + 0.5 * h * dw2)
        dv4, dw4 = rhs_arrays(t + h, v + h * dv3, w + h * dw3)
        v = v + (h / 6.0) * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
        w = w + (h / 6.0) * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        v[0] = v[-1] = 0.0
        w[0] = w[-1] = 0.0
        t = t_next
        if (k + 1) % sample_every == 0 or k == nsteps - 1:
            states.append((t, v, w))
    return states


def banded_simulate(spec, grid, sample_every):
    """The one-row RK4 loop of the banded kernel in plain formulas, kept as its oracle.

    Each time's coefficients are written out from the families' float eval:
    the alpha ratios, the 3-point stencil of the stage table's weights in
    node-index form (S and A of _Rows.stage_table, in its operation order),
    summed term by term, and the source as its four products of node vectors
    and scalars, in _Source's order; TestManufacturedAgainstSympy checks that
    source, and test_weights_are_the_textbook_fold the weights. The source's scalars of a time
    are 1-element arrays: numpy's power of an array differs from its power of
    a scalar in the last bit.
    """
    y = grid.y
    yi = y[1:-1]
    i = np.arange(1.0, grid.n)  # N yi, exactly
    a, b, rho = spec.damping.a, spec.damping.b, spec.damping.rho
    field = spec.source
    if field is not None:
        mode_pi = field.mode * math.pi  # not k: the step loop below binds k
        theta = mode_pi * yi
        sin = np.sin(theta)
        nodes = (theta * np.cos(theta), sin, theta * theta * sin, np.abs(sin) ** rho * sin)

    def source(t, al, ap, app, bt):
        g = ap / al
        g_sq = g * g
        r = field.rate
        E = field.amp * np.exp(-r * np.array([t]))
        k_al = mode_pi / al
        scalars = [
            E * (2.0 * g_sq - app / al + (2.0 * r - a) * g),
            E * (k_al * k_al + (r * (r - a) + b)),
            -(E * g_sq),
        ]
        if bt is not None:
            scalars.append(bt * np.abs(E) ** rho * E)
        f = scalars[0] * nodes[0]
        for scalar, node in zip(scalars[1:], nodes[1:]):
            f = f + scalar * node
        return f

    def rhs_arrays(t, v, w):
        al, ap, app = spec.alpha.eval(t)
        g = ap / al
        g_sq = g * g
        S = float(grid.n * grid.n) * (1.0 / (al * al)) - g_sq * (i * i)
        A = (2.0 * g_sq - app / al - a * g) * (0.5 * i)
        v_left, v_mid, v_right = S + A, S * -2.0 - b, S - A
        w_left, w_mid, w_right = -(g * i), -a, g * i
        vi = v[1:-1]
        dw = np.zeros_like(v)
        dw[1:-1] = (
            v_left * v[:-2] + v_mid * vi + v_right * v[2:] + w_left * w[:-2] + w_mid * w[1:-1] + w_right * w[2:]
        )
        bt = None if spec.linear_mode else spec.beta.eval(t)[0]
        if bt is not None:
            dw[1:-1] -= bt * np.abs(vi) ** rho * vi
        if field is not None:
            dw[1:-1] += source(t, al, ap, app, bt)
        dv = w.copy()
        dv[0] = dv[-1] = 0.0
        return dv, dw

    T = spec.horizon
    dt = step_size(spec, grid)
    nsteps = int(math.ceil(T / dt - 1e-12))
    first = initialize(spec, grid)
    v, w, t = first.v.copy(), first.w.copy(), 0.0
    states = [(t, v, w)]
    for k in range(nsteps):
        t_next = min((k + 1) * dt, T)
        h = t_next - t
        dv1, dw1 = rhs_arrays(t, v, w)
        dv2, dw2 = rhs_arrays(t + 0.5 * h, v + 0.5 * h * dv1, w + 0.5 * h * dw1)
        dv3, dw3 = rhs_arrays(t + 0.5 * h, v + 0.5 * h * dv2, w + 0.5 * h * dw2)
        dv4, dw4 = rhs_arrays(t + h, v + h * dv3, w + h * dw3)
        v = v + (h / 6.0) * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
        w = w + (h / 6.0) * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        t = t_next
        if (k + 1) % sample_every == 0 or k == nsteps - 1:
            states.append((t, v, w))
    return states


ONE_ROW_CASES = [
    {"beta": ExponentialBeta(beta0=1.0, mu=0.1), "alpha": SaturatingAlpha(k=0.5, tau=1.0)},
    {"beta": PolynomialBeta((1.0, 0.5)), "alpha": AffineAlpha(k=0.3), "damping": DampingParams(a=1.0, b=0.0, rho=0.5)},
    {"source": ManufacturedField(amp=1.0, rate=1.0, mode=1), "alpha": SaturatingAlpha(k=0.5, tau=1.0)},
    {"linear_mode": True, "source": ManufacturedField(amp=0.5, rate=0.3, mode=2)},
]


class TestSimulateBatch:
    @pytest.mark.parametrize("rho", [0.5, 2.0, 3.0])
    def test_rows_are_bit_identical_to_solo_runs(self, rho):
        alpha = SaturatingAlpha(k=0.5, tau=1.0)
        betas = [ExponentialBeta(beta0=1.0, mu=0.3), PolynomialBeta((1.0, 0.2, 0.05)), ConstantBeta(2.0)]
        g = Grid(32)
        for forced in (False, True):  # forced and unforced rows have different batch keys
            specs = [
                make_spec(
                    damping=DampingParams(a=0.5 + 0.4 * i, b=float(i), rho=rho),
                    beta=beta,
                    alpha=alpha,
                    horizon=0.5,
                    source=ManufacturedField(amp=0.8, rate=0.5, mode=i + 1) if forced else None,
                )
                for i, beta in enumerate(betas)
            ]
            batch = batch_with_snapshots(specs, g, sample_every=3)
            assert len(batch) == len(specs)
            for spec, row in zip(specs, batch):
                assert_same_run(row, with_snapshots(spec, g, sample_every=3))

    @pytest.mark.parametrize("kw", ONE_ROW_CASES)
    def test_batch_of_one_matches_reference_loop(self, kw):
        spec = make_spec(horizon=0.5, **kw)
        g = Grid(32)
        _, snaps = with_snapshots(spec, g, sample_every=4)
        expected = banded_simulate(spec, g, 4)
        assert len(snaps[0]) == len(expected)
        for state, (t, v, w) in zip(zip(*snaps), expected):
            assert state[0] == t and np.array_equal(state[1], v) and np.array_equal(state[2], w)

    def test_blow_up_row_leaves_neighbours_unchanged(self):
        specs = blow_up_batch()
        g = Grid(100)
        first, (blown, _), last = batch_with_snapshots(specs, g, sample_every=10)
        with pytest.raises(BlowUpError) as solo:
            simulate(specs[1], g, sample_every=10)
        assert isinstance(blown, BlowUpError)
        assert blown.time == solo.value.time
        assert_same_run(first, with_snapshots(specs[0], g, sample_every=10))
        assert_same_run(last, with_snapshots(specs[2], g, sample_every=10))

    def test_batch_stops_at_the_last_blow_up(self, monkeypatch):
        # every row blows up, at steps 73, 127 and 90 of 150
        specs = [
            make_spec(beta=ExponentialBeta(beta0=1.0, mu=mu), alpha=SaturatingAlpha(k=0.5, tau=1.0), horizon=0.5)
            for mu in (70.0, 50.0, 60.0)
        ]
        g = Grid(100)
        solo_times = []
        for spec in specs:
            with pytest.raises(BlowUpError) as solo:
                simulate(spec, g, sample_every=10)
            solo_times.append(solo.value.time)
        calls = []
        monkeypatch.setattr("mowave.solver._rhs_arrays", lambda *args: calls.append(1) or _rhs_arrays(*args))
        batch = simulate_batch(specs, g, sample_every=10)
        assert all(isinstance(row, BlowUpError) for row in batch)
        assert [row.time for row in batch] == solo_times
        plan = step_plan(specs[0], g, 10)
        blown_at = [round(t / plan.dt) for t in solo_times]
        assert blown_at == [73, 127, 90] and plan.steps == 150
        assert len(calls) == 4 * max(blown_at)

    def test_blocks_are_read_only_and_aligned_at_snapshot_0(self):
        # 151 snapshots: blocks of 64, 64 and 23; the middle row blows up at step 90, in the second block
        specs = blow_up_batch()
        g = Grid(100)
        seen = []

        def record(i, times, V, W):
            assert not (times.flags.writeable or V.flags.writeable or W.flags.writeable)
            assert V.shape == W.shape == (times.size, 101)
            seen.append((i, float(times[0]), times.size))

        first, blown, last = simulate_batch(specs, g, sample_every=1, on_block=record)
        assert isinstance(blown, BlowUpError) and round(blown.time / first.dt) == 90
        times = first.times
        assert times.size == last.times.size == 151
        assert seen == [
            (0, 0.0, BLOCK), (1, 0.0, BLOCK), (2, 0.0, BLOCK),
            (0, times[BLOCK], BLOCK), (2, times[BLOCK], BLOCK),
            (0, times[2 * BLOCK], 23), (2, times[2 * BLOCK], 23),
        ]

    @pytest.mark.parametrize(
        "other",
        [
            {"alpha": AffineAlpha(k=0.2)},
            {"damping": DampingParams(a=1.0, b=1.0, rho=2.0)},
            {"horizon": 0.75},
            {"linear_mode": True},
            {"source": ManufacturedField()},
        ],
    )
    def test_rows_must_share_batch_key(self, other):
        with pytest.raises(ConfigError):
            simulate_batch([make_spec(horizon=0.5), make_spec(**{"horizon": 0.5, **other})], Grid(16))

    def test_inadmissible_row_returns_its_validation_error(self):
        specs = [make_spec(damping=DampingParams(a=a, b=1.0, rho=1.0), horizon=0.5) for a in (1.0, -1.0)]
        g = Grid(16)
        good, (bad, _) = batch_with_snapshots(specs, g)
        assert isinstance(bad, ValidationError) and not bad.report.ok
        assert_same_run(good, with_snapshots(specs[0], g))
        with pytest.raises(ValidationError):
            simulate(specs[1], g)

    def test_cap_covers_every_row_of_the_batch(self, monkeypatch):
        specs = [make_spec(damping=DampingParams(a=a, b=1.0, rho=1.0), horizon=0.5) for a in (1.0, 2.0, 3.0)]
        g = Grid(16)
        plan = step_plan(specs[0], g)
        # its integral table, a block of snapshots and, since the rows differ in a, its six weight rows of a block's table
        nsnap = math.ceil(0.5 / step_size(specs[0], g) - 1e-12) + 2
        per_row = nsnap * 10 * 8 + 2 * BLOCK * 17 * 8 + 6 * 65 * 15 * 8
        monkeypatch.setattr("mowave.solver.SNAPSHOT_CAP_BYTES", 3 * per_row - 1)
        assert rows_within_cap(plan, g, specs) == 2
        with pytest.raises(ResourceLimitError):
            simulate_batch(specs, g)
        monkeypatch.setattr("mowave.solver.SNAPSHOT_CAP_BYTES", 3 * per_row)
        assert rows_within_cap(plan, g, specs) == 3
        assert len(simulate_batch(specs, g)) == 3
        # inadmissible rows keep nothing and do not count
        specs[2] = make_spec(damping=DampingParams(a=-1.0, b=1.0, rho=1.0), horizon=0.5)
        monkeypatch.setattr("mowave.solver.SNAPSHOT_CAP_BYTES", 2 * per_row)
        assert isinstance(simulate_batch(specs, g)[2], ValidationError)

    def test_cap_counts_the_stage_table_rows(self, monkeypatch):
        # a mixed-a batch that fits the cap by what its rows keep alone
        mixed = [make_spec(damping=DampingParams(a=a, b=1.0, rho=1.0), horizon=5.0) for a in (1.0, 2.0, 3.0)]
        shared = [make_spec(beta=ExponentialBeta(beta0=1.0, mu=mu), horizon=5.0) for mu in (0.1, 0.2, 0.3)]
        forced = [make_spec(damping=d, horizon=5.0, source=ManufacturedField()) for d in (mixed[0].damping,) * 3]
        g = Grid(16)
        plan = step_plan(mixed[0], g)
        nsnap = plan.steps // plan.per_snapshot + 2
        kept = nsnap * 10 * 8 + 2 * BLOCK * 17 * 8  # an unforced row's integral table and block of snapshots
        block = 65 * 15 * 8  # one row of a block's table: 2 _BLOCK + 1 stage times of the interior nodes
        monkeypatch.setattr("mowave.solver.SNAPSHOT_CAP_BYTES", 3 * kept)
        assert rows_within_cap(plan, g, shared) == 3
        assert rows_within_cap(plan, g, mixed) == 3 * kept // (kept + 6 * block) == 1
        # a forced row also keeps the source's two integrals per snapshot
        assert rows_within_cap(plan, g, forced) == 3 * kept // (kept + nsnap * 2 * 8 + block) == 2
        with pytest.raises(ResourceLimitError, match="stage table exceed the cap, which holds 1$"):
            simulate_batch(mixed, g)
        assert all(isinstance(row, Trajectory) for row in simulate_batch(shared, g))
        # a single row's table is the working memory of one run, which its own cap counts
        assert rows_within_cap(plan, g, mixed[:1]) == 3
        monkeypatch.setattr("mowave.solver.SNAPSHOT_CAP_BYTES", kept)
        assert rows_within_cap(plan, g, mixed) == 1

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            simulate_batch([], Grid(16))


def assert_matches_reference(snaps, spec, grid, sample_every):
    expected = banded_simulate(spec, grid, sample_every)
    assert len(snaps[0]) == len(expected)
    for state, (t, v, w) in zip(zip(*snaps), expected):
        assert state[0] == t and state[1].tobytes() == v.tobytes() and state[2].tobytes() == w.tobytes()


class TestKernel:
    """The allocation-free kernel against the plain loop, across stage-table blocks."""

    def test_run_across_blocks_ends_on_a_shortened_step(self):
        spec = make_spec(
            damping=DampingParams(a=1.0, b=0.5, rho=1.5),
            beta=ExponentialBeta(beta0=1.0, mu=0.2),
            alpha=SaturatingAlpha(k=0.5, tau=1.0),
            horizon=2.3,
            source=ManufacturedField(amp=0.7, rate=0.3, mode=2),
        )
        g = Grid(16)
        traj, snaps = with_snapshots(spec, g, sample_every=7)
        nsteps = math.ceil(spec.horizon / traj.dt - 1e-12)
        assert nsteps > 3 * _BLOCK and nsteps % _BLOCK != 0  # three full blocks and a part
        assert nsteps * traj.dt > spec.horizon  # the last step is shortened
        assert_matches_reference(snaps, spec, g, 7)

    def test_block_lists_every_stage_time_once(self):
        dt, T = 0.1, 0.75
        steps, times = _block(3, 8, 0.30000000000000004, dt, T)
        t = 0.30000000000000004
        for i, (k, (hh, h, h6, t_next)) in enumerate(zip(range(3, 8), steps)):
            assert t_next == min((k + 1) * dt, T) and h == t_next - t
            assert (hh, h6) == (0.5 * h, h / 6.0)
            assert times[2 * i : 2 * i + 3] == [t, t + 0.5 * h, t + h]
            t = t_next
        assert t == T
        assert len(times) == len(set(times)) == 2 * len(steps) + 1  # stage 4 is the next stage 1

    @pytest.mark.parametrize("rho", [1.5, 2.0])
    def test_forced_three_row_batch_matches_reference_loop(self, rho):
        specs = [
            make_spec(
                damping=DampingParams(a=a, b=b, rho=rho),
                beta=beta,
                alpha=AffineAlpha(k=0.3),
                horizon=1.7,
                source=ManufacturedField(amp=amp, rate=rate, mode=mode),
            )
            for a, b, beta, amp, rate, mode in (
                (0.5, 0.0, ConstantBeta(2.0), 1.0, 0.0, 1),
                (1.3, 2.0, ExponentialBeta(beta0=0.5, mu=0.4), 0.3, 0.8, 2),
                (2.1, 0.7, PolynomialBeta((1.0, 0.2, 0.05)), 1.7, 0.4, 3),
            )
        ]
        g = Grid(24)
        batch = batch_with_snapshots(specs, g, sample_every=5)
        assert math.ceil(1.7 / batch[0][0].dt - 1e-12) > 2 * _BLOCK
        for spec, (_, snaps) in zip(specs, batch):
            assert_matches_reference(snaps, spec, g, 5)

    def test_blow_up_mid_block_keeps_every_rows_bits(self):
        specs = blow_up_batch()
        g = Grid(100)
        (first, first_snaps), (blown, _), (_, last_snaps) = batch_with_snapshots(specs, g, sample_every=10)
        with pytest.raises(BlowUpError) as solo:
            simulate(specs[1], g, sample_every=10)
        assert isinstance(blown, BlowUpError) and blown.time == solo.value.time
        step = round(blown.time / first.dt)
        assert step % _BLOCK not in (0, 1) and math.ceil(0.5 / first.dt - 1e-12) > step + _BLOCK
        assert_matches_reference(first_snaps, specs[0], g, 10)
        assert_matches_reference(last_snaps, specs[2], g, 10)

    @pytest.mark.parametrize("kw", ONE_ROW_CASES)
    def test_stays_within_round_off_of_the_pre_banded_loop(self, kw):
        # the banded weights regroup the plain formulas, so the bits move; over
        # T = 2 at N = 32 the largest drift measured was 8.6e-14 of a column's max
        spec = make_spec(horizon=2.0, **kw)
        g = Grid(32)
        _, (times, V, W) = with_snapshots(spec, g, sample_every=4)
        expected = reference_simulate(spec, g, 4)
        assert times.tolist() == [t for t, _, _ in expected]
        for ours, plain in ((V, [v for _, v, _ in expected]), (W, [w for _, _, w in expected])):
            assert np.max(np.abs(ours - plain)) <= 1e-12 * np.max(np.abs(plain))

    @pytest.mark.parametrize("alpha", [ConstantAlpha(), AffineAlpha(k=0.3), SaturatingAlpha(k=0.5, tau=1.0)])
    def test_table_has_one_weight_row_when_the_rows_share_a_and_b(self, alpha):
        g = Grid(16)
        betas = (ConstantBeta(2.0), ExponentialBeta(beta0=1.0, mu=0.7), PolynomialBeta((1.0, 0.5, 0.25)))
        shared = [
            make_spec(alpha=alpha, beta=beta, source=ManufacturedField(amp=1.3, rate=0.4, mode=m))
            for m, beta in enumerate(betas, 1)
        ]
        K, bt, f = _Rows(shared, g).stage_table([0.0, 0.1])[1]
        assert K.shape == (2, 3, 1, 15) and bt.shape == (3, 1) and f.shape == (3, 15)
        assert K.tobytes() == _Rows(shared[:1], g).stage_table([0.1])[0][0].tobytes()
        for damping in (DampingParams(a=2.0, b=1.0, rho=1.0), DampingParams(a=1.0, b=2.0, rho=1.0)):
            rows = _Rows([*shared, make_spec(alpha=alpha, damping=damping, source=ManufacturedField())], g)
            assert rows.stage_table([0.1])[0][0].shape == (2, 3, 4, 15)
        # every entry of a 65-time block, whose arrays numpy splits into SIMD body and tail lanes,
        # is bit for bit the table of its time alone
        _, times = _block(0, _BLOCK, 0.0, 0.037, 2.0)
        assert len(times) == 65
        mixed = [*shared, make_spec(alpha=alpha, damping=DampingParams(a=2.0, b=0.5, rho=1.0), source=ManufacturedField())]
        for specs in (shared, mixed):
            rows = _Rows(specs, g)
            for t, entry in zip(times, rows.stage_table(times)):
                for together, alone in zip(entry, rows.stage_table([t])[0]):
                    assert together.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("alpha", [ConstantAlpha(), AffineAlpha(k=0.3), SaturatingAlpha(k=0.5, tau=1.0)])
    @pytest.mark.parametrize("dampings", [[(1.3, 0.7)] * 2, [(0.5, 0.7), (2.0, 0.7)], [(1.3, 0.0), (1.3, 2.5)]])
    def test_weights_are_the_textbook_fold(self, alpha, dampings):
        # the node-index form regroups the central differences of the transformed
        # equation; the bitwise oracle spells that same regrouping, so check it here
        g = Grid(40)
        specs = [make_spec(alpha=alpha, damping=DampingParams(a=a, b=b, rho=1.0)) for a, b in dampings]
        rows = _Rows(specs, g)
        times = np.linspace(0.0, 10.0, 65)
        y, dy = g.y[1:-1], g.dy
        for t, (K, _, _) in zip(times, rows.stage_table(times)):
            c_yt, c_yy, c_y, drift = textbook_coefficients(y, t, alpha)
            for r, (a, b) in enumerate(dampings):
                cyy, cy, d = c_yy / dy**2, c_y / (2.0 * dy), a * drift / (2.0 * dy)
                w_side = c_yt / (2.0 * dy)
                fold = ((-cyy + cy - d, 2.0 * cyy - b, -cyy - cy + d), (w_side, np.full_like(y, -a), -w_side))
                for c in range(2):
                    for side in range(3):
                        want = fold[c][side]
                        got = K[c, side, min(r, K.shape[2] - 1)]
                        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (t, r, c, side)

    def test_rhs_is_the_kernels_first_stage(self):
        specs = [
            make_spec(
                damping=DampingParams(a=0.5 + i, b=0.3 * i, rho=0.5),
                beta=beta,
                alpha=SaturatingAlpha(k=0.4, tau=0.7),
                source=ManufacturedField(amp=1.0, rate=0.2 * i, mode=i + 1),
            )
            for i, beta in enumerate((ConstantBeta(1.5), ExponentialBeta(beta0=1.0, mu=0.3), PolynomialBeta((1.0, 0.5))))
        ]
        g, t = Grid(20), 0.37
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 3, 21))
        z[:, :, 0] = z[:, :, -1] = 0.0
        rows = _Rows(specs, g)
        bufs, stages = _stages(z)
        _rhs_arrays(stages[0], rows.stage_table([t])[0], rows)
        for i, spec in enumerate(specs):
            dv, dw = rhs(ReferenceState(t, z[0, i], z[1, i]), spec, g)
            assert dv.tobytes() == bufs[0, 1, i].tobytes()
            assert dw.tobytes() == bufs[0, 2, i].tobytes()

    @pytest.mark.parametrize("rho", [1.0, 1.5])
    def test_nonlinear_term_is_the_six_term_sum_minus_r_bit_for_bit(self, rho):
        # the reduce over seven rows, the seventh (|v|^rho (-beta)) v, gives the six-term sum minus
        # (|v|^rho beta) v to the bit, the signs of zeros included; at rho = 1 no power is taken
        spec = make_spec(
            damping=DampingParams(a=0.7, b=0.3, rho=rho),
            beta=ExponentialBeta(beta0=1.3, mu=0.4),
            alpha=SaturatingAlpha(k=0.5, tau=1.0),
        )
        g, t = Grid(40), 0.37
        K = _Rows([spec], g).stage_table([t])[0][0]
        rng = np.random.default_rng(11)
        v, w = rng.choice([0.0, -0.0, 1.25, -0.75, 3e-200, -2.5e-170], (2, 41))  # 3e-200 ** 2 underflows
        v[:20], w[:20] = rng.choice([0.0, -0.0], (2, 20))
        for i in (5, 10):  # every product of the six-term sum at node i is -0
            for c, z in enumerate((v, w)):
                z[i - 1 : i + 2] = np.copysign(0.0, -K[c, :, 0, i - 1])
        v[0] = v[-1] = w[0] = w[-1] = 0.0
        _, dw = rhs(ReferenceState(t, v, w), spec, g)
        band = np.array([[z[s : s + 39] for s in range(3)] for z in (v, w)])[:, :, None]
        six = np.add.reduce((K * band).reshape(6, 1, 39), axis=0)[0]
        r = np.abs(v[1:-1])
        r **= rho
        r *= spec.beta.eval(t)[0]
        r *= v[1:-1]
        assert dw[1:-1].tobytes() == (six - r).tobytes()
        # the operands hold zeros of both signs, and some of dw is zero
        assert np.signbit(r[r == 0.0]).any() and not np.signbit(r[r == 0.0]).all()
        assert np.signbit((K * band)[..., 4]).all() and dw[5] == 0.0

    def test_finiteness_screen_is_the_exact_test(self):
        mask = np.empty((2, 3, 9), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            # finite states whose sum overflows fall through to the exact test, and count as finite
            for signs in ([1.0], [-1.0], [1.0, 1.0, -1.0, -1.0]):
                z = 1.5e308 * np.resize(signs, (2, 3, 9))
                assert not math.isfinite(np.add.reduce(z, None))
                assert _all_finite(z, mask)
            # one NaN, +inf or -inf anywhere counts as non-finite, and the mask marks it
            rng = np.random.default_rng(3)
            for base in (rng.standard_normal((2, 3, 9)), 1.5e308 * np.ones((2, 3, 9))):
                assert _all_finite(base, mask)
                for bad in (math.nan, math.inf, -math.inf):
                    for index in np.ndindex(base.shape):
                        z = base.copy()
                        z[index] = bad
                        assert not _all_finite(z, mask)
                        assert mask.tobytes() == np.isfinite(z).tobytes()


class TestTrajectoryInvariants:
    plan = StepPlan(0.1, 10, 1, "wave", 0.5)

    def trajectory(self, times, final_t=None, nodes=9):
        """A Trajectory of zero snapshots at times on Grid(8), T = 1, with its final state at final_t."""
        spec, g = make_spec(horizon=1.0), Grid(8)
        z = np.zeros((len(times), 9))
        final = ReferenceState(times[-1] if final_t is None else final_t, np.zeros(nodes), np.zeros(nodes))
        return Trajectory(spec, g, self.plan, snapshot_integrals(spec, g, times, z, z), final)

    def test_arrays_are_read_only_and_sized_to_the_snapshots(self):
        spec = make_spec(horizon=0.5)
        traj, (times, V, W) = with_snapshots(spec, Grid(16), sample_every=3)
        nsteps = math.ceil(0.5 / traj.dt - 1e-12)
        assert traj.times.shape == (nsteps // 3 + 1 + (nsteps % 3 != 0),) == times.shape
        assert traj.times is traj.integrals.t and traj.times.tobytes() == times.tobytes()
        assert traj.final.t == 0.5 and traj.final.v.tobytes() == V[-1].tobytes() and traj.final.w.tobytes() == W[-1].tobytes()
        for array in (traj.times, traj.integrals.ut2, traj.final.v, traj.final.w):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_shapes_must_agree(self):
        assert self.trajectory([0.0, 1.0]).final.v.shape == (9,)
        with pytest.raises(ConfigError, match="final state"):
            self.trajectory([0.0, 1.0], nodes=8)
        with pytest.raises(ConfigError, match="final state"):
            self.trajectory([0.0, 1.0], final_t=0.5)

    def test_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            self.trajectory([0.5])

    def test_times_strictly_increasing(self):
        with pytest.raises(ConfigError):
            self.trajectory([0.0, 0.0])

    def test_must_end_at_horizon(self):
        with pytest.raises(ConfigError):
            self.trajectory([0.0, 0.5])


class TestManufactured:
    def test_static_field_forcing_is_the_laplacian_defect(self):
        # u = sin(pi x), alpha = 1, a = b = 0, nonlinearity off:
        # f = u_tt - u_xx = pi^2 sin(pi y)
        field = ManufacturedField(amp=1.0, rate=0.0, mode=1)
        spec = make_spec(
            damping=DampingParams(a=0.0, b=0.0, rho=1.0),
            linear_mode=True,
            source=field,
        )
        g = Grid(16)
        f = manufactured_forcing(field, spec, g.y)([0.7])[0]
        assert np.allclose(f, np.pi**2 * np.sin(np.pi * g.y), atol=1e-12)

    @pytest.mark.parametrize("linear", [False, True])
    def test_forcing_over_times_is_bitwise_the_single_time_calls(self, linear):
        field = ManufacturedField(amp=1.3, rate=0.4, mode=2)
        spec = make_spec(
            damping=DampingParams(a=1.0, b=0.5, rho=1.5),
            beta=ExponentialBeta(beta0=1.0, mu=0.2),
            alpha=SaturatingAlpha(k=0.5, tau=1.0),
            source=field,
            linear_mode=linear,
        )
        y = Grid(32).y
        forcing = manufactured_forcing(field, spec, y)
        times = np.array([0.0, 0.21, 0.7, 1.9])
        together = forcing(times)
        assert together.shape == (times.size, y.size)
        for row, t in zip(together, times.tolist()):
            assert row.tobytes() == forcing([t])[0].tobytes()

    def test_forced_run_tracks_exact_field(self):
        field = ManufacturedField(amp=1.0, rate=1.0, mode=1)
        spec = make_spec(alpha=AffineAlpha(k=0.5), horizon=1.0, source=field)
        g = Grid(100)
        traj = simulate(spec, g, sample_every=1000)
        v_fn, _ = exact_reference_fields(field, spec)
        err = np.max(np.abs(traj.final.v - v_fn(g.y, traj.final.t)))
        assert err < 5e-4

    def test_exact_reference_fields_satisfy_boundary(self):
        field = ManufacturedField(amp=2.0, rate=0.3, mode=3)
        spec = make_spec(alpha=SaturatingAlpha(k=0.5, tau=1.0))
        v_fn, w_fn = exact_reference_fields(field, spec)
        for t in (0.0, 0.4, 1.7):
            vals = v_fn(np.array([0.0, 1.0]), t)
            assert np.allclose(vals, 0.0, atol=1e-12)


def sympy_manufactured(field, spec):
    """Independent symbolic build of (f, v, w) for the manufactured field.

    u = amp sin(mode pi x / alpha(t)) exp(-rate t) is differentiated in
    physical coordinates, then pulled back by x = alpha(t) y.
    """
    import sympy as sp

    x, y, t = sp.symbols("x y t", real=True)
    fam = spec.alpha
    if isinstance(fam, ConstantAlpha):
        al = sp.Integer(1)
    elif isinstance(fam, AffineAlpha):
        al = 1 + sp.Float(fam.k) * t
    else:
        al = 1 + sp.Float(fam.k) * (1 - sp.exp(-t / sp.Float(fam.tau)))
    beta = spec.beta
    if isinstance(beta, ConstantBeta):
        bt = sp.Float(beta.c)
    elif isinstance(beta, ExponentialBeta):
        bt = sp.Float(beta.beta0) * sp.exp(sp.Float(beta.mu) * t)
    else:
        bt = sum(sp.Float(c) * t**i for i, c in enumerate(beta.coeffs))
    if spec.linear_mode:
        bt = sp.Integer(0)
    u = sp.Float(field.amp) * sp.sin(field.mode * sp.pi * x / al) * sp.exp(-sp.Float(field.rate) * t)
    a, b, rho = (sp.Float(c) for c in (spec.damping.a, spec.damping.b, spec.damping.rho))
    f = sp.diff(u, t, 2) - sp.diff(u, x, 2) + a * sp.diff(u, t) + b * u + bt * sp.Abs(u) ** rho * u
    v = u.subs(x, al * y)
    return tuple(
        sp.lambdify((y, t), expr, modules="numpy") for expr in (f.subs(x, al * y), v, sp.diff(v, t))
    )


class TestManufacturedAgainstSympy:
    @pytest.mark.parametrize(
        "alpha", [ConstantAlpha(), AffineAlpha(k=0.5), SaturatingAlpha(k=0.7, tau=1.3)]
    )
    @pytest.mark.parametrize(
        "beta",
        [ConstantBeta(2.0), ExponentialBeta(beta0=1.5, mu=0.3), PolynomialBeta(coeffs=(1.0, 0.5, 0.25))],
    )
    @pytest.mark.parametrize("linear", [False, True])
    def test_forcing_and_fields_match_symbolic_build(self, alpha, beta, linear):
        field = ManufacturedField(amp=2.0, rate=0.3, mode=3)
        spec = make_spec(
            damping=DampingParams(a=1.2, b=0.7, rho=1.5),
            alpha=alpha,
            beta=beta,
            source=field,
            linear_mode=linear,
        )
        f_sym, v_sym, w_sym = sympy_manufactured(field, spec)
        y = Grid(64).y
        forcing = manufactured_forcing(field, spec, y)
        v_fn, w_fn = exact_reference_fields(field, spec)
        for t in (0.0, 0.37, 1.9):
            for ours, ref in ((forcing([t])[0], f_sym), (v_fn(y, t), v_sym), (w_fn(y, t), w_sym)):
                expect = np.broadcast_to(ref(y, t), y.shape)
                scale = np.max(np.abs(expect))
                assert np.max(np.abs(ours - expect)) <= 1e-14 * scale
