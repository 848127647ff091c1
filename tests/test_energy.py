"""Energy functional, boundary flux, rate identity, and multiplier identity."""

import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mowave.energy
from mowave import (
    AffineAlpha,
    ConfigError,
    ConstantAlpha,
    ConstantBeta,
    DampingParams,
    EnergySeries,
    ExponentialBeta,
    Grid,
    GridSamples,
    ProblemSpec,
    ReferenceState,
    SaturatingAlpha,
    SineMode,
    SnapshotIntegrals,
    boundary_flux,
    energy_rate_residual,
    multiplier_identity_residual,
    simulate,
    snapshot_integrals,
)
from mowave.energy import first_derivative, write_energy_csv, write_identity_csv


def make_spec(**kw):
    base = dict(
        damping=DampingParams(a=1.0, b=1.0, rho=2.0),
        beta=ConstantBeta(1.0),
        alpha=ConstantAlpha(),
        init=SineMode(m=1, amp_u0=1.0, amp_u1=0.0),
        horizon=1.0,
    )
    base.update(kw)
    return ProblemSpec(**base)


def one_snapshot_energy(state, spec, grid, paper_literal=False):
    """Energy and its addends at one state, as floats: the one-snapshot EnergySeries."""
    table = snapshot_integrals(spec, grid, [state.t], state.v[None], state.w[None])
    series = EnergySeries.from_table(table, spec, paper_literal)
    return SimpleNamespace(**{name: float(column[0]) for name, column in zip(EnergySeries._fields, series)})


def sine_state(grid, amp=1.0, t=0.0):
    v = amp * np.sin(np.pi * grid.y)
    return ReferenceState(t, v, np.zeros_like(v))


# admissible families only: sup alpha' < 1 (k for affine, k/tau for saturating)
alphas = st.one_of(
    st.just(ConstantAlpha()),
    st.floats(0.01, 0.95).map(lambda k: AffineAlpha(k=k)),
    st.tuples(st.floats(0.01, 0.95), st.floats(0.2, 3.0)).map(
        lambda rt: SaturatingAlpha(k=rt[0] * rt[1], tau=rt[1])
    ),
)


class TestFirstDerivative:
    def test_exact_on_quadratics(self):
        y = np.linspace(0.0, 1.0, 11)
        vals = 3.0 * y**2 - 2.0 * y + 1.0
        d = first_derivative(vals, 0.1)
        assert np.allclose(d, 6.0 * y - 2.0, atol=1e-12)

    def test_second_order_on_sine(self):
        errs = []
        for n in (50, 100):
            y = np.linspace(0.0, 1.0, n + 1)
            d = first_derivative(np.sin(np.pi * y), 1.0 / n)
            errs.append(np.max(np.abs(d - np.pi * np.cos(np.pi * y))))
        assert errs[0] / errs[1] > 3.5


class TestEnergy:
    def test_zero_state_is_zero(self):
        g = Grid(16)
        z = np.zeros(17)
        s = one_snapshot_energy(ReferenceState(0.0, z, z), make_spec(), g)
        assert s.E == 0.0
        assert s.kinetic == s.gradient == s.restoring == s.nonlinear == 0.0
        assert s.flux == 0.0

    def test_closed_form_sine(self):
        # v = sin(pi y), w = 0, alpha = 1, b = 1, beta = 1, rho = 2:
        # E = pi^2/4 + 1/4 + (1/4) int sin^4 = pi^2/4 + 1/4 + 3/32
        g = Grid(200)
        exact = np.pi**2 / 4.0 + 0.25 + 3.0 / 32.0
        s = one_snapshot_energy(sine_state(g), make_spec(), g)
        assert s.E == pytest.approx(exact, rel=5e-4)
        assert s.kinetic == 0.0
        assert s.gradient == pytest.approx(np.pi**2 / 4.0, rel=5e-4)
        assert s.restoring == pytest.approx(0.25, rel=1e-9)
        assert s.nonlinear == pytest.approx(3.0 / 32.0, rel=1e-9)

    def test_quadratic_scaling_of_linear_part(self):
        g = Grid(100)
        spec = make_spec(linear_mode=True)
        e1 = one_snapshot_energy(sine_state(g, amp=1.0), spec, g)
        e2 = one_snapshot_energy(sine_state(g, amp=2.0), spec, g)
        assert e2.E == pytest.approx(4.0 * e1.E, rel=1e-12)

    def test_paper_literal_restoring_weight(self):
        g = Grid(100)
        spec = make_spec(damping=DampingParams(a=1.0, b=3.0, rho=2.0))
        exact = one_snapshot_energy(sine_state(g), spec, g)
        literal = one_snapshot_energy(sine_state(g), spec, g, paper_literal=True)
        assert literal.restoring == pytest.approx(exact.restoring / 3.0, rel=1e-12)
        assert literal.kinetic == exact.kinetic
        assert literal.gradient == exact.gradient
        assert literal.nonlinear == exact.nonlinear

    def test_domain_length_enters_measure(self):
        # same reference profile, alpha(t) = 1 + 0.5 t at t = 2 gives alpha = 2:
        # restoring integral doubles (dx = alpha dy)
        g = Grid(100)
        spec = make_spec(alpha=AffineAlpha(k=0.5), linear_mode=True)
        s0 = one_snapshot_energy(sine_state(g, t=0.0), spec, g)
        s2 = one_snapshot_energy(sine_state(g, t=2.0), spec, g)
        assert s2.restoring == pytest.approx(2.0 * s0.restoring, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        alphas,
        st.floats(0.0, 5.0),
        st.integers(1, 3),
        st.floats(0.1, 2.0),
    )
    def test_addends_nonnegative(self, alpha, t, mode, amp):
        g = Grid(24)
        spec = make_spec(alpha=alpha)
        v = amp * np.sin(mode * np.pi * g.y)
        w = amp * np.cos(3 * np.pi * g.y) * g.y * (1 - g.y)
        s = one_snapshot_energy(ReferenceState(t, v, w), spec, g)
        assert s.kinetic >= 0.0
        assert s.gradient >= 0.0
        assert s.restoring >= 0.0
        assert s.nonlinear >= 0.0
        assert s.E >= 0.0


class TestBoundaryFlux:
    def test_cylindrical_flux_vanishes(self):
        g = Grid(50)
        assert boundary_flux(sine_state(g), make_spec(), g) == 0.0

    def test_affine_quadratic_oracle(self):
        # v = -2y(1-y): one-sided endpoint slope is exact, u_x(1) = 2 at t = 0,
        # flux = 0.5 * 0.5 * (1 - 0.25) * 4 = 0.75
        g = Grid(50)
        v = -2.0 * g.y * (1.0 - g.y)
        state = ReferenceState(0.0, v, np.zeros_like(v))
        spec = make_spec(alpha=AffineAlpha(k=0.5))
        assert boundary_flux(state, spec, g) == pytest.approx(0.75, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(alphas, st.floats(0.0, 5.0), st.floats(-3.0, 3.0))
    def test_flux_nonnegative(self, alpha, t, amp):
        g = Grid(16)
        v = amp * g.y * (1.0 - g.y) * np.exp(g.y)
        state = ReferenceState(t, v, np.zeros_like(v))
        assert boundary_flux(state, make_spec(alpha=alpha), g) >= 0.0


def forced_run(horizon=2.0, sample_every=1):
    from mowave import ManufacturedField

    spec = make_spec(
        source=ManufacturedField(amp=1.0, rate=1.0, mode=2),
        beta=ExponentialBeta(beta0=1.0, mu=0.3),
        alpha=SaturatingAlpha(k=0.5, tau=1.0),
        horizon=horizon,
    )
    return with_snapshots(spec, Grid(24), sample_every=sample_every)


def with_snapshots(spec, grid, sample_every=1):
    """simulate's Trajectory and its snapshots (times, V, W), copied from the blocks on_block hands on."""
    blocks = []
    traj = simulate(spec, grid, sample_every, on_block=lambda i, *block: blocks.append([x.copy() for x in block]))
    return traj, tuple(np.concatenate(parts) for parts in zip(*blocks))


class TestSnapshotIntegrals:
    def test_matches_per_snapshot_oracle_across_blocks(self):
        from mowave.solver import manufactured_forcing

        traj, snaps = forced_run()
        assert len(traj.times) > 2 * 64  # several blocks, the last one partial
        spec, g = traj.spec, traj.grid
        table = snapshot_integrals(spec, g, *snaps)
        forcing = manufactured_forcing(spec.source, spec, g.y)
        for k, (t, v, w) in enumerate(zip(*snaps)):
            al, ap, _ = spec.alpha.eval(t)
            v_y = np.gradient(v, g.dy, edge_order=2)
            u_t = w - g.y * (ap / al) * v_y
            u_x = v_y / al
            f = forcing([t])[0]
            weights = g.quad_weights * al
            oracle = {
                "ut2": weights @ u_t**2, "ux2": weights @ u_x**2, "u2": weights @ v**2,
                "uut": weights @ (v * u_t), "nl": weights @ np.abs(v) ** 4.0,
                "fut": weights @ (f * u_t), "fu": weights @ (f * v), "ux_end": u_x[-1],
                "alpha_p": ap, "beta": spec.beta.eval(t)[0], "beta_p": spec.beta.eval(t)[1],
            }
            for name, want in oracle.items():
                assert getattr(table, name)[k] == pytest.approx(want, rel=1e-12, abs=1e-14), (name, k)

    def test_unforced_run_has_no_source_columns(self):
        traj, snaps = with_snapshots(make_spec(horizon=0.5), Grid(16))
        table = snapshot_integrals(traj.spec, traj.grid, *snaps)
        assert table.fut is None and table.fu is None and traj.integrals.fut is None
        assert table.t.shape == table.ut2.shape == table.flux.shape == traj.times.shape

    def test_one_snapshot_functions_read_the_same_table(self):
        traj, snaps = forced_run(sample_every=7)
        spec = traj.spec
        series = EnergySeries.from_trajectory(traj)
        for k, state in enumerate(zip(*snaps)):
            sample = one_snapshot_energy(ReferenceState(*state), spec, traj.grid)
            for name in ("t", "E", "kinetic", "gradient", "restoring", "nonlinear", "flux"):
                assert getattr(sample, name) == pytest.approx(getattr(series, name)[k], rel=1e-14, abs=1e-300)
            assert boundary_flux(ReferenceState(*state), spec, traj.grid) == sample.flux

    def test_paper_literal_reweights_restoring_only(self):
        spec = make_spec(damping=DampingParams(a=1.0, b=3.0, rho=2.0), horizon=0.5)
        traj = simulate(spec, Grid(16))
        exact = EnergySeries.from_trajectory(traj)
        literal = EnergySeries.from_trajectory(traj, paper_literal=True)
        assert np.allclose(literal.restoring, exact.restoring / 3.0, rtol=1e-15, atol=0.0)
        for name in ("t", "kinetic", "gradient", "nonlinear", "flux"):
            assert np.array_equal(getattr(literal, name), getattr(exact, name))

    def test_trajectory_integrals_is_the_table_of_its_snapshots(self):
        # streamed during the solve in blocks of 64, 64 and 17 snapshots, bit for bit the table of the arrays
        traj, snaps = forced_run()
        assert traj.times.size == 145
        table = snapshot_integrals(traj.spec, traj.grid, *snaps)
        assert traj.integrals is traj.integrals
        for name in SnapshotIntegrals._fields:
            shared = getattr(traj.integrals, name)
            assert shared.tobytes() == getattr(table, name).tobytes(), name
            assert not shared.flags.writeable, name  # every check reads this one table

    def test_the_checks_of_a_run_share_one_pass(self, monkeypatch):
        passes = []

        class Counted(mowave.energy.IntegralPass):
            def __init__(self, spec, grid, nsnap):
                passes.append(nsnap)
                super().__init__(spec, grid, nsnap)

        monkeypatch.setattr(mowave.energy, "IntegralPass", Counted)
        traj, _ = forced_run(sample_every=3)
        EnergySeries.from_trajectory(traj)
        EnergySeries.from_trajectory(traj, paper_literal=True)
        energy_rate_residual(traj)
        multiplier_identity_residual(traj, 0.2, 0.3)
        assert passes == [traj.times.size]


class TestRateResidual:
    def test_needs_three_snapshots(self):
        spec = make_spec(horizon=0.5)
        traj = simulate(spec, Grid(16), sample_every=10**6)
        assert len(traj.times) == 2
        with pytest.raises(ConfigError):
            energy_rate_residual(traj)

    def test_zero_trajectory(self):
        spec = make_spec(init=SineMode(m=1, amp_u0=0.0, amp_u1=0.0), horizon=0.5)
        traj = simulate(spec, Grid(16))
        assert energy_rate_residual(traj) == 0.0

    def test_small_on_resolved_run(self):
        spec = make_spec(
            beta=ExponentialBeta(beta0=1.0, mu=0.1),
            alpha=SaturatingAlpha(k=0.5, tau=1.0),
            horizon=1.0,
        )
        res = energy_rate_residual(simulate(spec, Grid(100)))
        assert isinstance(res, float)
        assert 0.0 < res < 5e-3

    def test_shrinks_under_refinement(self):
        spec = make_spec(alpha=AffineAlpha(k=0.5), horizon=1.0)
        coarse = energy_rate_residual(simulate(spec, Grid(50)))
        fine = energy_rate_residual(simulate(spec, Grid(100)))
        assert fine < coarse / 3.0


class TestMultiplierIdentity:
    def test_rejects_nonpositive_lambda(self):
        traj = simulate(make_spec(horizon=0.5), Grid(16))
        with pytest.raises(ConfigError):
            multiplier_identity_residual(traj, lam=0.0, phi_rate=0.1)

    def test_zero_trajectory_all_terms_zero(self):
        spec = make_spec(init=SineMode(m=1, amp_u0=0.0, amp_u1=0.0), horizon=0.5)
        rep = multiplier_identity_residual(simulate(spec, Grid(16)), 0.1, 0.1)
        assert rep.residual_plu == 0.0
        assert all(t.value == 0.0 for t in rep.terms)
        assert rep.relative_residual == 0.0

    def test_terms_sum_to_residual(self):
        spec = make_spec(
            beta=ExponentialBeta(beta0=1.0, mu=0.1),
            alpha=SaturatingAlpha(k=0.5, tau=1.0),
            horizon=1.0,
        )
        rep = multiplier_identity_residual(simulate(spec, Grid(50)), 0.1, 0.1)
        assert rep.residual_plu == pytest.approx(
            sum(t.value for t in rep.terms), abs=1e-14
        )

    def test_residual_is_small_and_term_count_stable(self):
        spec = make_spec(
            beta=ExponentialBeta(beta0=1.0, mu=0.1),
            alpha=SaturatingAlpha(k=0.5, tau=1.0),
            horizon=1.0,
        )
        rep = multiplier_identity_residual(simulate(spec, Grid(100)), 0.1, 0.1)
        assert len(rep.terms) == 25
        assert rep.relative_residual < 1e-3

    def test_boundary_group_matches_flux_integral(self):
        spec = make_spec(alpha=SaturatingAlpha(k=0.5, tau=1.0), horizon=1.0)
        traj, snaps = with_snapshots(spec, Grid(50), sample_every=5)
        s = 0.1
        rep = multiplier_identity_residual(traj, 0.1, s)
        times = traj.times
        flux = np.array([one_snapshot_energy(ReferenceState(*state), spec, traj.grid).flux for state in zip(*snaps)])
        expected = float(np.trapezoid(np.exp(s * (times - times[-1])) * flux, times))
        assert rep.boundary_group == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert rep.boundary_group >= 0.0

    def test_phi_is_one_at_T(self):
        # phi = exp(s (t - T)) <= 1, so no term overflows before the energy does, whatever s T
        spec = make_spec(beta=ExponentialBeta(beta0=1.0, mu=0.1), alpha=SaturatingAlpha(k=0.5, tau=1.0), horizon=2.0)
        traj = simulate(spec, Grid(32), sample_every=2)
        table = traj.integrals
        for s in (0.1, 400.0):  # exp(400 T) overflows a double
            rep = multiplier_identity_residual(traj, 0.1, s)
            values = {t.name: t.value for t in rep.terms}
            assert values["ut2_T"] == 0.5 * table.ut2[-1]
            assert values["ut2_0"] == pytest.approx(-0.5 * math.exp(-2.0 * s) * table.ut2[0], rel=1e-15, abs=0.0)
            assert math.isfinite(rep.residual_plu) and math.isfinite(rep.relative_residual)

    def test_forced_run_has_source_term(self):
        from mowave import ManufacturedField

        spec = make_spec(
            source=ManufacturedField(amp=1.0, rate=1.0, mode=1),
            alpha=AffineAlpha(k=0.5),
            horizon=0.5,
        )
        rep = multiplier_identity_residual(simulate(spec, Grid(50)), 0.1, 0.1)
        assert len(rep.terms) == 26
        names = {t.name for t in rep.terms}
        assert "vol_f" in names
        assert rep.relative_residual < 1e-2


class TestCsvWriters:
    def test_energy_csv_roundtrip(self, tmp_path):
        spec = make_spec(horizon=0.5)
        traj = simulate(spec, Grid(16), sample_every=4)
        series = EnergySeries.from_trajectory(traj)
        path = tmp_path / "energy.csv"
        write_energy_csv(series, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(series.t)
        header = rows[0].keys()
        assert list(header) == [
            "t",
            "E",
            "kinetic",
            "gradient",
            "restoring",
            "nonlinear",
            "flux",
            "bound",
        ]
        for row, t, E in zip(rows, series.t, series.E):
            assert float(row["t"]) == t
            assert float(row["E"]) == E
            assert row["bound"] == ""

    def test_energy_csv_with_bound(self, tmp_path):
        spec = make_spec(horizon=0.5)
        traj = simulate(spec, Grid(16), sample_every=4)
        series = EnergySeries.from_trajectory(traj)
        bound = [2.0 * E + 1.0 for E in series.E]
        path = tmp_path / "energy.csv"
        write_energy_csv(series, path, bound=bound)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, b in zip(rows, bound):
            assert float(row["bound"]) == b

    def test_identity_csv_contents(self, tmp_path):
        spec = make_spec(horizon=0.5)
        rep = multiplier_identity_residual(simulate(spec, Grid(16)), 0.1, 0.1)
        path = tmp_path / "identity.csv"
        write_identity_csv(rep, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["term", "group", "value"]
        body = rows[1:]
        by_name = {r[0]: r for r in body}
        for key in ("residual_plu", "relative_residual", "residual_rate", "boundary_group", "lambda", "phi_rate"):
            assert key in by_name
            assert by_name[key][1] == "summary"
        term_rows = [r for r in body if r[1] != "summary"]
        assert len(term_rows) == len(rep.terms)
        values = {t.name: t.value for t in rep.terms}
        for r in term_rows:
            assert float(r[2]) == values[r[0]]
        # cells are parseable floats in every row
        for r in body:
            float(r[2])
