"""Acceptance gate: the nine headline behaviors, each printing a verdict line.

Run with -s (or read past the capture notice) to see one PASS/FAIL line per
criterion. Shared trajectories are computed once per module. Criterion 7
carries its own bisection oracle so the certified window is checked against
arithmetic that never touches the package.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from mowave import (
    AffineAlpha,
    ConstantAlpha,
    ConstantBeta,
    DampingParams,
    EnergySeries,
    ExponentialBeta,
    Grid,
    ManufacturedField,
    ProblemSpec,
    ReferenceState,
    SaturatingAlpha,
    SineMode,
    boundary_flux,
    build_certificate,
    check_decay_bound,
    energy_rate_residual,
    exact_reference_fields,
    fit_decay,
    lambda_window,
    multiplier_identity_residual,
    run_simulation,
    simulate,
    window_edges,
)
from mowave.harness import main

REF_DAMPING = DampingParams(a=1.0, b=1.0, rho=1.0)


def reference_spec(horizon=10.0, beta=None, alpha=None):
    return ProblemSpec(
        damping=REF_DAMPING,
        beta=beta if beta is not None else ExponentialBeta(beta0=1.0, mu=0.1),
        alpha=alpha if alpha is not None else SaturatingAlpha(k=0.5, tau=1.0),
        init=SineMode(m=1, amp_u0=1.0, amp_u1=0.0),
        horizon=horizon,
    )


def report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_runs():
    """Reference-config trajectories at N = 100 and 200, with wall times."""
    spec = reference_spec()
    out = {}
    for n in (100, 200):
        t0 = time.perf_counter()
        traj = simulate(spec, Grid(n), sample_every=4)
        out[n] = (traj, time.perf_counter() - t0)
    return spec, out


class TestCriterion1ModalAccuracy:
    def test_modal_solution(self, capsys):
        # u_tt - u_xx + u_t + u = 0 on the unit interval with
        # u(y,0) = sin(pi y), u_t(y,0) = -sin(pi y)/2 has the exact solution
        # u = exp(-t/2) cos(omega t) sin(pi y), omega = sqrt(pi^2 + 3/4)
        spec = ProblemSpec(
            damping=REF_DAMPING,
            beta=ConstantBeta(1.0),
            alpha=ConstantAlpha(),
            init=SineMode(m=1, amp_u0=1.0, amp_u1=-0.5),
            horizon=2.0,
            linear_mode=True,
        )
        t0 = time.perf_counter()
        g = Grid(200)
        traj = simulate(spec, g, sample_every=10**6)
        elapsed = time.perf_counter() - t0
        omega = math.sqrt(math.pi**2 + 0.75)
        exact = math.exp(-1.0) * math.cos(2.0 * omega) * np.sin(np.pi * g.y)
        err = float(np.max(np.abs(traj.V[-1] - exact)) / np.max(np.abs(exact)))
        ok = err < 1e-4 and elapsed < 5.0
        report(
            capsys,
            "criterion 1 (modal accuracy)",
            ok,
            f"rel err {err:.3e} < 1e-4 at N=200, {elapsed:.2f}s < 5s",
        )


class TestCriterion2ManufacturedConvergence:
    def test_orders(self, capsys):
        field = ManufacturedField(amp=1.0, rate=1.0, mode=1)
        spec = ProblemSpec(
            damping=REF_DAMPING,
            beta=ConstantBeta(1.0),
            alpha=AffineAlpha(k=0.5),
            init=SineMode(m=1, amp_u0=1.0, amp_u1=0.0),
            horizon=1.0,
            source=field,
        )
        t0 = time.perf_counter()
        errors = []
        for n in (50, 100, 200):
            g = Grid(n)
            traj = simulate(spec, g, sample_every=10**6)
            v_fn, _ = exact_reference_fields(field, spec)
            last_t = traj.times[-1]
            diff = traj.V[-1] - v_fn(g.y, last_t)
            al = 1.0 + 0.5 * last_t
            errors.append(float(np.sqrt(g.quad_weights @ diff**2 * al)))
        elapsed = time.perf_counter() - t0
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        ok = all(o >= 1.8 for o in orders) and elapsed < 30.0
        report(
            capsys,
            "criterion 2 (manufactured convergence)",
            ok,
            f"orders {['%.3f' % o for o in orders]} >= 1.8, {elapsed:.2f}s < 30s",
        )


class TestCriterion3RateIdentity:
    def test_residual_and_refinement(self, capsys, reference_runs):
        _, runs = reference_runs
        res = {n: energy_rate_residual(runs[n][0]) for n in (100, 200)}
        factor = res[100] / res[200]
        ok = res[200] < 1e-3 and factor >= 3.5
        report(
            capsys,
            "criterion 3 (energy rate identity)",
            ok,
            f"residual {res[200]:.3e} < 1e-3 at N=200, improvement {factor:.2f}x >= 3.5",
        )


class TestCriterion4MultiplierIdentity:
    def test_residual_order_and_sign(self, capsys, reference_runs):
        spec, runs = reference_runs
        cert = build_certificate(spec.damping, spec.beta, spec.alpha, spec.horizon)
        reps = {
            n: multiplier_identity_residual(runs[n][0], cert.lam, cert.lam)
            for n in (100, 200)
        }
        rel = reps[200].relative_residual
        order = math.log2(reps[100].relative_residual / rel)
        sign_ok = all(
            reps[n].boundary_group >= -1e-6 * reps[n].scale for n in (100, 200)
        )
        ok = rel < 1e-3 and order >= 1.8 and sign_ok and len(reps[200].terms) == 25
        report(
            capsys,
            "criterion 4 (multiplier identity)",
            ok,
            f"relative residual {rel:.3e} < 1e-3, order {order:.2f} >= 1.8, "
            f"boundary group {reps[200].boundary_group:+.4f} >= 0",
        )


class TestCriterion5FluxSign:
    def test_ten_thousand_random_states(self, capsys):
        rng = np.random.default_rng(718281828)
        g = Grid(16)
        worst = math.inf
        bad = 0
        for _ in range(10_000):
            pick = rng.integers(3)
            if pick == 0:
                alpha = ConstantAlpha()
            elif pick == 1:
                alpha = AffineAlpha(k=float(rng.uniform(0.0, 0.99)))
            else:
                tau = float(rng.uniform(0.2, 3.0))
                alpha = SaturatingAlpha(k=float(rng.uniform(0.0, 0.99)) * tau, tau=tau)
            spec = reference_spec(alpha=alpha)
            v = rng.standard_normal(g.n + 1)
            v[0] = v[-1] = 0.0
            state = ReferenceState(float(rng.uniform(0.0, 5.0)), v, np.zeros_like(v))
            flux = boundary_flux(state, spec, g)
            worst = min(worst, flux)
            bad += flux < 0.0
        ok = bad == 0
        report(
            capsys,
            "criterion 5 (flux sign)",
            ok,
            f"10000 seeded states, {bad} negative, min flux {worst:.3e}",
        )


class TestCriterion6CertifiedDecay:
    def test_reference_certificate_holds(self, capsys, reference_runs):
        spec, runs = reference_runs
        traj, sim_time = runs[200]
        t0 = time.perf_counter()
        cert = build_certificate(spec.damping, spec.beta, spec.alpha, spec.horizon)
        series = EnergySeries.from_trajectory(traj)
        rate_res = energy_rate_residual(traj)
        bound = check_decay_bound(series, cert, dt=traj.dt, rate_residual=rate_res)
        fit = fit_decay(series)
        elapsed = sim_time + (time.perf_counter() - t0)
        ok = (
            cert.lambda_lo == 0.05
            and bound.holds
            and fit.lambda_fit >= cert.lambda_hi
            and elapsed < 20.0
        )
        report(
            capsys,
            "criterion 6 (certified decay)",
            ok,
            f"lambda_lo {cert.lambda_lo} == 0.05, bound holds at lambda={cert.lam:.4f} "
            f"(margin {bound.worst_margin:.3f}, tol {bound.tol:.2e}), "
            f"lambda_fit {fit.lambda_fit:.4f} >= {cert.lambda_hi:.4f}, {elapsed:.2f}s < 20s",
        )


def oracle_window_hi(tol=1e-9):
    """Independent ceiling for a = b = 1: bisection on the three inequalities
    1 - 1.5 lam >= 0, 2(1 - 1.5 lam) - lam(lam - 1)^2 >= 0, 0.9 - lam >= 0.

    Each is strictly decreasing on [0, 1] (the middle one has derivative
    -3 - (lam - 1)(3 lam - 1) <= -3 + 1/3 < 0), so plain bisection applies.
    Pure arithmetic; no package code.
    """

    def ok(lam):
        return (
            1.0 - 1.5 * lam >= 0.0
            and 2.0 * (1.0 - 1.5 * lam) - lam * (lam - 1.0) ** 2 >= 0.0
            and 0.9 - lam >= 0.0
        )

    lo, hi = 0.0, 1.0
    assert ok(lo) and not ok(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestCriterion7WindowScreening:
    def test_empty_window_and_independent_ceiling(self, capsys):
        params = REF_DAMPING
        win = lambda_window(
            params, ExponentialBeta(beta0=1.0, mu=2.0), ConstantAlpha(), 10.0
        )
        oracle = oracle_window_hi()
        _, hi = window_edges(params, ConstantBeta(1.0), ConstantAlpha(), 10.0)
        drift = abs(hi - oracle)
        frozen = abs(oracle - 0.6388969194710322)
        ok = win is None and drift < 2e-6 and frozen < 1e-8
        report(
            capsys,
            "criterion 7 (window screening)",
            ok,
            f"mu=2 window empty, ceiling {hi:.10f} vs oracle {oracle:.10f} "
            f"(|diff| {drift:.2e} < 2e-6)",
        )


class TestCriterion8MonotoneDecay:
    def test_constant_beta_energy_nonincreasing(self, capsys):
        spec = reference_spec(horizon=4.0, beta=ConstantBeta(1.0))
        details = []
        ok = True
        for n in (100, 200):
            traj = simulate(spec, Grid(n), sample_every=5)
            E = EnergySeries.from_trajectory(traj).E
            eps = 10.0 * traj.dt**2 * energy_rate_residual(traj)
            worst = float(np.max(np.diff(E)))
            ok = ok and worst <= eps
            details.append(f"N={n} max increase {worst:.2e} <= {eps:.2e}")
        report(capsys, "criterion 8 (monotone decay)", ok, "; ".join(details))


class TestCriterion9Determinism:
    def test_repeat_runs_bit_identical(self, capsys, tmp_path):
        spec = reference_spec(horizon=2.0)
        blobs = []
        for name in ("one", "two"):
            outdir = tmp_path / name
            code, _ = run_simulation(spec, outdir, grid_n=64, sample_every=5)
            assert code == 0
            blobs.append((outdir / "energy.csv").read_bytes())
        ok_repeat = blobs[0] == blobs[1]

        cfg = {
            "base": {
                "damping": {"a": 1.0, "b": 1.0, "rho": 1.0},
                "beta": {"variant": "exponential", "beta0": 1.0, "mu": 0.1},
                "alpha": {"variant": "saturating", "k": 0.5, "tau": 1.0},
                "init": {"variant": "sine", "m": 1, "amp_u0": 1.0, "amp_u1": 0.0},
                "horizon": 1.0,
            },
            "axes": {"mu": [0.0, 0.5]},
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        tables = []
        for jobs, name in ((1, "serial"), (4, "parallel")):
            outdir = tmp_path / name
            code = main(
                ["sweep", str(cfg_path), "--jobs", str(jobs), "--grid-n", "64",
                 "--outdir", str(outdir)]
            )
            assert code == 0
            tables.append((outdir / "sweep.csv").read_bytes())
        ok_sweep = tables[0] == tables[1]
        with open(tmp_path / "serial" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ok = ok_repeat and ok_sweep and len(rows) == 2
        report(
            capsys,
            "criterion 9 (determinism)",
            ok,
            f"energy.csv identical across runs: {ok_repeat}; "
            f"sweep 1 vs 4 jobs identical: {ok_sweep}",
        )
