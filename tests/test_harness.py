"""End-to-end CLI behavior: exit codes, outputs, manifests, determinism."""

import csv
import errno
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import runpy
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mowave
from mowave import verify_manifest
from mowave.harness import main, run_simulation

harness = sys.modules["mowave.harness"]
certify = sys.modules["mowave.certify"]


def reference_config(**overrides):
    cfg = {
        "damping": {"a": 1.0, "b": 1.0, "rho": 1.0},
        "beta": {"variant": "exponential", "beta0": 1.0, "mu": 0.1},
        "alpha": {"variant": "saturating", "k": 0.5, "tau": 1.0},
        "init": {"variant": "sine", "m": 1, "amp_u0": 1.0, "amp_u1": 0.0},
        "horizon": 4.0,
    }
    cfg.update(overrides)
    return cfg


# a finite run whose certificate curve C E(0) exp(-lambda t) overflows a double
BOUND_OVERFLOW = reference_config(
    damping={"a": 1.0, "b": 1.0, "rho": 1e-6},
    beta={"variant": "constant", "c": 1e-300},
    init={"variant": "sine", "m": 1, "amp_u0": 4.1e153, "amp_u1": 0.0},
    horizon=2.0,
)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_simulate(tmp_path, cfg, *extra, outname="out"):
    cfg_path = write_config(tmp_path, cfg)
    outdir = tmp_path / outname
    code = main(["simulate", cfg_path, "--grid-n", "100", "--outdir", str(outdir), *extra])
    return code, outdir


class TestSimulate:
    def test_reference_run(self, tmp_path, capsys):
        code, outdir = run_simulate(tmp_path, reference_config())
        assert code == 0
        for name in ("energy.csv", "identity.csv", "decay.svg", "manifest.json"):
            assert (outdir / name).is_file(), name
        assert not (outdir / "trajectory.csv").exists()
        out = capsys.readouterr().out
        assert "lambda window" in out
        assert "lambda_fit" in out

    def test_violated_bound_exits_4_with_every_output(self, tmp_path, capsys, monkeypatch):
        # a certificate with C = 0.5 < 1 that E(0) itself exceeds
        real = harness.build_certificate
        monkeypatch.setattr(harness, "build_certificate", lambda *a, **kw: real(*a, **kw)._replace(C=0.5))
        code, outdir = run_simulate(tmp_path, reference_config())
        assert code == 4
        assert re.fullmatch(r"mowave: decay bound violated: worst margin \S+ first at t = 0\n", capsys.readouterr().err)
        for name in ("energy.csv", "identity.csv", "decay.svg", "manifest.json"):
            assert (outdir / name).is_file(), name
        checks = json.loads((outdir / "manifest.json").read_text())["checks"]
        assert (checks["C"], checks["bound_holds"], checks["exit_code"]) == (0.5, False, 4)
        assert verify_manifest(outdir / "manifest.json") == []

    def test_manifest_verifies(self, tmp_path):
        _, outdir = run_simulate(tmp_path, reference_config())
        assert verify_manifest(outdir / "manifest.json") == []

    def test_manifest_catches_tampering(self, tmp_path):
        _, outdir = run_simulate(tmp_path, reference_config())
        target = outdir / "energy.csv"
        target.write_text(target.read_text() + "# extra\n")
        mismatches = verify_manifest(outdir / "manifest.json")
        assert mismatches
        assert any("energy.csv" in m for m in mismatches)

    def test_runs_are_bit_identical(self, tmp_path):
        _, out1 = run_simulate(tmp_path, reference_config(), outname="run1")
        _, out2 = run_simulate(tmp_path, reference_config(), outname="run2")
        assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()
        assert (out1 / "identity.csv").read_bytes() == (out2 / "identity.csv").read_bytes()

    def test_trajectory_flag(self, tmp_path):
        code, outdir = run_simulate(tmp_path, reference_config(), "--trajectory")
        assert code == 0
        with open(outdir / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "y", "v", "w"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(rows) == 1 + manifest["grid"]["snapshots"] * 101
        assert [float(rows[i][0]) for i in (1, 101, -1)] == [0.0, 0.0, 4.0] and float(rows[102][0]) > 0.0
        assert "trajectory.csv" in manifest["outputs"] and verify_manifest(outdir / "manifest.json") == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]  # no temporary file left

    def test_paper_literal_changes_restoring_column(self, tmp_path):
        cfg = reference_config(damping={"a": 1.0, "b": 3.0, "rho": 1.0}, horizon=1.0)
        _, out_exact = run_simulate(tmp_path, cfg, outname="exact")
        _, out_lit = run_simulate(tmp_path, cfg, "--paper-literal-energy", outname="lit")

        def restoring(outdir):
            with open(outdir / "energy.csv", newline="") as fh:
                return [float(r["restoring"]) for r in csv.DictReader(fh)]

        exact = restoring(out_exact)
        literal = restoring(out_lit)
        assert all(l == pytest.approx(e / 3.0, rel=1e-12) for e, l in zip(exact, literal))

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        outdir = tmp_path / "envout"
        monkeypatch.setenv("MOWAVE_OUTDIR", str(outdir))
        cfg_path = write_config(tmp_path, reference_config(horizon=1.0))
        code = main(["simulate", cfg_path, "--grid-n", "64"])
        assert code == 0
        assert (outdir / "energy.csv").is_file()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "nope.json")])
        assert code == 2
        assert "mowave:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = reference_config()
        cfg["extra"] = 1
        code = main(["simulate", write_config(tmp_path, cfg)])
        assert code == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_inadmissible_alpha_fails_validation(self, tmp_path, capsys):
        cfg = reference_config(alpha={"variant": "affine", "k": 1.0})
        code, _ = run_simulate(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "sup " in err and "(t)<1" in err

    def test_unstable_cfl_exits_blowup(self, tmp_path, capsys):
        cfg = reference_config(horizon=1.0)
        cfg_path = write_config(tmp_path, cfg)
        code = main(
            ["simulate", cfg_path, "--grid-n", "64", "--cfl", "10.0",
             "--outdir", str(tmp_path / "b")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("mowave: numerical instability: the discrete solution left the finite range at t=")
        assert "E(0) beta(t)/beta(0) = " in err
        assert err.endswith("was set by the wave bound from the data at t = 0: lower --cfl below 5\n")

    @pytest.mark.xfail(strict=True, reason="the step plan reads the reaction's stiffness at t = 0 only")
    def test_a_run_its_step_does_not_resolve_exits_blowup(self, tmp_path, capsys):
        # beta = exp(60 t) stiffens the reaction as the run goes on; RK4 damps the fast oscillation,
        # and the run exits 0 with lambda_fit 47.3 and a relative PLU residual of 0.909
        cfg = reference_config(beta={"variant": "exponential", "beta0": 1.0, "mu": 60.0}, horizon=1.0)
        code, _ = run_simulate(tmp_path, cfg, "--cfl", "0.3")
        assert code == 3

    def test_beta_beyond_doubles_exits_2(self, tmp_path, capsys):
        cfg = reference_config(
            beta={"variant": "exponential", "beta0": 1.0, "mu": 1000.0},
            init={"variant": "sine", "m": 1, "amp_u0": 0.0, "amp_u1": 0.0},
            horizon=1.0,
        )
        code, outdir = run_simulate(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("[FAIL]") == 1 and "[FAIL] beta(T)" in err
        assert "Traceback" not in err
        assert not (outdir / "energy.csv").exists()
        assert main(["certify", write_config(tmp_path, cfg)]) == 2  # was 5, an empty window

    def test_too_few_snapshots_named_before_the_diagnostics(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, reference_config(horizon=0.05))
        code = main(["simulate", cfg_path, "--grid-n", "16", "--outdir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "2 snapshots" in err and "--sample-every 10" in err
        assert "multiplier_identity_residual" not in err

    def test_manifest_contents(self, tmp_path):
        _, outdir = run_simulate(tmp_path, reference_config())
        blob = json.loads((outdir / "manifest.json").read_text())
        assert set(blob) >= {"config_hash", "config", "grid", "outputs", "checks", "wall_clock_s"}
        assert blob["grid"]["n"] == 100
        assert "energy.csv" in blob["outputs"]
        checks = blob["checks"]
        assert checks["bound_holds"] is True
        assert checks["lambda_lo"] == pytest.approx(0.05)

    def test_a_run_with_nothing_to_fit_exits_0_with_a_null_lambda_fit(self, tmp_path, capsys):
        # E(0) = 0: fit_decay has nothing to fit, in a single run and in a sweep cell
        cfg = reference_config(horizon=10.0, init={"variant": "sine", "m": 1, "amp_u0": 0.0, "amp_u1": 0.0})
        code, outdir = run_simulate(tmp_path, cfg)
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda window" in out and "lambda_fit" not in out
        assert '"lambda_fit": null' in (outdir / "manifest.json").read_text()
        assert verify_manifest(outdir / "manifest.json") == []
        swept = tmp_path / "sweep"
        sweep_cfg = write_config(tmp_path, {"base": cfg, "axes": {}}, "sweep.json")
        assert main(["sweep", sweep_cfg, "--grid-n", "100", "--outdir", str(swept)]) == 0
        with open(swept / "sweep.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["exit"], row["lambda_fit"]) == ("0", "")

    def test_manifest_records_solver_counters(self, tmp_path):
        _, out1 = run_simulate(tmp_path, reference_config(), outname="run1")
        _, out2 = run_simulate(tmp_path, reference_config(), outname="run2")
        blobs = [json.loads((out / "manifest.json").read_text()) for out in (out1, out2)]
        grid = blobs[0]["grid"]
        assert grid["steps"] == math.ceil(4.0 / grid["dt"] - 1e-12) == 600  # T = 4, dt = 1/150
        assert grid["rhs_evals"] == 4 * grid["steps"]
        assert grid["dt_bound"] == "wave" and grid["steps_per_snapshot"] == 5
        for blob in blobs:
            blob.pop("wall_clock_s")
        assert blobs[0] == blobs[1]  # the counters repeat, like every other field
        assert verify_manifest(out1 / "manifest.json") == []

    @pytest.mark.parametrize(
        "cfg, grid_n, words",
        [
            # the solution stays finite, but u_t^2 of amp 1e300 overflows the energy
            (
                reference_config(
                    damping={"a": 1.0, "b": 1.0, "rho": 0.01},
                    init={"variant": "sine", "m": 1, "amp_u0": 0.0, "amp_u1": 1e300},
                    horizon=0.5,
                ),
                "16",
                "energy overflows a double, first at t = 0,",
            ),
            (BOUND_OVERFLOW, "32", "the certificate bound C E(0) exp(-lambda t) and the identity residuals overflow"),
        ],
        ids=["energy", "certificate-bound"],
    )
    def test_overflow_of_a_finite_run_exits_2_without_outputs(self, tmp_path, capsys, cfg, grid_n, words):
        outdir = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", write_config(tmp_path, cfg), "--grid-n", grid_n, "--outdir", str(outdir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mowave: ") and err.count("\n") == 1
        assert words in err
        assert not outdir.exists()


class TestStiffStep:
    """The README config (T = 10) at default flags and --grid-n 100 where a or the reaction is stiff.

    a = 600 and rho = 3 with amp_u0 = 35 blow up at cfl 1.0 without the step
    bounds; a = 2000 and amp_u0 = 50 blow up even at cfl 0.5.
    """

    @pytest.mark.parametrize(
        "overrides, bound",
        [
            ({"damping": {"a": 600.0, "b": 1.0, "rho": 1.0}}, "damping"),
            ({"damping": {"a": 2000.0, "b": 1.0, "rho": 1.0}}, "damping"),
            ({"damping": {"a": 1.0, "b": 1.0, "rho": 3.0}, "init": {"variant": "sine", "m": 1, "amp_u0": 35.0, "amp_u1": 0.0}}, "reaction"),
            ({"damping": {"a": 1.0, "b": 1.0, "rho": 3.0}, "init": {"variant": "sine", "m": 1, "amp_u0": 50.0, "amp_u1": 0.0}}, "reaction"),
        ],
        ids=["a600", "a2000", "rho3-amp35", "rho3-amp50"],
    )
    def test_stiff_config_exits_0_on_the_snapshot_grid(self, tmp_path, capsys, overrides, bound):
        code, outdir = run_simulate(tmp_path, reference_config(horizon=10.0, **overrides))
        assert code == 0, capsys.readouterr().err
        grid = json.loads((outdir / "manifest.json").read_text())["grid"]
        assert grid["dt_bound"] == bound and grid["steps_per_snapshot"] > 5
        # snapshots stay 10 h0 apart, h0 = dy / (2 s_max) = 0.01 / 3
        assert grid["snapshots"] == 301 and grid["steps_per_snapshot"] * grid["dt"] == pytest.approx(0.1 / 3)

    def test_decay_allowance_does_not_grow_with_the_step(self, tmp_path, monkeypatch):
        seen = []
        real = harness.check_decay_bound
        monkeypatch.setattr(harness, "check_decay_bound", lambda *a, **kw: seen.append(kw["dt"]) or real(*a, **kw))
        cfg = reference_config(horizon=1.0)
        for cfl in ("0.25", "1.0", "2.0"):
            code, _ = run_simulate(tmp_path, cfg, "--cfl", cfl, outname=cfl)
            assert code == 0
        spec = mowave.spec_from_dict(cfg)
        steps = [mowave.solver.step_size(spec, mowave.Grid(100), cfl) for cfl in (0.25, 0.5)]
        assert seen == [steps[0], steps[1], steps[1]]


class TestCertify:
    @pytest.mark.parametrize(
        "overrides, words",
        [
            ({"damping": {"a": 1e300, "b": 1.0, "rho": 1.0}}, "a = 1e+300"),
            ({"beta": {"variant": "polynomial", "coeffs": [1.0, 0.0, 1e300]}}, "polynomial beta"),
            # beta(T) and beta'(T) are finite, but 2e306 T^2 in beta' of t = T s is not
            ({"beta": {"variant": "polynomial", "coeffs": [1.0, 0.0, 1e306]}}, "polynomial beta"),
        ],
    )
    def test_overflowing_inputs_exit_2_in_one_line(self, tmp_path, capsys, overrides, words):
        cfg = reference_config(horizon=10.0, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["certify", write_config(tmp_path, cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mowave: certificate: ") and err.count("\n") == 1
        assert words in err and "overflow" in err

    @pytest.mark.parametrize("command", ["certify", "simulate"])
    @pytest.mark.parametrize(
        "coeffs, t",
        [
            ([1.0, -1e300, 1e300], "0.0"),
            ([1.0] * 16 + [-1e300], "3.3249515845711534e-20"),
            ([1.0, 1e308, -1e308], "2.0"),
        ],
    )
    def test_polynomial_a2_near_the_largest_double_fails_with_no_warning(self, tmp_path, capsys, command, coeffs, t):
        cfg = reference_config(horizon=2.0, beta={"variant": "polynomial", "coeffs": coeffs})
        outdir = ["--outdir", str(tmp_path / "run")] if command == "simulate" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, write_config(tmp_path, cfg), *outdir])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("mowave: assumption checks failed:\n")
        assert [line for line in err.splitlines() if "A2" in line] == [f"[FAIL] A2: PolynomialBeta: beta' < 0 at t = {t}"]
        assert not (tmp_path / "run").exists()

    def test_standard_branch_json(self, tmp_path, capsys):
        code = main(["certify", write_config(tmp_path, reference_config())])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["branch"] == "standard"
        assert blob["lambda_lo"] == pytest.approx(0.05)
        assert all(c["satisfied"] for c in blob["conditions"])

    def test_empty_window_exit(self, tmp_path, capsys):
        cfg = reference_config(beta={"variant": "exponential", "beta0": 1.0, "mu": 2.0})
        code = main(["certify", write_config(tmp_path, cfg)])
        assert code == 5
        err = capsys.readouterr().err
        assert "empty window" in err
        assert "1" in err  # reports the offending floor

    @pytest.mark.parametrize(
        "alpha, hi",
        [({"variant": "constant"}, 0.25), ({"variant": "saturating", "k": 0.5, "tau": 1.0}, 0.191475)],
    )
    def test_remark1_branch(self, tmp_path, capsys, alpha, hi):
        cfg = reference_config(
            damping={"a": 1.0, "b": 0.0, "rho": 1.0},
            beta={"variant": "constant", "c": 1.0},
            alpha=alpha,
        )
        code = main(["certify", write_config(tmp_path, cfg)])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["branch"] == "remark1"
        assert blob["lambda_hi"] == pytest.approx(hi, abs=2e-6)

    @pytest.mark.parametrize("b, roots", [(1.0, 1), (0.0, 0)])
    def test_the_cubic_is_solved_once_and_only_for_b_positive(self, tmp_path, capsys, monkeypatch, b, roots):
        # the window finds the root of condition (ii); the certificate reuses its edges.
        # The root is a closed form: np.roots serves only a polynomial beta
        calls, np_calls = [], []
        real = certify._cross_term_root
        monkeypatch.setattr(certify, "_cross_term_root", lambda a, b: calls.append((a, b)) or real(a, b))
        monkeypatch.setattr(np, "roots", lambda coeffs: np_calls.append(coeffs))
        cfg = reference_config(damping={"a": 1.0, "b": b, "rho": 1.0})
        assert cfg["beta"]["variant"] == "exponential"
        assert main(["certify", write_config(tmp_path, cfg)]) == 0
        assert len(calls) == roots
        assert np_calls == []
        assert json.loads(capsys.readouterr().out)["branch"] == ("standard" if b > 0.0 else "remark1")

    @pytest.mark.parametrize(
        "overrides, report",
        [
            ({"init": {"variant": "sine", "m": 1.5, "amp_u0": 1.0, "amp_u1": 0.0}}, "init.m: expected an integer, got 1.5"),
            ({"beta": {"variant": "polynomial", "coeffs": 3}}, "beta.coeffs: expected a list"),
            # beta' = -1 + 2e-301 t; beta = 1 - t + 1e-301 t^2 stays positive up to T = 0.5
            (
                {"beta": {"variant": "polynomial", "coeffs": [1.0, -1.0, 1e-301]}, "horizon": 0.5},
                "[FAIL] A2: PolynomialBeta: the coefficients of beta' span more than 1e+300",
            ),
            ({"init": {"variant": "sine", "m": 0, "amp_u0": 1.0, "amp_u1": 0.0}}, "init.m: mode number must be >= 1, got 0"),
            ({"init": {"variant": "samples", "u0": [0.0], "u1": [0.0]}}, "init: need at least two sample values"),
            ({"manufactured": {"mode": 0}}, "manufactured.mode: must be >= 1, got 0"),
            ({"damping": []}, "damping: expected an object, got list"),
            ({"beta": 3}, "beta: expected an object, got int"),
        ],
        ids=["m-not-integer", "coeffs-not-list", "beta-prime-span", "m-zero", "one-sample", "mode-zero", "damping-list", "beta-number"],
    )
    def test_rejected_config_exits_2_in_one_report(self, tmp_path, capsys, overrides, report):
        code = main(["certify", write_config(tmp_path, reference_config(**overrides))])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("mowave: ") and err.count("mowave:") == 1 and err.count("[FAIL]") <= 1
        assert report in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestConvergence:
    def test_orders_meet_threshold(self, tmp_path, capsys):
        cfg = reference_config(
            alpha={"variant": "affine", "k": 0.5},
            horizon=1.0,
            manufactured={"amp": 1.0, "rate": 1.0, "mode": 1},
        )
        code = main(["convergence", write_config(tmp_path, cfg), "--grid-n", "50,100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "order" in out
        assert "minimum observed order" in out

    def test_orders_of_a_zero_error_are_infinite(self):
        assert harness._orders([50, 100, 200], [1e-2, 0.0, 0.0]) == [math.inf, math.inf]
        assert harness._orders([50, 100], [0.0, 1e-2]) == [math.inf]
        assert harness._orders([50, 100], [4e-2, 1e-2]) == [pytest.approx(2.0)]

    def test_stiff_study_refines_the_step_with_the_grid(self, tmp_path, capsys, monkeypatch):
        # a = 2000: the damping bound sets the step, at 6, 3 and 2 steps per h0 on N = 50, 100, 200
        plans = []
        real = harness.simulate

        def recorded(*args, **kwargs):
            traj = real(*args, **kwargs)
            plans.append(traj.plan)
            return traj

        monkeypatch.setattr(harness, "simulate", recorded)
        cfg = reference_config(damping={"a": 2000.0, "b": 1.0, "rho": 1.0}, horizon=0.5)
        code = main(["convergence", write_config(tmp_path, cfg)])
        out = capsys.readouterr().out
        manufactured = plans[:3]
        assert [plan.per_snapshot for plan in manufactured] == [6, 6, 6]
        assert [plan.dt for plan in manufactured] == [manufactured[0].dt / 2**i for i in range(3)]
        assert code == 0 and float(out.split("minimum observed order ")[1]) >= 1.8

    def test_needs_two_grids(self, tmp_path, capsys):
        code = main(["convergence", write_config(tmp_path, reference_config()), "--grid-n", "50"])
        assert code == 2

    def test_snapshot_budget_exits_without_traceback(self, tmp_path, capsys):
        # T = 5000 at N = 400 would keep hundreds of MB of snapshot integrals;
        # simulate refuses before allocating, and main reports it as a config failure
        cfg = reference_config(horizon=5000.0, manufactured={"amp": 1.0, "rate": 1.0, "mode": 1})
        code = main(["convergence", write_config(tmp_path, cfg), "--grid-n", "400,3200"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("mowave: ") and "snapshot integrals" in err
        assert err.count("\n") == 1


class TestSweep:
    def sweep_config(self, **kw):
        base = reference_config(horizon=1.0)
        cfg = {"base": base, "axes": {"mu": [0.0, 0.5]}}
        cfg.update(kw)
        return cfg

    def test_two_cell_sweep(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        code = main(
            ["sweep", write_config(tmp_path, self.sweep_config()), "--grid-n", "64",
             "--outdir", str(outdir)]
        )
        assert code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert [r["mu"] for r in rows] == ["0.0", "0.5"]
        assert all(r["exit"] == "0" for r in rows)
        assert (outdir / "cell_0000" / "energy.csv").is_file()
        assert (outdir / "cell_0001" / "energy.csv").is_file()

    def test_empty_axes_single_cell(self, tmp_path):
        outdir = tmp_path / "sweep"
        cfg = self.sweep_config(axes={})
        code = main(
            ["sweep", write_config(tmp_path, cfg), "--grid-n", "64", "--outdir", str(outdir)]
        )
        assert code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        cfg = self.sweep_config(axes={"gamma": [1.0]})
        code = main(["sweep", write_config(tmp_path, cfg), "--outdir", str(tmp_path / "s")])
        assert code == 2

    def test_mu_axis_requires_exponential_base(self, tmp_path, capsys):
        cfg = self.sweep_config()
        cfg["base"]["beta"] = {"variant": "constant", "c": 1.0}
        code = main(["sweep", write_config(tmp_path, cfg), "--outdir", str(tmp_path / "s")])
        assert code == 2
        assert not (tmp_path / "s").exists()  # a config error writes nothing

    def test_k_axis_requires_affine_or_saturating_base(self, tmp_path, capsys):
        cfg = self.sweep_config(axes={"k": [0.1]})
        cfg["base"]["alpha"] = {"variant": "constant"}
        code = main(["sweep", write_config(tmp_path, cfg), "--outdir", str(tmp_path / "s")])
        assert code == 2
        assert capsys.readouterr().err == (
            "mowave: sweep axis 'k' requires the base alpha to be affine or saturating\n"
        )
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "value, problem",
        [
            ([1.0], "expected a number, got [1.0]"),
            (None, "expected a number, got None"),
            ({"x": 1}, "expected a number, got {'x': 1}"),
            ("1,2", "expected a number, got '1,2'"),
            (math.nan, "must be finite, got nan"),
            (True, "expected a number, got True"),
            (math.inf, "must be finite, got inf"),
            (10**400, "must be finite, got inf"),
        ],
        ids=["list", "null", "object", "string", "nan", "true", "inf", "huge-int"],
    )
    def test_non_number_axis_value_rejected_before_any_cell(self, tmp_path, capsys, value, problem):
        cfg = self.sweep_config(axes={"rho": [1.0], "mu": [0.1, value]})
        outdir = tmp_path / "s"
        code = main(["sweep", write_config(tmp_path, cfg), "--grid-n", "20", "--outdir", str(outdir)])
        assert code == 2
        assert capsys.readouterr().err == f"mowave: sweep axis 'mu': {problem}\n"
        assert not outdir.exists()

    def test_axis_table_matches_the_registry(self):
        for axis, (section, field, variants) in harness._SWEEP_AXES.items():
            assert field == axis
            if section == "damping":
                assert variants is None
                continue
            having = [v for v, cls in mowave.FAMILIES[section].items() if field in cls._fields]
            assert list(variants) == having

    def test_empty_window_cell_recorded(self, tmp_path):
        outdir = tmp_path / "sweep"
        cfg = self.sweep_config(axes={"mu": [0.1, 2.0]})
        code = main(
            ["sweep", write_config(tmp_path, cfg), "--grid-n", "64", "--outdir", str(outdir)]
        )
        assert code == 0  # the sweep itself succeeds; the cell is flagged
        with open(outdir / "sweep.csv", newline="") as fh:
            rows = {r["mu"]: r for r in csv.DictReader(fh)}
        assert rows["0.1"]["exit"] == "0"
        assert rows["2.0"]["exit"] == "5"
        assert float(rows["2.0"]["lambda_lo"]) == pytest.approx(1.0)

    def test_parallel_matches_serial(self, tmp_path):
        cfg = self.sweep_config()
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        assert main(["sweep", write_config(tmp_path, cfg, "c1.json"), "--grid-n", "64",
                     "--outdir", str(out1)]) == 0
        assert main(["sweep", write_config(tmp_path, cfg, "c2.json"), "--grid-n", "64",
                     "--jobs", "2", "--outdir", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the sweep's fork runner by an in-process one; lists its worker counts."""
    sizes = []

    def in_process(fn, items, workers):
        sizes.append(workers)
        return [fn(item) for item in items]

    monkeypatch.setattr(harness, "_fork_map", in_process)
    return sizes


def outputs_of(outdir):
    """Bytes of sweep.csv and every cell file; manifests without wall_clock_s."""
    blobs = {}
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_clock_s")
            data = json.dumps(manifest, sort_keys=True).encode()
        blobs[str(path.relative_to(outdir))] = data
    return blobs


class TestBatchedSweep:
    def sweep_path(self, tmp_path):
        # k x rho x mu: four (alpha, rho) groups of two, each of one step (the
        # reaction bound sets it at rho = 3); beta0 = 7 with amplitude 10 makes
        # exactly the k = 0.2, rho = 3, mu = 6 cell blow up
        base = reference_config(
            alpha={"variant": "affine", "k": 0.2},
            beta={"variant": "exponential", "beta0": 7.0, "mu": 0.0},
            init={"variant": "sine", "m": 1, "amp_u0": 10.0, "amp_u1": 0.0},
            horizon=1.0,
        )
        cfg = {"base": base, "axes": {"k": [0.2, 0.5], "rho": [1.0, 3.0], "mu": [0.0, 6.0]}}
        return write_config(tmp_path, cfg, "sweep.json")

    def run(self, tmp_path, jobs, name):
        outdir = tmp_path / name
        code = main(
            ["sweep", self.sweep_path(tmp_path), "--jobs", str(jobs), "--grid-n", "32",
             "--sample-every", "5", "--outdir", str(outdir)]
        )
        assert code == 0
        return outdir

    def test_outputs_byte_identical_across_jobs(self, tmp_path, capsys):
        serial = self.run(tmp_path, 1, "jobs1")
        with open(serial / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["k"], r["rho"], r["mu"]) for r in rows if r["exit"] == "3"] == [("0.2", "3.0", "6.0")]
        # its batch neighbour (same k and rho) finishes
        assert [r["exit"] for r in rows if (r["k"], r["rho"]) == ("0.2", "3.0")] == ["0", "3"]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("mowave: cell_0003: numerical instability: the discrete solution left the finite range at t=")
        assert err.endswith("was set by the reaction bound from the data at t = 0: lower --cfl below 0.3125\n")
        expected = outputs_of(serial)
        assert len(expected) == 1 + 7 * 4
        for jobs in (2, 3):
            assert outputs_of(self.run(tmp_path, jobs, f"jobs{jobs}")) == expected

    def test_batch_size_does_not_change_outputs(self, tmp_path, pool_sizes):
        whole = outputs_of(self.run(tmp_path, 1, "whole_groups"))
        assert pool_sizes == []  # one job: no pool
        # ceil(8 / 5000) = 1 row per batch: eight batches of one, eight workers
        assert outputs_of(self.run(tmp_path, 5000, "single_rows")) == whole
        assert pool_sizes == [8]

    def test_worker_exception_raised_in_the_parent_with_its_type(self, tmp_path, monkeypatch):
        # the patched run_simulation reaches the workers through fork
        def broken(*args, **kwargs):
            return 1 / 0

        monkeypatch.setattr(harness, "run_simulation", broken)
        with pytest.raises(ZeroDivisionError) as info:
            self.run(tmp_path, 2, "jobs2")
        assert any(note.startswith("in a sweep worker:\nTraceback") for note in info.value.__notes__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_worker_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        # batches of cells [0, 2], [1, 3], [4, 6], [5, 7]: worker 1 of 2 gets the second
        # and the fourth, and ends itself by SIGKILL on the second
        real = harness._sweep_batch

        def killed_on_cell_1(cells, *args, **kwargs):
            if cells[0]["index"] == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(cells, *args, **kwargs)

        monkeypatch.setattr(harness, "_sweep_batch", killed_on_cell_1)
        outdir = tmp_path / "killed"
        code = main(["sweep", self.sweep_path(tmp_path), "--jobs", "2", "--grid-n", "32",
                     "--sample-every", "5", "--outdir", str(outdir)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "mowave: sweep worker 1 of 2 was ended by signal SIGKILL; no sweep.csv written\n"
        assert not (outdir / "sweep.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def sweep_in_two(self, tmp_path, capsys):
        """main's exit code and stderr for the sweep at --jobs 2, which must write nothing on
        stdout, no sweep.csv and leave no child."""
        outdir = tmp_path / "jobs2"
        code = main(["sweep", self.sweep_path(tmp_path), "--jobs", "2", "--grid-n", "32",
                     "--sample-every", "5", "--outdir", str(outdir)])
        out, err = capsys.readouterr()
        assert out == ""
        assert not (outdir / "sweep.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, err

    def test_worker_that_exits_without_its_rows_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "_sweep_batch", lambda *args, **kwargs: os._exit(3))
        assert self.sweep_in_two(tmp_path, capsys) == (
            2, "mowave: sweep worker 0 of 2 exited 3 without its rows; no sweep.csv written\n"
        )

    def test_fork_that_fails_after_the_first_child_kills_and_reaps_it(self, tmp_path, monkeypatch, capsys):
        real_fork, real_kill = os.fork, os.kill
        forked, killed = [], []

        def fork_once():
            if forked:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            pid = real_fork()
            forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork_once)
        monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append((pid, sig)) or real_kill(pid, sig))
        fds = len(os.listdir("/dev/fd"))
        code, err = self.sweep_in_two(tmp_path, capsys)
        assert (code, err) == (2, f"mowave: [Errno {errno.EAGAIN}] Resource temporarily unavailable\n")
        assert killed == [(forked[0], signal.SIGKILL)]
        assert len(os.listdir("/dev/fd")) == fds

    def test_no_child_left_after_a_parallel_sweep(self, tmp_path):
        self.run(tmp_path, 2, "jobs2")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_batches_run_in_process(self, tmp_path, monkeypatch):
        serial = outputs_of(self.run(tmp_path, 1, "jobs1"))
        monkeypatch.delattr(os, "fork")
        assert outputs_of(self.run(tmp_path, 2, "jobs2")) == serial

    def test_batches_respect_the_memory_cap(self, tmp_path, monkeypatch):
        whole = outputs_of(self.run(tmp_path, 1, "whole_groups"))
        sizes = []

        def recorded(specs, *args):
            sizes.append(len(specs))
            return simulate_batch(specs, *args)

        simulate_batch = harness.simulate_batch
        monkeypatch.setattr(harness, "simulate_batch", recorded)
        spec = mowave.spec_from_dict(json.loads(Path(self.sweep_path(tmp_path)).read_text())["base"])
        plan = mowave.solver.step_plan(spec, mowave.Grid(32), 5, 1.0)  # the sweep's flags
        # what one row counts on Grid(32) and what a second adds; the rows differ in mu and rho, not in a or b
        nsnap = 1 + math.ceil(plan.steps / plan.per_snapshot)
        per_row = 8 * (144 * 33 + 7 * 31 + 65 + nsnap * 10) + 2**13
        once = 8 * (6 * 65 * 31 + 5 * 64 * 33 + 2 * 33 + 3 * 31) + 2**18
        monkeypatch.setattr("mowave.solver.MEMORY_CAP_BYTES", once + 2 * per_row - 1)  # one row per batch
        assert outputs_of(self.run(tmp_path, 1, "capped")) == whole
        assert sizes == [1] * 8

    def test_batches_count_their_stage_table_rows(self, tmp_path, monkeypatch):
        # rows that differ in a get a weight row each of the stage table: three
        # such rows would fit the cap with one weight row, but not with their own
        cfg = {"base": reference_config(horizon=0.5), "axes": {"a": [1.0, 1.5, 2.0, 2.5]}}
        path = write_config(tmp_path, cfg, "sweep_a.json")

        def run(name):
            outdir = tmp_path / name
            assert main(["sweep", path, "--grid-n", "16", "--outdir", str(outdir)]) == 0
            return outputs_of(outdir)

        whole = run("whole")
        sizes = []
        real = harness.simulate_batch
        monkeypatch.setattr(harness, "simulate_batch", lambda specs, *a: sizes.append(len(specs)) or real(specs, *a))
        spec = mowave.spec_from_dict(cfg["base"])
        plan = mowave.solver.step_plan(spec, mowave.Grid(16), 10, 1.0)  # the sweep's default flags
        kept = 8 * (144 * 17 + 7 * 15 + 65 + (1 + math.ceil(plan.steps / plan.per_snapshot)) * 10) + 2**13
        table = 6 * (2 * mowave.solver._BLOCK + 1) * 15 * 8
        once = 8 * (5 * 64 * 17 + 2 * 17 + 3 * 15) + 2**18
        monkeypatch.setattr("mowave.solver.MEMORY_CAP_BYTES", once + 2 * (kept + table) - 1)
        assert once + 3 * kept + table <= mowave.solver.MEMORY_CAP_BYTES  # three rows with one weight row fit
        assert run("capped") == whole
        assert sizes == [1] * 4

    def test_inadmissible_cell_fails_alone(self, tmp_path, capsys):
        cfg = {"base": reference_config(horizon=0.5), "axes": {"a": [1.0, -1.0, 2.0]}}
        outdir = tmp_path / "sweep"
        code = main(["sweep", write_config(tmp_path, cfg), "--grid-n", "32", "--outdir", str(outdir)])
        assert code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            assert [r["exit"] for r in csv.DictReader(fh)] == ["0", "2", "0"]
        assert "assumption checks failed" in capsys.readouterr().err
        assert list((outdir / "cell_0001").iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_beta_beyond_doubles_fails_its_cell_alone(self, tmp_path, capsys, jobs):
        # mu = 60 blows up, in the batch of mu = 0.1 at --jobs 1 and in a worker of its own at
        # --jobs 2; mu = 1000 is refused before any batch
        base = reference_config(horizon=1.0)
        cfg = {"base": base, "axes": {"mu": [0.1, 60.0, 1000.0]}}
        outdir = tmp_path / "sweep"
        code = main(
            ["sweep", write_config(tmp_path, cfg), "--grid-n", "16", "--jobs", jobs,
             "--outdir", str(outdir)]
        )
        assert code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            assert [r["exit"] for r in csv.DictReader(fh)] == ["0", "3", "2"]
        assert list((outdir / "cell_0001").iterdir()) == []
        code, solo = run_simulate(tmp_path, reference_config(horizon=1.0), "--grid-n", "16", outname="solo")
        assert code == 0
        assert outputs_of(solo) == outputs_of(outdir / "cell_0000")
        err = capsys.readouterr().err  # the parent prints every cell's lines, in cell order
        assert "mowave: cell_0002: assumption checks failed:\n" in err and "[FAIL] beta(T)" in err
        blown = "mowave: cell_0001: numerical instability: the discrete solution left the finite range at t="
        assert err.index(blown) < err.index("[FAIL] beta(T)")

    def test_cells_batch_by_their_step(self, tmp_path, monkeypatch):
        sizes = []
        real = harness.simulate_batch
        monkeypatch.setattr(harness, "simulate_batch", lambda specs, *a: sizes.append(len(specs)) or real(specs, *a))
        axes = (1.0, 600.0, 2.0)  # a = 600 takes the damping bound's step
        cfg = {"base": reference_config(horizon=0.5), "axes": {"a": list(axes)}}
        outdir = tmp_path / "sweep"
        assert main(["sweep", write_config(tmp_path, cfg), "--grid-n", "100", "--outdir", str(outdir)]) == 0
        assert sizes == [2, 1]
        monkeypatch.setattr(harness, "simulate_batch", real)
        for idx, a in enumerate(axes):
            cell = reference_config(horizon=0.5, damping={"a": a, "b": 1.0, "rho": 1.0})
            code, solo = run_simulate(tmp_path, cell, outname=f"solo{idx}")
            assert code == 0
            assert outputs_of(solo) == outputs_of(outdir / f"cell_{idx:04d}")

    def test_certificate_overflow_cell_says_why(self, tmp_path, capsys):
        # rho = 1 blows up; at rho = 2 the run is finite but lambda_lo overflows
        base = reference_config(
            beta={"variant": "polynomial", "coeffs": [1.0, 0.0, 1e300]},
            init={"variant": "sine", "m": 1, "amp_u0": 1e-200, "amp_u1": 0.0},
            horizon=0.5,
        )
        cfg = {"base": base, "axes": {"rho": [1.0, 2.0]}}
        outdir = tmp_path / "sweep"
        code = main(
            ["sweep", write_config(tmp_path, cfg), "--grid-n", "32", "--jobs", "1", "--outdir", str(outdir)]
        )
        assert code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            assert [r["exit"] for r in csv.DictReader(fh)] == ["3", "2"]
        assert capsys.readouterr().err == (
            "mowave: cell_0000: numerical instability: the discrete solution left the finite range at t=0.0416667, "
            "although the energy identity bounds the exact energy there by E(0) beta(t)/beta(0) = 1.73611e+297 E(0); "
            "the step dt = 0.0208333 was set by the wave bound from the data at t = 0: lower --cfl below 1\n"
            "mowave: cell_0001: certificate: beta'' beta - beta'^2 of the polynomial beta overflows a double "
            "on [0, T], so lambda_lo cannot be computed; scale the coefficients down\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_certificate_bound_overflow_fails_its_cells_not_the_sweep(self, tmp_path, capsys, jobs):
        cfg = {"base": BOUND_OVERFLOW, "axes": {"a": [1.0, 2.0]}}
        outdir = tmp_path / "sweep"
        code = main(["sweep", write_config(tmp_path, cfg), "--grid-n", "32", "--jobs", jobs, "--outdir", str(outdir)])
        assert code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            assert [r["exit"] for r in csv.DictReader(fh)] == ["2", "2"]
        assert [list(cell.iterdir()) for cell in sorted(outdir.glob("cell_*"))] == [[], []]
        if jobs == "1":  # a forked worker's stderr is not captured here
            err = capsys.readouterr().err
            assert err.count("\n") == 2 and err.count("certificate bound C E(0) exp(-lambda t)") == 2

    @pytest.mark.parametrize(
        "flag, value", [("--sample-every", "0"), ("--grid-n", "4"), ("--cfl", "-1")]
    )
    def test_run_wide_flags_checked_once(self, tmp_path, capsys, flag, value):
        code = main(["sweep", self.sweep_path(tmp_path), flag, value, "--outdir", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert not (tmp_path / "s").exists()

    def test_refused_cells_leave_every_worker_its_batch(self, tmp_path, monkeypatch, capsys):
        # the four a = 1e308 cells are refused before any batch, so the two
        # solvable cells make two batches of one, one per worker
        cfg = {"base": reference_config(horizon=1.0), "axes": {"a": [1.0, 2.0] + [1e308] * 4}}
        path = write_config(tmp_path, cfg, "refused.json")
        assert main(["sweep", path, "--grid-n", "16", "--outdir", str(tmp_path / "jobs1")]) == 0
        forks = []
        real = harness._fork_map

        def spied(fn, items, workers):
            forks.append((workers, [len(batch) for batch in items]))
            return real(fn, items, workers)

        monkeypatch.setattr(harness, "_fork_map", spied)
        assert main(["sweep", path, "--jobs", "2", "--grid-n", "16", "--outdir", str(tmp_path / "jobs2")]) == 0
        assert forks == [(2, [1, 1])]
        assert outputs_of(tmp_path / "jobs2") == outputs_of(tmp_path / "jobs1")
        with open(tmp_path / "jobs2" / "sweep.csv", newline="") as fh:
            assert [r["exit"] for r in csv.DictReader(fh)] == ["0", "0", "2", "2", "2", "2"]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        code = main(["sweep", self.sweep_path(tmp_path), "--jobs", jobs, "--outdir", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--jobs" in err
        assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "where, problem",
    [("file", "File exists"), ("file/sub", "Not a directory")],
    ids=["existing-file", "under-a-file"],
)
def test_unusable_outdir_exits_2_in_one_line(tmp_path, capsys, command, where, problem):
    (tmp_path / "file").write_text("not a directory\n")
    cfg = reference_config(horizon=0.5)
    if command == "sweep":
        cfg = {"base": cfg, "axes": {"mu": [0.1]}}
    code = main([command, write_config(tmp_path, cfg), "--grid-n", "16", "--outdir", str(tmp_path / where)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mowave: ") and captured.err.count("\n") == 1
    assert problem in captured.err and str(tmp_path / where) in captured.err
    assert (tmp_path / "file").read_text() == "not a directory\n"


def test_window_edges_computed_once_per_run_and_certify(tmp_path, monkeypatch, capsys):
    certify = sys.modules["mowave.certify"]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = certify.window_edges
    monkeypatch.setattr(certify, "window_edges", counted)
    monkeypatch.setattr(harness, "window_edges", counted)
    spec = mowave.spec_from_dict(reference_config(horizon=0.5))
    assert run_simulation(mowave.simulate(spec, mowave.Grid(32), 10, 1.0), tmp_path / "run")[0] == 0
    assert len(calls) == 1
    for mu, code in ((0.1, 0), (2.0, 5)):  # a certificate, then an empty window
        calls.clear()
        cfg = reference_config(beta={"variant": "exponential", "beta0": 1.0, "mu": mu})
        assert main(["certify", write_config(tmp_path, cfg)]) == code
        assert len(calls) == 1


# the README base at T = 2 over a x b x mu: at --grid-n 32 --cfl 3 the 18 cells of mu 30 and 60 blow up
SWEEP_27 = {
    "base": reference_config(horizon=2.0),
    "axes": {"a": [0.5, 1.0, 2.0], "b": [0.5, 1.0, 4.0], "mu": [0.1, 30.0, 60.0]},
}


def test_sweep_stderr_is_each_cells_lines_in_cell_order_at_any_jobs(tmp_path, capsys):
    path = write_config(tmp_path, SWEEP_27, "sweep.json")
    errs = []
    for jobs in ("1", "2", "3"):
        outdir = str(tmp_path / f"jobs{jobs}")
        assert main(["sweep", path, "--grid-n", "32", "--cfl", "3", "--jobs", jobs, "--outdir", outdir]) == 0
        errs.append(capsys.readouterr().err)
    assert errs[1] == errs[0] and errs[2] == errs[0]
    solo = []
    for idx, (a, b, mu) in enumerate(itertools.product(*SWEEP_27["axes"].values())):
        cell = reference_config(
            horizon=2.0,
            damping={"a": a, "b": b, "rho": 1.0},
            beta={"variant": "exponential", "beta0": 1.0, "mu": mu},
        )
        cell_path = write_config(tmp_path, cell, "cell.json")
        code = main(["simulate", cell_path, "--grid-n", "32", "--cfl", "3", "--outdir", str(tmp_path / f"solo{idx}")])
        assert code == (0 if mu == 0.1 else 3)
        solo.append(capsys.readouterr().err.replace("mowave: ", f"mowave: cell_{idx:04d}: "))
    assert errs[0] == "".join(solo)
    assert len(re.findall(r"^mowave: cell_\d{4}: numerical instability", errs[0], re.M)) == errs[0].count("\n") == 18


def test_sweep_reports_refused_cells_in_cell_order(tmp_path, capsys):
    # cells 1 and 3 fail validation (b = -1); cells 2 and 3 have no step plan (a = 1e20), and
    # cell 3, which fails both, gets the assumption report, as simulate gives it
    cfg = {"base": reference_config(horizon=0.5), "axes": {"a": [1.0, 1e20], "b": [1.0, -1.0]}}
    outdir = tmp_path / "sweep"
    assert main(["sweep", write_config(tmp_path, cfg), "--grid-n", "16", "--outdir", str(outdir)]) == 0
    with open(outdir / "sweep.csv", newline="") as fh:
        assert [r["exit"] for r in csv.DictReader(fh)] == ["0", "2", "2", "2"]
    plan = (
        "damping a = 1e+20 is too stiff: dt = 2.5e-20 gives about 2e+19 steps to T, "
        "more than the 2**53 whose step times stay exact\n"
    )
    first, *lines = capsys.readouterr().err.split("mowave: ")
    assert first == "" and [line[:11] for line in lines] == ["cell_0001: ", "cell_0002: ", "cell_0003: "]
    assert lines[1][11:] == plan
    for invalid in (lines[0][11:], lines[2][11:]):
        assert invalid.startswith("assumption checks failed:\n") and "[FAIL] damping: b = -1 must be nonnegative\n" in invalid


def test_a_sweep_prints_its_workers_violated_bounds_in_cell_order(tmp_path, capsys, monkeypatch):
    # C = 0.5 < 1 fails every solved cell's bound at t = 0; at --jobs 2, cells 0 and 2 are
    # solved in two workers, and cell 1 fails validation in this process
    real = harness.build_certificate
    monkeypatch.setattr(harness, "build_certificate", lambda *a, **kw: real(*a, **kw)._replace(C=0.5))
    cfg = {"base": reference_config(horizon=0.5), "axes": {"a": [1.0, -1.0, 2.0]}}
    outdir = tmp_path / "sweep"
    assert main(["sweep", write_config(tmp_path, cfg), "--grid-n", "16", "--jobs", "2", "--outdir", str(outdir)]) == 0
    with open(outdir / "sweep.csv", newline="") as fh:
        assert [r["exit"] for r in csv.DictReader(fh)] == ["4", "2", "4"]
    violated = r"decay bound violated: worst margin \S+ first at t = 0\n"
    report = r"assumption checks failed:\n(\[\w+\] [^\n]*\n)+"
    lines = "mowave: cell_0000: " + violated + "mowave: cell_0001: " + report + "mowave: cell_0002: " + violated
    assert re.fullmatch(lines, capsys.readouterr().err)


def run_fresh(script: str) -> list[str]:
    """Run script in a fresh interpreter with this mowave; return its stdout lines."""
    src = str(Path(mowave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


def test_module_entry_point_prints_what_main_prints(tmp_path, capsys):
    path = write_config(tmp_path, reference_config(horizon=10.0))
    assert main(["certify", path]) == 0
    src = str(Path(mowave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "mowave", "certify", path], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")


@pytest.mark.parametrize("entry_point", ["python -m mowave", "console script"])
def test_a_process_entry_point_freezes_once_after_main_returns(tmp_path, monkeypatch, capsys, entry_point):
    # the objects are frozen so that the exit runs no cycle collection over them
    path = write_config(tmp_path, reference_config(horizon=10.0))
    events, real = [], harness.main

    def recorded_main(argv=None):
        events.append(("main", real(argv)))
        return events[-1][1]

    monkeypatch.setattr(harness, "main", recorded_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["mowave", "certify", path])
    if entry_point == "console script":
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        module, name = re.search(r'^mowave = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        code = getattr(importlib.import_module(module), name)()
    else:
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("mowave", run_name="__main__")
        code = exited.value.code
    assert (code, events) == (0, [("main", 0), "freeze"])
    assert '"branch": "standard"' in capsys.readouterr().out


def test_main_in_process_never_freezes(tmp_path, monkeypatch, capsys):
    # main may run again in its process (perfbench's screen, these tests); a --jobs 1 sweep forks nothing
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    path = write_config(tmp_path, reference_config(horizon=0.5))
    sweep = write_config(tmp_path, {"base": reference_config(horizon=0.5), "axes": {"mu": [0.1, 0.2]}}, "sweep.json")
    codes = [
        main(argv)
        for argv in (
            ["certify", path],
            ["simulate", path, "--grid-n", "16", "--outdir", str(tmp_path / "run")],
            ["convergence", path, "--grid-n", "16,32"],  # exits 6: N = 16 is too coarse for order 1.8
            ["sweep", sweep, "--grid-n", "16", "--outdir", str(tmp_path / "sweep")],
        )
    ]
    assert (codes, frozen) == ([0, 0, 6, 0], [])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep forks its workers")
def test_a_forked_sweep_in_process_leaves_nothing_frozen(tmp_path, monkeypatch, capsys):
    # its workers fork from frozen objects, which are unfrozen once they are reaped; a caller
    # that had frozen objects itself keeps them frozen
    sweep = write_config(tmp_path, {"base": reference_config(horizon=0.5), "axes": {"mu": [0.1, 0.2]}}, "sweep.json")
    frozen, real = [], gc.freeze
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(real()))
    argv = ["sweep", sweep, "--jobs", "2", "--grid-n", "16", "--outdir"]
    assert gc.get_freeze_count() == 0
    assert main([*argv, str(tmp_path / "unfrozen")]) == 0
    assert (len(frozen), gc.get_freeze_count()) == (1, 0)
    try:
        real()
        before = gc.get_freeze_count()
        assert main([*argv, str(tmp_path / "frozen")]) == 0
        assert len(frozen) == 2 and gc.get_freeze_count() >= before > 0
    finally:
        gc.unfreeze()


def test_a_run_whose_energy_and_bound_reach_zero_writes_nothing_on_stderr(tmp_path):
    # E is exactly 0 from t = 75.3 and the certificate curve C E(0) exp(-lambda t) underflows to 0
    # from t = 116.9, so the bound check meets 0/0
    cfg = reference_config(
        damping={"a": 10.0, "b": 100.0, "rho": 1.0},
        beta={"variant": "constant", "c": 1.0},
        alpha={"variant": "constant"},
        horizon=150.0,
    )
    sweep = write_config(tmp_path, {"base": cfg, "axes": {"a": [10.0]}}, "sweep.json")
    src = str(Path(mowave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for args in (["simulate", write_config(tmp_path, cfg)], ["sweep", sweep]):
        outdir = tmp_path / args[0]
        command = [sys.executable, "-m", "mowave", *args, "--grid-n", "16", "--outdir", str(outdir)]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), args[0]
    with open(tmp_path / "simulate" / "energy.csv") as fh:
        final = list(csv.DictReader(fh))[-1]
    assert (float(final["t"]), float(final["E"]), float(final["bound"])) == (150.0, 0.0, 0.0)
    with open(tmp_path / "sweep" / "sweep.csv") as fh:
        assert [row["bound_holds"] for row in csv.DictReader(fh)] == ["true"]


def test_cli_paths_do_not_import_sympy(tmp_path):
    poly = reference_config(beta={"variant": "polynomial", "coeffs": [1.0, 0.0, 0.5]})
    conv = reference_config(horizon=0.25, manufactured={"amp": 1.0, "rate": 1.0, "mode": 1})
    script = (
        "import sys\n"
        "from mowave.harness import main\n"
        f"main(['certify', {write_config(tmp_path, poly, 'poly.json')!r}])\n"
        f"main(['convergence', {write_config(tmp_path, conv, 'conv.json')!r}, '--grid-n', '16,32'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
    )
    assert run_fresh(script)[-1] == "[]"


def test_import_generates_no_dataclass_code():
    # the records are NamedTuples and model.Record subclasses; numpy does not import dataclasses either
    assert run_fresh("import sys, mowave; print('dataclasses' in sys.modules)")[-1] == "False"


def test_import_does_not_load_the_process_pool():
    script = "import sys, mowave.harness; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    assert run_fresh(script)[-1] == "[]"


def test_parallel_sweep_loads_no_process_pool(tmp_path):
    # the sweep's workers are forked directly, not through concurrent.futures
    cfg = {"base": reference_config(horizon=0.5), "axes": {"mu": [0.1, 0.2], "rho": [1.0, 2.0]}}
    script = (
        "import sys\n"
        "from mowave.harness import main\n"
        f"assert main(['sweep', {write_config(tmp_path, cfg)!r}, '--jobs', '2', '--grid-n', '16',"
        f" '--outdir', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('loaded', sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    assert run_fresh(script)[-1] == "loaded []"
    assert len(list((tmp_path / "out").glob("cell_*/manifest.json"))) == 4


def test_no_command_loads_hashlib(tmp_path):
    # hashlib maps OpenSSL's libcrypto; the manifest's digests come from the
    # interpreter's own SHA-256 module, so no command, hashing or not, loads it
    conv = reference_config(horizon=0.25, manufactured={"amp": 1.0, "rate": 1.0, "mode": 1})
    cfg = write_config(tmp_path, reference_config(horizon=0.5))
    manifest = str(tmp_path / "out" / "manifest.json")
    script = (
        "import sys\n"
        "from mowave.harness import main, verify_manifest\n"
        f"assert main(['certify', {cfg!r}]) == 0\n"
        f"main(['convergence', {write_config(tmp_path, conv, 'conv.json')!r}, '--grid-n', '16,32'])\n"
        f"assert main(['simulate', {cfg!r}, '--grid-n', '16', '--outdir', {str(tmp_path / 'out')!r}]) == 0\n"
        f"print(verify_manifest({manifest!r}))\n"
        "print('loaded', sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
    )
    assert run_fresh(script)[-2:] == ["[]", "loaded []"]


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 200_000])
def test_file_digest_is_hashlibs_sha256(tmp_path, size):
    # _sha256 reads 65,536-byte chunks: sizes on and around a chunk edge
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    assert harness._sha256(path) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "manifest, problems",
    [
        ([1, 2], ["manifest is not a JSON object with an 'outputs' object"]),
        ({"outputs": [1]}, ["manifest is not a JSON object with an 'outputs' object"]),
        (
            {"config": {}, "config_hash": harness.config_hash({}), "outputs": {"energy.csv": [1]}},
            ["energy.csv: entry is not a JSON object"],
        ),
    ],
)
def test_verify_manifest_reports_a_manifest_of_the_wrong_shape(tmp_path, manifest, problems):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert verify_manifest(path) == problems


@pytest.mark.parametrize(
    "edit, problem",
    [
        ("not-json", "cannot read manifest: "),
        ("config", "config_hash does not match the embedded config"),
        ("missing", "energy.csv: missing"),
        ("directory", "energy.csv: not a file"),
        ("bytes", "energy.csv: size mismatch"),
    ],
)
def test_verify_manifest_names_what_no_longer_matches(tmp_path, edit, problem):
    energy, path = tmp_path / "energy.csv", tmp_path / "manifest.json"
    energy.write_text("t,E\n0,1\n")
    harness.write_manifest(path, {"horizon": 1.0}, {}, [energy], {}, 0.0)
    assert verify_manifest(path) == []
    manifest = json.loads(path.read_text())
    if edit == "not-json":
        path.write_text("{not json")
    elif edit == "missing":
        energy.unlink()
    elif edit == "directory":  # reported, never opened
        energy.unlink()
        energy.mkdir()
    else:
        if edit == "config":
            manifest["config"]["horizon"] = 2.0
        else:  # the file's checksum still matches
            manifest["outputs"]["energy.csv"]["bytes"] += 1
        path.write_text(json.dumps(manifest))
    problems = verify_manifest(path)
    assert len(problems) == 1 and problems[0].startswith(problem)


@pytest.mark.parametrize("where", ["../outside.txt", "absolute", "sub/energy.csv", "..", "."])
def test_verify_manifest_rejects_an_output_outside_the_run_directory(tmp_path, where):
    run = tmp_path / "run"
    (run / "sub").mkdir(parents=True)
    outside = tmp_path / "outside.txt"
    outside.write_text("not an output of the run\n")
    (run / "sub" / "energy.csv").write_bytes(outside.read_bytes())
    name = str(outside) if where == "absolute" else where
    entry = {"sha256": harness._sha256(outside), "bytes": outside.stat().st_size}
    manifest = {"config": {}, "config_hash": harness.config_hash({}), "outputs": {name: entry}}
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert verify_manifest(run / "manifest.json") == [f"{name}: not a file of the run directory"]


@pytest.mark.parametrize("target", ["../outside.txt", "copy.csv", "gone.csv"])
def test_verify_manifest_reports_a_symlinked_output_and_never_reads_it(tmp_path, monkeypatch, target):
    # a link whose target matches the manifest entry, outside the run directory or inside it, or a dangling one
    run = tmp_path / "run"
    run.mkdir()
    outside = tmp_path / "outside.txt"
    outside.write_text("not an output of the run\n")
    (run / "copy.csv").write_bytes(outside.read_bytes())
    (run / "energy.csv").symlink_to(target)
    entry = {"sha256": harness._sha256(outside), "bytes": outside.stat().st_size}
    manifest = {"config": {}, "config_hash": harness.config_hash({}), "outputs": {"energy.csv": entry}}
    (run / "manifest.json").write_text(json.dumps(manifest))
    read = []
    monkeypatch.setattr(harness, "_sha256", read.append)
    assert verify_manifest(run / "manifest.json") == ["energy.csv: not a file"]
    assert read == []


@pytest.mark.parametrize(
    "extra, cfg",
    [
        (["--cfl", "-1"], {}),
        (["--cfl", "5e-324"], {}),
        ([], {"damping": {"a": -1.0, "b": 1.0, "rho": 1.0}}),
        (["--grid-n", "64", "--cfl", "10.0"], {"horizon": 1.0}),
        (["--grid-n", "64", "--cfl", "10.0", "--trajectory"], {"horizon": 1.0}),
        (["--grid-n", "16", "--trajectory"], {"horizon": 0.05}),
    ],
    ids=["cfl-negative", "cfl-step-underflows", "inadmissible", "blow-up", "blow-up-trajectory", "too-few-snapshots-trajectory"],
)
def test_rejected_simulate_leaves_no_outdir(tmp_path, capsys, extra, cfg):
    outdir = tmp_path / "new" / "out"
    code = main(["simulate", write_config(tmp_path, reference_config(**cfg)), *extra, "--outdir", str(outdir)])
    assert code in (2, 3) and capsys.readouterr().out == ""
    assert not (tmp_path / "new").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # nor a temporary trajectory file


def test_blown_up_trajectory_run_leaves_an_existing_outdir_as_it_was(tmp_path, capsys):
    # the simulate-blowup-cfl case with --trajectory: its temporary file, made in outdir, is removed
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "keep.txt").write_text("kept\n")
    cfg_path = write_config(tmp_path, reference_config(horizon=1.0))
    code = main(["simulate", cfg_path, "--grid-n", "64", "--cfl", "10.0", "--trajectory", "--outdir", str(outdir)])
    assert code == 3 and "numerical instability" in capsys.readouterr().err
    assert [p.name for p in outdir.iterdir()] == ["keep.txt"]


def test_run_simulation_returns_the_manifest_checks_from_one_pass(tmp_path, monkeypatch):
    passes = []

    class Counted(mowave.energy.IntegralPass):
        def __init__(self, *args):
            passes.append(args)
            super().__init__(*args)

    monkeypatch.setattr(mowave.energy, "IntegralPass", Counted)
    spec = mowave.spec_from_dict(reference_config(horizon=0.5))
    traj = mowave.simulate(spec, mowave.Grid(32), 10, 1.0)
    code, checks = run_simulation(traj, tmp_path / "run", paper_literal=True)
    assert code == 0 and len(passes) == 1
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["checks"] == checks


@pytest.fixture
def plan_calls(monkeypatch):
    """Counts calls of solver.step_plan, looked up in the solver or in the harness."""
    calls = []
    real = mowave.solver.step_plan

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (mowave.solver, harness):
        monkeypatch.setattr(module, "step_plan", counted)
    return calls


def test_a_run_makes_one_step_plan(tmp_path, plan_calls):
    # simulate makes it; run_simulation plans nothing and writes that plan, with its flags, as the grid record
    spec = mowave.spec_from_dict(reference_config(horizon=10.0))
    traj = mowave.simulate(spec, mowave.Grid(32), 5, 0.5)
    code, _ = run_simulation(traj, tmp_path / "run")
    assert code == 0 and len(plan_calls) == 1
    grid = json.loads((tmp_path / "run" / "manifest.json").read_text())["grid"]
    assert (grid["n"], grid["cfl"], grid["sample_every"]) == (32, 0.5, 5)
    assert (grid["dt"], grid["steps"], grid["steps_per_snapshot"]) == traj.plan[:3]
    assert grid["rhs_evals"] == 4 * grid["steps"]
    assert grid["snapshots"] == 1 + math.ceil(grid["steps"] / grid["steps_per_snapshot"])


@pytest.mark.parametrize(
    "flags", [(), ("--grid-n", "64", "--cfl", "0.7", "--sample-every", "7")], ids=["defaults", "flags"]
)
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweep_cell_and_simulate_write_the_same_files(tmp_path, capsys, flags, jobs):
    # one pipeline: each cell of the README config (one cell at --jobs 1, one in each of two workers
    # at --jobs 2) gives simulate's files byte for byte, and its manifest apart from wall_clock_s
    cfg = reference_config(horizon=10.0)
    assert main(["simulate", write_config(tmp_path, cfg), *flags, "--outdir", str(tmp_path / "solo")]) == 0
    sweep = write_config(tmp_path, {"base": cfg, "axes": {"mu": [0.1] * jobs}}, "sweep.json")
    assert main(["sweep", sweep, *flags, "--jobs", str(jobs), "--outdir", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr().err == ""
    solo = outputs_of(tmp_path / "solo")
    assert sorted(solo) == ["decay.svg", "energy.csv", "identity.csv", "manifest.json"]
    for idx in range(jobs):
        assert outputs_of(tmp_path / "sweep" / f"cell_{idx:04d}") == solo


def test_a_sweep_plans_and_validates_each_cell_once(tmp_path, plan_calls, monkeypatch):
    # one plan for the flags, which does not validate, and one per cell, which validates first (a = 1e20
    # too, which then has no plan); the batch solve neither plans nor validates
    validated = []
    real = mowave.model.validate_assumptions
    for module in (mowave.solver, harness):
        monkeypatch.setattr(module, "validate_assumptions", lambda spec: validated.append(spec) or real(spec))
    cfg = {"base": reference_config(horizon=0.5), "axes": {"a": [1.0, 1e20], "mu": [0.1, 1.0], "rho": [1.0, 2.0]}}
    outdir = tmp_path / "sweep"
    assert main(["sweep", write_config(tmp_path, cfg), "--grid-n", "32", "--outdir", str(outdir)]) == 0
    assert len(plan_calls) == 1 + 8
    assert [spec.damping.a for spec in validated] == [1.0] * 4 + [1e20] * 4


def test_sweep_rejects_a_too_small_cfl_before_any_cell(tmp_path, capsys):
    cfg = {"base": reference_config(horizon=0.5), "axes": {"mu": [0.0, 0.1]}}
    outdir = tmp_path / "s"
    for cfl in ("1e-320", "5e-324"):
        assert main(["sweep", write_config(tmp_path, cfg), "--cfl", cfl, "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err.startswith(f"mowave: cfl {cfl} is too small")
        assert not outdir.exists()


def test_sweep_refuses_a_base_table_past_the_cap_before_any_cell(tmp_path, capsys):
    # the README base at T = 7000 would keep about 336 MB of snapshot integrals at --sample-every 1
    cfg = {"base": reference_config(horizon=7000.0), "axes": {"mu": [0.1, 0.2]}}
    outdir = tmp_path / "s"
    assert main(["sweep", write_config(tmp_path, cfg), "--sample-every", "1", "--outdir", str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("mowave: run would keep about ") and err.count("\n") == 1
    assert not outdir.exists()


@pytest.mark.parametrize(
    "cfg, axes, failed",
    [
        (  # rate^2 of rate = 1e300 overflows whatever the step: refused before any source is made
            reference_config(
                beta={"variant": "constant", "c": 1.0},
                alpha={"variant": "constant"},
                horizon=0.1,
                manufactured={"amp": 1.0, "rate": 1e300, "mode": 1},
            ),
            {"a": [1.0]},
            "[FAIL] source: rate = 1e+300: rate^2, rate (rate - a) + b or 2 rate - a overflows a double\n",
        ),
        (  # b = -1 fails validation and a = 1e20 has no step plan: each command validates first
            reference_config(horizon=0.5, damping={"a": 1e20, "b": -1.0, "rho": 1.0}),
            {"b": [-1.0]},
            "[FAIL] damping: b = -1 must be nonnegative\n",
        ),
    ],
    ids=["manufactured-rate-overflows", "fails-validation-and-plan"],
)
def test_an_inadmissible_input_gets_the_same_report_from_every_command(tmp_path, capsys, cfg, axes, failed):
    # certify, simulate and convergence exit 2 and the one sweep cell records exit 2, each with
    # the one assumption report (the sweep's after its cell's name)
    path = write_config(tmp_path, cfg)
    sweep = write_config(tmp_path, {"base": cfg, "axes": axes}, "sweep.json")
    commands = [
        (["certify", path], 2),
        (["simulate", path, "--grid-n", "8", "--cfl", "0.3", "--outdir", str(tmp_path / "run")], 2),
        (["convergence", path, "--grid-n", "8,16", "--cfl", "0.3"], 2),
        (["sweep", sweep, "--grid-n", "8", "--cfl", "0.3", "--outdir", str(tmp_path / "sweep")], 0),
    ]
    reports = []
    for argv, exit_code in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == exit_code, argv
        err = capsys.readouterr().err
        prefix = "mowave: cell_0000: " if argv[0] == "sweep" else "mowave: "
        assert err.startswith(prefix + "assumption checks failed:\n") and err.count("mowave: ") == 1, argv
        assert failed in err, argv
        reports.append(err.removeprefix(prefix))
    assert reports == [reports[0]] * len(commands)
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
        assert [r["exit"] for r in csv.DictReader(fh)] == ["2"]

def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert namespace["code"] == 0 and manifest["checks"] == namespace["checks"]


def test_the_parser_is_built_once_per_process():
    assert harness.build_parser() is harness.build_parser()


def test_repeated_main_calls_build_one_parser_tree(tmp_path, monkeypatch, capsys):
    built = []
    original = harness.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(harness.argparse.ArgumentParser, "__init__", counted)
    harness.build_parser.cache_clear()
    harness.build_parser()
    one_tree = list(built)
    assert one_tree.count("mowave") == 1 and len(one_tree) > 1  # the root and its subcommands
    built.clear()
    harness.build_parser.cache_clear()
    cfg_path = write_config(tmp_path, reference_config())
    for _ in range(5):
        assert main(["certify", cfg_path]) == 0
    assert built == one_tree


def test_main_calls_in_one_process_are_independent(tmp_path, capsys):
    harness.build_parser.cache_clear()  # this sequence starts from a fresh parser
    cfg_path = write_config(tmp_path, reference_config(horizon=0.5))
    assert main(["certify", cfg_path]) == 0
    first = capsys.readouterr().out
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["simulate", cfg_path, "--grid-n", "16", "--trajectory", "--outdir", str(d1)]) == 0
    assert (d1 / "trajectory.csv").is_file()
    with pytest.raises(SystemExit) as rejected:
        main(["simulate", cfg_path, "--no-such-flag"])
    assert rejected.value.code == 2
    assert main(["simulate", cfg_path, "--grid-n", "16", "--outdir", str(d2)]) == 0
    assert (d2 / "energy.csv").is_file() and not (d2 / "trajectory.csv").exists()
    capsys.readouterr()
    assert main(["certify", cfg_path]) == 0
    assert capsys.readouterr().out == first
