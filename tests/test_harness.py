"""End-to-end CLI behavior: exit codes, outputs, manifests, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mowave
from mowave import verify_manifest
from mowave.harness import main


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
            header = next(csv.reader(fh))
        assert header == ["t", "y", "v", "w"]

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
        assert "blew up" in capsys.readouterr().err

    def test_manifest_contents(self, tmp_path):
        _, outdir = run_simulate(tmp_path, reference_config())
        blob = json.loads((outdir / "manifest.json").read_text())
        assert set(blob) >= {"config_hash", "config", "grid", "outputs", "checks", "wall_clock_s"}
        assert blob["grid"]["n"] == 100
        assert "energy.csv" in blob["outputs"]
        checks = blob["checks"]
        assert checks["bound_holds"] is True
        assert checks["lambda_lo"] == pytest.approx(0.05)


class TestCertify:
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

    def test_remark1_branch(self, tmp_path, capsys):
        cfg = reference_config(
            damping={"a": 1.0, "b": 0.0, "rho": 1.0},
            beta={"variant": "constant", "c": 1.0},
            alpha={"variant": "constant"},
        )
        code = main(["certify", write_config(tmp_path, cfg)])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["branch"] == "remark1"
        assert blob["lambda_hi"] == pytest.approx(0.25, abs=2e-6)


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

    def test_needs_two_grids(self, tmp_path, capsys):
        code = main(["convergence", write_config(tmp_path, reference_config()), "--grid-n", "50"])
        assert code == 2

    def test_snapshot_budget_exits_without_traceback(self, tmp_path, capsys):
        # T = 50 at N = 400 would store hundreds of MB of snapshots; simulate
        # refuses before allocating, and main reports it as a config failure
        cfg = reference_config(horizon=50.0, manufactured={"amp": 1.0, "rate": 1.0, "mode": 1})
        code = main(["convergence", write_config(tmp_path, cfg), "--grid-n", "400,3200"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("mowave: ") and "snapshots" in err
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
    src = str(Path(mowave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stdout.splitlines()[-1] == "[]", done.stdout + done.stderr
