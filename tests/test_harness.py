"""End-to-end CLI behavior: exit codes, outputs, manifests, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mowave
from mowave import verify_manifest
from mowave.harness import main, run_simulation

harness = sys.modules["mowave.harness"]


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

    def test_manifest_records_solver_counters(self, tmp_path):
        _, out1 = run_simulate(tmp_path, reference_config(), outname="run1")
        _, out2 = run_simulate(tmp_path, reference_config(), outname="run2")
        blobs = [json.loads((out / "manifest.json").read_text()) for out in (out1, out2)]
        grid = blobs[0]["grid"]
        assert grid["steps"] == math.ceil(4.0 / grid["dt"] - 1e-12) == 1200  # T = 4, dt = 1/300
        assert grid["rhs_evals"] == 4 * grid["steps"]
        for blob in blobs:
            blob.pop("wall_clock_s")
        assert blobs[0] == blobs[1]  # the counters repeat, like every other field
        assert verify_manifest(out1 / "manifest.json") == []

    def test_infinite_energy_exits_2_without_outputs(self, tmp_path, capsys):
        # the solution stays finite, but u_t^2 of amp 1e300 overflows the energy
        cfg = reference_config(
            damping={"a": 1.0, "b": 1.0, "rho": 0.01},
            init={"variant": "sine", "m": 1, "amp_u0": 0.0, "amp_u1": 1e300},
            horizon=0.5,
        )
        outdir = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", write_config(tmp_path, cfg), "--grid-n", "16", "--outdir", str(outdir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mowave: ") and err.count("\n") == 1
        assert "energy overflows a double, first at t = 0," in err
        assert list(outdir.iterdir()) == []


class TestCertify:
    @pytest.mark.parametrize(
        "overrides, words",
        [
            ({"damping": {"a": 1e300, "b": 1.0, "rho": 1.0}}, "a = 1e+300"),
            ({"beta": {"variant": "polynomial", "coeffs": [1.0, 0.0, 1e300]}}, "polynomial beta"),
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
            having = [v for v, cls in mowave.FAMILIES[section].items() if field in cls.__dataclass_fields__]
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
    """Replaces the sweep's process pool by an in-process one; lists its sizes."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
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
        # k x rho x mu: four (alpha, rho) groups of two; beta0 = 7 with
        # amplitude 10 makes exactly the k = 0.2, rho = 3, mu = 4 cell blow up
        base = reference_config(
            alpha={"variant": "affine", "k": 0.2},
            beta={"variant": "exponential", "beta0": 7.0, "mu": 0.0},
            init={"variant": "sine", "m": 1, "amp_u0": 10.0, "amp_u1": 0.0},
            horizon=1.0,
        )
        cfg = {"base": base, "axes": {"k": [0.2, 0.5], "rho": [1.0, 3.0], "mu": [0.0, 4.0]}}
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
        assert [(r["k"], r["rho"], r["mu"]) for r in rows if r["exit"] == "3"] == [("0.2", "3.0", "4.0")]
        # its batch neighbour (same k and rho) finishes
        assert [r["exit"] for r in rows if (r["k"], r["rho"]) == ("0.2", "3.0")] == ["0", "3"]
        assert "blew up" in capsys.readouterr().err
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

    def test_batches_respect_the_snapshot_cap(self, tmp_path, monkeypatch):
        whole = outputs_of(self.run(tmp_path, 1, "whole_groups"))
        sizes = []

        def recorded(specs, *args):
            sizes.append(len(specs))
            return simulate_batch(specs, *args)

        simulate_batch = harness.simulate_batch
        monkeypatch.setattr(harness, "simulate_batch", recorded)
        spec = mowave.spec_from_dict(json.loads(Path(self.sweep_path(tmp_path)).read_text())["base"])
        per_row = mowave.solver.snapshot_bytes(spec, mowave.Grid(32), 5)
        monkeypatch.setattr(harness, "SNAPSHOT_CAP_BYTES", 2 * per_row - 1)  # one row per batch
        assert outputs_of(self.run(tmp_path, 1, "capped")) == whole
        assert sizes == [1] * 8

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
        base = reference_config(horizon=1.0)
        cfg = {"base": base, "axes": {"mu": [0.1, 1000.0]}}
        outdir = tmp_path / "sweep"
        code = main(
            ["sweep", write_config(tmp_path, cfg), "--grid-n", "16", "--jobs", jobs,
             "--outdir", str(outdir)]
        )
        assert code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            assert [r["exit"] for r in csv.DictReader(fh)] == ["0", "2"]
        if jobs == "1":  # a pool worker's stderr is not captured here
            assert "[FAIL] beta(T)" in capsys.readouterr().err

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
            "mowave: solution blew up (non-finite values) at t=0.0208333\n"
            "mowave: certificate: beta'' beta - beta'^2 of the polynomial beta overflows a double "
            "on [0, T], so lambda_lo cannot be computed; scale the coefficients down\n"
        )

    @pytest.mark.parametrize(
        "flag, value", [("--sample-every", "0"), ("--grid-n", "4"), ("--cfl", "-1")]
    )
    def test_run_wide_flags_checked_once(self, tmp_path, capsys, flag, value):
        code = main(["sweep", self.sweep_path(tmp_path), flag, value, "--outdir", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert not (tmp_path / "s").exists()

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
    assert run_simulation(spec, tmp_path / "run", grid_n=32)[0] == 0
    assert len(calls) == 1
    for mu, code in ((0.1, 0), (2.0, 5)):  # a certificate, then an empty window
        calls.clear()
        cfg = reference_config(beta={"variant": "exponential", "beta0": 1.0, "mu": mu})
        assert main(["certify", write_config(tmp_path, cfg)]) == code
        assert len(calls) == 1


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


def test_import_does_not_load_the_process_pool():
    script = "import sys, mowave.harness; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    src = str(Path(mowave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "[]", done.stdout + done.stderr
