"""Command-line entry point: runs, certificates, sweeps, convergence studies.

Subcommands:

    mowave simulate CONFIG    one run; writes energy.csv, identity.csv,
                              decay.svg, manifest.json (and trajectory.csv
                              with --trajectory) into the output directory
    mowave certify CONFIG     prints the decay certificate as JSON
    mowave convergence CONFIG refinement studies; prints observed orders
    mowave sweep CONFIG       Cartesian parameter sweep; writes sweep.csv

Exit codes: 0 success, 2 validation or config failure (also an input that
overflows a double in the certificate, or in the energy of a finite run,
an output path that cannot be written, and a sweep worker that a signal
ends), 3 blow-up, 4 decay-bound
violation, 5 empty certificate window, 6 convergence order below 1.8.
Diagnostics go to standard error; results go to files and standard output.

A failure is raised, never reported where it happens. One translator,
_diagnosis, turns an error into its exit code and stderr message: a
ValidationError gives the assumption report, any other MowaveError or an
OSError its message; a BlowUpError exits 3, the others 2. main prints the
message of a command's error, and sweep those of its cells, each after its
cell's directory name, in cell order once every cell is done.

main may be called any number of times in one process: the parser is
built on the first call and reused, and every call parses its argv into a
fresh namespace.

The output directory is --outdir, else $MOWAVE_OUTDIR, else the working
directory. Identical configs and flags produce bit-identical energy.csv
(floats are written with repr and the pipeline is deterministic).

simulate and every sweep cell run one pipeline: plan (solver.step_plan,
which records --cfl and --sample-every), solve (simulate, or one row of
simulate_batch), then check and write (run_simulation, which reads all it
writes from the solved Trajectory: its spec, grid and plan).

sweep admits each cell once, by its solver.step_plan, which validates
first (a cell that it refuses gets its row alone), and groups the cells by
their solver.batch_key, which holds the step of that plan. It cuts each
group into batches of at most ceil(admitted cells/jobs) rows, and of no
more than solver.rows_within_cap allows, and steps every batch as one state
(solver.simulate_batch) by its cells' plans. When min(jobs, batches) is
more than one, that many children are forked (_fork_map): batch i goes to
child i mod that count, and each child sends its rows back through a pipe.
Where os.fork does not exist, the batches run in this process. Each row
then goes through the same run_simulation tail as a single run; rows are
merged back in cell order. Batch rows are bit-identical to single runs, so
neither --jobs nor the batch sizes change any output byte, stderr
included. --jobs must be at least 1. A child that a signal ends fails the
sweep with exit 2 and no sweep.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import math
import os
import pickle
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .certify import build_certificate, check_decay_bound, fit_decay, window_edges
from .energy import EnergySeries, multiplier_identity_residual, write_energy_csv, write_identity_csv
from .errors import BlowUpError, ConfigError, MowaveError, ValidationError
from .model import (
    FAMILIES,
    ConstantAlpha,
    ConstantBeta,
    DampingParams,
    ManufacturedField,
    ProblemSpec,
    SineMode,
    _finite,
    load_config,
    spec_from_dict,
    spec_to_dict,
    validate_assumptions,
)
from .solver import (
    Grid,
    Trajectory,
    batch_key,
    exact_reference_fields,
    rows_within_cap,
    simulate,
    simulate_batch,
    step_plan,
    step_size,
)
from .svgplot import write_decay_svg

# SHA-256 from the interpreter's own module, as random.py takes _sha512:
# hashlib maps OpenSSL's libcrypto, about 3.5 MB of RSS for ~100 KB of outputs
try:
    from _sha2 import sha256 as _new_sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256 as _new_sha256

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_BOUND = 4
EXIT_EMPTY_WINDOW = 5
EXIT_ORDER = 6

_MIN_ORDER = 1.8
GRID_N, CFL, SAMPLE_EVERY = 200, 1.0, 10  # the defaults of the CLI's --grid-n, --cfl and --sample-every


def _err(msg: str) -> None:
    print(f"mowave: {msg}", file=sys.stderr)


def _diagnosis(exc: Exception) -> tuple[int, str]:
    """The exit code of a MowaveError or OSError and its standard-error message."""
    code = EXIT_BLOWUP if isinstance(exc, BlowUpError) else EXIT_VALIDATION
    if isinstance(exc, ValidationError):
        return code, "assumption checks failed:\n" + exc.report.summary()
    return code, str(exc)


def _outdir(arg) -> Path:
    """The --outdir path (else $MOWAVE_OUTDIR, else the working directory); not created here."""
    return Path(arg or os.environ.get("MOWAVE_OUTDIR") or ".")


def _sha256(path: Path) -> str:
    digest = _new_sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return _new_sha256(canon.encode("utf-8")).hexdigest()


def write_manifest(path: Path, config: dict, grid_info: dict, outputs: list[Path], checks: dict, wall_clock: float) -> None:
    manifest = {
        "config_hash": config_hash(config),
        "config": config,
        "grid": grid_info,
        "outputs": {
            p.name: {"sha256": _sha256(p), "bytes": p.stat().st_size} for p in outputs
        },
        "checks": checks,
        "wall_clock_s": wall_clock,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def verify_manifest(manifest_path) -> list[str]:
    """Re-check a manifest against the files next to it; returns mismatches."""
    manifest_path = Path(manifest_path)
    problems: list[str] = []
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot read manifest: {exc}"]
    if not isinstance(manifest, dict) or not isinstance(manifest.get("outputs", {}), dict):
        return ["manifest is not a JSON object with an 'outputs' object"]
    if config_hash(manifest.get("config", {})) != manifest.get("config_hash"):
        problems.append("config_hash does not match the embedded config")
    for name, entry in manifest.get("outputs", {}).items():
        target = manifest_path.parent / name
        if name in ("", ".", "..") or Path(name).name != name:  # a path, not a file name
            problems.append(f"{name}: not a file of the run directory")
        elif not isinstance(entry, dict):
            problems.append(f"{name}: entry is not a JSON object")
        elif not os.path.lexists(target):
            problems.append(f"{name}: missing")
        elif target.is_symlink() or not target.is_file():  # never read through a link
            problems.append(f"{name}: not a file")
        elif _sha256(target) != entry.get("sha256"):
            problems.append(f"{name}: checksum mismatch")
        elif target.stat().st_size != entry.get("bytes"):
            problems.append(f"{name}: size mismatch")
    return problems


class _TrajectoryCsv:
    """trajectory.csv streamed from simulate's blocks (an on_block callback)
    into a temporary file in the nearest existing directory of outdir, so
    that move_to can put it into outdir with the other outputs. Leaving the
    with block removes the file unless it was moved."""

    def __init__(self, outdir: Path, y: np.ndarray):
        parent = outdir
        while not parent.is_dir():
            parent = parent.parent
        fd, self.path = tempfile.mkstemp(prefix=".trajectory-", suffix=".csv", dir=parent)
        self.fh = os.fdopen(fd, "w", encoding="utf-8", newline="\n")
        self.fh.write("t,y,v,w\n")
        self.y = y.tolist()

    def __call__(self, row: int, times: np.ndarray, V: np.ndarray, W: np.ndarray) -> None:
        for t, v, w in zip(times.tolist(), V.tolist(), W.tolist()):
            self.fh.write("".join(f"{t!r},{yi!r},{vi!r},{wi!r}\n" for yi, vi, wi in zip(self.y, v, w)))

    def move_to(self, target: Path) -> None:
        self.fh.close()
        os.replace(self.path, target)

    def __enter__(self) -> "_TrajectoryCsv":
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()
        Path(self.path).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# simulate


def run_simulation(
    traj: Trajectory, outdir: Path, paper_literal: bool = False, trajectory=None, started=None, err=_err
) -> tuple[int, dict]:
    """The checks and outputs of one solved run; returns (exit_code, checks).

    traj is the run's Trajectory, which simulate (or one row of
    simulate_batch) returns; everything written comes from it: its spec, its
    grid and its step plan, whose cfl and sample_every the manifest records.
    Writes energy.csv, identity.csv, decay.svg and manifest.json into outdir,
    and moves trajectory.csv in with them when trajectory is the open
    _TrajectoryCsv that the solve streamed into. The exit code is EXIT_OK or
    EXIT_BOUND; checks is the record written to the manifest: the
    certificate ("ok" or "empty") and its edges, the measured decay and the
    identity residuals. outdir and its parents are created only once the
    outputs are ready to write. A run that cannot finish raises its
    MowaveError and writes nothing, not even outdir: a ConfigError for
    fewer than 3 snapshots or for an energy, a certificate bound or an
    identity residual that overflows a double, or the certificate's error.
    wall_clock_s counts from started (a time.perf_counter reading; this
    call's start by default). A violated decay bound's line goes to err
    (standard error by default).
    """
    started = time.perf_counter() if started is None else started
    spec, plan, outdir = traj.spec, traj.plan, Path(outdir)
    if len(traj.times) < 3:  # at --sample-every 1, only a finer grid (a smaller h0) or a longer T adds one
        remedy = "lower --sample-every" if plan.sample_every > 1 else "raise --grid-n (or T)"
        raise ConfigError(
            f"the run stored {len(traj.times)} snapshots at --sample-every {plan.sample_every}; "
            f"the identity checks need at least 3: {remedy}"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported by the two tests below
        series_exact = EnergySeries.from_trajectory(traj)
        series_out = EnergySeries.from_trajectory(traj, paper_literal=True) if paper_literal else series_exact
        finite = np.isfinite(series_exact.E) & np.isfinite(series_out.E)
        if not finite.all():  # the solution is finite (simulate checks it), its energy is not
            raise ConfigError(
                f"the energy overflows a double, first at t = {traj.times[np.argmin(finite)]:.6g}, "
                "although the solution stays finite; no outputs written"
            )
        edges = window_edges(spec.damping, spec.beta, spec.alpha, spec.horizon)
        cert = build_certificate(spec.damping, spec.beta, spec.alpha, spec.horizon, edges=edges)
        lam = cert.lam if cert is not None else 0.1
        identity = multiplier_identity_residual(traj, lam=lam, phi_rate=lam)
        bound_values = cert.bound_values(series_out.t, series_exact.e0) if cert is not None else None
    overflowed = [
        name
        for name, values in (
            ("the certificate bound C E(0) exp(-lambda t)", bound_values),
            ("the identity residuals", [identity.residual_rate, identity.residual_plu]),
        )
        if values is not None and not np.isfinite(values).all()
    ]
    if overflowed:
        raise ConfigError(
            f"{' and '.join(overflowed)} overflow a double, although the energy stays finite "
            f"(E(0) = {series_exact.e0:.6g}); no outputs written"
        )

    bound_report = None
    if cert is not None:
        # the allowance 10 dt^2 rate_residual at a step no larger than h0: it may not grow with --cfl
        bound_report = check_decay_bound(
            series_exact, cert, dt=min(traj.dt, step_size(spec, traj.grid)), rate_residual=identity.residual_rate
        )
    lambda_fit = fit_decay(series_exact)

    outdir.mkdir(parents=True, exist_ok=True)
    energy_path = outdir / "energy.csv"
    write_energy_csv(series_out, energy_path, bound=bound_values)
    identity_path = outdir / "identity.csv"
    write_identity_csv(identity, identity_path)
    svg_path = outdir / "decay.svg"
    write_decay_svg(svg_path, series_out.t, series_out.E, bound=bound_values)
    outputs = [energy_path, identity_path, svg_path]
    if trajectory is not None:
        outputs.append(outdir / "trajectory.csv")
        trajectory.move_to(outputs[-1])

    exit_code = EXIT_OK
    if bound_report is not None and not bound_report.holds:
        err(
            f"decay bound violated: worst margin {bound_report.worst_margin:.6g} "
            f"first at t = {bound_report.first_violation:.6g}"
        )
        exit_code = EXIT_BOUND

    checks = {
        "validation": "pass",
        "blow_up": False,
        "certificate": "ok" if cert is not None else "empty",
        "lambda_lo": edges[0],
        "lambda_hi": edges[1],
        "C": cert.C if cert is not None else None,
        "bound_holds": bound_report.holds if bound_report is not None else None,
        "lambda_fit": lambda_fit,
        "relative_plu_residual": identity.relative_residual,
        "rate_residual": identity.residual_rate,
        "exit_code": exit_code,
    }
    grid_info = {
        "n": traj.grid.n,
        "cfl": plan.cfl,
        "dt": plan.dt,
        "dt_bound": plan.bound,
        "sample_every": plan.sample_every,
        "steps_per_snapshot": plan.per_snapshot,
        "snapshots": plan.snapshots,
        "steps": plan.steps,
        "rhs_evals": 4 * plan.steps,
    }
    write_manifest(
        outdir / "manifest.json",
        spec_to_dict(spec),
        grid_info,
        outputs,
        checks,
        time.perf_counter() - started,
    )
    return exit_code, checks


def cmd_simulate(args) -> int:
    spec = load_config(args.config)
    outdir = _outdir(args.outdir)
    started = time.perf_counter()  # wall_clock_s covers the solve and the checks
    grid = Grid(args.grid_n)
    # the temporary trajectory file is removed whatever stops the run, unless run_simulation moved it in
    with _TrajectoryCsv(outdir, grid.y) if args.trajectory else contextlib.nullcontext() as stream:
        traj = simulate(spec, grid, args.sample_every, args.cfl, on_block=stream)
        code, checks = run_simulation(
            traj, outdir, paper_literal=args.paper_literal_energy, trajectory=stream, started=started
        )
    if code == EXIT_OK:
        parts = [f"wrote {outdir / 'energy.csv'}"]
        lo, hi = checks["lambda_lo"], checks["lambda_hi"]
        if checks["certificate"] == "empty":
            parts.append(f"empty lambda window: lambda_lo = {lo:.6g} exceeds lambda_hi = {hi:.6g}")
        else:
            parts.append(f"lambda window [{lo:.6g}, {hi:.6g}]")
        if checks["lambda_fit"] is not None:
            parts.append(f"lambda_fit {checks['lambda_fit']:.6g}")
        print("; ".join(parts))
    return code


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    spec = load_config(args.config)
    report = validate_assumptions(spec)
    if not report.ok:
        raise ValidationError(report)
    edges = window_edges(spec.damping, spec.beta, spec.alpha, spec.horizon)
    cert = build_certificate(spec.damping, spec.beta, spec.alpha, spec.horizon, edges=edges)
    if cert is None:
        lo, hi = edges
        _err(
            f"empty window: lambda_lo = {lo:.6g} exceeds lambda_hi = {hi:.6g}; "
            "beta grows too fast for any certified rate"
        )
        return EXIT_EMPTY_WINDOW
    print(json.dumps(cert.to_json(), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# convergence


def _l2_error(traj, v_exact) -> float:
    final, grid = traj.final, traj.grid
    al = traj.spec.alpha.eval(final.t)[0]
    diff = final.v - v_exact(grid.y, final.t)
    return math.sqrt(float((grid.quad_weights * al) @ diff**2))


def _orders(ns, errors) -> list[float]:
    out = []
    for (n1, e1), (n2, e2) in zip(zip(ns, errors), zip(ns[1:], errors[1:])):
        if e2 <= 0.0 or e1 <= 0.0:
            out.append(float("inf"))
        else:
            out.append(math.log(e1 / e2) / math.log(n2 / n1))
    return out


def _modal_spec() -> ProblemSpec:
    return ProblemSpec(
        damping=DampingParams(a=1.0, b=1.0, rho=1.0),
        beta=ConstantBeta(c=1.0),
        alpha=ConstantAlpha(),
        init=SineMode(m=1, amp_u0=1.0, amp_u1=-0.5),
        horizon=2.0,
        linear_mode=True,
    )


def _modal_exact():
    omega = math.sqrt(math.pi**2 + 1.0 - 0.25)

    def v_exact(y, t):
        return math.exp(-0.5 * t) * math.cos(omega * t) * np.sin(math.pi * y)

    return v_exact


def cmd_convergence(args) -> int:
    spec = load_config(args.config)
    try:
        ns = [int(part) for part in str(args.grid_n).split(",")]
    except ValueError:
        raise ConfigError(f"--grid-n expects a comma-separated integer list, got {args.grid_n!r}") from None
    if len(ns) < 2:
        raise ConfigError("--grid-n needs at least two grid sizes for observed orders")
    if len(set(ns)) < len(ns):
        raise ConfigError(f"--grid-n sizes must differ for observed orders, got {args.grid_n!r}")
    if spec.source is None:
        spec = spec._replace(source=ManufacturedField())

    studies = [
        ("manufactured", spec, exact_reference_fields(spec.source, spec)[0]),
        ("modal", _modal_spec(), _modal_exact()),
    ]
    worst = float("inf")
    for name, study_spec, v_exact in studies:
        # every grid steps under the tightest cap of any grid's plan at --cfl,
        # so dt shrinks with dy also where a stiffness bound sets it
        cfl = min(step_plan(study_spec, Grid(n), 1, args.cfl).cap for n in ns)
        errors, rates, plus = [], [], []
        for n in ns:
            traj = simulate(study_spec, Grid(n), sample_every=1, cfl=cfl)
            if len(traj.times) < 3:
                remedy = "the identity checks need at least 3: raise the smallest --grid-n (or T)"
                raise ConfigError(f"the {name} study stored {len(traj.times)} snapshots at --grid-n {n}; {remedy}")
            identity = multiplier_identity_residual(traj, lam=0.1, phi_rate=0.1)
            errors.append(_l2_error(traj, v_exact))
            rates.append(identity.residual_rate)
            plus.append(identity.relative_residual)
        for metric, values in (
            ("solution_error", errors),
            ("rate_residual", rates),
            ("plu_residual", plus),
        ):
            for (n1, n2), order in zip(zip(ns, ns[1:]), _orders(ns, values)):
                print(f"{name} {metric} N={n1}->N={n2} order {order:.3f}")
                worst = min(worst, order)
    print(f"minimum observed order {worst:.3f}")
    if worst < _MIN_ORDER:
        _err(f"observed order {worst:.3f} below {_MIN_ORDER}")
        return EXIT_ORDER
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _having(section: str, field: str) -> tuple[str, ...]:
    """The variants of a config section whose class in model.FAMILIES has the field."""
    return tuple(variant for variant, cls in FAMILIES[section].items() if field in cls._fields)


# sweep axis -> (config section, field, base variants that have the field; None: any)
_SWEEP_AXES = {
    "a": ("damping", "a", None),
    "b": ("damping", "b", None),
    "k": ("alpha", "k", _having("alpha", "k")),
    "mu": ("beta", "mu", _having("beta", "mu")),
    "rho": ("damping", "rho", None),
}
_SWEEP_COLUMNS = ("mu", "rho", "k", "a", "b", "lambda_lo", "lambda_hi", "lambda_fit", "C", "bound_holds", "exit")


def _sweep_row(cfg: dict, code: int, checks: dict | None = None) -> dict:
    """One sweep.csv row: the cell's axis values, certificate edges and exit code."""
    row = dict.fromkeys(_SWEEP_COLUMNS, "")
    row["exit"] = code
    for axis, (section, field, variants) in _SWEEP_AXES.items():
        if variants is None or cfg[section]["variant"] in variants:
            row[axis] = cfg[section].get(field, "")
    if checks is not None:
        for key in ("lambda_lo", "lambda_hi", "lambda_fit", "C"):
            if checks[key] is not None:
                row[key] = checks[key]
        if checks["bound_holds"] is not None:
            row["bound_holds"] = "true" if checks["bound_holds"] else "false"
        if code == EXIT_OK and checks["certificate"] == "empty":
            row["exit"] = EXIT_EMPTY_WINDOW
    return row


def _sweep_batch(cells: list[dict], grid: Grid, outdir: str) -> list[tuple]:
    """Solve admitted cells with one batch_key as one state, each by its plan, then write each cell.

    Each solved row goes through run_simulation, the tail of simulate too,
    which writes the cell's files into outdir/cell_XXXX and times them from
    its own start; a row is dropped once written, with its integral table.
    Returns, in the order of cells, each cell's sweep.csv row and the stderr
    messages that the sweep prints for it: a violated bound's line, or the
    row's error or run_simulation's as _diagnosis words it. Runs in this
    process, or in a child that _fork_map forked, which inherits cells and
    sends back only what this returns.
    """
    specs, plans = [cell["spec"] for cell in cells], [cell["plan"] for cell in cells]
    solved = simulate_batch(specs, plans, grid)
    rows = []
    for i, cell in enumerate(cells):
        traj, solved[i] = solved[i], None
        checks, messages = None, []
        try:
            if isinstance(traj, MowaveError):
                raise traj
            code, checks = run_simulation(traj, Path(outdir) / f"cell_{cell['index']:04d}", err=messages.append)
        except MowaveError as exc:
            code, message = _diagnosis(exc)
            messages.append(message)
        rows.append((_sweep_row(cell["config"], code, checks), messages))
    return rows


def _fork_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], computed in `workers` forked children.

    Child w inherits items w, w + workers, ... and sends back their results,
    or the exception it raised, through its own pipe as one pickle. Every
    child is reaped before this returns or raises; the first exception in
    child order is raised again here. A child that a signal ends, or that
    sends nothing, is a MowaveError. Children still running when this
    process leaves early (an interrupt, a failed fork) are killed.

    The objects that exist at the fork are frozen (gc.freeze), so that no
    cycle collection in a child passes over them and copies every page they
    share. Once every child is reaped they are unfrozen again, unless the
    caller had frozen objects before: its collections go on as before.
    """
    sys.stdout.flush()  # else each child, which flushes before it leaves, would write it again
    sys.stderr.flush()
    children, reaped = [], 0  # (pid, read end of its pipe) in child order; how many are reaped
    results, error = [None] * len(items), None
    frozen = gc.get_freeze_count()
    gc.freeze()
    try:
        for w in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _fork_child(fn, items[w::workers], write)  # leaves by os._exit
            os.close(write)
            children.append((pid, open(read, "rb")))
        for w, (pid, pipe) in enumerate(children):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            if error is not None:
                continue
            if os.WIFSIGNALED(status):
                import signal  # only a killed child pays its import

                sig = os.WTERMSIG(status)
                name = {s.value: s.name for s in signal.Signals}.get(sig, str(sig))
                error = MowaveError(f"sweep worker {w} of {workers} was ended by signal {name}; no sweep.csv written")
            elif not data:
                code = os.waitstatus_to_exitcode(status)
                error = MowaveError(f"sweep worker {w} of {workers} exited {code} without its rows; no sweep.csv written")
            else:
                result = pickle.loads(data)
                if isinstance(result, BaseException):
                    error = result
                else:
                    results[w::workers] = result
    finally:
        for pid, pipe in children[reaped:]:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        if not frozen:
            gc.unfreeze()
    if error is not None:
        raise error
    return results


def _fork_child(fn, items: list, fd: int) -> None:
    """A _fork_map child: pickle [fn(item) for item in items], or the exception, down fd; leave."""
    status = 70  # EX_SOFTWARE: nothing was sent
    try:
        try:
            result = [fn(item) for item in items]
        except BaseException as exc:  # raised again by the parent, with this traceback as a note
            import traceback

            exc.__notes__ = [*getattr(exc, "__notes__", ()), "in a sweep worker:\n" + traceback.format_exc()]
            result = exc
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            sweep_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read sweep config: {exc}") from exc
    if not isinstance(sweep_cfg, dict) or "base" not in sweep_cfg:
        raise ConfigError("sweep config must be an object with a 'base' config")
    unknown = sorted(set(sweep_cfg) - {"base", "axes"})
    if unknown:
        raise ConfigError(f"sweep config: unknown keys {unknown}")
    axes = sweep_cfg.get("axes", {})
    if not isinstance(axes, dict):
        raise ConfigError("sweep config: 'axes' must be an object of axis -> value list")
    bad_axes = sorted(set(axes) - set(_SWEEP_AXES))
    if bad_axes:
        raise ConfigError(f"sweep config: unknown axes {bad_axes}; allowed {list(_SWEEP_AXES)}")

    try:
        base = spec_from_dict(sweep_cfg["base"])
    except ConfigError as exc:
        raise ConfigError(f"sweep base config invalid: {exc}") from exc
    # checked once, unadmitted since the axes may override the base: the flags and the base's table
    grid = Grid(args.grid_n)
    step_plan(base, grid, args.sample_every, args.cfl, admit=False)

    names = sorted(axes)
    value_lists = []
    for name in names:
        values = axes[name]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {name!r} must be a nonempty list")
        value_lists.append(values)
    for name, values in zip(names, value_lists):
        section, field, variants = _SWEEP_AXES[name]
        if variants is not None and sweep_cfg["base"][section]["variant"] not in variants:
            raise ConfigError(
                f"sweep axis {name!r} requires the base {section} to be {' or '.join(variants)}"
            )
        for value in values:
            _finite(value, f"sweep axis {name!r}")

    rows: list = []  # (sweep.csv row, stderr messages) of each cell, in cell order
    groups: dict = {}  # batch_key -> (a step plan of the key, the cells that can share one state, in cell order)
    for idx, combo in enumerate(itertools.product(*value_lists)):
        cfg = json.loads(json.dumps(sweep_cfg["base"]))  # deep copy
        for name, value in zip(names, combo):
            section, field, _ = _SWEEP_AXES[name]
            cfg[section][field] = value
        try:
            spec = spec_from_dict(cfg)
            plan = step_plan(spec, grid, args.sample_every, args.cfl)
        except MowaveError as exc:  # a bad config, inadmissible, a bound past 2**53 steps, or a table past the cap
            code, message = _diagnosis(exc)
            rows.append((_sweep_row(cfg, code), [message]))
            continue
        rows.append(None)  # filled in from the cell's batch
        cell = {"index": idx, "config": cfg, "spec": spec, "plan": plan}
        groups.setdefault(batch_key(spec, plan), (plan, []))[1].append(cell)

    outdir = _outdir(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for idx in range(len(rows)):
        (outdir / f"cell_{idx:04d}").mkdir(parents=True, exist_ok=True)
    # at most ceil(admitted cells/jobs) rows per batch, so every worker gets work, and no more than the
    # memory cap holds; a refused cell has its row already and never reaches a batch
    jobs_rows = -(-rows.count(None) // args.jobs)
    batches = []
    for plan, group in groups.values():
        size = min(jobs_rows, rows_within_cap(plan, grid, [cell["spec"] for cell in group]))
        batches.extend(group[i : i + size] for i in range(0, len(group), size))
    solve = functools.partial(_sweep_batch, grid=grid, outdir=str(outdir))
    workers = min(args.jobs, len(batches))
    if workers > 1 and hasattr(os, "fork"):
        solved = _fork_map(solve, batches, workers)
    else:
        solved = [solve(batch) for batch in batches]
    for batch, batch_rows in zip(batches, solved):
        for cell, row in zip(batch, batch_rows):
            rows[cell["index"]] = row
    for idx, (_, messages) in enumerate(rows):  # in cell order, whatever --jobs and the batches were
        for message in messages:
            _err(f"cell_{idx:04d}: {message}")

    lines = [",".join(_SWEEP_COLUMNS)]
    for row, _ in rows:
        lines.append(",".join(_format_cell(row[c]) for c in _SWEEP_COLUMNS))
    sweep_path = outdir / "sweep.csv"
    with open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {sweep_path} ({len(rows)} cells)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


_CFL_HELP = "upper bound on the CFL number; the damping and reaction bounds may lower it (default %(default)s)"
_SAMPLE_HELP = "snapshot interval in units of h0 = dy / (2 s_max), the step at CFL 0.5 (default %(default)s)"


def _run_flags(parser: argparse.ArgumentParser) -> None:
    """--grid-n, --cfl, --sample-every and --outdir of simulate and sweep."""
    parser.add_argument("--grid-n", type=int, default=GRID_N, help="grid intervals N (default %(default)s)")
    parser.add_argument("--cfl", type=float, default=CFL, help=_CFL_HELP)
    parser.add_argument("--sample-every", type=int, default=SAMPLE_EVERY, help=_SAMPLE_HELP)
    parser.add_argument("--outdir", default=None, help="output directory (default $MOWAVE_OUTDIR or .)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every main call; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="mowave",
        description="Damped nonlinear waves on expanding intervals: simulate, certify, study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one config and write outputs")
    sim.add_argument("config", help="path to a JSON problem config")
    _run_flags(sim)
    sim.add_argument("--trajectory", action="store_true", help="also write trajectory.csv")
    sim.add_argument(
        "--paper-literal-energy",
        action="store_true",
        help="report the literal 1/2 u^2 restoring term instead of b/2 u^2",
    )
    sim.set_defaults(func=cmd_simulate)

    cert = sub.add_parser("certify", help="print the decay certificate for a config")
    cert.add_argument("config", help="path to a JSON problem config")
    cert.set_defaults(func=cmd_certify)

    conv = sub.add_parser("convergence", help="refinement studies against exact solutions")
    conv.add_argument("config", help="path to a JSON problem config")
    conv.add_argument(
        "--grid-n",
        default="50,100,200",
        help="comma-separated grid sizes (default 50,100,200)",
    )
    conv.add_argument("--cfl", type=float, default=CFL, help=_CFL_HELP)
    conv.set_defaults(func=cmd_convergence)

    swp = sub.add_parser("sweep", help="Cartesian parameter sweep, one directory per cell")
    swp.add_argument("config", help="path to a JSON sweep config ({base, axes})")
    swp.add_argument("--jobs", type=int, default=1, help="concurrent cells (default 1)")
    _run_flags(swp)
    swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MowaveError, OSError) as exc:
        code, message = _diagnosis(exc)
        _err(message)
        return code


def entry() -> int:
    """main for a process that exits next (python -m mowave, the mowave script), then gc.freeze(): its
    exit runs no cycle collection over the frozen objects. main may run again in-process; it does not."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
