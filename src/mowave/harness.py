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
and an output path that cannot be written), 3 blow-up, 4 decay-bound
violation, 5 empty certificate window, 6 convergence order below 1.8.
Diagnostics go to standard error; results go to files and standard output.

A failure is raised, never reported where it happens. One translator,
_fail, turns an error into its stderr line and exit code: a ValidationError
prints the assumption report, any other MowaveError or an OSError prints
its message; a BlowUpError exits 3, the others 2. main calls it for the
error of a command, and sweep for the error of each failed cell, or once
for an error that every cell of a batch shares (a group none of whose
cells fits the snapshot cap is one such error).

main may be called any number of times in one process: the parser is
built on the first call and reused, and every call parses its argv into a
fresh namespace.

The output directory is --outdir, else $MOWAVE_OUTDIR, else the working
directory. Identical configs and flags produce bit-identical energy.csv
(floats are written with repr and the pipeline is deterministic).

sweep makes each cell's solver.step_plan and groups the cells by their
solver.batch_key (alpha, rho, horizon, linear_mode, forced or not, and the
step of that plan, which the damping and reaction bounds can make the
cell's own), cuts each group into batches of at most ceil(cells/jobs) rows
and of no more rows than solver.rows_within_cap allows, and solves every
batch as one state
(solver.simulate_batch), in a pool of min(jobs, batches) processes when
that is more than one. Each row then goes through
the same run_simulation tail as a single run; rows are merged back in cell
order. Batch rows are bit-identical to single runs, so neither --jobs nor
the batch sizes change any output byte. --jobs must be at least 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .certify import build_certificate, check_decay_bound, fit_decay, window_edges
from .energy import EnergySeries, multiplier_identity_residual, write_energy_csv, write_identity_csv
from .errors import BlowUpError, ConfigError, DegenerateDataError, MowaveError, ResourceLimitError, ValidationError
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
    batch_key,
    exact_reference_fields,
    rows_within_cap,
    simulate,
    simulate_batch,
    step_plan,
    step_size,
)
from .svgplot import write_decay_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_BOUND = 4
EXIT_EMPTY_WINDOW = 5
EXIT_ORDER = 6

_MIN_ORDER = 1.8


def _err(msg: str) -> None:
    print(f"mowave: {msg}", file=sys.stderr)


def _fail(exc: Exception) -> int:
    """Report a MowaveError or OSError on standard error; return its exit code."""
    code = EXIT_BLOWUP if isinstance(exc, BlowUpError) else EXIT_VALIDATION
    if isinstance(exc, ValidationError):
        _err("assumption checks failed:\n" + exc.report.summary())
    else:
        _err(str(exc))
    return code


def _outdir(arg) -> Path:
    """The --outdir path (else $MOWAVE_OUTDIR, else the working directory); not created here."""
    return Path(arg or os.environ.get("MOWAVE_OUTDIR") or ".")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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
        elif not target.exists():
            problems.append(f"{name}: missing")
        elif _sha256(target) != entry.get("sha256"):
            problems.append(f"{name}: checksum mismatch")
        elif target.stat().st_size != entry.get("bytes"):
            problems.append(f"{name}: size mismatch")
    return problems


def _write_trajectory_csv(traj, path: Path) -> None:
    rows = ["t,y,v,w"]
    y = traj.grid.y.tolist()
    for t, v, w in zip(traj.times.tolist(), traj.V.tolist(), traj.W.tolist()):
        rows.extend(f"{t!r},{yi!r},{vi!r},{wi!r}" for yi, vi, wi in zip(y, v, w))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# simulate


def run_simulation(
    spec: ProblemSpec,
    outdir: Path,
    grid_n: int = 200,
    cfl: float = 1.0,
    sample_every: int = 10,
    paper_literal: bool = False,
    write_trajectory: bool = False,
    solution=None,
) -> tuple[int, dict]:
    """Full single-run pipeline; returns (exit_code, checks).

    Writes energy.csv, identity.csv, decay.svg, manifest.json (and
    trajectory.csv on request) into outdir. The exit code is EXIT_OK or
    EXIT_BOUND; checks is the record written to the manifest: the
    certificate ("ok" or "empty") and its edges, the measured decay and the
    identity residuals. outdir and its parents are created only once the
    outputs are ready to write. A run that cannot finish raises its
    MowaveError and writes nothing, not even outdir: the solver's error, a
    ConfigError for fewer than 3 snapshots or for an energy, a certificate
    bound or an identity residual that overflows a double, or the
    certificate's error. solution is the run's Trajectory or
    error when the caller has already solved it (sweep solves cells in
    batches); by default the spec is solved here.
    """
    started = time.perf_counter()
    outdir = Path(outdir)
    if solution is None:
        solution = simulate(spec, Grid(grid_n), sample_every=sample_every, cfl=cfl)
    if isinstance(solution, MowaveError):
        raise solution
    traj = solution
    if len(traj.times) < 3:
        raise ConfigError(
            f"the run stored {len(traj.times)} snapshots at --sample-every {sample_every}; "
            "the identity checks need at least 3: lower --sample-every"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
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
    try:
        lambda_fit = fit_decay(series_exact).lambda_fit
    except DegenerateDataError:
        lambda_fit = None

    outdir.mkdir(parents=True, exist_ok=True)
    energy_path = outdir / "energy.csv"
    write_energy_csv(series_out, energy_path, bound=bound_values)
    identity_path = outdir / "identity.csv"
    write_identity_csv(identity, identity_path)
    svg_path = outdir / "decay.svg"
    write_decay_svg(svg_path, series_out.t, series_out.E, bound=bound_values)
    outputs = [energy_path, identity_path, svg_path]
    if write_trajectory:
        traj_path = outdir / "trajectory.csv"
        _write_trajectory_csv(traj, traj_path)
        outputs.append(traj_path)

    exit_code = EXIT_OK
    if bound_report is not None and not bound_report.holds:
        _err(
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
    plan = traj.plan
    grid_info = {
        "n": grid_n,
        "cfl": cfl,
        "dt": plan.dt,
        "dt_bound": plan.bound,
        "sample_every": sample_every,
        "steps_per_snapshot": plan.per_snapshot,
        "snapshots": len(traj.times),
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
    code, checks = run_simulation(
        spec,
        outdir,
        grid_n=args.grid_n,
        cfl=args.cfl,
        sample_every=args.sample_every,
        paper_literal=args.paper_literal_energy,
        write_trajectory=args.trajectory,
    )
    if code == EXIT_OK:
        parts = [f"wrote {outdir / 'energy.csv'}"]
        if checks["lambda_hi"] is not None:
            parts.append(f"lambda window [{checks['lambda_lo']:.6g}, {checks['lambda_hi']:.6g}]")
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
    t, grid = float(traj.times[-1]), traj.grid
    al = traj.spec.alpha.eval(t)[0]
    diff = traj.V[-1] - v_exact(grid.y, t)
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
        spec = replace(spec, source=ManufacturedField())

    studies = [
        ("manufactured", spec, exact_reference_fields(spec.source, spec)[0]),
        ("modal", _modal_spec(), _modal_exact()),
    ]
    worst = float("inf")
    for name, study_spec, v_exact in studies:
        # every grid steps under the tightest cap of any grid's plan at --cfl,
        # so dt shrinks with dy also where a stiffness bound sets it
        cfl = min(step_plan(study_spec, Grid(n), 1, args.cfl).cfl for n in ns)
        errors, rates, plus = [], [], []
        for n in ns:
            traj = simulate(study_spec, Grid(n), sample_every=1, cfl=cfl)
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
    return tuple(variant for variant, cls in FAMILIES[section].items() if field in cls.__dataclass_fields__)


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


def _sweep_batch(cells: list[dict], grid_n: int, cfl: float, sample_every: int, outdir: str) -> list[dict]:
    """Solve cells with one batch_key as one state, then write each cell.

    Each cell goes through run_simulation with its solved row (or that
    row's error), which writes the cell's files into outdir/cell_XXXX; a
    row is dropped once written, and a cell that fails is reported by
    _fail. An error of the whole batch is reported once and gives every
    cell its exit code. Returns the sweep.csv rows in the order of cells.
    """
    specs = [cell["spec"] for cell in cells]
    try:
        solved = simulate_batch(specs, Grid(grid_n), sample_every, cfl)
    except MowaveError as exc:  # a setting or a limit of the whole batch, reported once
        code = _fail(exc)
        return [_sweep_row(cell["config"], code) for cell in cells]
    rows = []
    for i, cell in enumerate(cells):
        solution, solved[i] = solved[i], None
        try:
            code, checks = run_simulation(
                cell["spec"],
                Path(outdir) / f"cell_{cell['index']:04d}",
                grid_n=grid_n,
                cfl=cfl,
                sample_every=sample_every,
                solution=solution,
            )
        except MowaveError as exc:
            rows.append(_sweep_row(cell["config"], _fail(exc)))
            continue
        rows.append(_sweep_row(cell["config"], code, checks))
    return rows


def _format_cell(value) -> str:
    if value == "":
        return ""
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
    # --grid-n, --sample-every and --cfl hold for every cell alike; the stiffness bounds are per cell
    grid = Grid(args.grid_n)
    step_plan(base, grid, args.sample_every, args.cfl, stiff=False)

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

    rows: list = []
    groups: dict = {}  # batch_key -> (a step plan of the key, the cells that can share one state, in cell order)
    for idx, combo in enumerate(itertools.product(*value_lists)):
        cfg = json.loads(json.dumps(sweep_cfg["base"]))  # deep copy
        for name, value in zip(names, combo):
            section, field, _ = _SWEEP_AXES[name]
            cfg[section][field] = value
        try:
            spec = spec_from_dict(cfg)
            plan = step_plan(spec, grid, args.sample_every, args.cfl)
        except ConfigError as exc:
            rows.append(_sweep_row(cfg, _fail(exc)))
            continue
        rows.append(None)  # filled in from the cell's batch
        cell = {"index": idx, "config": cfg, "spec": spec}
        groups.setdefault(batch_key(spec, plan), (plan, []))[1].append(cell)

    outdir = _outdir(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for idx in range(len(rows)):
        (outdir / f"cell_{idx:04d}").mkdir(parents=True, exist_ok=True)
    # at most ceil(cells/jobs) rows per batch, so every worker gets work,
    # and no more than the snapshot cap holds
    jobs_rows = -(-len(rows) // args.jobs)
    batches = []
    for plan, group in groups.values():
        try:
            size = min(jobs_rows, rows_within_cap(plan, grid))
        except ResourceLimitError as exc:  # no row of the group fits: one report for all its cells
            code = _fail(exc)
            for cell in group:
                rows[cell["index"]] = _sweep_row(cell["config"], code)
            continue
        batches.extend(group[i : i + size] for i in range(0, len(group), size))
    solve = functools.partial(
        _sweep_batch,
        grid_n=args.grid_n,
        cfl=args.cfl,
        sample_every=args.sample_every,
        outdir=str(outdir),
    )
    workers = min(args.jobs, len(batches))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(solve, batches))
    else:
        solved = [solve(batch) for batch in batches]
    for batch, batch_rows in zip(batches, solved):
        for cell, row in zip(batch, batch_rows):
            rows[cell["index"]] = row

    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in _SWEEP_COLUMNS))
    sweep_path = outdir / "sweep.csv"
    with open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {sweep_path} ({len(rows)} cells)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


_CFL_HELP = "upper bound on the CFL number; the damping and reaction bounds may lower it (default 1.0)"
_SAMPLE_HELP = "snapshot interval in units of h0 = dy / (2 s_max), the step at CFL 0.5 (default 10)"


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
    sim.add_argument("--grid-n", type=int, default=200, help="grid intervals N (default 200)")
    sim.add_argument("--cfl", type=float, default=1.0, help=_CFL_HELP)
    sim.add_argument("--sample-every", type=int, default=10, help=_SAMPLE_HELP)
    sim.add_argument("--outdir", default=None, help="output directory (default $MOWAVE_OUTDIR or .)")
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
    conv.add_argument("--cfl", type=float, default=1.0, help=_CFL_HELP)
    conv.set_defaults(func=cmd_convergence)

    swp = sub.add_parser("sweep", help="Cartesian parameter sweep, one directory per cell")
    swp.add_argument("config", help="path to a JSON sweep config ({base, axes})")
    swp.add_argument("--jobs", type=int, default=1, help="concurrent cells (default 1)")
    swp.add_argument("--grid-n", type=int, default=200, help="grid intervals N (default 200)")
    swp.add_argument("--cfl", type=float, default=1.0, help=_CFL_HELP)
    swp.add_argument("--sample-every", type=int, default=10, help=_SAMPLE_HELP)
    swp.add_argument("--outdir", default=None, help="output directory (default $MOWAVE_OUTDIR or .)")
    swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MowaveError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
