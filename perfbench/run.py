"""mowave benchmark: four fixed workloads, end-to-end metrics, a traced run.

Run from the repository root; mowave is used straight from ``src/``:

    python3 perfbench/run.py --workload reference --seed 0 --seconds 20 --trace 0

Workloads (inputs in inputs.py; seed 0 gives the fixed inputs, other seeds
draw admissible inputs of the same shape):

  reference    ``mowave simulate`` on the README config, N=200, T=10: the
               headline single run; the solver is about 92% of it.
  convergence  ``mowave convergence --grid-n 50,100,200`` on the same config
               with a manufactured solution, T=2: energy diagnostics and the
               sympy forcing path dominate; no certificate.
  sweep        ``mowave sweep --jobs 2`` over mu x rho (8 cells, one empty
               window), T=4: the process pool and the per-cell pipeline.
  screen       one process calling ``mowave.harness.main(["certify", path])``
               over 168 configs: the certificate layer, at most 2% of the
               other workloads.

An operation is one CLI run (reference, convergence), one sweep cell or one
certify call. Runs repeat, closed loop, while the next one is expected to
end within ``--seconds`` (at least two runs). Every operation's output is
checked; a failed check counts the operation as failed.

``--trace 0`` reports the end-to-end metrics. The host of the machine this
was built on is shared, and other tenants change its CPU speed by up to
1.8x for seconds to minutes at a time, so raw times of identical runs spread
by 20%. The benchmark therefore pins itself, every process it starts and a
pacer (pacer.py) to one CPU and reports CPU times corrected by the pacer's
speed over the same interval:

  cpu_s        corrected CPU seconds of one run's process tree, median over
               the runs. For the single-process workloads this is the wall
               time a user waits on an uncontended core; for sweep it is the
               CPU work of the parent and both workers.
  setup_s      corrected CPU seconds of a fresh interpreter importing mowave
               and loading and validating the workload's configs (median of 3).
  ops_per_s    operations completed per corrected CPU second: cells per
               second on sweep, certificates per second on screen.
  peak_rss_mb  median over the runs of the largest peak resident set among
               the run's processes.

The report above the result also gives the raw wall times, failed_frac,
cells_per_min and certs_per_s. ``--trace 1`` does not pin: untraced and traced
runs alternate on the whole machine and the per-layer metrics of
tracing.LAYER_METRICS are reported, each the median over the traced runs,
plus trace.overhead_frac.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 when every check passed, 1
when one failed, 2 when there is no mowave source tree to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import inputs
import tracing
from pacer import Pacer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

OP_TIMEOUT_S = 150.0
SETUP_SAMPLES = 3
MIN_ORDER = 1.8  # the CLI's own convergence threshold
MAX_PLU_RESIDUAL = 1e-3  # acceptance criterion 4

VERIFY_MANIFEST = (
    "import sys; from mowave.harness import verify_manifest; "
    "sys.exit('; '.join(verify_manifest(sys.argv[1])) or None)"
)

END_TO_END = {"cpu_s": "s", "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    """One run of a workload's command: a CLI process or a screen pass."""

    wall: float
    cost: float | None  # pacer-corrected CPU seconds of the process tree
    rss_kb: int
    attempted: int
    failed: int
    traced: bool
    layers: dict | None = None


# ---------------------------------------------------------------------------
# child processes


def child_env(trace_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env.pop(tracing.ENV_VAR, None)
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(BENCH / "hook"))
        env[tracing.ENV_VAR] = str(trace_dir)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(cmd, cwd: Path, env: dict, log: Path, pacer: Pacer | None = None):
    """Run cmd to completion; return (exit code, wall s, corrected CPU s or None, peak RSS KiB).

    stdout and stderr go to log.out and log.err. CPU time and peak RSS cover
    the child and the children it reaped. The child leads its own process
    group, which is killed on timeout and after it exits, so no worker
    outlives it.
    """
    cmd = [str(c) for c in cmd]
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        before = pacer.reading() if pacer else None
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        cost = cpu * Pacer.scale(before, pacer.reading()) if pacer else None
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return proc.returncode, wall, cost, usage.ru_maxrss


def mowave_cmd(*argv) -> list:
    return [sys.executable, "-m", "mowave", *argv]


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return path


def file_digests(outdir: Path) -> dict:
    """sha256 of every output file; manifest.json without its wall clock."""
    digests = {}
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_clock_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[str(path.relative_to(outdir))] = hashlib.sha256(data).hexdigest()
    return digests


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs, the command of one run and its output checks."""

    jobs = 1

    def __init__(self, work: Path, seed: int, tiny: bool = False):
        self.work, self.seed, self.tiny = work, seed, tiny
        self.errors: list[str] = []
        self.missing: set[str] = set()
        self.expected = None  # outputs of the first run of the set
        work.mkdir(parents=True)
        self.setup_configs = self.prepare()

    def prepare(self) -> list[Path]:
        """Write the inputs; return the problem configs set-up loads."""
        raise NotImplementedError

    def command(self, opdir: Path) -> list:
        raise NotImplementedError

    def check(self, code: int, opdir: Path) -> tuple[int, int]:
        """Return (operations attempted, operations failed)."""
        raise NotImplementedError

    def fail(self, problems: list[str]) -> int:
        if problems and len(self.errors) < 20:
            self.errors.append("; ".join(problems))
        return int(bool(problems))

    def same_as_first(self, value) -> bool:
        if self.expected is None:
            self.expected = value
        return value == self.expected

    def start_set(self) -> None:
        pass

    def op(self, index: int, traced: bool, pacer: Pacer | None = None) -> Op:
        opdir = self.work / f"op{index:03d}"
        trace_dir = opdir / "trace"
        trace_dir.mkdir(parents=True)
        env = child_env(trace_dir if traced else None)
        code, wall, cost, rss = run_child(self.command(opdir), opdir, env, opdir / "log", pacer)
        attempted, failed = self.check(code, opdir)
        layers = None
        if traced:
            agg = tracing.collect(trace_dir)
            self.missing.update(agg["missing"])
            layers = tracing.layer_metrics(agg, wall, self.jobs, dir_bytes(opdir / "out"))
        shutil.rmtree(opdir)
        return Op(wall, cost, rss, attempted, failed, traced, layers)

    def measure(self, seconds: float, trace: bool, pacer: Pacer | None = None) -> list[Op]:
        """Closed loop of runs; with trace, untraced and traced runs alternate.

        Stops before a run that would end after `seconds`, once there are two
        untraced runs (and two traced ones when tracing).
        """
        ops: list[Op] = []
        start = time.perf_counter()
        while True:
            ops.append(self.op(len(ops), trace and len(ops) % 2 == 1, pacer))
            n_traced = sum(o.traced for o in ops)
            enough = len(ops) - n_traced >= 2 and n_traced >= (2 if trace else 0)
            mean_wall = statistics.mean(o.wall for o in ops)
            if enough and time.perf_counter() - start + mean_wall > seconds:
                return ops


def _stdout(opdir: Path) -> str:
    return (opdir / "log.out").read_text(encoding="utf-8", errors="replace")


class Reference(Workload):
    def prepare(self):
        cfg = inputs.reference_config(self.seed)
        self.grid_n = 200
        if self.tiny:
            cfg["horizon"], self.grid_n = 0.5, 64
        self.config = write_json(self.work / "reference.json", cfg)
        return [self.config]

    def command(self, opdir):
        return mowave_cmd(
            "simulate", self.config, "--grid-n", self.grid_n, "--sample-every", 10, "--outdir", opdir / "out"
        )

    def check(self, code, opdir):
        if code != 0:
            return 1, self.fail([f"exit {code}"])
        outdir = opdir / "out"
        # in a child: importing mowave here would grow this process, whose
        # size at fork counts into every later child's peak RSS
        verify = [sys.executable, "-c", VERIFY_MANIFEST, outdir / "manifest.json"]
        vcode, _, _, _ = run_child(verify, opdir, child_env(), opdir / "verify")
        problems = [] if vcode == 0 else ["verify_manifest: " + (opdir / "verify.err").read_text().strip()]
        checks = json.loads((outdir / "manifest.json").read_text())["checks"]
        if checks["bound_holds"] is not True:
            problems.append(f"bound_holds = {checks['bound_holds']}")
        if not checks["relative_plu_residual"] < MAX_PLU_RESIDUAL:
            problems.append(f"relative_plu_residual = {checks['relative_plu_residual']}")
        if not self.same_as_first(file_digests(outdir)):
            problems.append("outputs differ from the first run of the set")
        return 1, self.fail(problems)


class Convergence(Workload):
    def prepare(self):
        cfg = inputs.convergence_config(self.seed)
        self.grid = "50,100,200"
        if self.tiny:
            cfg["horizon"], self.grid = 0.2, "32,64"
        self.config = write_json(self.work / "convergence.json", cfg)
        return [self.config]

    def command(self, opdir):
        return mowave_cmd("convergence", self.config, "--grid-n", self.grid)

    def check(self, code, opdir):
        stdout = _stdout(opdir)
        problems = [] if code == 0 else [f"exit {code}"]
        last = stdout.strip().splitlines()[-1:] or [""]
        if not last[0].startswith("minimum observed order"):
            problems.append("no minimum observed order printed")
        elif not float(last[0].split()[-1]) >= MIN_ORDER:
            problems.append(last[0])
        if not self.same_as_first(stdout):
            problems.append("printed orders differ from the first run of the set")
        return 1, self.fail(problems)


class Sweep(Workload):
    jobs = 2

    def prepare(self):
        cfg = inputs.sweep_config(self.seed)
        self.grid_n = 200
        if self.tiny:
            cfg["base"]["horizon"], self.grid_n = 0.5, 64
        self.config = write_json(self.work / "sweep.json", cfg)
        cells = inputs.sweep_cells(cfg)
        self.ncells = len(cells)
        return [write_json(self.work / f"cell_{i:04d}.json", c) for i, c in enumerate(cells)]

    def command(self, opdir, jobs=jobs):
        return mowave_cmd(
            "sweep", self.config, "--jobs", jobs, "--grid-n", self.grid_n,
            "--sample-every", 10, "--outdir", opdir / "out",
        )

    def _cells(self, outdir):
        """Per cell: its sweep.csv row and the digests of its files."""
        rows = (outdir / "sweep.csv").read_text().splitlines()[1:]
        return [
            (rows[i] if i < len(rows) else None, file_digests(outdir / f"cell_{i:04d}"))
            for i in range(self.ncells)
        ]

    def start_set(self):
        # the serial run every parallel run of the set must reproduce byte for byte
        base = self.work / "serial"
        base.mkdir()
        code, _, _, _ = run_child(self.command(base, jobs=1), base, child_env(), base / "log")
        if code != 0:
            self.errors.append(f"serial reference run: exit {code}")
        else:
            self.expected = self._cells(base / "out")
        shutil.rmtree(base)

    def check(self, code, opdir):
        if code != 0 or self.expected is None:
            return self.ncells, self.ncells * self.fail([f"exit {code}"])
        failed = 0
        for i, ((row, files), (row0, files0)) in enumerate(zip(self._cells(opdir / "out"), self.expected)):
            problems = []
            if row is None or row.rsplit(",", 1)[-1] not in ("0", "5"):
                problems.append(f"cell {i}: row {row!r}")
            if row != row0 or files != files0:
                problems.append(f"cell {i}: differs from the serial run")
            failed += self.fail(problems)
        return self.ncells, failed


class Screen(Workload):
    def prepare(self):
        configs = inputs.screen_configs(self.seed)
        if self.tiny:
            configs = configs[::7]
        paths = [write_json(self.work / f"screen_{i:03d}.json", c) for i, c in enumerate(configs)]
        self.list_file = self.work / "screen.txt"
        self.list_file.write_text("\n".join(map(str, paths)) + "\n")
        return paths

    def command(self, opdir):
        return [sys.executable, BENCH / "screen_child.py", self.list_file, opdir / "results.json"]

    @staticmethod
    def check_call(code, out, err) -> list[str]:
        if code not in (0, 5) or "Traceback" in err:
            return [f"exit {code}: {err.strip()[-200:]}"]
        if code == 5:
            return []
        cert = json.loads(out)
        problems = []
        if not cert["lambda_lo"] <= cert["lambda"] <= cert["lambda_hi"]:
            problems.append(f"lambda {cert['lambda']} outside [{cert['lambda_lo']}, {cert['lambda_hi']}]")
        if not cert["C"] >= 1.0:
            problems.append(f"C = {cert['C']}")
        return problems

    def check(self, code, opdir):
        n = len(self.setup_configs)
        if code != 0:
            return n, n * self.fail([f"screen process: exit {code}"])
        results = json.loads((opdir / "results.json").read_text())
        self.same_as_first(results)
        failed = 0
        for i, (result, first) in enumerate(zip(results, self.expected)):
            problems = self.check_call(*result)
            if result != first:
                problems.append(f"config {i}: differs from the first run of the set")
            failed += self.fail(problems)
        return n, failed


WORKLOADS = {"reference": Reference, "convergence": Convergence, "sweep": Sweep, "screen": Screen}


# ---------------------------------------------------------------------------
# set-up, metrics, environment


def measure_setup(workload: Workload, pacer: Pacer | None, samples: int = SETUP_SAMPLES) -> list[float]:
    """Corrected CPU seconds of fresh interpreters importing mowave and loading + validating the configs.

    One untimed run first fills the bytecode cache, which users pay once.
    """
    cmd = [sys.executable, BENCH / "setup_child.py", *workload.setup_configs]
    times = []
    for i in range(samples + 1):
        code, wall, cost, _ = run_child(cmd, workload.work, child_env(), workload.work / "setup", pacer)
        if code != 0:
            workload.errors.append(f"set-up run: exit {code}")
        elif i > 0:
            times.append(cost if pacer else wall)
    return times


def end_to_end(ops: list[Op], setup: list[float]) -> dict:
    done = sum(o.attempted - o.failed for o in ops)
    return {
        "cpu_s": statistics.median(o.cost for o in ops),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "ops_per_s": done / sum(o.cost for o in ops),
        "peak_rss_mb": statistics.median(o.rss_kb for o in ops) / 1024.0,
    }


def per_layer(ops: list[Op], errors: list[str]) -> dict:
    traced = [o for o in ops if o.traced]
    plain = [o for o in ops if not o.traced]
    if not traced or not plain:
        errors.append("no traced and untraced runs to compare")
        return dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    for name in tracing.EXACT_COUNTS:
        values = sorted({o.layers[name] for o in traced})
        if len(values) > 1:
            errors.append(f"{name} differs between traced runs of the set: {values}")
    metrics = {}
    for name in traced[0].layers:
        # counts stay whole numbers: take an observed value, not an average
        middle = statistics.median if tracing.LAYER_METRICS[name] in ("s", "us", "frac") else statistics.median_low
        metrics[name] = middle(o.layers[name] for o in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(o.wall for o in traced) / statistics.median(o.wall for o in plain) - 1.0
    )
    return metrics


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or None
    return head or None


def environment() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = _read(index / "size")
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "commit": _commit(),
        "loadavg_before": os.getloadavg(),
        "note": (
            "grid arrays hold at most 201 doubles (about 3 KB) and sit in L2; "
            "the benchmark measures interpreter-bound work and claims no memory-bandwidth figure"
        ),
    }


def _spread(values) -> str:
    values = sorted(values)
    return f"median {statistics.median(values):.6g}  min {values[0]:.6g}  max {values[-1]:.6g}  n={len(values)}"


def report(name: str, ops: list[Op], setup: list[float], metrics: dict, units: dict) -> None:
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    plain = [o for o in ops if not o.traced]
    print(f"{name}: {len(plain)} untraced and {len(ops) - len(plain)} traced runs")
    print(f"  raw wall per run [s]: {_spread(o.wall for o in plain)}")
    if plain[0].cost is not None:
        print(f"  corrected CPU per run [s]: {_spread(o.cost for o in plain)}")
    if setup:
        print(f"  corrected set-up [s]: {_spread(setup)}")
    print(f"  operations attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")
    if "ops_per_s" in metrics and name in ("sweep", "screen"):
        label, factor = ("cells_per_min", 60.0) if name == "sweep" else ("certs_per_s", 1.0)
        print(f"  {label} {factor * metrics['ops_per_s']:.6g}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mowave" / "__init__.py").is_file():
        print(f"perfbench: no mowave source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.start_set()
        if args.trace:
            setup, ops = [], workload.measure(args.seconds, True)
        else:
            # one CPU for this process, the pacer and every child (they inherit it)
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
            with Pacer(work / "pacer.bin") as pacer:
                setup = measure_setup(workload, pacer)
                ops = workload.measure(args.seconds, False, pacer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    errors = workload.errors
    if args.trace:
        metrics, units = per_layer(ops, errors), tracing.LAYER_METRICS
    else:
        metrics, units = end_to_end(ops, setup), END_TO_END
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    correct = failed == 0 and not errors

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    report(args.workload, ops, setup, metrics, units)
    if workload.missing:
        print("trace targets not found: " + ", ".join(sorted(workload.missing)))
    for error in errors:
        print("error: " + error)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
