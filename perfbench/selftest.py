"""Self-test of the benchmark on tiny inputs (under a minute on 2 cores).

    python3 perfbench/selftest.py

1. Installs the tracer in this process around tiny in-process CLI runs of
   every subcommand, and asserts that every wrapped attribute is restored
   afterwards and that the traced outputs are byte-identical to untraced ones.
2. For every workload and two seeds, runs untraced and traced runs at a tiny
   size (N=64 and T<=0.5; every 7th screen config) through the same code as
   run.py, then one set-up and one run under the pacer. The workloads compare
   each run's outputs with the first one's, so a traced output that differs
   from the untraced one fails here. Asserts that no check failed, that every
   per-layer metric is reported, that the exact counts repeat, that the layers
   each workload runs are seen by the tracer, and that the corrected
   end-to-end metrics are positive.
3. Runs run.py from a copy of the benchmark without a source tree and
   asserts that it fails without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import inputs
import run
import tracing
from pacer import Pacer

sys.path.insert(0, str(run.SRC))

# layers each workload must reach (count metric > 0), and ones it must not
SEEN = {
    "reference": ("solver.steps", "energy.snapshots", "certify.window_calls"),
    "convergence": ("solver.steps", "energy.snapshots", "solver.forcing_builds"),
    "sweep": ("solver.steps", "energy.snapshots", "certify.window_calls", "harness.pool_busy_frac"),
    "screen": ("certify.window_calls",),
}
UNSEEN = {
    "reference": ("solver.forcing_builds",),
    "convergence": ("certify.window_calls",),
    "sweep": ("solver.forcing_builds",),
    "screen": ("solver.steps", "solver.forcing_builds"),
}


def _targets():
    out = [(sys.modules[mod], attr) for _, mod, attr in tracing.SPANS + tracing.COUNTS]
    out += [(getattr(sys.modules[mod], cls), attr) for _, mod, cls, attr in tracing.CLASS_SPANS]
    return out


def _cli_outputs(work):
    """Tiny in-process runs of every subcommand: (stdout texts, file digests)."""
    from mowave.harness import main

    ref = inputs.reference_config(0)
    ref["horizon"] = 0.5
    conv = inputs.convergence_config(0)
    conv["horizon"] = 0.2
    sweep = inputs.sweep_config(0)
    sweep["base"]["horizon"] = 0.5
    work.mkdir(parents=True)
    ref_path = run.write_json(work / "ref.json", ref)
    conv_path = run.write_json(work / "conv.json", conv)
    sweep_path = run.write_json(work / "sweep.json", sweep)
    texts = []
    for argv in (
        ["simulate", ref_path, "--grid-n", 16, "--outdir", work / "sim"],
        ["certify", ref_path],
        ["convergence", conv_path, "--grid-n", "32,64"],
        ["sweep", sweep_path, "--jobs", 1, "--grid-n", 16, "--outdir", work / "sweep"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(map(str, argv)))
        assert code == 0, (argv, code)
        texts.append(out.getvalue().replace(str(work), "WORK"))
    return texts, run.file_digests(work / "sim"), run.file_digests(work / "sweep")


def check_restore(work):
    import mowave  # noqa: F401

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in _targets()]
    tracer = tracing.Tracer().install()
    try:
        assert not tracer.missing, tracer.missing
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        traced = _cli_outputs(work / "traced")
    finally:
        tracer.restore()
    unrestored = [attr for owner, attr, fn in originals if owner.__dict__[attr] is not fn]
    assert not unrestored, unrestored
    assert traced == _cli_outputs(work / "plain"), "traced in-process outputs differ"
    assert tracer.layers["transform.coeff"][0] > 0 and tracer.counts["solver.rhs"] > 0
    print(f"restore: {len(originals)} attributes wrapped and restored; outputs identical")


def check_workload(name, seed, work):
    workload = run.WORKLOADS[name](work / f"{name}-{seed}", seed, tiny=True)
    workload.start_set()
    ops = [workload.op(i, traced) for i, traced in enumerate((False, True, False, True))]
    with Pacer(workload.work / "pacer.bin") as pacer:
        setup = run.measure_setup(workload, pacer, samples=1)
        ops.append(workload.op(len(ops), False, pacer))
    errors = list(workload.errors)
    metrics = run.per_layer(ops, errors)
    assert not errors, errors
    assert sum(o.failed for o in ops) == 0
    assert not workload.missing, workload.missing
    assert list(metrics) == list(tracing.LAYER_METRICS), sorted(set(tracing.LAYER_METRICS) ^ set(metrics))
    assert metrics["solver.rhs_evals"] == 4 * metrics["solver.steps"], metrics
    assert all(metrics[k] > 0 for k in SEEN[name]), {k: metrics[k] for k in SEEN[name]}
    assert all(metrics[k] == 0 for k in UNSEEN[name]), {k: metrics[k] for k in UNSEEN[name]}
    e2e = run.end_to_end(ops[-1:], setup)
    assert all(v > 0 for v in e2e.values()), e2e
    print(f"{name} seed {seed}: traced outputs identical, counts repeat, corrected times {e2e}")


def check_no_source(work):
    bare = work / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"no source tree: exit {proc.returncode}, no result printed")


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    try:
        check_restore(work / "restore")
        for name in run.WORKLOADS:
            for seed in (0, 7):
                check_workload(name, seed, work)
        check_no_source(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
