"""Layer tracing of mowave from outside the program.

The tracer replaces the module attributes that mowave's callers look up
(for example ``mowave.harness.simulate`` or ``mowave.solver.coefficient_grids``)
with timing wrappers, and puts the originals back on ``restore``. Nothing in
``src/`` is edited. Wrappers keep, per layer, the number of calls and the
self time: the time inside the calls minus the part covered by nested traced
calls. Aggregates are kept rather than single spans because the
coefficient layer is entered 24 000 times in one reference run.

Two ways to use it:

* in-process: ``Tracer().install()`` ... ``restore()`` (the self-test);
* in a CLI process tree: ``install_process_tracer(dir)``, called from
  ``hook/sitecustomize.py`` when ``PERFBENCH_TRACE_DIR`` is set. Each process
  (sweep pool workers included, forked or spawned) writes its aggregates to
  ``dir/agg_<pid>.json`` at exit and after every sweep cell, because a forked
  pool worker exits without running exit handlers; ``collect(dir)`` merges
  them.
"""

from __future__ import annotations

import atexit
import functools
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (layer, module, attribute): one entry per lookup site, because a caller
# module keeps its own reference to a function it imported by name.
SPANS = (
    ("model.load", "mowave.harness", "load_config"),
    ("model.load", "mowave.harness", "spec_from_dict"),
    ("model.validate", "mowave.harness", "validate_assumptions"),
    ("model.validate", "mowave.solver", "validate_assumptions"),
    ("transform.coeff", "mowave.solver", "coefficient_grids"),
    ("solver.simulate", "mowave.harness", "simulate"),
    ("solver.forcing_build", "mowave.solver", "manufactured_forcing"),
    ("solver.forcing_build", "mowave.solver", "exact_reference_fields"),
    ("solver.forcing_build", "mowave.energy", "manufactured_forcing"),
    ("solver.forcing_build", "mowave.harness", "exact_reference_fields"),
    ("energy.rate_residual", "mowave.energy", "energy_rate_residual"),
    ("energy.identity", "mowave.harness", "multiplier_identity_residual"),
    ("energy.write", "mowave.harness", "write_energy_csv"),
    ("energy.write", "mowave.harness", "write_identity_csv"),
    ("certify.window", "mowave.harness", "window_edges"),
    ("certify.window", "mowave.certify", "window_edges"),
    ("certify.build", "mowave.harness", "build_certificate"),
    ("certify.check", "mowave.harness", "check_decay_bound"),
    ("certify.fit", "mowave.harness", "fit_decay"),
    ("svgplot.write", "mowave.harness", "write_decay_svg"),
    ("harness.run", "mowave.harness", "run_simulation"),
    ("harness.manifest", "mowave.harness", "write_manifest"),
)
# classmethods are wrapped on their class: (layer, module, class, method)
CLASS_SPANS = (("energy.series", "mowave.energy", "EnergySeries", "from_trajectory"),)
# counted but not timed, so their cost stays in the caller's self time
COUNTS = (("solver.rhs", "mowave.solver", "_rhs_arrays"),)

# Counts that must repeat exactly between runs of the same inputs.
EXACT_COUNTS = (
    "solver.steps",
    "solver.rhs_evals",
    "transform.coeff_calls",
    "energy.snapshots",
    "solver.forcing_builds",
    "certify.window_calls",
)

# name -> unit, in report order
LAYER_METRICS = {
    "model.load_s": "s",
    "model.validate_s": "s",
    "transform.coeff_calls": "count",
    "transform.coeff_s": "s",
    "solver.steps": "count",
    "solver.rhs_evals": "count",
    "solver.simulate_self_s": "s",
    "solver.us_per_rhs": "us",
    "solver.forcing_builds": "count",
    "solver.forcing_build_s": "s",
    "energy.snapshots": "count",
    "energy.series_s": "s",
    "energy.rate_residual_s": "s",
    "energy.identity_self_s": "s",
    "energy.us_per_snapshot": "us",
    "energy.write_s": "s",
    "certify.window_calls": "count",
    "certify.window_s": "s",
    "certify.build_s": "s",
    "certify.check_s": "s",
    "certify.fit_s": "s",
    "svgplot.write_s": "s",
    "harness.run_self_s": "s",
    "harness.manifest_s": "s",
    "harness.bytes_written": "bytes",
    "harness.cell_s": "s",
    "harness.pool_busy_frac": "frac",
    "trace.overhead_frac": "frac",
}

ENV_VAR = "PERFBENCH_TRACE_DIR"


def _steps(traj) -> int:
    # simulate's own step count: ceil(T/dt) with the final step shortened
    return int(math.ceil(traj.spec.horizon / traj.dt - 1e-12))


class Tracer:
    """Wraps mowave's layer entry points; keeps per-layer aggregates."""

    def __init__(self, on_cell_end=None):
        self.layers = defaultdict(lambda: [0, 0.0])  # calls, self seconds
        self.counts = defaultdict(int)
        self.cells: list[float] = []  # run_simulation durations
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._on_cell_end = on_cell_end

    def reset(self) -> None:
        self.layers.clear()
        self.counts.clear()
        self.cells.clear()
        self._stack.clear()

    # -- wrapping ---------------------------------------------------------

    def _span(self, layer, fn):
        stack, layers, counts, clock = self._stack, self.layers, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by nested traced calls
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                entry = layers[layer]
                entry[0] += 1
                entry[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if layer == "solver.simulate":
                counts["solver.steps"] += _steps(result)
                counts["energy.snapshots"] += len(result.times)
            elif layer == "harness.run":
                self.cells.append(duration)
                if not stack and self._on_cell_end is not None:
                    self._on_cell_end()
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap every target that exists; missing ones are listed in self.missing."""
        import mowave  # noqa: F401  (loads every submodule)

        for targets, wrap in ((SPANS, self._span), (COUNTS, self._counter)):
            for layer, modname, attr in targets:
                # sys.modules, not mowave.<name>: the package re-exports the
                # function ``energy``, which shadows the submodule attribute
                module = sys.modules.get(modname)
                if module is None or attr not in module.__dict__:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._replace(module, attr, wrap(layer, module.__dict__[attr]))
        for layer, modname, clsname, attr in CLASS_SPANS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            descriptor = getattr(cls, "__dict__", {}).get(attr)
            if not isinstance(descriptor, classmethod):
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            self._replace(cls, attr, classmethod(self._span(layer, descriptor.__func__)))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {
            "layers": {k: list(v) for k, v in self.layers.items()},
            "counts": dict(self.counts),
            "cells": list(self.cells),
            "missing": list(self.missing),
        }


def install_process_tracer(trace_dir) -> Tracer:
    """Trace this process; write its aggregates to trace_dir/agg_<pid>.json."""
    trace_dir = Path(trace_dir)

    def flush():
        path = trace_dir / f"agg_{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.snapshot()))
        os.replace(tmp, path)

    tracer = Tracer(on_cell_end=flush).install()
    # a forked pool worker starts with the parent's aggregates; drop them
    os.register_at_fork(after_in_child=tracer.reset)
    atexit.register(flush)
    return tracer


def collect(trace_dir) -> dict:
    """Sum the aggregates every process of a traced run wrote into trace_dir."""
    layers = defaultdict(lambda: [0, 0.0])
    counts = defaultdict(int)
    cells: list[float] = []
    missing: set[str] = set()
    for path in sorted(Path(trace_dir).glob("agg_*.json")):
        snap = json.loads(path.read_text())
        for name, (calls, self_s) in snap["layers"].items():
            layers[name][0] += calls
            layers[name][1] += self_s
        for name, value in snap["counts"].items():
            counts[name] += value
        cells.extend(snap["cells"])
        missing.update(snap["missing"])
    return {"layers": dict(layers), "counts": dict(counts), "cells": cells, "missing": sorted(missing)}


def layer_metrics(agg: dict, wall_s: float, jobs: int, bytes_written: int) -> dict:
    """Per-layer metrics of one traced operation (trace.overhead_frac excluded)."""
    layers, counts, cells = agg["layers"], agg["counts"], agg["cells"]

    def calls(name):
        return layers.get(name, [0, 0.0])[0]

    def self_s(name):
        return layers.get(name, [0, 0.0])[1]

    rhs = counts.get("solver.rhs", 0)
    snapshots = counts.get("energy.snapshots", 0)
    diagnostics = self_s("energy.series") + self_s("energy.rate_residual") + self_s("energy.identity")
    return {
        "model.load_s": self_s("model.load"),
        "model.validate_s": self_s("model.validate"),
        "transform.coeff_calls": calls("transform.coeff"),
        "transform.coeff_s": self_s("transform.coeff"),
        "solver.steps": counts.get("solver.steps", 0),
        "solver.rhs_evals": rhs,
        "solver.simulate_self_s": self_s("solver.simulate"),
        "solver.us_per_rhs": (
            1e6 * (self_s("solver.simulate") + self_s("transform.coeff")) / rhs if rhs else 0.0
        ),
        "solver.forcing_builds": calls("solver.forcing_build"),
        "solver.forcing_build_s": self_s("solver.forcing_build"),
        "energy.snapshots": snapshots,
        "energy.series_s": self_s("energy.series"),
        "energy.rate_residual_s": self_s("energy.rate_residual"),
        "energy.identity_self_s": self_s("energy.identity"),
        "energy.us_per_snapshot": 1e6 * diagnostics / snapshots if snapshots else 0.0,
        "energy.write_s": self_s("energy.write"),
        "certify.window_calls": calls("certify.window"),
        "certify.window_s": self_s("certify.window"),
        "certify.build_s": self_s("certify.build"),
        "certify.check_s": self_s("certify.check"),
        "certify.fit_s": self_s("certify.fit"),
        "svgplot.write_s": self_s("svgplot.write"),
        "harness.run_self_s": self_s("harness.run"),
        "harness.manifest_s": self_s("harness.manifest"),
        "harness.bytes_written": bytes_written,
        "harness.cell_s": statistics.median(cells) if cells else 0.0,
        "harness.pool_busy_frac": sum(cells) / (jobs * wall_s) if cells else 0.0,
    }
