"""Contention correction for CPU times measured on a shared machine.

On a 2-core VM whose host is shared, the same mowave run takes anywhere
from 1.3 s to 2.5 s of CPU time, in episodes lasting seconds to minutes,
because other tenants slow the core it runs on. Medians over a run do not
remove that. The pacer does: it repeats a fixed interpreter-bound numpy task
(the shape of one RK4 stage on a 201-node grid) on the same CPU as the
measured processes, time-sliced with them, so it runs slower exactly when
they do. A measured CPU time is scaled by

    REF_CHUNK_S / (pacer CPU seconds per chunk over the same interval)

which gives the time the work would take at the pacer's reference speed.
REF_CHUNK_S only sets the scale. It was chosen so that the corrected CPU
time of the reference workload matched its fastest uncontended wall time
(about 1.3 s) on the machine the benchmark was calibrated on, a 2-core
Intel Xeon under KVM; corrected times read as seconds on that machine.

Usage as a process (``Pacer`` starts it): python pacer.py STATE_FILE
It writes (chunks done, its CPU seconds) as two doubles into STATE_FILE
after every chunk.
"""

from __future__ import annotations

import mmap
import struct
import subprocess
import sys
import time
from pathlib import Path

REF_CHUNK_S = 1.0e-3
_STATE = struct.Struct("dd")


class Pacer:
    """Runs the pacer process, on the caller's CPUs, while in use."""

    def __init__(self, state_file: Path):
        self.state_file = Path(state_file)

    def __enter__(self) -> "Pacer":
        self.state_file.write_bytes(bytes(_STATE.size))
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.state_file)])
        with open(self.state_file, "r+b") as fh:
            self.state = mmap.mmap(fh.fileno(), _STATE.size)
        while self.reading()[0] < 10:  # past its start-up
            if self.proc.poll() is not None:
                self.state.close()
                raise RuntimeError(f"pacer exited with {self.proc.returncode}")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait()
        self.state.close()

    def reading(self) -> tuple[float, float]:
        """(chunks done, pacer CPU seconds) so far."""
        return _STATE.unpack_from(self.state)

    @staticmethod
    def scale(before, after) -> float:
        """Factor that turns CPU seconds measured between two readings into reference seconds."""
        return REF_CHUNK_S * (after[0] - before[0]) / (after[1] - before[1])


def _loop(state_file: str) -> None:
    import numpy as np

    with open(state_file, "r+b") as fh:
        state = mmap.mmap(fh.fileno(), _STATE.size)
    v = np.linspace(0.0, 1.0, 201)
    w = v.copy()
    chunks = 0
    while True:
        for _ in range(100):
            d = np.zeros_like(v)
            d[1:-1] = (v[2:] - v[:-2]) * 0.5
            w = w + 1e-3 * (d - 0.1 * w - np.abs(v) ** 1.5 * v)
        chunks += 1
        _STATE.pack_into(state, 0, chunks, time.process_time())


if __name__ == "__main__":
    _loop(sys.argv[1])
