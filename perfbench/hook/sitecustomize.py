"""Start the layer tracer in every Python process of a traced CLI run.

The benchmark puts this directory on PYTHONPATH and sets PERFBENCH_TRACE_DIR
only for traced runs, so ``python -m mowave ...`` and any worker process it
starts (forked or spawned) record their layer aggregates into that directory.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import sys
    from pathlib import Path

    sys.path.append(str(Path(__file__).resolve().parent.parent))
    try:
        import tracing
    finally:
        sys.path.pop()
    tracing.install_process_tracer(os.environ["PERFBENCH_TRACE_DIR"])
