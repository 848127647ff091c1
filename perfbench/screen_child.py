"""One screen pass: ``mowave certify`` on every listed config, in this process.

Usage: python screen_child.py LIST_FILE OUT_JSON

Calls ``mowave.harness.main(["certify", path])`` once per config listed in
LIST_FILE and writes [exit code, stdout, stderr] per call to OUT_JSON. An
exception escaping main is recorded as a failed call with its traceback.
"""

import contextlib
import io
import json
import sys
import traceback

from mowave.harness import main


def certify(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["certify", path])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported as a failed call, not a crash of the pass
            traceback.print_exc()
            code = None
    return [code, out.getvalue(), err.getvalue()]


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        results = [certify(path) for path in fh.read().split()]
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(results, fh)
