"""One set-up measurement: import mowave, then load and validate configs.

Usage: python setup_child.py CONFIG [CONFIG ...]
Exits 1 when a config does not load or fails the admissibility checks.
"""

import sys

import mowave

for path in sys.argv[1:]:
    if not mowave.validate_assumptions(mowave.load_config(path)).ok:
        sys.exit(f"{path}: admissibility checks failed")
