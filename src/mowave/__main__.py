import sys

from .harness import entry

sys.exit(entry())
