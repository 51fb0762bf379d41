"""Entry point: ``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e/__main__.py``."""

import os
import sys

if not __package__:
    # run as a file: this directory is sys.path[0], where ``trace.py`` would
    # shadow the standard library's; put the repository root and src there
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path[0:1] = [root, os.path.join(root, "src")]

from benchmarks.e2e.harness import main

if __name__ == "__main__":
    raise SystemExit(main())
