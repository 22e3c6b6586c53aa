#!/usr/bin/env python
"""reprolint — determinism & sim-discipline lint for the reproduction.

Usage:
    python tools/reprolint.py [paths...] [--json report.json]
                              [--graph-dump graph.json]
                              [--protocol-dump protocol.json]
                              [--budget seconds]
                              [--write-baseline] [--verbose]

Thin wrapper over :mod:`reprolint.cli`; see docs/STATIC_ANALYSIS.md
for the rule catalogue and suppression syntax.  Exits non-zero on any
violation, parse error, stale baseline entry, or unused/unjustified
suppression — the same bar as the blocking CI job and
``tests/test_reprolint.py``.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from reprolint.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
