"""The one sanctioned wall-clock boundary of the reproduction.

Everything simulated reads the deterministic scheduler clock; the only
legitimate consumers of *host* time in ``src/`` are tools, such as the
``reprolint`` command line timing its own run.  They go through this
module, which exists precisely so that ``reprolint``'s DET001 rule can
forbid ``time.time`` / ``time.perf_counter`` / ``datetime.now``
everywhere else: a wall-clock read outside this file is, by
construction, a determinism bug (see docs/STATIC_ANALYSIS.md).
"""

from __future__ import annotations

import time as _time


def wall_clock() -> float:
    """Read the host's monotonic wall clock."""
    # reprolint: disable=DET001 -- this IS the sanctioned host-time boundary
    return _time.perf_counter()
