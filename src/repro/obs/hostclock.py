"""The one sanctioned wall-clock boundary of the reproduction.

Everything simulated reads the deterministic scheduler clock; the only
legitimate consumers of *host* time in ``src/`` are tools, such as the
``reprolint`` command line timing its own run.  They go through this
module, which exists precisely so that ``reprolint``'s DET001 rule can
forbid ``time.time`` / ``time.perf_counter`` / ``datetime.now``
everywhere else: a wall-clock read outside this file is, by
construction, a determinism bug (see docs/STATIC_ANALYSIS.md).

The clock is injectable: a test runs a host-timed code path against a
scripted fake clock instead of asserting "some positive float came
out".
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import Callable, Iterator

WallClockFn = Callable[[], float]

# reprolint: disable=DET001 -- this IS the sanctioned host-time boundary
_default_wall_clock: WallClockFn = _time.perf_counter
_wall_clock: WallClockFn = _default_wall_clock


def wall_clock() -> float:
    """Read the host's monotonic wall clock (or the injected override)."""
    return _wall_clock()


def current_wall_clock() -> WallClockFn:
    """The callable :func:`wall_clock` currently delegates to."""
    return _wall_clock


def set_wall_clock(fn: WallClockFn) -> WallClockFn:
    """Replace the process-wide wall clock; returns the previous one.

    Prefer the scoped :func:`override_wall_clock` in tests.
    """
    global _wall_clock
    previous = _wall_clock
    _wall_clock = fn
    return previous


def reset_wall_clock() -> None:
    """Restore the real host clock (``time.perf_counter``)."""
    global _wall_clock
    _wall_clock = _default_wall_clock


@contextmanager
def override_wall_clock(fn: WallClockFn) -> Iterator[WallClockFn]:
    """Scoped injection: ``with override_wall_clock(fake): ...``."""
    previous = set_wall_clock(fn)
    try:
        yield fn
    finally:
        set_wall_clock(previous)
