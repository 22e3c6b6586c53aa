"""Tests for ``repro.obs.hostclock`` — the one sanctioned wall-clock
boundary (the file reprolint's DET001 rule carves out)."""

from __future__ import annotations

from repro.obs.hostclock import wall_clock


def test_default_clock_is_monotonic_perf_counter():
    first = wall_clock()
    second = wall_clock()
    assert second >= first
