"""Tests for ``repro.obs.hostclock`` — the one sanctioned wall-clock
boundary (the file reprolint's DET001 rule carves out).

The injection contract matters for determinism tests everywhere else:
a scoped override must reach every later ``wall_clock()`` read, and
must always unwind, even on error.
"""

from __future__ import annotations

import time

import pytest

from repro.obs.hostclock import (current_wall_clock, override_wall_clock,
                                 reset_wall_clock, set_wall_clock,
                                 wall_clock)


@pytest.fixture(autouse=True)
def _restore_clock():
    yield
    reset_wall_clock()


def test_default_clock_is_monotonic_perf_counter():
    assert current_wall_clock() is time.perf_counter
    first = wall_clock()
    second = wall_clock()
    assert second >= first


def test_set_and_reset_wall_clock():
    fake = lambda: 42.0
    previous = set_wall_clock(fake)
    assert previous is time.perf_counter
    assert wall_clock() == 42.0
    assert current_wall_clock() is fake
    reset_wall_clock()
    assert current_wall_clock() is time.perf_counter


def test_override_is_scoped_and_unwinds_on_error():
    ticks = iter([1.0, 2.5])
    with override_wall_clock(lambda: next(ticks)) as fn:
        assert current_wall_clock() is fn
        assert wall_clock() == 1.0
        assert wall_clock() == 2.5
    assert current_wall_clock() is time.perf_counter

    with pytest.raises(RuntimeError):
        with override_wall_clock(lambda: 0.0):
            raise RuntimeError("boom")
    assert current_wall_clock() is time.perf_counter


def test_overrides_nest():
    with override_wall_clock(lambda: 1.0):
        with override_wall_clock(lambda: 2.0):
            assert wall_clock() == 2.0
        assert wall_clock() == 1.0
