"""Flight-recorder tests: ring semantics, hook coverage, determinism.

The black box must be (a) purely passive — arming it, and arming the
event-driven series registry, never changes the simulated schedule —
and (b) deterministic: the same seeded scenario dumps byte-identical
series and flight JSON across reruns.
"""

from __future__ import annotations

import pytest

from repro import FtClientLayer, Orb, World
from repro.apps import COUNTER_INTERFACE
from repro.errors import ConfigurationError
from repro.obs import FlightRecorder

from tests.helpers import make_counter_group, make_domain


# ----------------------------------------------------------------------
# Ring semantics
# ----------------------------------------------------------------------

def test_disabled_recorder_is_inert():
    recorder = FlightRecorder(enabled=False)
    recorder.record("flight.fault", action="crash")
    assert recorder.recorded == 0
    assert recorder.events() == []


def test_record_orders_and_validates():
    clock = [0.0]
    recorder = FlightRecorder(clock=lambda: clock[0], enabled=True)
    recorder.record("flight.fault", action="crash", target="h0")
    clock[0] = 1.5
    recorder.record("flight.membership", member="h1")
    events = recorder.events()
    assert [e["seq"] for e in events] == [1, 2]
    assert events[0]["t"] == 0.0 and events[1]["t"] == 1.5
    assert events[0]["detail"] == {"action": "crash", "target": "h0"}
    assert recorder.events("flight.membership") == [events[1]]
    with pytest.raises(ConfigurationError):
        recorder.record("Not A Valid Kind")


def test_ring_bounds_and_dump():
    recorder = FlightRecorder(enabled=True, capacity=3)
    for i in range(5):
        recorder.record("flight.fault", action=str(i))
    assert recorder.recorded == 5
    assert recorder.dropped == 2
    # The ring keeps the *last* capacity events, oldest first.
    assert [e["detail"]["action"] for e in recorder.events()] == \
        ["2", "3", "4"]
    dump = recorder.dump()
    assert dump["schema"] == 1
    assert dump["capacity"] == 3
    assert dump["recorded"] == 5 and dump["dropped"] == 2
    assert len(dump["events"]) == 3
    assert '"schema":1' in recorder.dump_json()
    recorder.clear()
    assert recorder.recorded == 0 and recorder.events() == []


# ----------------------------------------------------------------------
# Hook coverage and determinism on a failover scenario
# ----------------------------------------------------------------------

def run_failover(seed=91, armed=True, spans=True):
    """Gateway failover with the black box (and series) armed.

    ``spans`` is separate from ``armed`` because the causal tracer
    records its own metrics when enabled — the perturbation test below
    must hold tracing constant while toggling series + flight.
    """
    world = World(seed=seed, trace=False, trace_spans=spans,
                  series=armed, flight=armed)
    domain = make_domain(world, num_hosts=4, gateways=2)
    group = make_counter_group(domain, replicas=3, min_replicas=2)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="flight")
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)
    results = []
    for i in range(4):
        if i == 2:
            world.faults.crash_now(domain.gateways[0].host.name)
        results.append(world.await_promise(stub.call("increment", 1),
                                           timeout=600))
    world.run(until=world.now + 2.0)
    assert results == [1, 2, 3, 4]
    return world


def test_flight_covers_the_instrumented_subsystems():
    world = run_failover()
    kinds = {e["kind"] for e in world.flight.events()}
    # Membership changes (initial formation + post-crash reformation),
    # the injected fault, token-loss detection on the broken ring, and
    # span closes from the causal tracer.
    assert "flight.membership" in kinds
    assert "flight.fault" in kinds
    assert "flight.token_loss" in kinds
    assert "flight.span" in kinds
    fault, = world.flight.events("flight.fault")
    assert fault["detail"]["action"] == "crash"
    # The crash produced a second membership epoch without the victim.
    installs = world.flight.events("flight.membership")
    assert len(installs) > len(make_domain(World(seed=1)).hosts)


def test_series_filled_by_the_failover_workload():
    world = run_failover()
    keys = world.series.keys()
    assert any(k.startswith("series.gateway.group.latency") for k in keys)
    assert any(k.startswith("series.gateway.latency") for k in keys)
    doc_text = world.series_json()
    assert '"schema":1' in doc_text


def test_arming_series_and_flight_never_perturbs_the_run():
    """The laziness/passivity contract, end to end: metrics JSON (the
    full simulated-time state fingerprint) is byte-identical whether
    the observability extras are armed or not."""
    armed = run_failover(armed=True, spans=False).metrics_json()
    dark = run_failover(armed=False, spans=False).metrics_json()
    assert armed == dark


def test_flight_and_series_json_byte_identical_across_runs():
    first = run_failover()
    second = run_failover()
    assert first.flight_json() == second.flight_json()
    assert first.series_json() == second.series_json()
    assert first.flight.recorded > 0

