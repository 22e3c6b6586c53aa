"""Causal-tracing tests: collector semantics, end-to-end span trees,
determinism of the exporters, and consistency with the metrics layer.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FtClientLayer, Orb, TraceCollector, World
from repro.sim.trace import Tracer

from tests.helpers import external_client, make_counter_group, make_domain


# ======================================================================
# Collector unit semantics
# ======================================================================


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _collector():
    clock = _Clock()
    return TraceCollector(enabled=True, clock=clock), clock


def test_disabled_collector_is_inert():
    spans = TraceCollector(enabled=False)
    assert spans.start("t", "a") == 0
    spans.end(0)
    spans.instant("t", "b")
    assert spans.spans == []
    assert spans.export_tree() == "(no spans recorded)"


def test_span_ids_and_parenting():
    spans, clock = _collector()
    root = spans.start("t1", "root", source="c")
    clock.now = 1.0
    child = spans.start("t1", "mid", parent=root, source="g")
    assert (root, child) == (1, 2)
    clock.now = 2.0
    spans.end(child)
    clock.now = 3.0
    spans.end(root, outcome="done")
    got_root, got_child = spans.get(root), spans.get(child)
    assert got_child.parent_id == root
    assert got_root.duration == 3.0
    assert got_root.attrs["outcome"] == "done"


def test_end_is_first_close_wins():
    spans, clock = _collector()
    sid = spans.start("t", "x")
    clock.now = 1.0
    spans.end(sid, by="first")
    clock.now = 9.0
    spans.end(sid, by="second")
    span = spans.get(sid)
    assert span.end == 1.0
    assert span.attrs == {"by": "first"}


def test_end_unknown_and_zero_span_is_noop():
    spans, _ = _collector()
    spans.end(0)
    spans.end(12345)
    assert spans.spans == []


def test_late_child_extends_closed_ancestors():
    spans, clock = _collector()
    root = spans.start("t", "root")
    mid = spans.start("t", "mid", parent=root)
    clock.now = 1.0
    spans.end(mid)
    spans.end(root)
    # A straggler closes (or flashes) under mid long after both closed.
    late = spans.start("t", "late", parent=mid)
    clock.now = 5.0
    spans.end(late)
    assert spans.get(mid).end == 5.0
    assert spans.get(root).end == 5.0
    clock.now = 7.0
    spans.instant("t", "flash", parent=mid)
    assert spans.get(root).end == 7.0


def test_instant_is_closed_at_start():
    spans, clock = _collector()
    clock.now = 2.5
    sid = spans.instant("t", "evt", detail=1)
    span = spans.get(sid)
    assert span.closed and span.start == span.end == 2.5


def test_trace_ids_in_first_span_order():
    spans, _ = _collector()
    spans.start("b", "x")
    spans.start("a", "y")
    spans.start("b", "z")
    assert spans.trace_ids() == ["b", "a"]


def test_clear_resets_everything():
    spans, _ = _collector()
    spans.start("t", "x")
    spans.clear()
    assert spans.spans == [] and spans.trace_ids() == []


def test_trace_counters_exist_only_in_a_traced_world():
    assert not any(name.startswith("trace.")
                   for name in World(seed=1).metrics.snapshot())
    world = World(seed=1, trace_spans=True)
    assert world.metrics.value("trace.spans.started") == 0
    world.trace_collector.start("t", "x")
    snap = world.metrics.snapshot()
    assert snap["trace.spans.started"]["value"] == 1
    assert snap["trace.traces.started"]["value"] == 1
    assert snap["trace.spans.closed"]["value"] == 0


def test_chrome_export_schema():
    spans, clock = _collector()
    root = spans.start("t", "root", source="client")
    clock.now = 0.0015
    spans.end(root)
    spans.start("t", "never-closed", parent=root, source="gw")
    doc = json.loads(spans.export_chrome())
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    by_name = {e["name"]: e for e in complete}
    assert by_name["root"]["dur"] == 1500      # µs, integer
    assert by_name["never-closed"]["args"]["open"] is True
    assert by_name["never-closed"]["args"]["parent_id"] == root


# ======================================================================
# Hypothesis: nesting is sound under arbitrary interleavings
# ======================================================================


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_nesting_property_random_interleavings(data):
    """Every closed span lies within its parent, and no span outlives
    its trace root, no matter how starts/ends/instants interleave and
    how late children close."""
    spans, clock = _collector()
    open_ids = []
    n_ops = data.draw(st.integers(1, 40))
    for _ in range(n_ops):
        clock.now += data.draw(st.floats(0, 5))
        op = data.draw(st.sampled_from(["start", "end", "instant"]))
        if op == "start" or not open_ids:
            # A child hop always continues its parent's trace, as in the
            # real instrumentation (the trace id rides with the request).
            parent = (data.draw(st.sampled_from(open_ids))
                      if open_ids and data.draw(st.booleans()) else 0)
            trace = (spans.get(parent).trace_id if parent
                     else data.draw(st.sampled_from(["t1", "t2"])))
            open_ids.append(spans.start(trace, "s", parent=parent))
        elif op == "end":
            spans.end(data.draw(st.sampled_from(open_ids)))
        else:
            parent = data.draw(st.sampled_from(open_ids))
            spans.instant(spans.get(parent).trace_id, "i", parent=parent)
    for sid in open_ids:
        clock.now += data.draw(st.floats(0, 5))
        spans.end(sid)
    by_id = {s.span_id: s for s in spans.spans}
    roots = {}
    for span in spans.spans:
        assert span.closed, "all spans were explicitly closed"
        parent = by_id.get(span.parent_id)
        if parent is not None:
            assert parent.start <= span.start
            assert parent.end >= span.end, "child escapes its parent"
        if span.parent_id == 0:
            roots.setdefault(span.trace_id, []).append(span)
    # No span outlives its trace: some root of the span's trace covers
    # its end (ancestor extension guarantees the span's own root does).
    for span in spans.spans:
        assert any(r.end >= span.end for r in roots[span.trace_id])


# ======================================================================
# End-to-end: the paper's causal path, traced
# ======================================================================


def _traced_scenario(seed=77, crash=False):
    world = World(seed=seed, trace_spans=True)
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    # Fixed client uid: FtClientLayer's default uid comes from a
    # process-global counter, and trace ids embed the uid — pinning it
    # makes exports comparable across worlds within one process.
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="traced-client")
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  group.interface)
    for _ in range(2):
        world.await_promise(stub.call("increment", 1), timeout=600)
    if crash:
        world.faults.crash_now(domain.gateways[0].host.name)
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 0.5)
    return world


def test_span_tree_covers_every_hop():
    world = _traced_scenario()
    spans = world.trace_collector
    trace_id = spans.trace_ids()[0]
    tree = spans.select(trace_id=trace_id)
    names = [s.name for s in tree]
    for hop in ("client.request", "client.marshal", "gateway.request",
                "gateway.ingress", "gateway.translate",
                "totem.order.invocation", "rm.delivery", "rm.execute",
                "totem.order.response", "gateway.response", "gateway.egress"):
        assert hop in names, f"missing hop {hop}"
    by_name = {}
    for span in tree:
        by_name.setdefault(span.name, []).append(span)
    root = by_name["client.request"][0]
    container = by_name["gateway.request"][0]
    assert root.parent_id == 0
    assert container.parent_id == root.span_id
    assert container.attrs["outcome"] == "delivered"
    for name in ("gateway.ingress", "gateway.translate",
                 "totem.order.invocation", "rm.delivery", "rm.execute",
                 "gateway.egress"):
        for span in by_name[name]:
            assert span.parent_id == container.span_id
    # Active replication on 3 hosts: one execution span per replica,
    # every one successful.
    assert len(by_name["rm.execute"]) == 3
    assert all(s.attrs["outcome"] == "done" for s in by_name["rm.execute"])
    assert all(s.closed for s in tree)
    # One ordering-wait span per replica's copy of the response: the
    # first speaker's closes at delivery, the two withdrawn at their
    # senders close there — at that same delivery — as "withdrawn".
    waits = by_name["totem.order.response"]
    assert len(waits) == 3
    assert sorted(s.attrs.get("outcome", "sent") for s in waits) == [
        "sent", "withdrawn", "withdrawn"]
    sent = next(s for s in waits if "seq" in s.attrs)
    assert all(s.end >= sent.end for s in waits)
    # Chronology along the critical path.
    order = by_name["totem.order.invocation"][0]
    execute = by_name["rm.execute"][0]
    egress = by_name["gateway.egress"][0]
    assert (root.start <= container.start <= order.start
            <= order.end <= execute.start <= egress.start <= root.end)


def test_failover_reissue_lands_in_same_trace():
    world = _traced_scenario(crash=True)
    spans = world.trace_collector
    last = spans.trace_ids()[-1]
    tree = spans.select(trace_id=last)
    containers = [s for s in tree if s.name == "gateway.request"]
    # The reissued invocation opened a fresh gateway container at the
    # surviving gateway, inside the *same* client trace.
    assert len(containers) >= 1
    assert any(s.attrs.get("outcome") == "delivered" for s in containers)
    root = next(s for s in tree if s.name == "client.request")
    assert all(s.end <= root.end for s in tree)
    # The reissue is a duplicate inside the domain: every replica
    # re-sends its cached response and all but one copy are withdrawn
    # again — closed, not left dangling.
    waits = [s for s in tree if s.name == "totem.order.response"]
    assert waits and all(s.closed for s in waits)
    assert any(s.attrs.get("outcome") == "withdrawn" for s in waits)


def test_chrome_export_byte_identical_across_seeded_runs():
    first = _traced_scenario(seed=91, crash=True).trace_chrome_json()
    second = _traced_scenario(seed=91, crash=True).trace_chrome_json()
    assert first == second
    doc = json.loads(first)
    assert all(isinstance(e["ts"], int) and isinstance(e["dur"], int)
               for e in doc["traceEvents"] if e["ph"] == "X")


def test_tree_export_deterministic_and_readable():
    first = _traced_scenario(seed=93).trace_tree()
    second = _traced_scenario(seed=93).trace_tree()
    assert first == second
    assert "client.request" in first and "rm.execute" in first


def test_trace_and_latency_histogram_agree():
    """The gateway's egress instant and its latency observation are the
    same event: per delivered invocation, (egress - container start)
    must reproduce ``gateway.req.latency`` exactly."""
    world = World(seed=55, trace_spans=True)
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _orb, stub, _layer = external_client(world, domain, group, enhanced=True)
    for _ in range(4):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 0.5)
    spans = world.trace_collector
    latencies = []
    for trace_id in spans.trace_ids():
        container = next(s for s in spans.select(trace_id=trace_id)
                         if s.name == "gateway.request")
        egress = next(s for s in spans.select(trace_id=trace_id)
                      if s.name == "gateway.egress")
        latencies.append(egress.start - container.start)
    hist = world.metrics.snapshot()["gateway.req.latency"]
    assert hist["count"] == len(latencies) == 4
    assert hist["sum"] == pytest.approx(sum(latencies), abs=1e-12)


def test_disabled_world_records_nothing_and_counts_nothing():
    world = World(seed=77)  # trace_spans defaults to False
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _orb, stub, _layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1), timeout=600)
    assert world.trace_collector.spans == []
    assert not any(name.startswith("trace.")
                   for name in world.metrics.snapshot())


def test_plain_client_gets_gateway_rooted_trace():
    world = World(seed=60, trace_spans=True)
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _orb, stub, _layer = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 0.5)
    spans = world.trace_collector
    trace_id = spans.trace_ids()[0]
    assert trace_id.startswith("gw/")
    tree = spans.select(trace_id=trace_id)
    root = next(s for s in tree if s.parent_id == 0)
    assert root.name == "gateway.request"  # no client root without the layer
    assert "rm.execute" in {s.name for s in tree}


# ======================================================================
# Tracer ring-buffer cap (sim.trace satellite)
# ======================================================================


def test_tracer_max_records_bounds_records():
    tracer = Tracer(enabled=True, max_records=5)
    for i in range(12):
        tracer.emit(float(i), "cat", "src", f"event {i}")
    assert len(tracer.records) == 5
    assert [r.time for r in tracer.records] == [7.0, 8.0, 9.0, 10.0, 11.0]
    assert tracer.dump(limit=3).count("\n") == 2


def test_tracer_uncapped_keeps_list_type():
    tracer = Tracer(enabled=True)
    assert tracer.records == []      # historical list contract
    tracer.emit(0.0, "c", "s", "m")
    assert len(tracer.records) == 1


def test_tracer_rejects_negative_cap():
    with pytest.raises(ValueError):
        Tracer(max_records=-1)
