"""Golden-file determinism gate.

The committed files under ``tests/golden/`` are straight dumps of two
seeded scenarios' artefacts — the Totem delivery trace at every member,
the final replica states, the canonical metrics JSON — taken at the
last commit that *declared* a change to simulated behaviour (the
idle token parks: token visits, token datagrams and bytes and
loss-timer reschedules fell by a third, the ``totem.token.parked`` /
``wanted`` / ``handoffs`` / ``keepalives`` / ``parked_time`` series
appeared, each request waits a different time for the token, and the
one crash on an idle ring is detected 1.2 ms later, still within the
loss timeout; the chaos delivery trace and final states did not move
at all).  Since then Totem sends sequenced traffic in frames: both
scenarios run at the default quota, where a frame holds one message,
so the only difference is the new histogram ``totem.frame.messages``
(24 and 18 observations, all of 1) in the two metrics files.  And a
frame's sender hears it from its send path, not through a loopback
datagram: the delivery trace did not move, and in the metrics files
only datagram accounting fell, by one datagram per frame —
``net.datagrams.sent`` / ``delivered`` and ``totem.datagrams`` by 18
(failover) and 24 (chaos), ``net.bytes.sent`` by the frames' sizes.
A change that
only makes the host faster must keep seeded runs *byte-for-byte*
identical to them: same delivery order, same final states, same
metrics.  The
host-effort counters in ``NEW_COUNTERS`` are excluded from the
comparison by name, on both sides — they count how the kernel did its
work (reschedules, compactions, batched posts), which an optimisation
may legitimately move.  Two of them changed meaning when broadcast
fan-out became one scheduler event per delay group:
``totem.broadcast.batched_deliveries`` still counts per-target
broadcast deliveries, a frame's sender not among them (425 in the
chaos run; 449 while frames looped back to their sender), while
``sched.post.batched`` counts only ``post_batch`` entries, which only
arrival injectors make (0 here).

A change that moves a protocol count on purpose says so up front
(docs/PERFORMANCE.md, "The prime directive"), regenerates the files::

    deliveries, finals, metrics = run_chaos_scenario()
    chaos_trace_seed5.json        json.dumps({"deliveries": deliveries,
                                  "final_counts": finals},
                                  sort_keys=True, indent=1)
    chaos_metrics_seed5.json      metrics
    failover_metrics_seed350.json run_failover_scenario().metrics_json()

and reports a semantic diff against the previous files: which
deliveries disappeared and why, which counters moved, and that
``final_counts`` and the latency histograms did not.
"""

from __future__ import annotations

import json
import pathlib

from repro.analysis.scenarios import (run_chaos_scenario,
                                      run_failover_scenario)
from repro.sim.network import Network

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# Host-effort counters of the hot-path overhaul: excluded from
# byte-for-byte comparison (the name dates from when the goldens
# predated them).  Everything else must match.
NEW_COUNTERS = {
    "sched.timers.rescheduled",
    "sched.queue.compactions",
    "sched.post.batched",
    "totem.broadcast.batched_deliveries",
    "giop.bytes.zero_copy",
}

# Causal tracing (repro.obs.tracing): created lazily on the first span,
# so they appear only in runs with tracing enabled — never in the
# untraced golden scenarios (that absence IS the zero-cost contract).
TRACE_COUNTERS = {
    "trace.spans.started",
    "trace.spans.closed",
    "trace.traces.started",
}
NEW_COUNTERS |= TRACE_COUNTERS


def _filter_new_counters(doc):
    data = json.loads(doc) if isinstance(doc, str) else dict(doc)
    data = dict(data)
    data["metrics"] = {
        key: series for key, series in data["metrics"].items()
        if key.split("{")[0] not in NEW_COUNTERS
    }
    return data


# The golden scenarios themselves live in repro.analysis.scenarios so
# the race-detector sweep can replay them; these tests pin their
# artifacts and thereby keep that shared transcription honest.
_run_chaos_traced = run_chaos_scenario


def test_failover_metrics_match_pre_overhaul_golden():
    world = run_failover_scenario()
    current = _filter_new_counters(world.metrics_json())
    golden = _filter_new_counters(
        json.loads((GOLDEN_DIR / "failover_metrics_seed350.json").read_text()))
    assert current == golden


def test_chaos_delivery_order_and_final_states_match_golden():
    deliveries, finals, _ = _run_chaos_traced()
    current = json.loads(json.dumps(
        {"deliveries": deliveries, "final_counts": finals}, sort_keys=True))
    golden = json.loads((GOLDEN_DIR / "chaos_trace_seed5.json").read_text())
    assert current == golden


def test_chaos_metrics_match_golden_modulo_new_counters():
    _, _, metrics_json = _run_chaos_traced()
    current = _filter_new_counters(metrics_json)
    golden = _filter_new_counters(
        json.loads((GOLDEN_DIR / "chaos_metrics_seed5.json").read_text()))
    assert current == golden


def test_new_counters_are_present_and_active(monkeypatch):
    """The overhaul's own counters must actually move in a busy run."""
    queued = 0
    broadcast = Network.broadcast

    def counting_broadcast(self, *args, **kwargs):
        # A broadcast only queues, it fires nothing: the growth of the
        # queue across the call is the delivery events it will fire.
        nonlocal queued
        before = self.scheduler.pending_events
        scheduled = broadcast(self, *args, **kwargs)
        queued += self.scheduler.pending_events - before
        return scheduled

    monkeypatch.setattr(Network, "broadcast", counting_broadcast)
    _, _, metrics_json = _run_chaos_traced()
    series = json.loads(metrics_json)["metrics"]
    names = {key.split("{")[0] for key in series}
    assert (NEW_COUNTERS - TRACE_COUNTERS) <= names
    # Untraced run: the lazy trace counters must NOT have materialised.
    assert not (TRACE_COUNTERS & names)
    rescheduled = next(v for k, v in series.items()
                       if k.split("{")[0] == "sched.timers.rescheduled")
    batched = next(v for k, v in series.items()
                   if k.split("{")[0] == "totem.broadcast.batched_deliveries")
    posted = next(v for k, v in series.items()
                  if k.split("{")[0] == "sched.post.batched")
    assert rescheduled["value"] > 0
    # Broadcast fan-out fires one event per delay group, so the run
    # delivers more broadcast datagrams (counted per target) than it
    # fires delivery events for them; post_batch carries only arrival
    # injectors, and this scenario has none.
    assert batched["value"] > queued > 0
    assert posted["value"] == 0
