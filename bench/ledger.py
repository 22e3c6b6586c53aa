"""The per-layer ledger, measured from outside the program.

Three instruments, none of which touches ``src/``:

* registry snapshots and component ``stats`` around each segment give
  the deterministic counts (:func:`capture`, :class:`Counts`,
  :func:`count_metrics`);
* a ``cProfile`` pass bucketed by the ``src/repro/<layer>/`` directory
  of each function's file gives the host-time shares
  (:func:`attribute`) — built-in and C callees are charged to their
  caller's layer through the callers table;
* the armed pass's ``world.trace_collector`` gives the simulated hop
  breakdown (:func:`simspans`).

A registry series or profiled function that no longer exists reads as
``None`` with a warning on stderr, never as a crash.
"""

from __future__ import annotations

import os
import statistics
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

from . import ROOT

LAYERS = ("iiop", "orb", "core", "totem", "eternal", "sim", "obs", "apps")
BUCKETS = LAYERS + ("stdlib", "bench")
SRC_LINE_PACKAGES = LAYERS + ("analysis",)
REPRO_DIR = str(ROOT / "src" / "repro") + os.sep
BENCH_DIR = str(ROOT / "bench") + os.sep

#: Series that exist only once their subsystem is used (a gateway pool,
#: an admission window, a passive group's log, the semi-active engine):
#: absent means zero.
OPTIONAL_SERIES = ("pool.", "gateway.adm.", "eternal.log.", "rm.style.")

HOPS = ("totem.order.invocation", "rm.execute", "totem.order.response")


def warn(message: str) -> None:
    print(f"bench: warning: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# Deterministic counts
# ----------------------------------------------------------------------

def capture(cell: Any) -> Dict[str, Any]:
    """Every counter of one world, flat: the metrics registry plus the
    scheduler's event count and the client requesters' ``stats``."""
    flat: Dict[str, Any] = {
        "sched.events": cell.world.scheduler.events_processed,
        "orb.reissued": sum(r.stats["reissued"] for r in cell.requesters),
        "orb.failovers": sum(r.stats["failovers"] for r in cell.requesters),
    }
    for name, data in cell.world.metrics.snapshot().items():
        flat[name] = data if data["type"] == "histogram" else data["value"]
    return flat


class Counts:
    """Counter deltas summed over segments; histograms kept per world."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[int, Dict[str, Any]]] = {}

    def add(self, cell_index: int, before: Dict[str, Any],
            after: Dict[str, Any]) -> Dict[str, float]:
        delta = {}
        for name, value in after.items():
            if isinstance(value, dict):
                self.histograms.setdefault(name, {})[cell_index] = value
            else:
                delta[name] = value - before.get(name, 0)
                self.total[name] = self.total.get(name, 0) + delta[name]
        return delta

    def value(self, name: str) -> Optional[float]:
        if name in self.total:
            return self.total[name]
        if name.startswith(OPTIONAL_SERIES):
            return 0
        warn(f"series {name!r} is not in the registry; reported as null")
        return None

    def quantile_ms(self, name: str, key: str) -> Optional[float]:
        """Median over worlds of a histogram's ``key`` (p50/p99), in ms;
        0 when nothing was observed."""
        if name not in self.histograms:
            warn(f"histogram {name!r} is not in the registry; "
                 "reported as null")
            return None
        values = [h[key] for h in self.histograms[name].values()
                  if h["count"]]
        return statistics.median(values) * 1000.0 if values else 0.0


def _ratio(top: Optional[float], bottom: Optional[float]) -> Optional[float]:
    if top is None or bottom is None:
        return None
    return top / bottom if bottom else 0.0


def count_metrics(counts: Counts, attempted: int) -> Dict[str, Optional[float]]:
    """The deterministic per-layer metrics of one dark repetition."""
    v = counts.value

    def per_op(name: str) -> Optional[float]:
        return _ratio(v(name), attempted)

    def total(*names: str) -> Optional[float]:
        values = [v(name) for name in names]
        return None if None in values else sum(values)

    routed = total("pool.route.owner", "pool.route.reroutes",
                   "pool.route.fallback", "pool.route.unroutable")
    return {
        "sim.events_per_op": per_op("sched.events"),
        "sim.batched_share": _ratio(v("sched.post.batched"),
                                    v("sched.events")),
        "sim.timers_rescheduled_per_op": per_op("sched.timers.rescheduled"),
        "sim.compactions": v("sched.queue.compactions"),
        "sim.net_datagrams_per_op": per_op("net.datagrams.sent"),
        "sim.net_bytes_per_op": per_op("net.bytes.sent"),
        "totem.broadcasts_per_op": per_op("totem.broadcasts"),
        "totem.token_passes_per_op": per_op("totem.token.passes"),
        "totem.rotations_per_op": per_op("totem.token.rotation"),
        "totem.msgs_per_token_visit": _ratio(v("totem.msg.sent"),
                                             v("totem.token.passes")),
        "totem.bytes_per_op": per_op("totem.bytes.broadcast"),
        "totem.retransmits": v("totem.retransmit.count"),
        "totem.reformations": v("totem.ring.reformations"),
        "totem.fault_detection_ms": counts.quantile_ms(
            "fault.detection.latency", "p50"),
        "totem.ring_recovery_ms": counts.quantile_ms(
            "fault.recovery.duration", "p50"),
        "iiop.giop_bytes_per_op": _ratio(
            total("giop.bytes.in", "giop.bytes.out"), attempted),
        "iiop.giop_msgs_per_op": _ratio(
            total("giop.msg.request", "giop.msg.reply"), attempted),
        "iiop.zero_copy_share": _ratio(v("giop.bytes.zero_copy"),
                                       v("giop.bytes.in")),
        "orb.connections_per_op": per_op("gateway.clients.connected"),
        "orb.reissued": v("orb.reissued"),
        "orb.failovers": v("orb.failovers"),
        "core.forwarded_per_op": per_op("gateway.req.forwarded"),
        "core.mirror_recorded_per_op": per_op("gateway.mirror.recorded"),
        "core.dup_suppressed_per_op": per_op("gateway.dup.suppressed"),
        "core.adm_shed_share": per_op("gateway.adm.shed"),
        "core.adm_queued_share": per_op("gateway.adm.queued"),
        "core.route_owner_share": _ratio(v("pool.route.owner"), routed),
        "core.route_unroutable_share": _ratio(v("pool.route.unroutable"),
                                              routed),
        "core.breaker_trips": v("pool.breaker.trips"),
        "core.cache_replays": v("gateway.cache.replays"),
        "core.takeover_forwards": v("gateway.takeover.forwards"),
        "core.gateway_latency_p50_ms": counts.quantile_ms(
            "gateway.req.latency", "p50"),
        "core.gateway_latency_p99_ms": counts.quantile_ms(
            "gateway.req.latency", "p99"),
        "eternal.executions_per_op": per_op("eternal.invocations.executed"),
        "eternal.duplicates_per_op": per_op("eternal.invocations.duplicate"),
        "eternal.state_updates_per_op": per_op("eternal.state.updates"),
        "eternal.log_appends_per_op": per_op("eternal.log.appends"),
        "eternal.checkpoints": v("eternal.checkpoint.multicasts"),
        "eternal.failovers": v("fault.failover.count"),
        "eternal.replays": v("fault.recovery.replays"),
        "eternal.lf_withheld_per_op": per_op("rm.style.responses_withheld"),
    }


def src_lines() -> Dict[str, float]:
    """Lines of Python per package under ``src/repro/`` (ROADMAP aims 2
    and 4 track them)."""
    rows = {}
    for package in SRC_LINE_PACKAGES:
        total = 0
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            with open(path, "rb") as handle:
                total += sum(1 for _ in handle)
        rows[f"{package}.src_lines"] = float(total)
    return rows


# ----------------------------------------------------------------------
# Host attribution
# ----------------------------------------------------------------------

FuncKey = Tuple[str, int, str]


def layer_of(func: FuncKey) -> Optional[str]:
    """The bucket a profiled function's own time belongs to, or None
    for a built-in / C function, whose time its callers carry."""
    filename = func[0]
    if filename == "~":
        return None
    if filename.startswith(REPRO_DIR):
        package = filename[len(REPRO_DIR):].split(os.sep)[0]
        return package if package in LAYERS else "stdlib"
    if filename.startswith(BENCH_DIR):
        return "bench"
    return "stdlib"


def attribute(stats: Dict[FuncKey, tuple]) -> Tuple[Dict[str, float], float]:
    """Bucket every function's self time; return (seconds per bucket,
    profiled total).  ``stats`` is ``pstats.Stats(...).stats``."""
    buckets = dict.fromkeys(BUCKETS, 0.0)
    profiled = 0.0
    for func, (_cc, _nc, self_time, _ct, callers) in stats.items():
        profiled += self_time
        layer = layer_of(func)
        if layer is not None:
            buckets[layer] += self_time
        elif not callers:
            buckets["stdlib"] += self_time
        else:
            # cProfile keeps, per caller, the callee's own time spent
            # under that caller: the rows sum to the callee's self time.
            for caller, (_c, _n, under_caller, _t) in callers.items():
                buckets[layer_of(caller) or "stdlib"] += under_caller
    return buckets, profiled


def calls_of(stats: Dict[FuncKey, tuple], owner: Any, attr: str,
             filename: str) -> Optional[int]:
    """Calls of ``owner.attr`` in the profile; None when it is gone."""
    if getattr(owner, attr, None) is None:
        warn(f"{owner.__name__}.{attr} no longer exists; "
             "its call count is reported as null")
        return None
    return sum(row[1] for func, row in stats.items()
               if func[2] == attr and func[0].endswith(filename))


# ----------------------------------------------------------------------
# Simulated hop breakdown
# ----------------------------------------------------------------------

def simspans(collectors: Iterable[Any]) -> Dict[str, float]:
    """Mean simulated ms per traced client op, hop by hop."""
    sums = dict.fromkeys(("client.request", "gateway.request", "residue")
                         + HOPS, 0.0)
    ops = spans_seen = 0
    for collector in collectors:
        by_trace: Dict[str, List[Any]] = {}
        for span in collector.spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        for spans in by_trace.values():
            root = next((s for s in spans if s.name == "client.request"
                         and s.parent_id == 0 and s.closed), None)
            containers = [s for s in spans
                          if s.name == "gateway.request" and s.closed]
            if root is None or not containers:
                continue
            ops += 1
            spans_seen += len(spans)
            gateway = max(s.duration for s in containers)
            sums["client.request"] += root.duration
            sums["gateway.request"] += gateway
            # Root minus gateway container: WAN transport and any
            # failover stall.
            sums["residue"] += root.duration - gateway
            container_ids = {s.span_id for s in containers}
            for hop in HOPS:
                durations = [s.duration for s in spans if s.name == hop
                             and s.closed and s.parent_id in container_ids]
                if durations:
                    sums[hop] += statistics.fmean(durations)
    rows = {f"simspan.{name}_ms": (total / ops * 1000.0 if ops else 0.0)
            for name, total in sums.items()}
    rows["obs.spans_per_op"] = spans_seen / ops if ops else 0.0
    return rows
