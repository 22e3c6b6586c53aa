"""Simulated-clock metrics and correctness checks over a run's history.

Everything here is a pure function of plain data — the recorded ops
and the replica state read back after the drain — so the tests can
feed it a corrupted history and watch each check fire.

``history`` is ``{"segments": [{"name", "cell", "ops", "faults"}, ...],
"states": [state of cell 0, ...], "expect": {...}}``; an op is
``[due, end, outcome, args]`` (see :mod:`bench.workloads`).
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Dict, List, Optional, Sequence

from .inputs import FARM_LATENCY_RATE

SERVED, SHED, FAILED = "served", "shed", "failed"

#: The service-level objective the farm ladder is judged by.
SLO_P99_MS = 150.0
SLO_FAILED_SHARE = 0.02
SLO_BACKLOG_S = 0.25


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _latencies_ms(ops: Sequence[list]) -> List[float]:
    return sorted((op[1] - op[0]) * 1000.0 for op in ops if op[2] == SERVED)


def _count(ops: Sequence[list], outcome: Optional[str]) -> int:
    return sum(1 for op in ops if op[2] == outcome)


def _span(ops: Sequence[list]) -> float:
    """First due time to last served completion."""
    ends = [op[1] for op in ops if op[2] == SERVED]
    return (max(ends) - min(op[0] for op in ops)) if ends else 0.0


def _unavailability_ms(ops: Sequence[list], fault: float,
                       window: float) -> float:
    """Longest gap between consecutive served completions in the
    ``window`` seconds after ``fault`` (the last completion before the
    fault opens the first gap; the window's end closes the last)."""
    ends = sorted(op[1] for op in ops if op[2] == SERVED)
    before = [t for t in ends if t <= fault]
    marks = ([before[-1]] if before else [fault])
    marks += [t for t in ends if fault < t <= fault + window]
    marks.append(fault + window)
    return max(b - a for a, b in zip(marks, marks[1:])) * 1000.0


def summarise(workload: str, history: Dict[str, Any]) -> Dict[str, Any]:
    """Every simulated-clock number of one repetition."""
    segments = history["segments"]
    all_ops = [op for seg in segments for op in seg["ops"]]
    attempted = len(all_ops)
    served = _count(all_ops, SERVED)
    shed = _count(all_ops, SHED)
    timed = [seg for seg in segments
             if workload != "farm_open"
             or seg["name"] == f"rate{FARM_LATENCY_RATE}"]
    latencies = sorted(x for seg in timed for x in _latencies_ms(seg["ops"]))
    span = sum(_span(seg["ops"]) for seg in timed)
    p99 = percentile(latencies, 99) if latencies else 0.0
    rows: Dict[str, Any] = {
        "attempted": attempted,
        "served": served,
        "shed": shed,
        "failed": attempted - served - shed,    # failed or never completed
        "latency_samples": len(latencies),
        "latency_samples_beyond_p99": sum(1 for x in latencies if x > p99),
        "sim_latency_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "sim_latency_p99_ms": p99,
        "sim_goodput_ops_per_s": (len(latencies) / span) if span else 0.0,
        "served_share": served / attempted,
        "failed_share": (attempted - served) / attempted,
    }
    if workload == "farm_open":
        rows["slo_rate_ops_per_s"] = 0.0
        rows["ladder"] = []
        for seg in segments:
            ops = seg["ops"]
            lat = _latencies_ms(ops)
            rung = {
                "rate": int(seg["name"][len("rate"):]),
                "p99_ms": percentile(lat, 99) if lat else 0.0,
                "failed_share": 1.0 - len(lat) / len(ops),
                "backlog_s": _span(ops) - (max(op[0] for op in ops)
                                           - min(op[0] for op in ops)),
            }
            rung["meets_slo"] = bool(
                lat and rung["p99_ms"] <= SLO_P99_MS
                and rung["failed_share"] <= SLO_FAILED_SHARE
                and rung["backlog_s"] <= SLO_BACKLOG_S)
            if rung["meets_slo"]:
                rows["slo_rate_ops_per_s"] = max(rows["slo_rate_ops_per_s"],
                                                 float(rung["rate"]))
            rows["ladder"].append(rung)
    if workload == "failover_open":
        window = history["expect"]["window"]
        gaps = [[_unavailability_ms(seg["ops"], fault, window)
                 for fault in seg["faults"]] for seg in segments]
        flat = [gap for pair in gaps for gap in pair]
        rows["unavail_faults"] = len(flat)
        rows["unavail_p50_ms"] = statistics.median(flat)
        rows["unavail_max_ms"] = max(flat)
        # Each trial injects the gateway fault first, the replica fault second.
        rows["gateway_failover_unavail_ms"] = statistics.median(
            pair[0] for pair in gaps)
        rows["replica_failover_unavail_ms"] = statistics.median(
            pair[1] for pair in gaps)
    return rows


def check(workload: str, history: Dict[str, Any]) -> List[str]:
    """The oracles; each returned string names a violated check."""
    failures: List[str] = []
    segments = history["segments"]
    states = history["states"]
    expect = history["expect"]

    for seg in segments:
        lost = _count(seg["ops"], None)
        if lost:
            failures.append(
                f"lost-op: {lost} op(s) of {seg['name']} never resolved")
        hard = _count(seg["ops"], FAILED)
        if workload == "farm_open" and hard:
            failures.append(
                f"non-transient-failure: {hard} op(s) of {seg['name']} "
                "failed with something other than a TRANSIENT shed")

    for index, state in enumerate(states):
        mine = [seg for seg in segments if seg["cell"] == index]
        label = "+".join(seg["name"] for seg in mine)
        done = [op for seg in mine for op in seg["ops"] if op[2] == SERVED]
        if state["audit_violations"]:
            failures.append(f"audit: {state['audit_violations']} "
                            f"violation(s) after the drain of {label}")
        if "counts" in state:
            want = state["warmup_sum"] + sum(op[3][0] for op in done)
            counts = state["counts"]
            if not counts:
                failures.append(f"exactly-once: no live replica in {label}")
            elif set(counts.values()) != {want}:
                failures.append(
                    f"exactly-once: replicas of {label} hold {counts}, "
                    f"served increments sum to {want}")
        else:
            total = expect["accounts"] * expect["opening"]
            if set(state["balance_totals"].values()) != {total}:
                failures.append(
                    f"conservation: balances of {label} total "
                    f"{state['balance_totals']}, opened with {total}")
            for table in ("ledger_entries", "transfers_done"):
                if set(state[table].values()) != {len(done)}:
                    failures.append(
                        f"{table}: {label} has {state[table]}, "
                        f"{len(done)} transfers were served")
    return failures


def digest(rows: Any) -> str:
    """Canonical digest of simulated rows: equal across repetitions,
    processes and hash seeds, or the simulation is not deterministic."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
