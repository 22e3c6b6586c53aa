"""One repetition of one workload, in a process of its own.

``python3 -m bench.rep '<json job>'`` sets the workload up, runs and
times its segments, drains, checks the oracles and prints one JSON
object.  A fresh process per repetition is what makes ``setup_s``
(process start, imports, world construction) and ``peak_rss_mb``
honest, and keeps one repetition's garbage out of the next.

Modes: ``dark`` (no tracing, no profiler — the only mode end-to-end
numbers come from), ``profiled`` (``cProfile`` around the load),
``armed`` (``World(trace_spans, series, flight)``), ``probes``.
"""

from __future__ import annotations

import time

_STARTED = time.time()      # before repro is imported: part of set-up

import cProfile             # noqa: E402
import gc                   # noqa: E402
import json                 # noqa: E402
import pstats               # noqa: E402
import resource             # noqa: E402
import sys                  # noqa: E402
from typing import Any, Dict, Iterator, List, Optional, Tuple  # noqa: E402

from . import OUT_DIR, ROOT  # noqa: E402

ARMED = {"trace_spans": True, "series": True, "flight": True}
#: Slices per segment, a reference-kernel sample after each: about half
#: a second of load per slice.
SLICES = {"farm_open": 2, "steady_closed": 5, "bank_styles": 2,
          "failover_open": 1}


class Spans:
    """The harness's own spans on the host clock: name, start, end,
    parent — kept in memory, written out with the ledger."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def start(self, name: str) -> None:
        self.rows.append({"name": name, "start": time.perf_counter(),
                          "end": None,
                          "parent": self._open[-1] if self._open else None})
        self._open.append(len(self.rows) - 1)

    def end(self) -> None:
        self.rows[self._open.pop()]["end"] = time.perf_counter()


def _timed(slices: Iterator[None], profiler: Optional[cProfile.Profile]
           ) -> Iterator[Tuple[float, float]]:
    """(wall, CPU) seconds of each slice of load, profiled if asked."""
    while True:
        wall, cpu = time.perf_counter(), time.process_time()
        if profiler is not None:
            profiler.enable()
        try:
            next(slices)
        except StopIteration:
            return
        finally:
            if profiler is not None:
                profiler.disable()
        yield time.perf_counter() - wall, time.process_time() - cpu


def run(job: Dict[str, Any]) -> Dict[str, Any]:
    from repro import GatewayPool, Ior

    from . import ledger, oracle, workloads
    from .clock import REFERENCE_S, reference_kernel
    from .inputs import generate

    workload, mode = job["workload"], job["mode"]
    spans = Spans()
    spans.start(f"rep:{workload}:{mode}")

    spans.start("setup")
    inputs = generate(workload, job["seed"], job["scale"])
    segments = workloads.build(workload, inputs,
                               **(ARMED if mode == "armed" else {}))
    cells = []
    for seg in segments:
        if seg.cell not in cells:
            cells.append(seg.cell)
    gc.collect()
    spans.end()
    setup_s = time.time() - job.get("spawned_at", _STARTED)
    # The reference kernel is timed before the load and after every
    # slice of it (see bench.clock).
    kernels = [reference_kernel()]

    profiler = cProfile.Profile() if mode == "profiled" else None
    counts = ledger.Counts()
    rows = []
    for seg in segments:
        index = cells.index(seg.cell)
        before = ledger.capture(seg.cell)
        spans.start(f"load:{seg.name}")
        wall = cpu = 0.0
        per_slice = -(-len(seg.ops) // SLICES[workload])
        for slice_wall, slice_cpu in _timed(seg.slices(per_slice), profiler):
            # Host seconds become reference seconds: each slice is
            # scaled by the two kernel samples around it.
            kernels.append(reference_kernel())
            (wall0, cpu0), (wall1, cpu1) = kernels[-2:]
            wall += slice_wall * 2 * REFERENCE_S / (wall0 + wall1)
            cpu += slice_cpu * 2 * REFERENCE_S / (cpu0 + cpu1)
        spans.end()
        delta = counts.add(index, before, ledger.capture(seg.cell))
        rows.append({"name": seg.name, "attempted": len(seg.ops),
                     "wall_s": wall, "cpu_s": cpu,
                     "broadcasts": delta.get("totem.broadcasts"),
                     "timed_out": seg.timed_out})
        if seg.settle:
            seg.cell.world.run(until=seg.cell.world.now + seg.settle)

    spans.start("drain")
    states = [workloads.observe(cell) for cell in cells]
    spans.end()

    spans.start("verify")
    history = {
        "segments": [{"name": seg.name, "cell": cells.index(seg.cell),
                      "ops": seg.ops,
                      "faults": [seg.base + at for at, _ in seg.faults]}
                     for seg in segments],
        "states": states,
        "expect": {"accounts": len(inputs.get("accounts", ())),
                   "opening": inputs.get("opening", 0),
                   "window": inputs.get("window", 0.0)},
    }
    sim = oracle.summarise(workload, history)
    failures = oracle.check(workload, history)
    attempted = sim["attempted"]
    layer_counts = ledger.count_metrics(counts, attempted)
    layer_counts["obs.audit_violations"] = float(
        sum(state["audit_violations"] for state in states))
    spans.end()

    result: Dict[str, Any] = {
        "sim": sim,
        "counts": layer_counts,
        # History, replica state and every deterministic count: equal
        # across repetitions and passes, or determinism is broken.  Wire
        # bytes are left out: an armed world's requests carry the trace
        # context, which changes their size and nothing else.
        "sim_digest": oracle.digest([history, {
            name: value for name, value in layer_counts.items()
            if not name.endswith("bytes_per_op")}]),
        "oracle_failures": failures,
        "segments": rows,
        "wall_s": sum(row["wall_s"] for row in rows),
        "cpu_s": sum(row["cpu_s"] for row in rows),
        "setup_s": setup_s * REFERENCE_S / kernels[0][0],
        "machine_speed_x": REFERENCE_S * len(kernels) / sum(
            k[0] for k in kernels),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    timed_out = [row["name"] for row in rows if row["timed_out"]]
    if timed_out and mode == "armed":
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        dump = OUT_DIR / f"flight-{workload}.json"
        dump.write_text("[" + ",".join(
            cell.world.flight_json() for cell in cells) + "]\n")
        result["flight_dump"] = str(dump.relative_to(ROOT))

    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        buckets, profiled = ledger.attribute(stats)
        result["profile"] = {
            "buckets_s": buckets, "profiled_s": profiled,
            "calls": sum(row[1] for row in stats.values()),
            "ior_parse_calls": ledger.calls_of(
                stats, Ior, "from_string", "ior.py"),
            "ring_walk_calls": ledger.calls_of(
                stats, GatewayPool, "_ring_walk", "gateway_pool.py"),
        }
    if mode == "armed":
        result["simspans"] = ledger.simspans(
            cell.world.trace_collector for cell in cells)

    spans.end()
    result["harness_spans"] = spans.rows
    return result


def main(argv: Optional[List[str]] = None) -> int:
    job = json.loads((argv if argv is not None else sys.argv[1:])[0])
    # The checkout is not installed: the program is built from source.
    sys.path.insert(0, str(ROOT / "src"))
    if job["mode"] == "probes":
        from . import probes
        result: Dict[str, Any] = {"probes": probes.run(job["scale"])}
    else:
        result = run(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
