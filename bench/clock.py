"""The calibrated host clock.

The sandboxes this benchmark runs in share their cores: the same code
runs 1.3x to 2x slower for tens of seconds at a time when a neighbour
is busy, which no bound of 10-25 % survives.  So every host-clock
metric is reported in *reference seconds*: measured seconds multiplied
by ``REFERENCE_S / kernel seconds``, where the kernel is a fixed slice
of interpreter work (heap pushes, dict updates, string keys, struct
packing — the operations the simulator is made of) timed in the same
process before the load and after every slice of it (a slice is about
half a second of load; the simulation stands still in between); a
slice's seconds are scaled by the two samples around it.  A machine on which the kernel takes ``REFERENCE_S`` reports
its raw seconds.

The kernel lives here and uses nothing of ``repro``, so no change to
the program can move the yardstick.  ``bench.machine_speed_x`` in the
ledger is the factor that was applied; dividing by it gives raw time.
Over a calm seven-minute soak of ``steady_closed`` the spread of six-rep
medians fell from 4.9 % raw (range 1583-2763 ops/s) to 2.2 %
calibrated (2205-2442); over a contended one, where raw time per op
ranged 0.84-1.74x its median, from 25 % to 7 % (0.94-1.14x).  What is
left is contention that hits the simulator's larger working set harder
than this small loop; kernels with a larger footprint (pointer chases,
a 32 MiB random walk, a mixed stdlib loop) tracked no better.
"""

from __future__ import annotations

import gc
import struct
import time
from heapq import heappop, heappush
from typing import Tuple

REFERENCE_S = 0.1
KERNEL_STEPS = 90_000


def reference_kernel() -> Tuple[float, float]:
    """(wall, CPU) seconds the fixed slice of work takes right now.

    The collector is off while it runs: its cost depends on how many
    objects the workload left alive, not on how fast the machine is.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        heap: list = []
        table: dict = {}
        pack = struct.Struct(">IIH").pack
        for i in range(KERNEL_STEPS):
            heappush(heap, ((i * 7919) % 1009, i, None))
            table[f"k{i % 257}"] = table.get(f"k{(i * 31) % 257}", 0) + 1
            if len(heap) > 512:     # stay small: peak_rss_mb is the workload's
                heappop(heap)
            pack(i, i >> 3, i & 0xFFFF)
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if was_enabled:
            gc.enable()
