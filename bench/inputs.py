"""Workload inputs: everything a run consumes, made from ``--seed``.

The program under test sees only what :func:`generate` returns — plain
lists and numbers — so the same seed gives the same arrivals, amounts,
account pairs, fault phases and ``World`` seeds in every process.

Sizes are fixed here.  They are the issue's sizes cut so that one
repetition of each workload measures about two seconds of host time:
the driver's budget is ~37 s per run, and several short repetitions
give a steadier median than one long one.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

WORKLOADS = ("farm_open", "steady_closed", "bank_styles", "failover_open")

#: Arrivals that fall in the same quantum are injected as one
#: ``Scheduler.post_batch`` cohort, and are *due* at the cohort's time,
#: so the open-loop generator is never late.
COHORT_QUANTUM_S = 0.002

FARM_RATES = (2000, 4000, 8000)     # offered ops per simulated second
FARM_LATENCY_RATE = 4000            # the rung latency/goodput are read at
FARM_ARRIVALS = 1200                # per rung
FARM_WARMUP = 64                    # set-up arrivals that open the connections

CLIENTS = 8
STEADY_OPS = 400                    # per client

BANK_STYLES = ("active", "warm_passive", "leader_follower")
BANK_TRANSFERS = 42                 # per client per style: 3 x 8 x 42 = 1008
BANK_ACCOUNTS = 16
BANK_OPENING = 1_000_000            # no transfer can overdraw

FAILOVER_STYLES = ("active", "warm_passive", "cold_passive", "leader_follower")
FAILOVER_OFFSETS = 2                # seed-drawn fault phases per style
FAILOVER_RATE = 300                 # ops per simulated second, fixed schedule
FAILOVER_DURATION_S = 3.0
FAILOVER_FAULTS_S = (1.0, 2.0)      # gateway 0's host, then the primary's
FAILOVER_WINDOW_S = 1.0             # unavailability is looked for this long


def _amounts(rng: random.Random, n: int) -> List[int]:
    return [rng.randint(1, 9) for _ in range(n)]


def _distances(rng: random.Random) -> List[float]:
    """One-way WAN latency from each persistent client to the domain:
    the model's 40 ms plus a seed-drawn 0-0.4 ms, so clients do not all
    meet the token in the same phase."""
    return [0.040 + rng.uniform(0.0, 0.0004) for _ in range(CLIENTS)]


def _thinks(rng: random.Random, n: int) -> List[float]:
    """Think time before each closed-loop op.  With none, every client
    phase-locks to the token rotation and latency reads 84.000 ms for
    every seed; 0-5 ms (more than one rotation, 6 % of a round trip)
    spreads the arrivals over the token's phase."""
    return [rng.uniform(0.0, 0.005) for _ in range(n)]


def generate(workload: str, seed: int, scale: int = 1) -> Dict[str, Any]:
    """The inputs of ``workload`` for ``seed``; ``scale`` divides every
    op count (``--quick`` uses 50)."""
    rng = random.Random(f"{seed}/{workload}")
    world_seed = rng.randrange(1 << 30)

    def cut(n: int) -> int:
        return max(2, n // scale)

    if workload == "farm_open":
        n = cut(FARM_ARRIVALS)
        rungs = []
        for rate in FARM_RATES:
            # A Poisson process conditioned on n arrivals in n/rate
            # seconds: the offered rate is exact for every seed.
            horizon = n / rate
            times = sorted(rng.uniform(0.0, horizon) for _ in range(n))
            dues = [int(t / COHORT_QUANTUM_S) * COHORT_QUANTUM_S for t in times]
            rungs.append({"rate": rate, "dues": dues,
                          "amounts": _amounts(rng, n)})
        return {"world_seed": world_seed, "rungs": rungs,
                "warmup": cut(FARM_WARMUP)}

    if workload == "steady_closed":
        return {"world_seed": world_seed, "distances": _distances(rng),
                "clients": [{"thinks": _thinks(rng, cut(STEADY_OPS)),
                             "args": [[amount] for amount in _amounts(
                                 rng, cut(STEADY_OPS))]}
                            for _ in range(CLIENTS)]}

    if workload == "bank_styles":
        accounts = [f"acct{i}" for i in range(BANK_ACCOUNTS)]
        clients = []
        for _ in range(CLIENTS):
            transfers = []
            for _ in range(cut(BANK_TRANSFERS)):
                src, dst = rng.sample(accounts, 2)
                transfers.append([src, dst, rng.randint(1, 100)])
            clients.append({"thinks": _thinks(rng, len(transfers)),
                            "args": transfers})
        return {"world_seed": world_seed, "distances": _distances(rng),
                "styles": list(BANK_STYLES), "accounts": accounts,
                "opening": BANK_OPENING, "clients": clients}

    if workload == "failover_open":
        n = cut(int(FAILOVER_RATE * FAILOVER_DURATION_S))
        step = FAILOVER_DURATION_S / n
        trials = []
        for style in FAILOVER_STYLES:
            for _ in range(FAILOVER_OFFSETS if scale == 1 else 1):
                delta = rng.uniform(0.0, 0.010)
                trials.append({
                    "style": style,
                    "world_seed": rng.randrange(1 << 30),
                    "faults": [t + delta for t in FAILOVER_FAULTS_S],
                    "dues": [i * step for i in range(n)],
                    "amounts": _amounts(rng, n)})
        return {"distances": _distances(rng), "window": FAILOVER_WINDOW_S,
                "trials": trials}

    raise ValueError(f"unknown workload {workload!r}")
