"""Dynamic race detector: same-sim-time collisions & tie-break sweeps.

The static rules prove nothing *reads* nondeterministic inputs; this
module attacks the subtler hazard — code that accidentally depends on
the scheduler's same-time **tie-break order**.  Events that fire at
the same simulated instant model things that are genuinely concurrent
in the real system (datagrams from different senders racing into a
host), so the reproduction's goldens must not change if their order
does.  "Goldens are byte-identical" is an observed fact of one
ordering; the sweep turns it into a verified property of *every
ordering the simulation does not promise*.

Three pieces:

* :class:`RaceRecorder` — observes every same-time cohort (two or
  more live events at one instant) as the run executes.
* :class:`CohortPermuter` — produces alternative legal orders for a
  cohort.  *Legal* is the crux: the simulated network promises FIFO
  per source (``Network.send``/``broadcast`` docstrings), and a local
  timer's order against same-time arrivals is observable behaviour
  (a crash at t must still kill in-flight datagrams that would land
  at t behind it).  So the permuter reorders **only network-arrival
  events from different source hosts**, within runs uninterrupted by
  non-network events; per-source order and every barrier stays fixed.
  That is exactly the set of orderings a real LAN could produce.
* :class:`RaceScheduler` — a scheduler that extracts each same-time
  cohort before firing it, records the collision, and applies the
  permuter.  It subclasses the production kernel
  (:class:`~repro.sim.scheduler.Scheduler`) and replaces only its
  event loop, so every other scheduling path — and the ``run`` /
  ``run_until`` / ``step`` drivers with their guards — is the one the
  simulation runs on.  With no permuter it replays the identity order
  and is observationally equivalent to the base scheduler (the only
  divergence channel is the *host-side* ``sched.queue.compactions``
  hygiene counter, whose trigger reads transient queue depth;
  :func:`drop_metric_series` normalises it away before comparison).

:func:`permutation_sweep` drives a scenario once on the plain
scheduler, once in identity-replay mode, and once per permutation
seed, then compares the returned artifacts byte-for-byte.
``tools/race_sweep.py`` runs it over the golden scenarios; the CI job
uploads its JSON report.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (Any, Callable, Deque, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..sim.scheduler import (_BUDGET, _QUIESCED, _SATISFIED, _TIME_LIMIT,
                             Scheduler, _Entry)

QueueEntry = _Entry
ScenarioFn = Callable[[Optional[Scheduler]], Mapping[str, str]]

#: Host-side hygiene series whose trigger reads transient queue depth;
#: excluded from sweep comparisons (it is not simulation-visible).
VOLATILE_SERIES: Tuple[str, ...] = ("sched.queue.compactions",)

#: Transport-*effort* series: how hard the stack worked, not what it
#: agreed on.  Cross-source arrival order legitimately changes Totem's
#: recovery work — a member that sees a gap requests retransmission,
#: retransmissions are extra broadcasts, extra broadcasts are extra
#: datagrams and timer churn — so these counters may differ between
#: legal orderings even though every *semantic* series (``totem.msg.*``,
#: ``gateway.*``, ``rm.*``, ``client.*``, ``fault.*``) and the golden
#: delivery traces stay byte-identical.  The sweep compares them
#: separately: a delta here is reported as informational, never as a
#: divergence.
EFFORT_SERIES: Tuple[str, ...] = (
    "net.bytes.sent",
    "net.datagrams.sent",
    "net.datagrams.delivered",
    "sched.timers.rescheduled",
    "sched.post.batched",
    "totem.broadcasts",
    "totem.datagrams",
    "totem.bytes.broadcast",
    "totem.broadcast.batched_deliveries",
    "totem.retransmit.count",
    "totem.gap.skipped",
)

#: Artifact keys with this prefix carry effort series: the sweep
#: records their deltas but does not fail on them.
EFFORT_ARTIFACT_PREFIX = "effort:"


#: Arguments of a held ``Network._arrive`` entry: an unheld one's four
#: (source name, destination, payload, deliver) and its source and hold
#: window (source, sent at, left at).
_HELD_ARRIVAL_ARGS = 7


def _label(entry: QueueEntry) -> str:
    qual = getattr(entry[3], "__qualname__", repr(entry[3]))
    lane = _lane_of(entry)
    return f"{qual}[src={lane[1]}]" if lane is not None else qual


def _lane_of(entry: QueueEntry) -> Optional[Tuple[str, str]]:
    """FIFO lane of a network-arrival event (its source host), or None
    for barrier events whose order must not move.  A broadcast's delay
    group (``Network._arrive_group``) is one arrival on its source's
    lane, like a unicast ``Network._arrive``.  A held datagram's
    arrival (an ``_arrive`` entry that carries its hold window) is a
    barrier: whether it is delivered depends on when its source
    crashed, which a reordering must not move."""
    qual = getattr(entry[3], "__qualname__", "")
    if qual.endswith("Network._arrive_group") or (
            qual.endswith("Network._arrive")
            and len(entry[4]) != _HELD_ARRIVAL_ARGS):
        return ("net", entry[4][0])
    return None


class RaceRecorder:
    """Collects same-sim-time event collisions as a run executes."""

    def __init__(self, max_records: int = 10_000) -> None:
        self.max_records = max_records
        self.collisions: List[Tuple[float, Tuple[str, ...]]] = []
        self.total_cohorts = 0
        self.colliding_events = 0
        self.multi_lane_cohorts = 0

    def record(self, time: float, cohort: Sequence[QueueEntry]) -> None:
        self.total_cohorts += 1
        self.colliding_events += len(cohort)
        lanes = {_lane_of(entry) for entry in cohort}
        if len(lanes - {None}) > 1:
            self.multi_lane_cohorts += 1
        if len(self.collisions) < self.max_records:
            self.collisions.append(
                (time, tuple(_label(entry) for entry in cohort)))

    def summary(self) -> Dict[str, Any]:
        return {
            "cohorts": self.total_cohorts,
            "colliding_events": self.colliding_events,
            "multi_lane_cohorts": self.multi_lane_cohorts,
            "recorded": len(self.collisions),
        }


class CohortPermuter:
    """Reorders cross-source network arrivals inside one cohort.

    Within a cohort (identity tie-break order), maximal runs of
    consecutive network-arrival events are regrouped by source lane
    (preserving per-lane order — the network's FIFO promise) and the
    lanes are concatenated in a seeded-shuffled order.  Non-network
    events are barriers: they keep their exact position, and no
    arrival crosses one (a same-time crash/timeout firing between two
    arrivals is an ordering the code *is* allowed to observe).
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.permuted_runs = 0
        self.changed_cohorts = 0

    def permute(self, time: float,
                cohort: List[QueueEntry]) -> List[QueueEntry]:
        out: List[QueueEntry] = []
        run: List[Tuple[Tuple[str, str], QueueEntry]] = []
        for entry in cohort:
            lane = _lane_of(entry)
            if lane is None:
                out.extend(self._permute_run(run))
                run = []
                out.append(entry)
            else:
                run.append((lane, entry))
        out.extend(self._permute_run(run))
        if any(a is not b for a, b in zip(out, cohort)):
            self.changed_cohorts += 1
        return out

    def _permute_run(
            self, run: List[Tuple[Tuple[str, str], QueueEntry]]
    ) -> List[QueueEntry]:
        if len(run) < 2:
            return [entry for _, entry in run]
        order: List[Tuple[str, str]] = []
        groups: Dict[Tuple[str, str], List[QueueEntry]] = {}
        for lane, entry in run:
            bucket = groups.get(lane)
            if bucket is None:
                groups[lane] = [entry]
                order.append(lane)
            else:
                bucket.append(entry)
        if len(order) > 1:
            self._rng.shuffle(order)
            self.permuted_runs += 1
        return [entry for lane in order for entry in groups[lane]]

    def summary(self) -> Dict[str, Any]:
        return {"seed": self.seed, "permuted_runs": self.permuted_runs,
                "changed_cohorts": self.changed_cohorts}


class RaceScheduler(Scheduler):
    """Scheduler that surfaces and (optionally) permutes same-time ties.

    Pops each same-time cohort off the heap before firing it, records
    collisions into its :class:`RaceRecorder`, and lets a
    :class:`CohortPermuter` reorder the cohort.  New events scheduled
    *while* a cohort fires land in the heap and form a follow-up
    cohort at the same instant — exactly the base scheduler's
    semantics, where a just-scheduled event always fires after every
    already-queued same-time event.
    """

    def __init__(self, permuter: Optional[CohortPermuter] = None,
                 recorder: Optional[RaceRecorder] = None) -> None:
        super().__init__()
        self.permuter = permuter
        self.recorder = recorder if recorder is not None else RaceRecorder()
        self._ready: Deque[QueueEntry] = deque()

    @property
    def pending_events(self) -> int:
        return len(self._queue) + len(self._ready)

    def _collect(self, entry: QueueEntry) -> bool:
        """True if the popped ``entry`` is live; a dead one goes to the
        kernel's stale-entry bookkeeping."""
        tb, timer = entry[1], entry[2]
        if timer is None or timer._tb == tb:
            return True
        self._drop_stale(tb, timer)
        return False

    def _refill(self, limit: Optional[float]) -> bool:
        """Extract the next same-time cohort into ``_ready``."""
        queue = self._queue
        while queue:
            first = heappop(queue)
            if not self._collect(first):
                continue
            t0 = first[0]
            if limit is not None and t0 > limit:
                heappush(queue, first)
                return False
            cohort = [first]
            while queue and queue[0][0] == t0:
                # A dead entry may re-push a lazily rescheduled timer at
                # t0; the loop condition re-reads the head and collects it.
                entry = heappop(queue)
                if self._collect(entry):
                    cohort.append(entry)
            if len(cohort) > 1:
                self.recorder.record(t0, cohort)
                if self.permuter is not None:
                    cohort = self.permuter.permute(t0, cohort)
            self._ready.extend(cohort)
            return True
        return False

    def _next_live(self, limit: Optional[float]) -> Optional[QueueEntry]:
        """Pop the next live ready entry, refilling cohorts as needed."""
        ready = self._ready
        while ready or self._refill(limit):
            entry = ready.popleft()
            if not self._collect(entry):
                continue
            if limit is not None and entry[0] > limit:
                ready.appendleft(entry)
                return None
            return entry
        return None

    def _loop(self, budget: int, limit: Optional[float],
              predicate: Optional[Callable[[], bool]]) -> Tuple[int, str]:
        """The kernel's loop, taking each next entry from ``_ready``."""
        fired = 0
        while fired < budget:
            if predicate is not None and predicate():
                return fired, _SATISFIED
            entry = self._next_live(limit)
            if entry is None:
                if self._ready or self._queue:
                    return fired, _TIME_LIMIT
                return fired, _QUIESCED
            time, _, timer, fn, args = entry
            self.now = time
            if timer is not None:
                if timer.interval is None:
                    timer.fired = True
                else:
                    self._arm(timer, time + timer.interval)
            self._events_processed += 1
            fired += 1
            fn(*args)
        return fired, _BUDGET


# ----------------------------------------------------------------------
# Sweep driver
# ----------------------------------------------------------------------


def drop_metric_series(metrics_json: str,
                       names: Sequence[str] = VOLATILE_SERIES) -> str:
    """Canonical metrics JSON minus the named series (re-serialized in
    the exporter's canonical byte form)."""
    data = json.loads(metrics_json)
    dropped = set(names)
    data["metrics"] = {
        key: value for key, value in data["metrics"].items()
        if key.split("{")[0] not in dropped}
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def partition_metric_series(metrics_json: str) -> Tuple[str, str]:
    """Split canonical metrics JSON into (semantic, effort) halves.

    The semantic half drops :data:`VOLATILE_SERIES` and
    :data:`EFFORT_SERIES` and must survive any legal tie-break order
    byte-for-byte; the effort half holds just the effort series, whose
    deltas the sweep reports without failing.
    """
    data = json.loads(metrics_json)
    effort_names = set(EFFORT_SERIES)
    volatile = set(VOLATILE_SERIES)
    semantic: Dict[str, Any] = {}
    effort: Dict[str, Any] = {}
    for key, value in data["metrics"].items():
        base = key.split("{")[0]
        if base in volatile:
            continue
        (effort if base in effort_names else semantic)[key] = value
    kept = dict(data)
    kept["metrics"] = semantic
    return (json.dumps(kept, sort_keys=True, separators=(",", ":")),
            json.dumps(effort, sort_keys=True, separators=(",", ":")))


@dataclass
class SweepRun:
    """One scenario execution inside a sweep."""

    label: str
    artifacts: Dict[str, str]
    recorder: Optional[Dict[str, Any]] = None
    permuter: Optional[Dict[str, Any]] = None
    divergences: Dict[str, str] = field(default_factory=dict)
    effort_deltas: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class PermutationReport:
    """Outcome of one :func:`permutation_sweep`."""

    scenario: str
    runs: List[SweepRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def divergent_runs(self) -> List[SweepRun]:
        return [run for run in self.runs if not run.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "runs": [{
                "label": run.label,
                "artifact_bytes": {k: len(v)
                                   for k, v in sorted(run.artifacts.items())},
                "collisions": run.recorder,
                "permutation": run.permuter,
                "divergences": dict(sorted(run.divergences.items())),
                "effort_deltas": dict(sorted(run.effort_deltas.items())),
            } for run in self.runs],
        }


def _effort_delta(left: Optional[str], right: Optional[str]) -> Any:
    """Per-series (baseline, run) values for an effort artifact delta."""
    try:
        base = json.loads(left) if left else {}
        cur = json.loads(right) if right else {}
    except ValueError:
        return _first_difference(left or "", right or "")
    return {
        key: {"baseline": base.get(key, {}).get("value"),
              "run": cur.get(key, {}).get("value")}
        for key in sorted(set(base) | set(cur))
        if base.get(key) != cur.get(key)}


def _first_difference(a: str, b: str) -> str:
    if len(a) != len(b):
        note = f"length {len(a)} != {len(b)}"
    else:
        note = "same length"
    for index, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            lo = max(0, index - 40)
            return (f"{note}; first diff at byte {index}: "
                    f"...{a[lo:index + 40]!r} vs ...{b[lo:index + 40]!r}")
    return f"{note}; one is a prefix of the other"


def permutation_sweep(scenario: ScenarioFn, name: str = "scenario",
                      permutation_seeds: Sequence[int] = (1, 2, 3)
                      ) -> PermutationReport:
    """Run ``scenario`` under identity and permuted tie-break orders.

    ``scenario(scheduler)`` builds a world around the given scheduler
    (or a default one when None) and returns a mapping of artifact
    name -> canonical string.  Metrics artifacts should be split with
    :func:`partition_metric_series`: the semantic half under a plain
    key, the effort half under an ``effort:``-prefixed key.  Every
    run's artifacts are compared byte-for-byte against the
    plain-scheduler baseline; plain-key differences are divergences
    (the sweep fails), ``effort:`` differences are recorded as
    informational deltas.
    """
    report = PermutationReport(scenario=name)
    baseline = dict(scenario(None))
    report.runs.append(SweepRun(label="baseline", artifacts=baseline))

    def execute(label: str,
                permuter: Optional[CohortPermuter]) -> SweepRun:
        scheduler = RaceScheduler(permuter=permuter)
        artifacts = dict(scenario(scheduler))
        run = SweepRun(label=label, artifacts=artifacts,
                       recorder=scheduler.recorder.summary(),
                       permuter=permuter.summary() if permuter else None)
        for key in sorted(set(baseline) | set(artifacts)):
            left = baseline.get(key)
            right = artifacts.get(key)
            if key.startswith(EFFORT_ARTIFACT_PREFIX):
                if left != right:
                    run.effort_deltas[key] = _effort_delta(left, right)
            elif left is None or right is None:
                run.divergences[key] = "artifact missing from one run"
            elif left != right:
                run.divergences[key] = _first_difference(left, right)
        return run

    report.runs.append(execute("identity", None))
    for seed in permutation_seeds:
        report.runs.append(execute(f"permutation-{seed}",
                                   CohortPermuter(seed)))
    return report
