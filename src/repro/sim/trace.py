"""Event tracing for simulations.

A :class:`Tracer` keeps structured trace records that tests and
examples can query afterwards ("when did the ring reform?").  Tracing
is cheap: records are plain tuples appended to a list, and categories
can be filtered at emit time.  It counts nothing: event counts are the
components' ``stats`` and their sums in :class:`~repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set


class TraceRecord(NamedTuple):
    time: float
    category: str
    source: str
    message: str
    data: Dict[str, Any]


class Tracer:
    """Append-only trace log with category filtering.

    A record is retained only when the tracer is ``enabled`` *and* the
    category passes the filter (no filter means all categories pass).
    With ``max_records`` set, ``records`` is a ring buffer keeping only
    the most recent ``max_records`` entries (soak runs stay bounded).
    """

    def __init__(self, enabled: bool = True,
                 categories: Optional[Iterable[str]] = None,
                 max_records: Optional[int] = None):
        if max_records is not None and max_records < 0:
            raise ValueError("max_records must be >= 0 (or None for unbounded)")
        self.enabled = enabled
        self._allowed: Optional[Set[str]] = set(categories) if categories else None
        self.max_records = max_records
        # A deque(maxlen=N) when capped (O(1) eviction), a plain list
        # otherwise — existing callers compare ``records`` to lists, so
        # the uncapped default keeps the historical type.
        self.records = (deque(maxlen=max_records) if max_records is not None
                        else [])

    def emit(
        self,
        time: float,
        category: str,
        source: str,
        message: str,
        **data: Any,
    ) -> None:
        """Record one trace event (kept only when ``enabled`` and the
        category passes the filter)."""
        if not self.enabled:
            return
        if self._allowed is not None and category not in self._allowed:
            return
        self.records.append(TraceRecord(time, category, source, message, data))

    def select(self, category: str) -> List[TraceRecord]:
        """All retained records in ``category``, in emission order."""
        return [r for r in self.records if r.category == category]

    def clear(self) -> None:
        self.records.clear()

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of the trace (most recent last).

        ``limit`` keeps only the most recent ``limit`` records; 0 keeps
        none (previously ``limit=0`` returned the *entire* log, because
        ``records[-0:]`` is the whole list)."""
        if limit is None:
            rows = list(self.records)
        elif limit <= 0:
            rows = []
        else:
            rows = list(self.records)[-limit:]
        lines = []
        for r in rows:
            extra = " ".join(f"{k}={v!r}" for k, v in r.data.items())
            lines.append(f"[{r.time:12.6f}] {r.category:<20} {r.source:<24} {r.message} {extra}".rstrip())
        return "\n".join(lines)
