"""Metric snapshot exporters: canonical JSON and a human-readable table.

The JSON form is the determinism contract: ``to_json`` serialises a
registry's snapshot with sorted keys and no incidental
whitespace, so two runs of the same seeded scenario produce
*byte-identical* strings.  ``parse_json`` inverts it exactly
(``parse_json(to_json(r)) == r.snapshot()``), which is what lets tests
diff whole scenario runs instead of cherry-picked counters.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .metrics import MetricsRegistry

SCHEMA_VERSION = 1


def canonical_json(document: Any) -> str:
    """The determinism contract for any exported document: sorted keys,
    no incidental whitespace, NaN rejected.  Seeded reruns of the same
    scenario serialise byte-identically."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def to_json(registry: MetricsRegistry) -> str:
    """Canonical JSON rendering of the registry snapshot."""
    return canonical_json({
        "schema": SCHEMA_VERSION,
        "metrics": registry.snapshot(),
    })


def parse_json(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse ``to_json`` output back to the snapshot dict it came from."""
    document = json.loads(text)
    if document.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported metrics schema: {document.get('schema')!r}")
    return document["metrics"]


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_text(registry: MetricsRegistry) -> str:
    """Aligned plain-text report, one metric per line, sorted by name."""
    snapshot = registry.snapshot()
    if not snapshot:
        return "(no metrics recorded)"
    width = max(len(name) for name in snapshot)
    lines = []
    for name, data in snapshot.items():
        unit = f" {data['unit']}" if data.get("unit") else ""
        if data["type"] == "histogram":
            body = (f"count={data['count']} sum={_fmt(data['sum'])}"
                    f" min={_fmt(data['min'])} p50={_fmt(data['p50'])}"
                    f" p95={_fmt(data['p95'])} p99={_fmt(data['p99'])}"
                    f" max={_fmt(data['max'])}")
        else:
            body = f"{_fmt(data['value'])}{unit}"
        lines.append(f"{name:<{width}}  {data['type']:<9} {body}")
    return "\n".join(lines)
