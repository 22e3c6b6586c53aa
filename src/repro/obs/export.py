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
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from .metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .series import SeriesRegistry

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


def _prom_name(name: str) -> str:
    """Dotted series name -> Prometheus metric name (dots to underscores)."""
    return name.replace(".", "_").replace("-", "_")


def _prom_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _merge_labels(existing: str, extra: str) -> str:
    """Merge an existing ``{a="b"}`` label block with one extra pair."""
    if not existing:
        return "{" + extra + "}"
    return existing[:-1] + "," + extra + "}"


def render_prometheus(registry: MetricsRegistry,
                      series: Optional["SeriesRegistry"] = None) -> str:
    """Prometheus text-exposition rendering of the registry snapshot.

    Counters and gauges map directly.  Histograms expose their streaming
    exponential buckets as cumulative ``_bucket{le=...}`` counters (with
    the ``+Inf`` terminator), summary-style ``{quantile=...}`` gauges,
    and the flattened ``_count``/``_sum``/``_min``/``_max`` plus
    ``_p50``/``_p95``/``_p99`` scalars older dashboards already scrape.
    Passing a :class:`~repro.obs.series.SeriesRegistry` appends each
    labeled series' last value as a gauge.  Names are the dotted names
    with dots replaced by underscores; output is sorted by name, so it
    is byte-stable for seeded runs like the JSON form.
    """
    snapshot = registry.snapshot()
    lines = []
    for name, data in snapshot.items():
        base, brace, label_part = name.partition("{")
        labels = (brace + label_part) if brace else ""
        metric = _prom_name(base)
        if data["type"] == "histogram":
            lines.append(f"# TYPE {metric}_count counter")
            lines.append(f"{metric}_count{labels} {_prom_value(data['count'])}")
            lines.append(f"# TYPE {metric}_sum counter")
            lines.append(f"{metric}_sum{labels} {_prom_value(data['sum'])}")
            histogram = registry.get(base)
            if isinstance(histogram, Histogram):
                lines.append(f"# TYPE {metric}_bucket counter")
                for bound, cumulative in histogram.cumulative_buckets():
                    le = "+Inf" if bound is None else _prom_value(bound)
                    bucket_labels = _merge_labels(labels, f'le="{le}"')
                    lines.append(f"{metric}_bucket{bucket_labels} {cumulative}")
            for q, stat in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                q_labels = _merge_labels(labels, f'quantile="{q}"')
                lines.append(f"{metric}{q_labels} {_prom_value(data[stat])}")
            for stat in ("min", "max", "p50", "p95", "p99"):
                lines.append(f"# TYPE {metric}_{stat} gauge")
                lines.append(
                    f"{metric}_{stat}{labels} {_prom_value(data[stat])}")
        else:
            kind = "counter" if data["type"] == "counter" else "gauge"
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric}{labels} {_prom_value(data['value'])}")
    if series is not None:
        typed = set()
        for sname, slabels, value in series.last_values():
            metric = _prom_name(sname)
            if metric not in typed:
                typed.add(metric)
                lines.append(f"# TYPE {metric} gauge")
            rendered = ",".join(f'{k}="{v}"' for k, v in slabels)
            block = "{" + rendered + "}" if rendered else ""
            lines.append(f"{metric}{block} {_prom_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


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
