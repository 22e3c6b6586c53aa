# reprolint: module=repro.core.fake
"""OBS001 bad fixture: a metric series missing from the catalogue."""

_STATS = {"widgets": "table.not.in.catalogue", "local": None}


def record(metrics, spans, trace_id):
    metrics.gauge("definitely.not.in.catalogue").set(1)
    spans.start(trace_id, "mystery.span")


def record_series(series, flight):
    series.observe("series.not.in.catalogue", 1.0, group="1")
    series.observe("series.also.uncatalogued", 0.0)
    flight.record("flight.mystery.kind", detail="x")


def register(metrics, stats):
    metrics.register_stats(stats, _STATS)
