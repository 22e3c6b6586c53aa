# reprolint: module=repro.core.fake
"""OBS001 bad fixture: a metric series missing from the catalogue."""

_STATS = {"widgets": "table.not.in.catalogue", "local": None}


def record(metrics, spans, trace_id):
    metrics.gauge("definitely.not.in.catalogue").set(1)
    spans.start(trace_id, "mystery.span")


def record_events(flight):
    flight.record("flight.mystery.kind", detail="x")
    flight.record("flight.also.uncatalogued", group=1)


def register(metrics, stats):
    metrics.register_stats(stats, _STATS)
