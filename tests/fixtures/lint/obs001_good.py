# reprolint: module=repro.core.fake
"""OBS001 good fixture: catalogued names, wildcard families, and
dynamic (non-literal) names, which the rule skips."""

_STATS = {"requests_received": "gateway.req.received", "local": None}


def record(metrics, spans, trace_id, action):
    metrics.counter("gateway.req.received").inc()
    metrics.gauge("gateway.state.pending").set(0)
    metrics.counter(f"fault.injected.{action}").inc()
    spans.start(trace_id, "gateway.request")


def record_series(series, flight, histogram, name):
    series.observe("series.gateway.group.latency", 0.1, group="1")
    series.sample("series.sched.queue_depth", lambda: 0)
    flight.record("flight.fault", action="crash", target="h1")
    histogram.observe(0.25)        # float arg: not a series name
    series.observe(name, 1.0)      # dynamic name: out of scope
    flight.record("shutdown")      # undotted kind: not checked


def register(metrics, stats):
    metrics.register_stats(stats, _STATS)
