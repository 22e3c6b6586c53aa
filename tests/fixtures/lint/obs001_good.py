# reprolint: module=repro.core.fake
"""OBS001 good fixture: catalogued names, wildcard families, and
dynamic (non-literal) names, which the rule skips."""

_STATS = {"requests_received": "gateway.req.received", "local": None}


def record(metrics, spans, trace_id, action):
    metrics.counter_fn("gateway.req.received", int)
    metrics.gauge("gateway.state.routing").set(0)
    metrics.gauge(f"fault.injected.{action}").set(0)
    spans.start(trace_id, "gateway.request")


def record_series(series, flight, histogram, name):
    flight.record("flight.membership", member="h1", seq=0)
    flight.record("flight.token_loss", member="h1")
    flight.record("flight.fault", action="crash", target="h1")
    histogram.observe(0.25)        # float arg: not a series name
    series.observe(name, 1.0)      # dynamic name: out of scope
    flight.record("shutdown")      # undotted kind: not checked


def register(metrics, stats):
    metrics.register_stats(stats, _STATS)
