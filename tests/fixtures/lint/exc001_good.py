# reprolint: module=repro.sim.fixture_exc
"""EXC001 good: broad excepts that react, narrow excepts that may not."""


class Pump:
    def __init__(self, metrics):
        self.metrics = metrics
        self.failures = 0

    def tick(self):
        try:
            self.advance()
        except Exception:
            # Reacts: the failure is counted, not swallowed.
            self.metrics.gauge("pump.failures").set(1)

    def tick_strict(self):
        try:
            self.advance()
        except Exception:
            raise

    def tick_recorded(self):
        try:
            self.advance()
        except Exception:
            self.failures += 1

    def advance(self):
        raise RuntimeError("boom")


def probe(fn):
    try:
        return fn()
    except (KeyError, ValueError):
        # Narrow handler: EXC001 only polices broad catches.
        pass
    return None
