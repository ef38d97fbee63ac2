"""Per-layer call tracing by wrapping the library's public functions.

A probe replaces a function at one module (or class) attribute with a
wrapper that records, per layer, the call count, inclusive time and self
time (inclusive time minus the time of nested traced calls). Functions that
a module imports by name are reached through that module's attribute, so one
layer can have several probes: ``dexter.detector.first_alert_step`` and
``dexter.cusum.first_alert_step`` both report to ``cusum.first_alert_step``.

Nothing under ``src/`` is changed; probes are installed for the duration of
a ``with tracer:`` block and the original attributes are restored on exit.
"""

import time


class LayerStats:
    """Totals for one layer. ``counts`` holds layer-specific work counts;
    ``keys`` collects distinct items (e.g. episodes) within one iteration and
    ``distinct`` sums their number over iterations; ``samples`` holds
    (seconds, weight) pairs for layers whose latency distribution matters."""

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.counts = {}
        self.keys = set()
        self.distinct = 0
        self.samples = []

    def add(self, name: str, amount: float):
        self.counts[name] = self.counts.get(name, 0) + amount

    def copy(self) -> "LayerStats":
        out = LayerStats()
        out.calls, out.inclusive, out.self_time = self.calls, self.inclusive, self.self_time
        out.counts = dict(self.counts)
        out.distinct = self.distinct
        return out


class Probe:
    """Where to wrap (``owner.attr``), which layer to charge, and an optional
    ``record(stats, seconds, args, result)`` that adds work counts."""

    def __init__(self, owner, attr: str, layer: str, record=None):
        self.owner = owner
        self.attr = attr
        self.layer = layer
        self.record = record


class Tracer:
    def __init__(self, probes):
        self.probes = list(probes)
        self.layers = {p.layer: LayerStats() for p in self.probes}
        self._stack = []
        self._saved = []

    def _wrap(self, fn, probe: Probe):
        stats = self.layers[probe.layer]
        stack = self._stack
        record = probe.record

        def traced(*args, **kwargs):
            start = time.perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                stats.calls += 1
                stats.inclusive += elapsed
                stats.self_time += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if record is not None:
                record(stats, elapsed, args, result)
            return result

        return traced

    def __enter__(self):
        for probe in self.probes:
            raw = vars(probe.owner)[probe.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, probe))
            else:
                wrapped = self._wrap(raw, probe)
            self._saved.append((probe.owner, probe.attr, raw))
            setattr(probe.owner, probe.attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False

    def end_iteration(self):
        """Fold the distinct items seen since the last call into the totals."""
        for stats in self.layers.values():
            stats.distinct += len(stats.keys)
            stats.keys.clear()

    def snapshot(self) -> dict:
        return {name: stats.copy() for name, stats in self.layers.items()}


def per_unit(setup: dict, final: dict, iterations: int) -> dict:
    """Layer totals for one set-up plus one average iteration, from a
    snapshot taken after the set-up and the totals after ``iterations``
    identical iterations. Counts stay exact because every iteration does the
    same work."""
    out = {}
    for name, end in final.items():
        base = setup[name]
        unit = LayerStats()
        unit.calls = base.calls + (end.calls - base.calls) / iterations
        unit.inclusive = base.inclusive + (end.inclusive - base.inclusive) / iterations
        unit.self_time = base.self_time + (end.self_time - base.self_time) / iterations
        unit.distinct = base.distinct + (end.distinct - base.distinct) / iterations
        unit.counts = {
            key: base.counts.get(key, 0) + (value - base.counts.get(key, 0)) / iterations
            for key, value in end.counts.items()
        }
        out[name] = unit
    return out
