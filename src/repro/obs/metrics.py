"""Per-component metrics: counters and histograms behind one registry.

The registry reuses the benchmark-harness primitives from
:mod:`repro.metrics.stats` (so a counter is a counter everywhere in the
repo) and dumps through :func:`repro.metrics.report.format_table`, which is
the same formatter the paper-reproduction benchmarks print their tables
with.  Scopes give each component its own namespace::

    registry.scope("uproxy:client0").inc("requests_routed")
    registry.scope("storage:store1").observe("handle_s", 0.0023)
    print(registry.format_tables())

Everything is zero-dependency and cheap: creating a metric is a dict
insert, updating one is an attribute bump.  Instantaneous levels (queue
depths, utilisations) are not kept here: each component reports them
from its own ``gauges()`` method when telemetry samples it.

``snapshot()`` returns one view — counters and histogram summaries —
which is what the exporters (:mod:`repro.obs.export`) and test
assertions consume.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.metrics.report import format_table
from repro.metrics.stats import Counter, LatencyRecorder

__all__ = ["MetricsScope", "MetricsRegistry"]


class MetricsScope:
    """One component's namespace of counters and histograms."""

    __slots__ = ("name", "counters", "histograms", "histogram_reservoir")

    def __init__(self, name: str, histogram_reservoir: Optional[int] = None):
        self.name = name
        self.histogram_reservoir = histogram_reservoir
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, LatencyRecorder] = {}

    # -- counters ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = Counter(f"{self.name}.{name}")
            self.counters[name] = counter
        return counter

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).add(amount)

    def value(self, name: str) -> int:
        counter = self.counters.get(name)
        return counter.value if counter is not None else 0

    # -- histograms -------------------------------------------------------

    def histogram(self, name: str) -> LatencyRecorder:
        hist = self.histograms.get(name)
        if hist is None:
            hist = LatencyRecorder(f"{self.name}.{name}",
                                   reservoir=self.histogram_reservoir)
            self.histograms[name] = hist
        return hist

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)


class MetricsRegistry:
    """All scopes for one tracing domain (usually one cluster).

    ``histogram_reservoir`` bounds every histogram created through this
    registry (see :class:`~repro.metrics.stats.LatencyRecorder`): the
    tracer passes a cap so long chaos runs cannot grow sample lists
    without bound, while standalone benchmark registries default to
    unlimited (exact percentiles).
    """

    def __init__(self, histogram_reservoir: Optional[int] = None):
        self.histogram_reservoir = histogram_reservoir
        self.scopes: Dict[str, MetricsScope] = {}

    def scope(self, name: str) -> MetricsScope:
        scope = self.scopes.get(name)
        if scope is None:
            scope = MetricsScope(
                name, histogram_reservoir=self.histogram_reservoir
            )
            self.scopes[name] = scope
        return scope

    def __iter__(self) -> Iterator[MetricsScope]:
        return iter(self.scopes.values())

    # -- export -----------------------------------------------------------

    def counter_rows(self) -> List[Tuple[str, str, int]]:
        rows = []
        for scope_name in sorted(self.scopes):
            scope = self.scopes[scope_name]
            for name in sorted(scope.counters):
                rows.append((scope_name, name, scope.counters[name].value))
        return rows

    def histogram_rows(self) -> List[Tuple[str, str, int, float, float, float]]:
        rows = []
        for scope_name in sorted(self.scopes):
            scope = self.scopes[scope_name]
            for name in sorted(scope.histograms):
                hist = scope.histograms[name]
                rows.append((
                    scope_name, name, hist.count, hist.mean(),
                    hist.percentile(0.95), hist.max(),
                ))
        return rows

    def snapshot(self) -> Dict[str, Dict]:
        """Counters (plain ints) and histogram summaries
        (``{"n", "mean", "p50", "p95", "max"}`` dicts), merged per scope,
        e.g. ``snap["uproxy"]["calls_intercepted"] == 3``.
        """
        snap: Dict[str, Dict] = {}
        for scope_name, scope in self.scopes.items():
            view: Dict[str, object] = {
                name: counter.value
                for name, counter in scope.counters.items()
            }
            for name, hist in scope.histograms.items():
                view[name] = hist.summary()
            snap[scope_name] = view
        return snap

    def format_tables(self, title: Optional[str] = "repro.obs metrics") -> str:
        """Render every scope through the benchmark table formatter."""
        parts = []
        counter_rows = self.counter_rows()
        if counter_rows:
            parts.append(format_table(
                ["component", "counter", "value"], counter_rows, title=title,
            ))
        hist_rows = self.histogram_rows()
        if hist_rows:
            parts.append(format_table(
                ["component", "histogram", "n", "mean", "p95", "max"],
                hist_rows,
            ))
        if not parts:
            return "(no metrics recorded)"
        return "\n".join(parts)
