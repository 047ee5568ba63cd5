"""repro.obs: zero-dependency tracing, metrics, and invariant checking.

The observability subsystem for the Slice reproduction:

- :mod:`repro.obs.trace` — :class:`Tracer`, per-exchange span trees
  threaded through the µproxy, the simulated fabric, the RPC servers, and
  the coordinator's intention log (off by default; attach one to a
  :class:`~repro.ensemble.cluster.SliceCluster` to enable).
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, per-component
  counters/histograms that dump through the benchmark table formatter.
- :mod:`repro.obs.checker` — :class:`TraceChecker`, which replays
  completed traces and asserts cross-site protocol invariants, turning
  any end-to-end test into a correctness oracle.

The latency-anatomy layer builds on those primitives:

- :mod:`repro.obs.anatomy` — critical-path decomposition of each
  exchange's latency into phases that tile the interval exactly.
- :mod:`repro.obs.timeseries` — ring-buffered sampling, on a
  simulated-clock cadence, of each component's ``gauges()`` reading and
  of counter rates; no tracer is needed.
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto),
  Prometheus text exposition, and a JSONL structured log.
- :mod:`repro.obs.dash` (``python -m repro.obs.dash``) — terminal
  dashboard over either a live cluster or exported files.

Run-to-run performance comparison is ``perfbench/`` at the repository
root, not part of this package.

See ``docs/OBSERVABILITY.md`` for the span schema and the invariant list.
"""

from .anatomy import AnatomyReport, analyze, analyze_exchange
from .checker import InvariantViolation, TraceChecker, Violation
from .export import (
    chrome_trace,
    export_bundle,
    jsonl_events,
    prometheus_text,
    read_jsonl,
    write_jsonl,
)
from .metrics import MetricsRegistry, MetricsScope
from .timeseries import RingBuffer, TimeSeriesSampler
from .trace import ExchangeTrace, Span, Tracer, all_tracers

__all__ = [
    "AnatomyReport",
    "ExchangeTrace",
    "InvariantViolation",
    "MetricsRegistry",
    "MetricsScope",
    "RingBuffer",
    "Span",
    "TimeSeriesSampler",
    "TraceChecker",
    "Tracer",
    "Violation",
    "all_tracers",
    "analyze",
    "analyze_exchange",
    "chrome_trace",
    "export_bundle",
    "jsonl_events",
    "prometheus_text",
    "read_jsonl",
    "write_jsonl",
]
