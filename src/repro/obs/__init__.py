"""repro.obs: zero-dependency tracing, telemetry, and invariant checking.

The observability subsystem for the Slice reproduction.  Counting is not
part of it: each component keeps its own cumulative counts and reports
them from ``counters()`` next to its ``gauges()``, and
:meth:`SliceCluster.counters <repro.ensemble.cluster.SliceCluster.counters>`
gathers them under ``"scope.name"`` keys, traced or not.

- :mod:`repro.obs.trace` — :class:`Tracer`, per-exchange span trees
  threaded through the µproxy, the simulated fabric, the RPC servers, and
  the coordinator's intention log (off by default; attach one to a
  :class:`~repro.ensemble.cluster.SliceCluster` to enable).  It keeps
  only the counts that need trace context (route reasons, absorptions,
  splits) and the per-component server handle-time histograms.
- :mod:`repro.obs.checker` — :class:`TraceChecker`, which replays
  completed traces and asserts cross-site protocol invariants, turning
  any end-to-end test into a correctness oracle.

The latency-anatomy layer builds on those primitives:

- :mod:`repro.obs.anatomy` — critical-path decomposition of each
  exchange's latency into phases that tile the interval exactly.
- :mod:`repro.obs.timeseries` — ring-buffered sampling, on a
  simulated-clock cadence, of each component's ``gauges()`` reading and
  of its ``counters()`` rates; no tracer is needed.
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
from .timeseries import RingBuffer, TimeSeriesSampler
from .trace import ExchangeTrace, Span, Tracer, all_tracers

__all__ = [
    "AnatomyReport",
    "ExchangeTrace",
    "InvariantViolation",
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
