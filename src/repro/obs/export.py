"""Standard exporters: Chrome trace-event JSON, Prometheus text, JSONL.

Three interchange formats, all writable from one traced run:

- :func:`chrome_trace` renders every exchange's span tree as Chrome
  trace-event JSON — load the file at ``ui.perfetto.dev`` (or
  ``chrome://tracing``) and the whole cluster appears as one timeline,
  one process row per component, one track per exchange.
- :func:`prometheus_text` renders flat ``{"scope.name": ...}`` counter,
  gauge and histogram dicts in the Prometheus text exposition format
  (counter, gauge, and histogram→summary families labelled by
  component).
- :func:`jsonl_events` / :func:`write_jsonl` / :func:`read_jsonl` give a
  structured event log that round-trips losslessly through JSON lines.

:func:`export_bundle` writes all of them (plus the latency-anatomy and
time-series JSON) into one directory the ``repro.obs.dash`` CLI can render.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, IO, Iterator, List, Optional, Union

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "jsonl_events",
    "write_jsonl",
    "read_jsonl",
    "export_bundle",
]

_US = 1e6  # trace-event timestamps are microseconds

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_FIRST_RE = re.compile(r"^[^a-zA-Z_:]")


def _json_safe(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _safe_attrs(attrs: Dict) -> Dict:
    return {str(k): _json_safe(v) for k, v in attrs.items()}


# ---------------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------


def chrome_trace(tracer, max_exchanges: Optional[int] = None) -> Dict:
    """Render a tracer's exchanges as a Chrome trace-event object.

    Layout: one *process* per component (``uproxy``, ``storage:store0``,
    ``net``, ...), one *thread* per exchange (tid = trace id), so related
    spans line up on one horizontal track per request.  Duration spans
    become ``ph="X"`` complete events; point markers become ``ph="i"``
    instants.  Timestamps are simulated microseconds.
    """
    events: List[Dict] = []
    pids: Dict[str, int] = {}

    def pid_of(component: str) -> int:
        pid = pids.get(component)
        if pid is None:
            pid = len(pids) + 1
            pids[component] = pid
        return pid

    count = 0
    for exchange in tracer.exchanges.values():
        if max_exchanges is not None and count >= max_exchanges:
            break
        count += 1
        tid = exchange.trace_id
        for span in exchange.spans:
            args = _safe_attrs(span.attrs)
            args["trace_id"] = tid
            if span is exchange.root:
                args["proc"] = exchange.proc
                args["key"] = str(exchange.key)
            base = {
                "name": f"{span.component}/{span.name}",
                "cat": span.component.split(":", 1)[0],
                "pid": pid_of(span.component),
                "tid": tid,
                "ts": span.ts * _US,
                "args": args,
            }
            if span.end_ts is not None:
                base["ph"] = "X"
                base["dur"] = max(0.0, (span.end_ts - span.ts) * _US)
            else:
                base["ph"] = "i"
                base["s"] = "t"  # thread-scoped instant
            events.append(base)
    # Process-name metadata so Perfetto labels the rows.
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": component},
        }
        for component, pid in sorted(pids.items(), key=lambda kv: kv[1])
    ]
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "exchanges": count},
    }


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _prom_name(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if _FIRST_RE.match(name):
        name = "_" + name
    return name


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _families(flat: Optional[Dict]) -> Dict[str, List]:
    """Group ``{"scope.name": value}`` by name: ``{name: [(scope, value)]}``.

    The key splits at its first dot, so a dotted name such as
    ``uproxy.route.mkdir-switch`` keeps scope ``uproxy``.  Scopes are
    sorted within each family.
    """
    families: Dict[str, List] = {}
    for key, value in (flat or {}).items():
        scope, dot, name = key.partition(".")
        if not dot:
            scope, name = "", key
        families.setdefault(name, []).append((_escape_label(scope), value))
    for entries in families.values():
        entries.sort(key=lambda entry: entry[0])
    return families


def prometheus_text(counters: Optional[Dict[str, int]] = None,
                    gauges: Optional[Dict[str, float]] = None,
                    histograms: Optional[Dict] = None,
                    prefix: str = "repro") -> str:
    """Render flat metric dicts in Prometheus text exposition format.

    Each argument maps ``"scope.name"`` to a value: ``counters`` (e.g.
    ``cluster.counters()``) to a cumulative count, ``gauges`` (e.g.
    ``cluster.gauges()``) to a reading, and ``histograms`` (e.g.
    ``tracer.histograms``) to a
    :class:`~repro.metrics.stats.LatencyRecorder`.  Each name becomes one
    family labelled by ``component`` (the scope); counters gain the
    conventional ``_total`` suffix and histograms are exposed as
    summaries (quantile series plus ``_count``/``_sum``).
    """
    lines: List[str] = []
    for flat, kind, suffix in ((counters, "counter", "_total"),
                               (gauges, "gauge", "")):
        families = _families(flat)
        for name in sorted(families):
            metric = f"{prefix}_{_prom_name(name)}{suffix}"
            lines.append(f"# TYPE {metric} {kind}")
            for label, value in families[name]:
                lines.append(
                    f'{metric}{{component="{label}"}} {_prom_value(value)}'
                )
    families = _families(histograms)
    for name in sorted(families):
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} summary")
        for label, hist in families[name]:
            for q in (0.5, 0.95, 0.99):
                lines.append(
                    f'{metric}{{component="{label}",quantile="{q}"}} '
                    f"{_prom_value(hist.percentile(q))}"
                )
            lines.append(
                f'{metric}_count{{component="{label}"}} {hist.count}'
            )
            lines.append(
                f'{metric}_sum{{component="{label}"}} '
                f"{_prom_value(hist.mean() * hist.count)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# JSONL structured event log
# ---------------------------------------------------------------------------


def jsonl_events(tracer) -> Iterator[Dict]:
    """Flatten a tracer into an ordered stream of JSON-safe event dicts."""
    yield {"type": "meta", "schema": 1, "source": "repro.obs",
           "exchanges": len(tracer.exchanges)}
    for exchange in tracer.exchanges.values():
        yield {
            "type": "exchange",
            "trace_id": exchange.trace_id,
            "key": str(exchange.key),
            "proc": exchange.proc,
            "n_calls": exchange.n_calls,
            "n_replies": exchange.n_replies,
        }
        for span in exchange.spans:
            yield {
                "type": "span",
                "trace_id": exchange.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "component": span.component,
                "name": span.name,
                "ts": span.ts,
                "end_ts": span.end_ts,
                "attrs": _safe_attrs(span.attrs),
            }
    for op_id, (state, kind) in tracer.intents.items():
        times = tracer.intent_times.get(op_id, [None, None])
        yield {
            "type": "intent",
            "op_id": op_id,
            "state": state,
            "kind": kind,
            "t_logged": times[0],
            "t_closed": times[1],
        }
    for ts, name, attrs in tracer.faults_injected:
        yield {"type": "fault", "ts": ts, "name": name,
               "attrs": _safe_attrs(dict(attrs))}
    yield {
        "type": "metrics",
        "counts": dict(tracer.counts),
        "histograms": {
            name: hist.summary() for name, hist in tracer.histograms.items()
        },
    }


def write_jsonl(path_or_file: Union[str, IO], events: Iterator[Dict]) -> int:
    """Write events as JSON lines; returns the number written."""
    own = isinstance(path_or_file, (str, os.PathLike))
    fh = open(path_or_file, "w") if own else path_or_file
    n = 0
    try:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")
            n += 1
    finally:
        if own:
            fh.close()
    return n


def read_jsonl(path_or_file: Union[str, IO]) -> List[Dict]:
    """Read a JSON-lines file back into a list of dicts."""
    own = isinstance(path_or_file, (str, os.PathLike))
    fh = open(path_or_file, "r") if own else path_or_file
    try:
        return [json.loads(line) for line in fh if line.strip()]
    finally:
        if own:
            fh.close()


# ---------------------------------------------------------------------------
# One-call bundle
# ---------------------------------------------------------------------------


def export_bundle(tracer, out_dir: str, sampler=None,
                  top_k: int = 8) -> Dict[str, str]:
    """Write every export format into ``out_dir``; returns name -> path.

    Files: ``trace.json`` (Perfetto), ``metrics.prom`` (Prometheus),
    ``events.jsonl`` (structured log), ``anatomy.json`` (critical-path
    report), and — when a :class:`~repro.obs.timeseries.TimeSeriesSampler`
    is given — ``timeseries.json``.  ``metrics.prom`` carries the tracer's
    counts and handle-time histograms; with a sampler it also carries the
    sampler's current ``read()`` as gauges and its ``counters()``.
    """
    from .anatomy import analyze

    os.makedirs(out_dir, exist_ok=True)
    paths: Dict[str, str] = {}

    trace_path = os.path.join(out_dir, "trace.json")
    with open(trace_path, "w") as fh:
        json.dump(chrome_trace(tracer), fh)
    paths["trace"] = trace_path

    prom_path = os.path.join(out_dir, "metrics.prom")
    counters = dict(tracer.counts)
    gauges = None
    if sampler is not None:
        gauges = sampler.read()
        if sampler.counters is not None:
            counters.update(sampler.counters())
    with open(prom_path, "w") as fh:
        fh.write(prometheus_text(counters, gauges, tracer.histograms))
    paths["metrics"] = prom_path

    jsonl_path = os.path.join(out_dir, "events.jsonl")
    write_jsonl(jsonl_path, jsonl_events(tracer))
    paths["events"] = jsonl_path

    anatomy_path = os.path.join(out_dir, "anatomy.json")
    with open(anatomy_path, "w") as fh:
        json.dump(analyze(tracer, top_k=top_k).to_dict(), fh, indent=1)
    paths["anatomy"] = anatomy_path

    if sampler is not None:
        ts_path = os.path.join(out_dir, "timeseries.json")
        with open(ts_path, "w") as fh:
            json.dump(sampler.to_dict(), fh)
        paths["timeseries"] = ts_path
    return paths
