"""Exporter formats: Perfetto JSON shape, Prometheus grammar, and JSONL
round-trips."""

import json
import re

import pytest

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.obs import (
    Tracer,
    chrome_trace,
    export_bundle,
    jsonl_events,
    prometheus_text,
    read_jsonl,
    write_jsonl,
)
from repro.workloads.untar import UntarSpec, UntarWorkload


@pytest.fixture(scope="module")
def traced_run():
    cluster = SliceCluster(
        params=ClusterParams(num_storage_nodes=2, num_dir_servers=1),
        tracer=Tracer(),
    )
    cluster.start_telemetry(interval=0.01)
    client, _proxy = cluster.add_client()
    untar = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=40), seed=5
    )
    cluster.run(untar.run(), name="untar")
    return cluster


# -- Chrome trace-event JSON ----------------------------------------------


def test_chrome_trace_event_shape(traced_run):
    doc = chrome_trace(traced_run.tracer)
    events = doc["traceEvents"]
    assert len(events) > 100
    # JSON-serializable end to end (Perfetto loads the file verbatim).
    json.loads(json.dumps(doc))
    pids_named = set()
    for ev in events:
        assert ev["ph"] in ("X", "i", "M")
        assert isinstance(ev["pid"], int)
        assert isinstance(ev["tid"], int)
        if ev["ph"] == "M":
            assert ev["name"] == "process_name"
            pids_named.add(ev["pid"])
            continue
        assert isinstance(ev["ts"], float)
        assert ev["ts"] >= 0.0
        assert isinstance(ev["name"], str) and "/" in ev["name"]
        if ev["ph"] == "X":
            assert ev["dur"] >= 0.0
        else:
            assert ev["s"] == "t"
    # Every pid used by an event has a process_name metadata record.
    assert {e["pid"] for e in events if e["ph"] != "M"} <= pids_named


def test_chrome_trace_microsecond_timestamps(traced_run):
    tracer = traced_run.tracer
    doc = chrome_trace(tracer)
    first = next(iter(tracer.exchanges.values()))
    root_events = [
        e for e in doc["traceEvents"]
        if e["ph"] == "X" and e["tid"] == first.trace_id
        and e["name"] == "uproxy/exchange"
    ]
    assert len(root_events) == 1
    ev = root_events[0]
    assert ev["ts"] == pytest.approx(first.root.ts * 1e6)
    assert ev["dur"] == pytest.approx(
        (first.root.end_ts - first.root.ts) * 1e6
    )


def test_chrome_trace_component_processes(traced_run):
    doc = chrome_trace(traced_run.tracer)
    names = {
        e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
    }
    assert "uproxy" in names
    assert "net" in names
    assert any(n.startswith("dirsvc:") for n in names)


# -- Prometheus text exposition -------------------------------------------

_TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
                      r"(counter|gauge|summary)$")
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r'\{[a-zA-Z_]+="[^"]*"'               # first label
    r'(,[a-zA-Z_]+="[^"]*")*\} '          # further labels
    r"(NaN|[+-]?Inf|[+-]?[0-9.eE+-]+)$"   # value
)


def test_prometheus_text_parses_line_by_line(traced_run):
    text = prometheus_text(traced_run.counters(), traced_run.gauges(),
                           traced_run.tracer.histograms)
    lines = text.splitlines()
    assert lines, "no metrics rendered"
    types_seen = set()
    samples = 0
    for line in lines:
        if line.startswith("#"):
            m = _TYPE_RE.match(line)
            assert m, f"bad comment line: {line!r}"
            types_seen.add(m.group(1))
            continue
        assert _SAMPLE_RE.match(line), f"bad sample line: {line!r}"
        samples += 1
    assert samples > 10
    assert {"counter", "gauge", "summary"} <= types_seen


def test_prometheus_counter_and_summary_families(traced_run):
    text = prometheus_text(traced_run.counters(),
                           histograms=traced_run.tracer.histograms)
    assert re.search(
        r'repro_requests_routed_total\{component="uproxy:client0"\} \d+',
        text,
    )
    # The tracer's own counts split at the first dot like every key.
    assert re.search(
        r'repro_route_name_entry_total\{component="uproxy"\} \d+', text
    )
    # Histogram -> summary: quantiles plus _count/_sum.
    assert 'quantile="0.95"' in text
    assert re.search(r"repro_handle_s_count\{[^}]*\} \d+", text)
    assert re.search(r"repro_handle_s_sum\{[^}]*\} ", text)
    # Sanitized names only.
    for line in text.splitlines():
        name = line.split("{")[0].split()[-1 if line.startswith("#") else 0]
        if line.startswith("# TYPE"):
            name = line.split()[2]
        assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name), line


def test_prometheus_splits_every_key_at_its_first_dot():
    from repro.metrics.stats import LatencyRecorder

    hist = LatencyRecorder()
    hist.record(0.5)
    text = prometheus_text(
        {"uproxy.route.mkdir-switch": 3, "uproxy:client0.requests_routed": 4,
         "undotted": 1},
        {"storage:store0.disk_util": 0.25, "net.port_sf0_util": 0.5},
        {"dirsvc:dir0.handle_s": hist},
    )
    lines = text.splitlines()
    assert '# TYPE repro_route_mkdir_switch_total counter' in lines
    assert 'repro_route_mkdir_switch_total{component="uproxy"} 3' in lines
    assert ('repro_requests_routed_total{component="uproxy:client0"} 4'
            in lines)
    assert 'repro_undotted_total{component=""} 1' in lines
    assert 'repro_disk_util{component="storage:store0"} 0.25' in lines
    assert 'repro_port_sf0_util{component="net"} 0.5' in lines
    assert 'repro_handle_s_count{component="dirsvc:dir0"} 1' in lines
    assert prometheus_text() == ""


# -- JSONL ----------------------------------------------------------------


def test_jsonl_round_trip(tmp_path, traced_run):
    path = tmp_path / "events.jsonl"
    n = write_jsonl(str(path), jsonl_events(traced_run.tracer))
    events = read_jsonl(str(path))
    assert len(events) == n
    # Write the parsed events again: byte-identical (lossless round-trip).
    path2 = tmp_path / "events2.jsonl"
    write_jsonl(str(path2), iter(events))
    assert path.read_bytes() == path2.read_bytes()
    kinds = {e["type"] for e in events}
    assert {"meta", "exchange", "span", "metrics"} <= kinds
    metrics = next(e for e in events if e["type"] == "metrics")
    assert metrics["counts"] == dict(traced_run.tracer.counts)
    assert metrics["histograms"]["dirsvc:dir0.handle_s"]["n"] > 0
    spans = [e for e in events if e["type"] == "span"]
    total_spans = sum(
        len(x.spans) for x in traced_run.tracer.exchanges.values()
    )
    assert len(spans) == total_spans


def test_export_bundle_writes_everything(tmp_path, traced_run):
    out = tmp_path / "bundle"
    paths = export_bundle(
        traced_run.tracer, str(out), sampler=traced_run.telemetry
    )
    assert set(paths) == {
        "trace", "metrics", "events", "anatomy", "timeseries"
    }
    for p in paths.values():
        assert (tmp_path / "bundle").exists()
        with open(p) as fh:
            assert fh.read(1)  # non-empty
    with open(paths["anatomy"]) as fh:
        anatomy = json.load(fh)
    assert anatomy["exchanges"] > 0
    # With a sampler, metrics.prom carries the cluster's counters and
    # gauge readings next to the tracer's handle-time summaries.
    with open(paths["metrics"]) as fh:
        prom = fh.read()
    assert '# TYPE repro_disk_util gauge' in prom
    assert 'repro_disk_util{component="storage:store0"}' in prom
    assert '# TYPE repro_packets_delivered_total counter' in prom
    assert 'repro_route_name_entry_total{component="uproxy"}' in prom
    assert '# TYPE repro_handle_s summary' in prom
    # The dash CLI renders the bundle without raising.
    from repro.obs.dash import render_file

    assert "critical-path anatomy" in render_file(str(out))


# -- dashboard ------------------------------------------------------------


def test_render_live_without_a_tracer():
    from repro.obs.dash import render_live

    cluster = SliceCluster(params=ClusterParams(num_storage_nodes=1))
    cluster.start_telemetry(interval=0.005)
    client, _proxy = cluster.add_client()
    untar = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=10), seed=3
    )
    cluster.run(untar.run(), name="untar")
    text = render_live(cluster)
    assert "net.packets_delivered:rate" in text
    assert "uproxy:client0.requests_routed" in text
    assert "anatomy" not in text
    assert "handle_s" not in text
