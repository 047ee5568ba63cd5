"""Heavyweight telemetry sweep: a traced untar + bulk-IO run through the
whole pipeline — anatomy, sampler, exporters, bundle, dash — end to end.

Excluded from the default suite (minutes, not seconds); run with
``pytest -m telemetry`` or ``./run_all.sh --with-telemetry``.
"""

import json

import pytest

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.obs import (
    Tracer,
    analyze,
    chrome_trace,
    export_bundle,
    prometheus_text,
)
from repro.obs.dash import render_file, render_live
from repro.workloads.bulkio import dd_read, dd_write
from repro.workloads.untar import UntarSpec, UntarWorkload

pytestmark = pytest.mark.telemetry


@pytest.fixture(scope="module")
def big_run():
    cluster = SliceCluster(
        params=ClusterParams(num_storage_nodes=4, num_dir_servers=2),
        tracer=Tracer(),
    )
    cluster.start_telemetry(interval=0.02)
    clients = [cluster.add_client(f"c{i}")[0] for i in range(2)]
    for i, client in enumerate(clients):
        untar = UntarWorkload(
            client, cluster.root_fh,
            UntarSpec(total_entries=150), prefix=f"p{i}", seed=100 + i,
        )
        cluster.run(untar.run(), name=f"untar{i}")
    fh, _res = cluster.run(
        dd_write(clients[0], cluster.root_fh, "blob.bin", 16 << 20, seed=9),
        name="dd-write",
    )
    cluster.run(
        dd_read(clients[1], fh, 16 << 20, verify_seed=9), name="dd-read"
    )
    return cluster


def test_anatomy_tiles_at_scale(big_run):
    report = analyze(big_run.tracer)
    d = report.to_dict()
    assert d["exchanges"] > 1000
    assert d["incomplete"] == 0
    # Phase totals and per-proc totals are two views of the same time.
    total = sum(d["phase_totals"].values())
    by_proc_total = sum(p["total_s"] for p in d["by_proc"].values())
    assert total == pytest.approx(by_proc_total, rel=1e-9)
    # Every paper-relevant phase shows up in a mixed workload.  (The
    # route *decision* is zero simulated cost, so uproxy.route is not
    # expected here; fabric and server phases must all be present.)
    for phase in ("fabric.request", "server.queue",
                  "server.exec", "fabric.reply"):
        assert d["phase_totals"].get(phase, 0.0) > 0.0, phase


def test_curves_nontrivial_at_scale(big_run):
    series = big_run.telemetry.series
    # All four storage nodes and at least one switch port moved.
    moving = [
        n for n, buf in series.items()
        if n.startswith("storage:") and n.endswith("disk_util")
        and buf.minmax()[1] > 0.0
    ]
    assert len(moving) >= 2
    assert any(
        buf.minmax()[1] > 0.0
        for n, buf in series.items()
        if n.startswith("net.port_") and n.endswith("_util")
    )


def test_full_bundle_and_dash(big_run, tmp_path):
    out = tmp_path / "bundle"
    paths = export_bundle(
        big_run.tracer, str(out), sampler=big_run.telemetry
    )
    trace = json.load(open(paths["trace"]))
    assert len(trace["traceEvents"]) > 5000
    text = prometheus_text(big_run.counters(), big_run.gauges(),
                           big_run.tracer.histograms)
    assert text.count("\n") > 50
    # Both render paths work on the same data.
    live = render_live(big_run)
    assert "critical-path anatomy" in live.lower()
    assert "▁" in live or "█" in live  # sparklines rendered
    assert "critical-path anatomy" in render_file(str(out)).lower()


def test_chrome_trace_cap(big_run):
    capped = chrome_trace(big_run.tracer, max_exchanges=10)
    full = chrome_trace(big_run.tracer)
    assert len(capped["traceEvents"]) < len(full["traceEvents"])
