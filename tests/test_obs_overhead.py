"""Observability must not perturb the modelled system.

Tracing and telemetry are measurement layers: a traced cluster must
complete the *same* workload in the *same* simulated time as an untraced
one (the instrumentation happens at zero simulated cost).  The guard
budget is <2% drift; in practice the drift is exactly zero, so any
nonzero value means an instrumentation hook started consuming simulated
resources and the telemetry layer is no longer an observer.
"""

import pytest

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.obs import Tracer
from repro.workloads.bulkio import dd_write
from repro.workloads.untar import UntarSpec, UntarWorkload

OVERHEAD_BUDGET = 0.02  # <2% simulated-time drift allowed


def _run_workload(tracer, telemetry):
    cluster = SliceCluster(
        params=ClusterParams(num_storage_nodes=2, num_dir_servers=1),
        tracer=tracer,
    )
    if telemetry:
        cluster.start_telemetry(interval=0.01)
    client, _proxy = cluster.add_client()
    untar = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=30), seed=7
    )
    cluster.run(untar.run(), name="untar")
    cluster.run(
        dd_write(client, cluster.root_fh, "pay.bin", 2 << 20), name="dd"
    )
    return cluster.sim.now, _component_counters(cluster)


def _component_counters(cluster):
    """``cluster.counters()`` without the tracer's own ``uproxy.*`` counts."""
    return {
        name: value for name, value in cluster.counters().items()
        if not name.startswith("uproxy.")
    }


def test_tracing_and_telemetry_add_no_simulated_overhead():
    baseline, counts = _run_workload(tracer=None, telemetry=False)
    traced, traced_counts = _run_workload(tracer=Tracer(), telemetry=False)
    telemetered, telemetered_counts = _run_workload(
        tracer=Tracer(), telemetry=True
    )
    untraced_telemetry, untraced_telemetry_counts = _run_workload(
        tracer=None, telemetry=True
    )
    # Observers count nothing on the components' behalf: every component
    # counter reads the same with or without a tracer or a sampler.
    assert counts["net.packets_delivered"] > 0
    assert traced_counts == counts
    assert telemetered_counts == counts
    assert untraced_telemetry_counts == counts
    assert baseline > 0.0
    assert abs(traced - baseline) / baseline < OVERHEAD_BUDGET
    assert abs(telemetered - baseline) / baseline < OVERHEAD_BUDGET
    # The stronger property actually holds: identical to the float.
    assert traced == pytest.approx(baseline, rel=1e-12)
    assert untraced_telemetry == baseline


def test_untraced_cluster_has_no_tracer_state():
    cluster = SliceCluster(params=ClusterParams(num_storage_nodes=1))
    assert cluster.tracer is None
    assert cluster.telemetry is None
    client, _proxy = cluster.add_client()
    untar = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=10), seed=1
    )
    cluster.run(untar.run(), name="untar")  # runs clean with tracing off
