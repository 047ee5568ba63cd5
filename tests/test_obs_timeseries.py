"""Time-series telemetry: ring buffers, the sampler's sim-clock cadence,
cluster gauge readings and counter rates across components (traced or
not), and reservoir-capped histograms."""

import pytest

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.metrics.stats import LatencyRecorder
from repro.obs import RingBuffer, TimeSeriesSampler, Tracer
from repro.sim.engine import Simulator
from repro.workloads.bulkio import dd_write
from repro.workloads.untar import UntarSpec, UntarWorkload


# -- RingBuffer ------------------------------------------------------------


def test_ring_buffer_bounded_eviction():
    buf = RingBuffer("x", maxlen=4)
    for i in range(10):
        buf.append(float(i), float(i * i))
    assert len(buf) == 4
    assert buf.maxlen == 4
    assert buf.times() == [6.0, 7.0, 8.0, 9.0]
    assert buf.values() == [36.0, 49.0, 64.0, 81.0]
    assert buf.last() == (9.0, 81.0)
    assert buf.minmax() == (36.0, 81.0)
    assert buf.to_list() == [[6.0, 36.0], [7.0, 49.0], [8.0, 64.0], [9.0, 81.0]]


def test_ring_buffer_empty():
    buf = RingBuffer("empty")
    assert len(buf) == 0
    assert buf.last() is None
    assert buf.minmax() == (0.0, 0.0)
    assert buf.values() == []


# -- sampler mechanics on a bare simulator ---------------------------------


def test_sampler_cadence_and_counter_rates():
    sim = Simulator()
    state = {"v": 0.0, "ops": 0}

    def workload():
        for _ in range(20):
            yield sim.timeout(0.1)
            state["v"] += 1.0
            state["ops"] += 5

    sampler = TimeSeriesSampler(
        sim, lambda: {"comp.level": state["v"]},
        lambda: {"comp.ops": state["ops"]},
        interval=0.1, maxlen=8,
    )
    sampler.start()
    sampler.start()  # idempotent: one process, not two
    sim.process(workload(), name="load")
    sim.run(until=2.05)
    sampler.stop()

    level = sampler.series["comp.level"]
    # maxlen bounds the buffer even though ~20 ticks fired.
    assert len(level) == 8
    ts = level.times()
    # Deterministic sim-clock cadence: exactly one interval apart.
    for a, b in zip(ts, ts[1:]):
        assert b - a == pytest.approx(0.1)
    # Counter rate: 5 ops per 0.1 s tick -> 50/s once warmed up.
    rate = sampler.series["comp.ops:rate"]
    assert rate.values()[-1] == pytest.approx(50.0)
    assert sampler.samples_taken >= 8


def test_sampler_stop_halts_sampling():
    sim = Simulator()
    sampler = TimeSeriesSampler(sim, lambda: {"c.g": 1.0}, interval=0.1)
    sampler.start()
    sim.run(until=0.55)
    taken = sampler.samples_taken
    assert taken >= 4
    sampler.stop()
    sim.run(until=2.0)
    assert sampler.samples_taken == taken
    # Restart within one interval: the superseded loop must exit, so the
    # next simulated second holds exactly ten evenly spaced ticks.
    sampler.start()
    sim.run(until=2.25)
    sampler.stop()
    sampler.start()
    sim.run(until=3.3)
    ticks = [t for t in sampler.series["c.g"].times() if t > 2.25]
    assert len(ticks) == 10
    for a, b in zip(ticks, ticks[1:]):
        assert b - a == pytest.approx(0.1)


def test_sampler_rejects_bad_interval():
    with pytest.raises(ValueError):
        TimeSeriesSampler(Simulator(), dict, interval=0.0)


def test_sampler_to_dict_shape():
    sim = Simulator()
    sampler = TimeSeriesSampler(
        sim, lambda: {"c.g": 2.5}, interval=0.05, maxlen=16
    )
    sampler.start()
    sim.run(until=0.3)
    d = sampler.to_dict()
    assert d["interval"] == 0.05
    assert d["maxlen"] == 16
    assert d["samples_taken"] == len(d["series"]["c.g"])
    assert all(v == 2.5 for _t, v in d["series"]["c.g"])


# -- cluster readings: non-trivial curves ----------------------------------

# Every gauge series the sampled_cluster fixture records.
SAMPLED_CLUSTER_GAUGES = {
    "coord.intents_open",
    "coord:coord0.block_maps",
    "coord:coord0.cpu_queue",
    "coord:coord0.cpu_util",
    "coord:coord0.pending_intents",
    "coord:coord0.wal_depth",
    "coord:coord0.wal_unsynced",
    "dirsvc:dir0.cpu_queue",
    "dirsvc:dir0.cpu_util",
    "dirsvc:dir0.loaded_sites",
    "dirsvc:dir0.prepared_tx",
    "dirsvc:dir0.wal_depth",
    "dirsvc:dir0.wal_unsynced",
    "net.nic_client0_queue",
    "net.nic_configsvc_queue",
    "net.nic_coord0_queue",
    "net.nic_dir0_queue",
    "net.nic_sf0_queue",
    "net.nic_sf1_queue",
    "net.nic_store0_queue",
    "net.nic_store1_queue",
    "net.port_client0_queue",
    "net.port_client0_util",
    "net.port_configsvc_queue",
    "net.port_configsvc_util",
    "net.port_coord0_queue",
    "net.port_coord0_util",
    "net.port_dir0_queue",
    "net.port_dir0_util",
    "net.port_sf0_queue",
    "net.port_sf0_util",
    "net.port_sf1_queue",
    "net.port_sf1_util",
    "net.port_store0_queue",
    "net.port_store0_util",
    "net.port_store1_queue",
    "net.port_store1_util",
    "sf:sf0.cache_hit_rate",
    "sf:sf0.cache_used_frac",
    "sf:sf0.cpu_queue",
    "sf:sf0.cpu_util",
    "sf:sf0.loaded_sites",
    "sf:sf0.pending_overlays",
    "sf:sf0.wal_depth",
    "sf:sf0.wal_unsynced",
    "sf:sf1.cache_hit_rate",
    "sf:sf1.cache_used_frac",
    "sf:sf1.cpu_queue",
    "sf:sf1.cpu_util",
    "sf:sf1.loaded_sites",
    "sf:sf1.pending_overlays",
    "sf:sf1.wal_depth",
    "sf:sf1.wal_unsynced",
    "storage:store0.cache_hit_rate",
    "storage:store0.cache_used_frac",
    "storage:store0.channel_queue",
    "storage:store0.channel_util",
    "storage:store0.cpu_queue",
    "storage:store0.cpu_util",
    "storage:store0.dirty_blocks",
    "storage:store0.disk_queue",
    "storage:store0.disk_util",
    "storage:store1.cache_hit_rate",
    "storage:store1.cache_used_frac",
    "storage:store1.channel_queue",
    "storage:store1.channel_util",
    "storage:store1.cpu_queue",
    "storage:store1.cpu_util",
    "storage:store1.dirty_blocks",
    "storage:store1.disk_queue",
    "storage:store1.disk_util",
    "uproxy:client0.attr_cache_entries",
    "uproxy:client0.attr_cache_hit_rate",
    "uproxy:client0.cpu_queue",
    "uproxy:client0.cpu_util",
    "uproxy:client0.dirty_files",
    "uproxy:client0.pending_ops",
}

# Every counter key of the sampled_cluster fixture, per scope: each
# component's counters(), the fabric totals and the tracer's own counts.
_RPC = {"requests_handled", "duplicates_dropped", "duplicates_replayed"}
_SCOPED_COUNTERS = {
    "coord:coord0": _RPC | {"intents_logged", "recoveries"},
    "dirsvc:dir0": _RPC | {"ops_served", "cross_site_ops", "misdirected"},
    "net": {
        "packets_delivered", "bytes_delivered", "packets_dropped_fault",
        "packets_dropped_noroute", "packets_duplicated", "packets_delayed",
    },
    "uproxy": {"route.attr-site", "route.mkdir-switch", "route.name-entry",
               "route.small-file", "route.bulk-write", "route.commit-fanout",
               "absorb.commit"},
    "uproxy:client0": {
        "requests_routed", "replies_returned", "synthesized",
        "commits_absorbed", "misdirects_seen", "replies_dropped",
        "retransmissions", "attr_cache_hits", "attr_cache_misses",
        "block_map_hits", "block_map_misses",
    },
}
for _sf in ("sf:sf0", "sf:sf1"):
    _SCOPED_COUNTERS[_sf] = _RPC | {
        "reads", "writes", "backing_reads", "backing_writes",
        "cache_hits", "cache_misses",
    }
for _store in ("storage:store0", "storage:store1"):
    _SCOPED_COUNTERS[_store] = _RPC | {
        "reads", "writes", "bytes_read", "bytes_written", "misdirects",
        "migrate_reads", "migrate_writes", "cache_hits", "cache_misses",
        "disk_seeks",
    }
SAMPLED_CLUSTER_COUNTERS = {
    f"{scope}.{name}"
    for scope, names in _SCOPED_COUNTERS.items() for name in names
}



@pytest.fixture(scope="module")
def sampled_cluster():
    cluster = SliceCluster(
        params=ClusterParams(num_storage_nodes=2, num_dir_servers=1),
        tracer=Tracer(),
    )
    cluster.start_telemetry(interval=0.005)
    client, _proxy = cluster.add_client()
    untar = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=40), seed=11
    )
    cluster.run(untar.run(), name="untar")
    cluster.run(
        dd_write(client, cluster.root_fh, "big.bin", 6 << 20), name="dd"
    )
    return cluster


def test_storage_node_curves_nontrivial(sampled_cluster):
    """Bulk writes must move a storage node's queue/util gauges."""
    series = sampled_cluster.telemetry.series
    stores = {
        name.split(".")[0]
        for name in series if name.startswith("storage:")
    }
    assert len(stores) == 2
    busy = 0
    for store in stores:
        util = series[f"{store}.disk_util"]
        assert len(util) > 10
        lo, hi = util.minmax()
        if hi > lo and hi > 0.0:
            busy += 1
    assert busy >= 1, "no storage node showed disk utilisation movement"


def test_network_link_curve_nontrivial(sampled_cluster):
    """At least one switch output port shows occupancy during bulk IO."""
    series = sampled_cluster.telemetry.series
    port_series = [
        buf for name, buf in series.items()
        if name.startswith("net.port_") and name.endswith("_util")
    ]
    assert port_series, "no network port gauges installed"
    assert any(buf.minmax()[1] > 0.0 for buf in port_series)


def test_uproxy_and_dirsvc_gauges_present(sampled_cluster):
    series = sampled_cluster.telemetry.series
    assert any(n.startswith("uproxy:") and n.endswith("attr_cache_hit_rate")
               for n in series)
    assert any(n.startswith("dirsvc:") and n.endswith("wal_depth")
               for n in series)
    assert "coord.intents_open" in series


def test_sampled_cluster_gauge_series_names(sampled_cluster):
    series = sampled_cluster.telemetry.series
    gauges = {name for name in series if not name.endswith(":rate")}
    assert gauges == SAMPLED_CLUSTER_GAUGES


def test_sampled_cluster_counter_names_and_rates(sampled_cluster):
    counters = sampled_cluster.counters()
    assert set(counters) == SAMPLED_CLUSTER_COUNTERS
    assert all(isinstance(v, int) and v >= 0 for v in counters.values())
    series = sampled_cluster.telemetry.series
    rates = {name for name in series if name.endswith(":rate")}
    assert rates == {name + ":rate" for name in SAMPLED_CLUSTER_COUNTERS}
    # Counts are cumulative, so no rate may ever dip below zero.
    negative = [
        (name, t, v) for name in rates for t, v in series[name] if v < 0
    ]
    assert not negative
    assert series["net.packets_delivered:rate"].minmax()[1] > 0.0


def test_untraced_cluster_samples_gauges_and_rates():
    cluster = SliceCluster(params=ClusterParams(num_storage_nodes=1))
    assert cluster.tracer is None
    cluster.start_telemetry(interval=0.005)
    client, _proxy = cluster.add_client()
    untar = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=10), seed=3
    )
    cluster.run(untar.run(), name="untar")
    series = cluster.telemetry.series
    assert any(name.startswith("storage:") for name in series)
    assert any(name.startswith("net.port_") for name in series)
    assert "coord.intents_open" not in series
    # Counter rates come from the components, not from a tracer.
    rate = series["net.packets_delivered:rate"]
    assert rate.minmax()[1] > 0.0
    assert "uproxy:client0.requests_routed:rate" in series
    assert not [name for name in series if name.startswith("uproxy.")]


def test_servers_added_after_start_telemetry_are_sampled():
    cluster = SliceCluster(
        params=ClusterParams(num_storage_nodes=2, num_dir_servers=1),
        tracer=Tracer(),
    )
    client, _proxy = cluster.add_client()
    cluster.start_telemetry(interval=0.005)
    cluster.add_dir_server()
    cluster.add_sf_server()
    untar = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=20), seed=5
    )
    cluster.run(untar.run(), name="untar")
    series = cluster.telemetry.series
    for name in ("dirsvc:dir1.cpu_util", "sf:sf2.wal_depth",
                 "net.port_dir1_util"):
        assert name in series and len(series[name]) > 0, name


def test_start_telemetry_idempotent(sampled_cluster):
    again = sampled_cluster.start_telemetry(interval=0.005)
    assert again is sampled_cluster.telemetry


# -- LatencyRecorder reservoir cap -----------------------------------------


def test_reservoir_exact_below_cap():
    rec = LatencyRecorder("r", reservoir=100)
    for i in range(50):
        rec.record(float(i))
    assert rec.count == 50
    assert len(rec.samples) == 50
    assert rec.percentile(0.0) == 0.0
    assert rec.percentile(1.0) == 49.0
    assert rec.mean() == pytest.approx(24.5)


def test_reservoir_bounds_memory_and_keeps_exact_aggregates():
    rec = LatencyRecorder("r2", reservoir=64)
    n = 5000
    for i in range(n):
        rec.record(float(i))
    assert len(rec.samples) == 64
    assert rec.count == n                      # exact
    assert rec.max() == float(n - 1)           # exact
    assert rec.mean() == pytest.approx((n - 1) / 2)  # exact
    # Estimated median of uniform 0..4999 should land in the middle half.
    assert 1000.0 < rec.percentile(0.5) < 4000.0
    # All retained samples are genuine observations.
    assert all(0.0 <= s < n and s == int(s) for s in rec.samples)


def test_reservoir_deterministic_per_name():
    def fill(name):
        rec = LatencyRecorder(name, reservoir=32)
        for i in range(1000):
            rec.record(float(i))
        return list(rec.samples)

    assert fill("same") == fill("same")
    assert fill("same") != fill("different")


def test_reservoir_validation_and_clear():
    with pytest.raises(ValueError):
        LatencyRecorder("bad", reservoir=0)
    rec = LatencyRecorder("ok", reservoir=8)
    for i in range(100):
        rec.record(1.0)
    rec.clear()
    assert rec.count == 0 and rec.samples == [] and rec.max() == 0.0


def test_tracer_registry_histograms_are_capped():
    from repro.net import Address

    tracer = Tracer()
    cap = Tracer.HISTOGRAM_RESERVOIR
    tid = tracer.call_intercepted(Address("c", 700), 1, 6, 0.0)
    for i in range(cap + 500):
        span = tracer.server_begin("storage:x", tid, 6, 0.0)
        tracer.server_end(span, 0.001)
    hist = tracer.histograms["storage:x.handle_s"]
    assert hist.reservoir == cap
    assert len(hist.samples) == cap
    assert hist.count == cap + 500
