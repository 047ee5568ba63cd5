"""Tests for workload generators, metrics, and the baseline server."""

import pytest

from repro.ensemble.baseline import BaselineParams, MonolithicServer
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.metrics.stats import LatencyRecorder
from repro.net import NetParams, Network
from repro.nfs.client import ClientParams, NfsClient
from repro.nfs.fhandle import FHandle
from repro.nfs.types import NF3DIR
from repro.sim import Simulator
from repro.util.bytesim import PatternData
from repro.workloads.bulkio import dd_read, dd_write
from repro.workloads.fileset import (
    SIZE_DISTRIBUTION,
    FilesetSpec,
    build_fileset,
    draw_file_size,
)
from repro.workloads.specsfs import SFS97_MIX, SfsConfig, SfsRun
from repro.workloads.untar import UntarSpec, UntarWorkload, build_tree_plan


# -- metrics -------------------------------------------------------------


def test_latency_recorder_stats():
    rec = LatencyRecorder()
    for value in [1.0, 2.0, 3.0, 4.0, 100.0]:
        rec.record(value)
    assert rec.mean() == pytest.approx(22.0)
    assert rec.percentile(0.5) == 3.0
    # Interpolated: rank 0.99 * 4 = 3.96 -> 4 + 0.96 * (100 - 4).
    assert rec.percentile(0.99) == pytest.approx(96.16)
    assert rec.max() == 100.0


def test_latency_recorder_percentile_interpolates():
    rec = LatencyRecorder()
    for value in [10.0, 20.0, 30.0, 40.0]:
        rec.record(value)
    # rank = 0.5 * 3 = 1.5: halfway between the 2nd and 3rd samples.
    assert rec.percentile(0.5) == pytest.approx(25.0)
    assert rec.percentile(0.25) == pytest.approx(17.5)


def test_latency_recorder_percentile_edge_cases():
    empty = LatencyRecorder()
    assert empty.percentile(0.5) == 0.0
    assert empty.mean() == 0.0
    assert empty.max() == 0.0

    single = LatencyRecorder()
    single.record(7.0)
    for p in (0.0, 0.5, 0.99, 1.0):
        assert single.percentile(p) == 7.0

    rec = LatencyRecorder()
    for value in [5.0, 1.0, 3.0]:
        rec.record(value)
    assert rec.percentile(0.0) == 1.0  # minimum
    assert rec.percentile(1.0) == 5.0  # maximum
    # Out-of-range p clamps rather than raising.
    assert rec.percentile(-0.5) == 1.0
    assert rec.percentile(2.0) == 5.0


# -- tree plan / size distribution -----------------------------------------


def test_tree_plan_counts():
    spec = UntarSpec(total_entries=500)
    plan = build_tree_plan(spec)
    assert len(plan) == 500
    kinds = {k for k, _p, _n in plan}
    assert kinds == {"create", "mkdir"}
    # Parent references only point at mkdir steps (or the root).
    for _kind, parent, _name in plan:
        if parent >= 0:
            assert plan[parent][0] == "mkdir"


def test_tree_plan_deterministic():
    spec = UntarSpec(total_entries=200)
    assert build_tree_plan(spec, seed=1) == build_tree_plan(spec, seed=1)
    assert build_tree_plan(spec, seed=1) != build_tree_plan(spec, seed=2)


def test_size_distribution_small_file_share():
    small = sum(w for s, w in SIZE_DISTRIBUTION if s <= 64 << 10)
    assert small == 94  # the paper's 94% <= 64 KB


def test_draw_file_size_in_distribution():
    import random

    rng = random.Random(3)
    sizes = {draw_file_size(rng) for _ in range(500)}
    valid = {s for s, _w in SIZE_DISTRIBUTION}
    assert sizes <= valid


def test_sfs_mix_sums_to_100():
    assert sum(w for _n, w in SFS97_MIX) == 100


# -- untar through the cluster ------------------------------------------------


def small_cluster(**overrides):
    defaults = dict(
        num_storage_nodes=2, num_dir_servers=2, num_sf_servers=1,
        dir_logical_sites=8, sf_logical_sites=4,
    )
    defaults.update(overrides)
    return SliceCluster(params=ClusterParams(**defaults))


def test_untar_runs_against_slice():
    cluster = small_cluster()
    client, _proxy = cluster.add_client()
    spec = UntarSpec(total_entries=60)
    workload = UntarWorkload(client, cluster.root_fh, spec, prefix="proc0")
    entries, ops, elapsed = cluster.run(workload.run())
    assert entries == 60
    # ~7 ops per file create, ~4 per mkdir.
    assert ops > entries * 4
    assert elapsed > 0


def test_untar_distributes_over_dir_servers_with_hashing():
    from repro.dirsvc.config import NAME_HASHING

    cluster = small_cluster(name_mode=NAME_HASHING)
    client, _proxy = cluster.add_client()
    workload = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=80), prefix="p0"
    )
    cluster.run(workload.run())
    served = [s.ops_served for s in cluster.dir_servers]
    assert all(count > 0 for count in served)


# -- dd bulk I/O ---------------------------------------------------------------


def test_dd_write_read_roundtrip():
    cluster = small_cluster()
    client, _proxy = cluster.add_client()

    def run():
        fh, wres = yield from dd_write(
            client, cluster.root_fh, "dd.bin", 1 << 20, seed=5
        )
        rres = yield from dd_read(client, fh, 1 << 20, verify_seed=5)
        return wres, rres

    wres, rres = cluster.run(run())
    assert wres.mb_per_second > 0
    assert rres.mb_per_second > 0
    assert rres.nbytes == 1 << 20


# -- fileset + SFS generator ----------------------------------------------------


def test_build_fileset():
    cluster = small_cluster()
    client, _proxy = cluster.add_client()
    spec = FilesetSpec(num_files=20, num_dirs=4, num_symlinks=3, seed=1)

    def run():
        fs = yield from build_fileset(client, cluster.root_fh, spec)
        return fs

    fs = cluster.run(run())
    assert len(fs.files) == 20
    assert len(fs.dirs) == 4
    assert len(fs.symlinks) == 3
    assert fs.total_bytes > 0


def test_sfs_run_produces_result():
    cluster = small_cluster()
    client, _proxy = cluster.add_client()
    config = SfsConfig(
        offered_load=50.0, num_procs=4, warmup=0.5, window=2.0,
        fileset=FilesetSpec(num_files=30, num_dirs=4, num_symlinks=4),
    )
    run = SfsRun(cluster.sim, [client], cluster.root_fh, config)
    result = cluster.run(run.execute())
    assert result.ops_completed > 0
    assert result.achieved_iops > 0
    assert result.errors <= result.ops_completed * 0.02
    assert result.mean_latency_ms > 0


def test_sfs_overload_degrades_gracefully():
    """Offered load far beyond capacity: delivered stays below offered."""
    cluster = small_cluster()
    client, _proxy = cluster.add_client()
    config = SfsConfig(
        offered_load=100000.0, num_procs=8, warmup=0.5, window=1.5,
        fileset=FilesetSpec(num_files=30, num_dirs=4, num_symlinks=4),
    )
    run = SfsRun(cluster.sim, [client], cluster.root_fh, config)
    result = cluster.run(run.execute())
    assert result.achieved_iops < config.offered_load * 0.8


# -- baseline server ---------------------------------------------------------


def build_baseline(mode="mfs"):
    sim = Simulator()
    net = Network(sim, NetParams())
    server_host = net.add_host("nfs-server")
    server = MonolithicServer(sim, server_host, BaselineParams(mode=mode))
    client = NfsClient(
        sim, net.add_host("client"), server.address, params=ClientParams()
    )
    return sim, server, client


@pytest.mark.parametrize("mode", ["mfs", "ffs"])
def test_baseline_end_to_end(mode):
    sim, server, client = build_baseline(mode)

    def run():
        created = yield from client.create(server.root_fh(), "hello")
        assert created.status == 0
        yield from client.write_file(created.fh, PatternData(100 << 10, seed=2))
        data = yield from client.read_file(created.fh, 100 << 10)
        listing_status, entries = yield from client.readdir(server.root_fh())
        return data, listing_status, [e.name for e in entries]

    data, status, names = sim.run_process(run())
    assert data == PatternData(100 << 10, seed=2)
    assert status == 0
    assert "hello" in names


@pytest.mark.parametrize("mode", ["mfs", "ffs"])
def test_baseline_readdirplus_lists_attributes_and_handles(mode):
    sim, server, client = build_baseline(mode)
    root = server.root_fh()

    def run():
        for name in ("a", "b", "c"):
            yield from client.create(root, name)
        yield from client.mkdir(root, "d")
        plain = yield from client.readdir(root)
        plus = yield from client.readdir(root, plus=True)
        return plain, plus

    (status, plain), (plus_status, plus) = sim.run_process(run())
    assert status == plus_status == 0
    assert [e.name for e in plus] == [e.name for e in plain] == [
        ".", "..", "a", "b", "c", "d"]
    for entry in plus:
        assert entry.attr.fileid == entry.fileid
        assert FHandle.unpack(entry.fh).fileid == entry.fileid
    assert plus[-1].attr.ftype == NF3DIR


def test_baseline_untar_works():
    sim, server, client = build_baseline("mfs")
    workload = UntarWorkload(
        client, server.root_fh(), UntarSpec(total_entries=50), prefix="p0"
    )
    entries, ops, elapsed = sim.run_process(workload.run())
    assert entries == 50


def test_baseline_ffs_slower_than_mfs_for_untar():
    """Synchronous metadata updates make the disk-backed baseline slower on
    a create-heavy workload (why the paper compares against MFS)."""
    times = {}
    for mode in ("mfs", "ffs"):
        sim, server, client = build_baseline(mode)
        workload = UntarWorkload(
            client, server.root_fh(), UntarSpec(total_entries=60), prefix="p0"
        )
        _e, _o, elapsed = sim.run_process(workload.run())
        times[mode] = elapsed
    assert times["ffs"] > times["mfs"] * 1.5
