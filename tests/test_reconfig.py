"""Tier-1 tests for online reconfiguration (``repro.reconfig``).

Covers the whole §6 story end to end:

- pure rebind planning (minimum site movement, survivor bindings pinned),
- a live ``add_storage_node`` + rebalance under concurrent client I/O with
  zero failed operations and the ~1/Nth movement bound asserted,
- scale-in (draining a node empty before power-off),
- stale-hint invalidation: cached block maps and attribute-cache entries
  tied to *moved* sites are discarded on an epoch change, everything else
  survives,
- exactly one conditional table refetch per epoch bump (NOT_MODIFIED
  answers for everything beyond it),
- a storage-node crash in the middle of a rebalance, with the
  ``reconfig-epoch-monotonic`` and ``no-lost-write-across-rebind`` trace
  invariants replayed afterwards,
- digest determinism: identical builds + workloads + reconfigurations
  produce byte-identical trace digests.

Run with the default suite or select with ``pytest -m reconfig``.
"""

import math

import pytest

from repro.core.routing import RoutingTable
from repro.ensemble.configsvc import (
    CONFIG_GET,
    CONFIG_NOT_MODIFIED,
    CONFIG_V1,
    SLICE_CONFIG_PROGRAM,
    ConfigFetch,
    ConfigGetArgs,
)
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.net import Address
from repro.nfs.errors import NFS3_OK
from repro.nfs.fhandle import FHandle
from repro.nfs.types import Fattr3, NF3REG
from repro.obs import Tracer
from repro.obs.checker import TraceChecker
from repro.reconfig import plan_add_server, plan_remove_server
from repro.rpc import RpcClient
from repro.util.bytesim import PatternData

pytestmark = pytest.mark.reconfig


def addr(i: int) -> Address:
    return Address(f"s{i}", 900)


def make_cluster(nodes=3, sites=24, trace=True, stripe_unit=None):
    """A traced cluster with many logical storage sites per node."""
    params = ClusterParams(
        num_storage_nodes=nodes, storage_logical_sites=sites,
    )
    if stripe_unit is not None:
        params.io.stripe_unit = stripe_unit
    return SliceCluster(params=params, tracer=Tracer() if trace else None)


class Files:
    """Deterministic patterned files written through the block path."""

    def __init__(self, client, root, size, seed=100):
        self.client = client
        self.root = root
        self.size = size
        self.seed = seed
        self.entries = []

    def write_one(self, index):
        payload = PatternData(self.size, seed=self.seed + index)
        res = yield from self.client.create(self.root, f"f{index}.bin")
        assert res.status == NFS3_OK
        yield from self.client.write_file(res.fh, payload)
        self.entries.append((res.fh, payload))

    def write_many(self, start, count):
        for i in range(start, start + count):
            yield from self.write_one(i)

    def read_all(self, subset=None):
        for fh, payload in (subset or self.entries):
            data = yield from self.client.read_file(fh, payload.length)
            assert data == payload


# -- pure planning -----------------------------------------------------------


def test_plan_add_server_steals_minimum_sites():
    table = RoutingTable([addr(i % 4) for i in range(32)])
    plan = plan_add_server("storage", table, addr(9))
    # floor(S / N_new) sites move, every one onto the newcomer.
    assert len(plan.moves) == 32 // 5
    assert all(m.dst == addr(9) for m in plan.moves)
    assert plan.added == [addr(9)] and not plan.removed
    # No binding between two surviving servers changes.
    for site, a in enumerate(plan.tables["storage"]):
        if a != addr(9):
            assert a == table.entries[site]
    # Planning is pure: the live table is untouched.
    assert table.sites_of(addr(9)) == []
    # Joining twice is refused.
    grown = RoutingTable(plan.tables["storage"])
    with pytest.raises(ValueError):
        plan_add_server("storage", grown, addr(9))


def test_plan_remove_server_respreads_only_orphans():
    table = RoutingTable([addr(i % 4) for i in range(32)])
    orphans = table.sites_of(addr(2))
    plan = plan_remove_server("storage", table, addr(2))
    assert sorted(m.site for m in plan.moves) == orphans
    assert all(m.src == addr(2) for m in plan.moves)
    assert addr(2) not in plan.tables["storage"]
    for site, a in enumerate(plan.tables["storage"]):
        if site not in orphans:
            assert a == table.entries[site]
    with pytest.raises(ValueError):  # not a member
        plan_remove_server("storage", table, addr(7))
    with pytest.raises(ValueError):  # cannot empty the table
        plan_remove_server("storage", RoutingTable([addr(0)] * 4), addr(0))


# -- live scale-out under client I/O ----------------------------------------


def _scaleout_run(num_files=24, live_files=8, sites=24, nodes=3):
    """Build, load, scale out under live I/O; returns everything asserted on.

    ``stripe_unit`` is raised to 128 KiB so every 96 KiB file occupies one
    stripe block — one logical site per object — making the ~1/Nth object
    movement bound exact rather than smeared by striping.
    """
    cluster = make_cluster(nodes=nodes, sites=sites, stripe_unit=128 << 10)
    client, proxy = cluster.add_client()
    files = Files(client, cluster.root_fh, size=96 << 10)
    cluster.run(files.write_many(0, num_files))

    epoch_before = cluster.configsvc.epoch
    plan = cluster.add_storage_node()

    def live_io():
        # Writes and reads racing the migration: the µproxy is stale for
        # every moved site until the first MISDIRECTED reply.
        yield from files.write_many(num_files, live_files)
        yield from files.read_all(files.entries[:live_files])

    def driver():
        io = cluster.sim.process(live_io(), name="live-io")
        report = yield from cluster.rebalance(plan)
        yield io
        return report

    report = cluster.run(driver())
    cluster.run(files.read_all())  # every byte, post-rebalance
    return cluster, proxy, plan, report, epoch_before, num_files


def test_scaleout_under_live_io_zero_failed_ops():
    cluster, proxy, plan, report, epoch_before, num_files = _scaleout_run()
    n_new = len(cluster.storage_table.servers())
    assert n_new == 4
    # Single atomic epoch bump for the whole plan.
    assert cluster.configsvc.epoch == epoch_before + 1
    assert report.epoch == epoch_before + 1
    assert cluster.storage_table.epoch == report.epoch
    # Minimum site movement: floor(S / N_new) sites rebound.
    assert len(plan.moves) == cluster.storage_table.num_sites // n_new
    assert report.sites_moved == len(plan.moves)
    # ~1/Nth object movement bound (no mirrors -> no repair allowance).
    moved_objects = {oid for (oid, _site) in cluster.tracer.migrations}
    assert len(moved_objects) <= math.ceil(num_files / n_new)
    assert report.units_moved == len(cluster.tracer.migrations)
    assert report.bytes_moved > 0
    # The stale path was actually exercised (and healed).
    assert proxy.misdirects_seen >= 1
    assert proxy.config_epoch == cluster.configsvc.epoch
    # Barriers all dropped; nothing is still migrating.
    for node in cluster.storage_nodes:
        assert not node.barrier_sites
    summary = TraceChecker(cluster.tracer).check(require_replies=False)
    assert summary["epochs_installed"] == 1
    assert summary["open_migrations"] == 0
    assert summary["stale_writes"] == 0


def test_scaleout_digest_deterministic_for_identical_runs():
    first = _scaleout_run()[0].tracer.digest()
    second = _scaleout_run()[0].tracer.digest()
    assert first == second


# -- scale-in ----------------------------------------------------------------


def _slice_data_bytes(node):
    """Bytes of slice-routed data objects stored on a node (pseudo-volume
    backing objects — small-file zones, logs, maps — excluded)."""
    from repro.storage.node import PSEUDO_VOLUME_BASE

    total = 0
    for oid in node.store.object_ids():
        fh_raw = node.fh_of.get(oid)
        if fh_raw is None:
            continue
        if FHandle.unpack(fh_raw).volume >= PSEUDO_VOLUME_BASE:
            continue
        obj = node.store.get(oid)
        total += sum(data.length for _off, data in obj.stable.extents())
        total += sum(hi - lo for lo, hi in obj.unstable_ranges)
    return total


def test_scalein_drains_node_empty():
    cluster = make_cluster(nodes=4, sites=24, stripe_unit=128 << 10)
    client, proxy = cluster.add_client()
    files = Files(client, cluster.root_fh, size=96 << 10)
    cluster.run(files.write_many(0, 16))

    victim = cluster.storage_nodes[0]
    owned = cluster.storage_table.sites_of(victim.address)
    plan = cluster.remove_storage_node(victim)
    assert sorted(m.site for m in plan.moves) == owned
    assert plan.removed == [victim.address]

    report = cluster.run(cluster.rebalance(plan))
    assert report.sites_moved == len(owned)
    # The node hosts nothing and the table no longer names it.
    assert victim.hosted_sites == set()
    assert cluster.storage_table.sites_of(victim.address) == []
    # Everything is readable, and post-drain writes route around the node:
    # no slice-routed byte lands on it again (pinned pseudo-volume backing
    # objects — small-file zones, logs — stay put by design).
    cluster.run(files.read_all())
    data_before = _slice_data_bytes(victim)
    cluster.run(files.write_many(16, 8))
    cluster.run(files.read_all(files.entries[16:]))
    assert _slice_data_bytes(victim) == data_before
    summary = TraceChecker(cluster.tracer).check(require_replies=False)
    assert summary["open_migrations"] == 0
    assert summary["stale_writes"] == 0


# -- stale-hint invalidation -------------------------------------------------


def _fh(fileid: int, home_site: int = 0) -> FHandle:
    return FHandle(1, NF3REG, 0, fileid, home_site, bytes(16))


def test_epoch_change_drops_hints_for_moved_sites_only():
    cluster = make_cluster(nodes=3, sites=8)
    _client, proxy = cluster.add_client()

    # Attribute-cache entries homed on directory sites 0 and 1.
    proxy.attr_cache.update_from_server(
        _fh(11, home_site=0), Fattr3(fileid=11, ftype=NF3REG)
    )
    proxy.attr_cache.update_from_server(
        _fh(12, home_site=1), Fattr3(fileid=12, ftype=NF3REG)
    )
    # Block-map fragments naming storage sites 2 (file 11) and 5 (file 12).
    proxy.block_maps.put_range(11, 0, [2, 2])
    proxy.block_maps.put_range(12, 0, [5])

    # New generation: dir site 0 and storage site 2 move; 1 and 5 do not.
    dir_entries = list(proxy.dir_table.entries)
    dir_entries[0] = Address("dir-new", 747)
    storage_entries = list(proxy.storage_table.entries)
    storage_entries[2] = Address("store-new", 900)
    epoch = proxy.config_epoch + 1
    proxy._install_tables({
        "dir": RoutingTable(dir_entries, proxy.dir_table.version + 1, epoch),
        "storage": RoutingTable(
            storage_entries, proxy.storage_table.version + 1, epoch
        ),
    })

    # Hints tied to moved sites are gone; the rest survive.
    assert proxy.attr_cache.peek(11) is None
    assert proxy.attr_cache.peek(12) is not None
    assert proxy.block_maps.get(11, 0) is None
    assert proxy.block_maps.get(12, 0) == 5
    assert proxy.dir_table.epoch == epoch
    assert proxy.storage_table.epoch == epoch


def test_replayed_generation_does_not_drop_hints():
    cluster = make_cluster(nodes=3, sites=8)
    _client, proxy = cluster.add_client()
    proxy.attr_cache.update_from_server(
        _fh(21, home_site=3), Fattr3(fileid=21, ftype=NF3REG)
    )
    # Re-offering the installed generation is a no-op (idempotent fetch).
    proxy._install_tables({
        "dir": proxy.dir_table.copy(),
        "storage": proxy.storage_table.copy(),
    })
    assert proxy.attr_cache.peek(21) is not None


# -- conditional refetch accounting ------------------------------------------


def test_one_conditional_refetch_per_epoch_bump():
    cluster = make_cluster(nodes=3, sites=24, stripe_unit=128 << 10)
    client, proxy = cluster.add_client()
    files = Files(client, cluster.root_fh, size=96 << 10)
    cluster.run(files.write_many(0, 16))
    svc = cluster.configsvc

    for bump in (1, 2):
        fetches = svc.fetches
        not_modified = svc.not_modified
        plan = cluster.add_storage_node()
        cluster.run(cluster.rebalance(plan))
        # A burst of stale-routed reads: many MISDIRECTED replies, but the
        # µproxy converges with exactly one table fetch per epoch bump.
        cluster.run(files.read_all())
        assert proxy.config_epoch == svc.epoch
        assert svc.fetches - fetches == 1, f"bump {bump}"
        assert svc.not_modified == not_modified
    assert proxy.misdirects_seen >= 2


def test_config_get_named_and_not_modified():
    cluster = make_cluster(nodes=3, sites=8, trace=False)
    svc = cluster.configsvc
    host = cluster.net.add_host("prober")
    rpc = RpcClient(host, 7000)

    def probe(table, min_version):
        dec, _ = yield from rpc.call(
            svc.address, SLICE_CONFIG_PROGRAM, CONFIG_V1,
            CONFIG_GET, ConfigGetArgs(table, min_version).encode(),
        )
        return ConfigFetch.decode(dec)

    fetch = cluster.run(probe("storage", 0))
    assert fetch.modified and set(fetch.tables) == {"storage"}
    version = fetch.tables["storage"].version

    fetch = cluster.run(probe("storage", version))
    assert fetch.status == CONFIG_NOT_MODIFIED and not fetch.tables

    fetch = cluster.run(probe("*", svc.epoch))
    assert not fetch.modified and fetch.epoch == svc.epoch
    assert svc.fetches == 3 and svc.not_modified == 2

    # An epoch bump re-arms the wildcard conditional fetch.
    epoch = svc.rebind("dir", 0, cluster.dir_table.entries[0])
    fetch = cluster.run(probe("*", epoch - 1))
    assert fetch.modified and fetch.epoch == epoch


# -- crash in the middle of a rebalance --------------------------------------


def test_crash_mid_rebalance_completes_and_invariants_hold():
    cluster = make_cluster(nodes=3, sites=24)
    client, _proxy = cluster.add_client()
    files = Files(client, cluster.root_fh, size=256 << 10)
    cluster.run(files.write_many(0, 8))

    plan = cluster.add_storage_node()
    victim = cluster.storage_node_at(plan.moves[0].src)
    open_at_crash = []

    def driver():
        reb = cluster.sim.process(cluster.rebalance(plan), name="rebalance")
        yield cluster.sim.timeout(0.001)
        open_at_crash.append(len(cluster.tracer.open_migrations()))
        victim.crash()
        yield cluster.sim.timeout(2.0)
        victim.restart()
        report = yield reb
        return report

    report = cluster.run(driver())
    # The crash really landed mid-migration, and the drain still finished.
    assert open_at_crash[0] > 0
    assert report.sites_moved == len(plan.moves)
    for node in cluster.storage_nodes:
        assert not node.barrier_sites
    cluster.run(files.read_all())
    summary = TraceChecker(cluster.tracer).check(require_replies=False)
    assert summary["epochs_installed"] == 1
    assert summary["open_migrations"] == 0
    assert summary["stale_writes"] == 0
    assert summary["open_intents"] == 0


# -- chaos: crash-mid-rebalance under an adversarial fabric -------------------


def _chaos_run(seed: int):
    from repro.faults import (
        ChaosHarness,
        FaultPlan,
        PacketFaultRule,
        RebalanceChaosScenario,
    )

    params = ClusterParams(
        num_storage_nodes=3, num_dir_servers=2, num_sf_servers=2,
        dir_logical_sites=8, sf_logical_sites=4, storage_logical_sites=24,
    )
    plan = FaultPlan(
        seed=seed,
        packet_faults=[PacketFaultRule(loss=0.01, dup=0.005, reorder=0.01)],
    )
    harness = ChaosHarness(plan, params=params)
    scenario = RebalanceChaosScenario(seed=1)
    return harness.run(scenario, settle=30.0)


@pytest.mark.chaos
def test_crash_mid_rebalance_under_chaos():
    report = _chaos_run(77)
    assert report.result == 8  # 4 seed files + 4 written through the outage
    assert report.crashes_executed == 1
    assert report.restarts_executed == 1
    # The reconfig invariants already replayed inside harness.run();
    # re-assert the ledgers they consumed.
    assert report.summary["epochs_installed"] >= 1
    assert report.summary["migrations"] > 0
    assert report.summary["open_migrations"] == 0
    assert report.summary["stale_writes"] == 0


@pytest.mark.chaos
def test_crash_mid_rebalance_chaos_is_deterministic():
    first = _chaos_run(78)
    second = _chaos_run(78)
    assert first.digest == second.digest
    assert first.fault_counters == second.fault_counters
    assert first.summary == second.summary
