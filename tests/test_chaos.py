"""Seeded chaos suite: whole-cluster workloads under declarative fault plans.

Every test here builds a :class:`~repro.faults.harness.ChaosHarness` from a
:class:`~repro.faults.plan.FaultPlan` and drives a chaos-tolerant scenario
(see :mod:`repro.faults.scenarios`) while the plan injects packet loss,
duplication, reordering, link partitions, crash/restart windows, torn
journal tails, and slow disks.  After quiesce + settle, each run replays
the full trace-invariant set (reply-unique, segments-tile, checksum-delta,
intent-closed, wal-prefix, at-most-once, ...) and the scenario's own
end-state model check.

Determinism is itself an invariant: a plan's seed fully determines the run,
so identical seeds must produce byte-identical trace digests — asserted by
``test_identical_seeds_identical_digests`` and relied on by every
"reproduce the failing seed" workflow in ``docs/FAULTS.md``.

Run with ``pytest -m chaos`` (excluded from the default suite).
"""

import pytest

from repro.dirsvc import peerproto as pp
from repro.dirsvc.config import NAME_HASHING
from repro.ensemble.params import ClusterParams
from repro.faults import (
    BulkIOChaosScenario,
    ChaosHarness,
    CrashWindow,
    FaultPlan,
    MixedOpsChaosScenario,
    NamespaceChaosScenario,
    PacketFaultRule,
    Partition,
    SlowDiskWindow,
    UntarChaosScenario,
)
from repro.nfs.fhandle import FLAG_MIRRORED, FHandle
from repro.nfs.types import FILE_SYNC, NF3REG, UNSTABLE
from repro.rpc import RpcClient
from repro.storage import coordproto as cp
from repro.storage.node import object_id_for_fh
from repro.util.bytesim import RealData

pytestmark = pytest.mark.chaos

SEEDS = [1, 2, 3, 4, 5]


# -- plan builders -----------------------------------------------------------


def lossy_rules(loss=0.02, dup=0.01, reorder=0.02):
    """The standard adversarial fabric: loss + duplication + reordering."""
    return [PacketFaultRule(loss=loss, dup=dup, reorder=reorder)]


def untar_plan(seed):
    """Name-path chaos: flaky fabric + a directory server reboot (odd seeds
    additionally tear the journal tail at the crash point)."""
    return FaultPlan(
        seed=seed,
        packet_faults=lossy_rules(),
        crashes=[
            CrashWindow("dir", index=1, at=0.25, restart_at=0.95,
                        torn_tail=bool(seed % 2)),
        ],
    )


def bulk_plan(seed):
    """Block-path chaos: flaky fabric, a storage node reboot, and a slow
    disk on a different node (seed picks the victims)."""
    return FaultPlan(
        seed=seed,
        packet_faults=lossy_rules(),
        crashes=[
            # Early window: a lucky seed can push the whole bulk drive
            # through in a couple hundred simulated milliseconds.
            CrashWindow("storage", index=seed % 3, at=0.05, restart_at=0.45),
        ],
        slow_disks=[
            SlowDiskWindow("storage", index=(seed + 1) % 3, factor=3.0,
                           start=0.0, end=2.0),
        ],
    )


def mixed_plan(seed):
    """SPECsfs-flavor chaos: flaky fabric + a small-file server reboot with
    a torn journal tail."""
    return FaultPlan(
        seed=seed,
        packet_faults=lossy_rules(),
        crashes=[
            CrashWindow("sf", index=seed % 2, at=0.3, restart_at=1.0,
                        torn_tail=True),
        ],
    )


# -- seed matrix --------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_untar_under_combined_faults(seed):
    harness = ChaosHarness(untar_plan(seed))
    scenario = UntarChaosScenario(total_entries=120, seed=0)
    report = harness.run(scenario)
    assert report.result == 120
    assert report.crashes_executed == 1
    assert report.restarts_executed == 1
    # The fabric really was adversarial.
    counters = report.fault_counters
    assert counters["drops_loss"] > 0
    assert counters["duplicates"] + counters["reorders"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_io_under_combined_faults(seed):
    harness = ChaosHarness(bulk_plan(seed))
    scenario = BulkIOChaosScenario(sizes=[256 << 10, 384 << 10], seed=seed)
    report = harness.run(scenario)
    assert report.result == 2
    assert report.crashes_executed == 1
    assert report.fault_counters["drops_loss"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_ops_under_combined_faults(seed):
    harness = ChaosHarness(mixed_plan(seed))
    scenario = MixedOpsChaosScenario(ops=100, seed=seed)
    report = harness.run(scenario)
    assert report.result == 100
    assert report.crashes_executed == 1
    assert report.fault_counters["drops_loss"] > 0


def namespace_plan(seed):
    """Cross-server namespace chaos: dir-peer calls and every dir-to-dir
    packet (so the replies too) lossy, and a directory server reboot."""
    return FaultPlan(
        seed=seed,
        packet_faults=[
            PacketFaultRule(prog=pp.SLICE_PEER_PROGRAM, loss=0.1),
            PacketFaultRule(src="dir", dst="dir", loss=0.1),
        ],
        crashes=[CrashWindow("dir", index=seed % 2, at=0.2, restart_at=0.6)],
    )


def name_hashing_params():
    return ClusterParams(**ChaosHarness.DEFAULT_SHAPE, name_mode=NAME_HASHING)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_namespace_under_name_hashing(seed):
    """Name hashing makes almost every mutation a transaction between the
    two directory servers.  After settle no transaction is left prepared,
    every name has its object, and link counts match the names (the
    scenario's verify)."""
    harness = ChaosHarness(namespace_plan(seed), params=name_hashing_params())
    report = harness.run(NamespaceChaosScenario(ops=120, seed=seed))
    assert report.result == 120
    assert report.crashes_executed == report.restarts_executed == 1
    assert report.fault_counters["drops_loss"] > 0


def torn_namespace_plan(seed):
    """Both directory servers crash with torn journal tails, under mkdir
    switching with the fabric and the dir-peer traffic lossy."""
    return FaultPlan(
        seed=seed,
        packet_faults=[
            PacketFaultRule(loss=0.02),
            PacketFaultRule(prog=pp.SLICE_PEER_PROGRAM, loss=0.1),
            PacketFaultRule(src="dir", dst="dir", loss=0.1),
        ],
        crashes=[
            CrashWindow("dir", 0, at=0.611, restart_at=1.011, torn_tail=True),
            CrashWindow("dir", 1, at=0.923, restart_at=1.323, torn_tail=True),
        ],
    )


def test_namespace_with_torn_journal_tails():
    """A torn tail keeps a prefix of the unsynced records.  Each site
    journals a transaction's group as one record, and a participant's
    commit as one more, so no crash keeps half a mutation or applies a
    commit twice (this plan tore ``dir:0`` after a commit's cells but
    before its ``tx_commit`` when commits were several records)."""
    harness = ChaosHarness(torn_namespace_plan(30))
    report = harness.run(NamespaceChaosScenario(ops=200, seed=30))
    assert report.result == 200
    assert report.crashes_executed == report.restarts_executed == 2


# -- determinism oracle -------------------------------------------------------


def one_run(seed):
    harness = ChaosHarness(untar_plan(seed))
    report = harness.run(UntarChaosScenario(total_entries=60, seed=0))
    return report


@pytest.mark.parametrize("seed", [9, 10])
def test_identical_seeds_identical_digests(seed):
    """The reproducibility contract: a plan seed fully determines the run.

    Two fresh harnesses under the same plan must produce byte-identical
    trace digests — every packet fault, crash, torn tail, retransmission
    and recovery replays exactly.
    """
    first = one_run(seed)
    second = one_run(seed)
    assert first.digest == second.digest
    assert first.fault_counters == second.fault_counters
    assert first.summary == second.summary


def test_different_seeds_diverge():
    """The seed actually steers the randomness (digests are not vacuous)."""
    assert one_run(9).digest != one_run(11).digest


# -- coordinator intent recovery under chaos ---------------------------------


def make_fh(fileid):
    return FHandle(1, NF3REG, 0, fileid, 0, bytes(16)).pack()


def make_mirrored_fh(fileid):
    return FHandle(1, NF3REG, FLAG_MIRRORED, fileid, 0, bytes(16)).pack()


def pick_mirrored_fileid(nodes, start=4242):
    """First fileid whose block-0 replica sites are hosted by ``nodes``.

    The scenarios below drive raw PROC_WRITEs straight at specific
    storage nodes (bypassing the µproxy), so the handle must map — under
    the cluster's own placement — onto sites those nodes actually host,
    or the site-aware nodes will (correctly) answer MISDIRECTED."""
    placement = nodes[0]._site_placement
    if placement is None:
        return start  # site checks disabled: any fileid works
    for fileid in range(start, start + 10000):
        fh = FHandle(1, NF3REG, FLAG_MIRRORED, fileid, 0, bytes(16))
        sites = set(placement.sites_for_block(fh, 0))
        if all(sites & node.hosted_sites for node in nodes):
            return fileid
    raise AssertionError("no fileid maps onto the requested nodes")


class _AbandonedIntentScenario:
    """Log an intention at coordinator 0 and vanish without completing it.

    The watchdog (probe 5 s, intent timeout 10 s) begins recovery around
    t=15; the plan partitions the coordinator from ``store0`` so the
    recovery RPC stalls in retransmission, guaranteeing the plan's crash
    window lands *mid-recovery*.  After restart the intention is replayed
    from the stable log — a duplicate replay that must be idempotent.
    """

    name = "abandoned-intent"

    def __init__(self, kind):
        self.kind = kind
        self.fh = None  # chosen in drive(), against the live placement
        self.payload = b"mirrored"

    def drive(self, harness):
        cluster = harness.cluster
        sim = cluster.sim
        host = cluster.net.add_host("driver")
        rpc = RpcClient(host, 900)
        nodes = cluster.storage_nodes[:2]
        self.fh = make_mirrored_fh(pick_mirrored_fileid(nodes))
        sites = [(n.address.host, n.address.port) for n in nodes]
        from repro.nfs import proto

        if self.kind == cp.K_COMMIT:
            # Unstable data on both replicas; the recovered commit must
            # make it durable everywhere.
            for node in nodes:
                yield from rpc.call(
                    node.address, proto.NFS_PROGRAM, proto.NFS_V3,
                    proto.PROC_WRITE,
                    proto.WriteArgs(self.fh, 0, 8, UNSTABLE).encode(),
                    RealData(self.payload),
                )
            intent = cp.Intent(4711, cp.K_COMMIT, self.fh, 0, 0, sites)
        else:
            # Only replica 0 got the mirrored write; recovery must copy
            # it to replica 1.
            yield from rpc.call(
                nodes[0].address, proto.NFS_PROGRAM, proto.NFS_V3,
                proto.PROC_WRITE,
                proto.WriteArgs(self.fh, 0, 8, FILE_SYNC).encode(),
                RealData(self.payload),
            )
            intent = cp.Intent(4712, cp.K_MIRROR_WRITE, self.fh, 0, 8, sites)
        coord = cluster.coordinators[0]
        yield from rpc.call(
            coord.address, cp.SLICE_COORD_PROGRAM, cp.COORD_V1,
            cp.COORD_INTENT, intent.encode(),
        )
        # ... the requester vanishes; wait out watchdog recovery, the
        # mid-recovery crash, the replay, and the partition (ends t=60).
        yield sim.timeout(80.0)
        return intent.op_id

    def verify(self, harness):
        coord = harness.cluster.coordinators[0]
        nodes = harness.cluster.storage_nodes[:2]
        oid = object_id_for_fh(self.fh)
        # Replayed at least twice: once by the watchdog (interrupted by
        # the crash) and once by post-restart log recovery.
        assert coord.recoveries >= 2, coord.recoveries
        assert coord.pending == {}
        if self.kind == cp.K_COMMIT:
            # Durable on both replicas: survives a clean crash/restart.
            for node in nodes:
                assert not node.store.get(oid).unstable_ranges
        for node in nodes:
            obj = node.store.get(oid)
            assert obj is not None and obj.read(0, 8) == self.payload
        return coord.recoveries
        yield  # pragma: no cover -- make verify a generator


def coordinator_chaos_plan(seed, stalled_store):
    """Watchdog recovery starts ~t=15 and immediately stalls on an RPC to
    ``stalled_store`` (retransmitting into the partition), so the crash at
    t=20 is guaranteed to land mid-``_recover_*``.  The partition lifts at
    t=40: the post-restart replay's retries then get through and finish
    the operation."""
    return FaultPlan(
        seed=seed,
        partitions=[
            Partition(a=("coord0",), b=(stalled_store,), start=0.0, end=40.0),
        ],
        crashes=[CrashWindow("coord", index=0, at=20.0, restart_at=22.0)],
    )


def test_coordinator_crash_mid_recover_commit():
    harness = ChaosHarness(
        coordinator_chaos_plan(21, "store0"), num_clients=0
    )
    scenario = _AbandonedIntentScenario(cp.K_COMMIT)
    report = harness.run(scenario, settle=20.0)
    assert report.crashes_executed == 1
    # Both recovery attempts appear in the tracer's intent ledger, and the
    # ledger closed (the intent-closed invariant already ran in .run()).
    assert report.summary["intents"] >= 1
    assert report.summary["open_intents"] == 0


def test_coordinator_crash_mid_recover_mirror_write():
    # Partition only the *lagging* replica: the donor's STAT must succeed
    # or recovery (correctly) concludes "no donor" and does nothing.
    harness = ChaosHarness(
        coordinator_chaos_plan(22, "store1"), num_clients=0
    )
    scenario = _AbandonedIntentScenario(cp.K_MIRROR_WRITE)
    report = harness.run(scenario, settle=20.0)
    assert report.crashes_executed == 1
    assert report.summary["open_intents"] == 0


# -- directory-site failover + migration convergence -------------------------


class _MigratingUntar(UntarChaosScenario):
    """Untar through a dir-server reboot, then migrate every non-root site
    off server 0 *after* the drive: the µproxy's routing table is stale
    for the whole verification walk until the first MISDIRECTED reply
    triggers exactly one config reload."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.fetches_before = None
        self.misdirects_before = None

    def drive(self, harness):
        created = yield from super().drive(harness)
        cluster = harness.cluster
        # Move sites 2, 4, 6 (server 0 hosts the even sites) onto server 1.
        moved = 0
        for site in (2, 4, 6):
            moved += cluster.move_dir_site(site, to_server=1)
        assert moved > 0, "untar left no cells on the migrated sites"
        self.fetches_before = cluster.configsvc.fetches
        self.misdirects_before = harness.proxy(0).misdirects_seen
        return created

    def verify(self, harness):
        checked = yield from super().verify(harness)
        proxy = harness.proxy(0)
        fetches = harness.cluster.configsvc.fetches - self.fetches_before
        misdirects = proxy.misdirects_seen - self.misdirects_before
        # The stale proxy hit the moved sites, saw MISDIRECTED, and
        # converged with exactly one table fetch.
        assert misdirects >= 1
        assert fetches == 1, fetches
        return checked


def test_dir_failover_then_migration_converges_via_misdirected():
    plan = FaultPlan(
        seed=33,
        packet_faults=lossy_rules(loss=0.01, dup=0.005, reorder=0.01),
        crashes=[
            CrashWindow("dir", index=1, at=0.2, restart_at=0.8,
                        torn_tail=True),
        ],
    )
    harness = ChaosHarness(plan)
    scenario = _MigratingUntar(total_entries=100, seed=0)
    report = harness.run(scenario)
    assert report.result == 100
    assert report.crashes_executed == 1
