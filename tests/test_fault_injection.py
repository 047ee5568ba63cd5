"""Fault injection: packet loss and server crashes under live workloads.

The architecture's correctness story leans on end-to-end recovery — the
µproxy may drop anything, the network may drop anything, servers may
reboot — and NFS retransmission plus journals put the system back
together.  These tests inject those faults while work is in flight.

All injection here goes through the declarative chaos engine
(:mod:`repro.faults`): packet loss comes from a seeded
:class:`FaultPlan`/:class:`FaultInjector` pair, and crash/restart
schedules run through a :class:`FaultController` so the component wiring
(which journals die, which sites to hand back on restart) lives in one
place.
"""

import pytest

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.faults import (
    CrashWindow,
    FaultController,
    FaultInjector,
    FaultPlan,
    PacketFaultRule,
)
from repro.nfs.errors import NFS3_OK
from repro.util.bytesim import PatternData
from repro.workloads.untar import UntarSpec, UntarWorkload


def small_cluster(**overrides):
    defaults = dict(
        num_storage_nodes=3, num_dir_servers=2, num_sf_servers=2,
        dir_logical_sites=8, sf_logical_sites=4,
    )
    defaults.update(overrides)
    return SliceCluster(params=ClusterParams(**defaults))


def arm_loss(cluster, seed, loss):
    """Attach a seeded uniform-loss injector; returns it for its counters."""
    injector = FaultInjector(
        FaultPlan(seed=seed, packet_faults=[PacketFaultRule(loss=loss)])
    )
    cluster.net.fault_injector = injector
    return injector


def test_untar_completes_under_packet_loss():
    cluster = small_cluster()
    client, _proxy = cluster.add_client()
    injector = arm_loss(cluster, seed=17, loss=0.03)  # 3% loss

    workload = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=120), prefix="p0"
    )
    entries, ops, elapsed = cluster.run(workload.run())
    assert entries == 120
    assert client.rpc.retransmissions > 0
    # The injected loss is visible in the split drop counters.
    assert injector.drops_loss > 0
    assert cluster.net.packets_dropped_fault == injector.drops_loss
    assert cluster.net.packets_dropped >= cluster.net.packets_dropped_fault

    cluster.net.fault_injector = None

    def verify():
        res = yield from client.lookup(cluster.root_fh, "p0")
        assert res.status == NFS3_OK
        status, listing = yield from client.readdir(res.fh)
        return status, listing

    status, listing = cluster.run(verify())
    assert status == 0
    assert len(listing) > 10


def test_bulk_data_integrity_under_packet_loss():
    cluster = small_cluster()
    client, _proxy = cluster.add_client()
    size = 512 << 10
    payload = PatternData(size, seed=23)

    def run():
        created = yield from client.create(cluster.root_fh, "lossy.bin")
        injector = arm_loss(cluster, seed=5, loss=0.02)
        yield from client.write_file(created.fh, payload)
        data = yield from client.read_file(created.fh, size)
        cluster.net.fault_injector = None
        assert injector.drops_loss > 0
        assert cluster.net.packets_dropped_fault == injector.drops_loss
        assert cluster.net.packets_dropped_noroute == 0  # clean routing
        return data

    assert cluster.run(run()) == payload


def test_smallfile_server_reboot_mid_stream():
    """Commit, crash the small-file server, restart it, keep writing."""
    cluster = small_cluster(num_sf_servers=1)
    client, _proxy = cluster.add_client()
    controller = FaultController(cluster, FaultPlan(seed=0))

    def run():
        handles = []
        for i in range(5):
            res = yield from client.create(cluster.root_fh, f"pre{i}")
            yield from client.write_file(res.fh, PatternData(4000, seed=i))
            handles.append(res.fh)
        # Event-driven (after 5 writes), so the controller's immediate
        # API rather than a timed CrashWindow.
        controller.crash_now("sf", 0)
        yield cluster.sim.timeout(0.5)
        controller.restart_now("sf", 0)
        # Old data still reads (it was committed to the storage array).
        for i, fh in enumerate(handles):
            data = yield from client.read_file(fh, 4000)
            assert data == PatternData(4000, seed=i), i
        # New work proceeds.
        res = yield from client.create(cluster.root_fh, "post")
        yield from client.write_file(res.fh, PatternData(4000, seed=99))
        data = yield from client.read_file(res.fh, 4000)
        assert data == PatternData(4000, seed=99)

    cluster.run(run())
    assert controller.crashes_executed == 1
    assert controller.restarts_executed == 1


def test_dir_server_reboot_mid_untar():
    """Kill and restart a directory server while an untar is running; the
    workload finishes (client retransmission + journal recovery)."""
    cluster = small_cluster()
    client, _proxy = cluster.add_client()
    workload = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=200), prefix="p0"
    )
    plan = FaultPlan(seed=0, crashes=[
        CrashWindow("dir", index=1, at=0.15, restart_at=0.95),
    ])
    controller = FaultController(cluster, plan).start()

    entries, _ops, _elapsed = cluster.run(workload.run())
    controller.quiesce()
    assert entries == 200
    assert client.rpc.retransmissions > 0
    assert controller.crashes_executed == 1
    assert controller.restarts_executed == 1


def test_storage_node_flapping_under_bulk_writes():
    cluster = small_cluster()
    client, _proxy = cluster.add_client()
    size = 768 << 10
    payload = PatternData(size, seed=31)
    plan = FaultPlan(seed=0, crashes=[
        CrashWindow("storage", index=0, at=0.08, restart_at=0.28),
        CrashWindow("storage", index=0, at=0.36, restart_at=0.56),
    ])
    controller = FaultController(cluster, plan)

    def run():
        created = yield from client.create(cluster.root_fh, "flap.bin")
        controller.start()  # flap schedule is relative to the write start
        yield from client.write_file(created.fh, payload)
        # Wait out the whole flap schedule before reading back (the
        # original test awaited its chaos process here): the read then
        # proves the data survived both crash/restart cycles.
        remaining = controller.epoch + 0.6 - cluster.sim.now
        if remaining > 0:
            yield cluster.sim.timeout(remaining)
        data = yield from client.read_file(created.fh, size)
        return data

    assert cluster.run(run()) == payload
    controller.quiesce()
    assert controller.crashes_executed == 2


def test_config_service_outage_degrades_gracefully():
    """With the config service down, a µproxy with valid tables keeps
    working; only reconfiguration discovery is delayed."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    controller = FaultController(cluster, FaultPlan(seed=0))
    controller.crash_now("config")

    def run():
        res = yield from client.create(cluster.root_fh, "fine")
        data_res = yield from client.lookup(cluster.root_fh, "fine")
        return res.status, data_res.status

    assert cluster.run(run()) == (NFS3_OK, NFS3_OK)
