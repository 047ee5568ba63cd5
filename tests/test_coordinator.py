"""Tests for the block-service coordinator: block maps, intention logging,
reclaim fan-out, and crash recovery of multi-site operations."""

import pytest

from repro.faults import FaultInjector, FaultPlan, PacketFaultRule
from repro.net import NetParams, Network
from repro.nfs import proto
from repro.nfs.fhandle import FHandle
from repro.nfs.types import NF3REG, UNSTABLE, FILE_SYNC
from repro.rpc import RpcClient
from repro.sim import Simulator
from repro.storage import coordproto as cp
from repro.storage import ctrlproto
from repro.storage.coordinator import Coordinator, CoordinatorParams
from repro.storage.node import StorageNode, object_id_for_fh
from repro.util.bytesim import EMPTY, RealData


def make_fh(fileid=7):
    return FHandle(1, NF3REG, 0, fileid, 0, bytes(16)).pack()


def silence_coordinator():
    """Lose every packet the ``coord`` host sends (the only host so named)."""
    return FaultInjector(
        FaultPlan(packet_faults=[PacketFaultRule(src="coord", loss=1.0)])
    )


def build(num_nodes=3, tracer=None):
    sim = Simulator()
    net = Network(sim, NetParams())
    nodes = []
    for i in range(num_nodes):
        host = net.add_host(f"store{i}")
        nodes.append(StorageNode(sim, host))
    coord_host = net.add_host("coord")
    coord = Coordinator(
        sim, coord_host,
        data_sites=[n.address for n in nodes],
        num_storage_sites=num_nodes,
        params=CoordinatorParams(probe_interval=1.0, intent_timeout=2.0),
        tracer=tracer,
    )
    client_host = net.add_host("client")
    client = RpcClient(client_host, 700)
    return sim, net, client, coord, nodes


def coord_call(client, coord, proc, args):
    return client.call(
        coord.address, cp.SLICE_COORD_PROGRAM, cp.COORD_V1, proc, args
    )


def write_to_node(client, node, fh, offset, data, stable=UNSTABLE):
    args = proto.WriteArgs(fh, offset, data.length, stable).encode()
    return client.call(
        node.address, proto.NFS_PROGRAM, proto.NFS_V3, proto.PROC_WRITE,
        args, data,
    )


def read_from_node(client, node, fh, offset, count):
    return client.call(
        node.address, proto.NFS_PROGRAM, proto.NFS_V3, proto.PROC_READ,
        proto.ReadArgs(fh, offset, count).encode(),
    )


def test_get_map_allocates_deterministic_sites():
    sim, net, client, coord, nodes = build()
    fh = make_fh(5)

    def run():
        dec, _ = yield from coord_call(
            client, coord, cp.COORD_GET_MAP,
            cp.GetMapArgs(fh, 0, 8, allocate=True).encode(),
        )
        first = cp.MapRes.decode(dec).sites
        dec, _ = yield from coord_call(
            client, coord, cp.COORD_GET_MAP,
            cp.GetMapArgs(fh, 0, 8, allocate=True).encode(),
        )
        second = cp.MapRes.decode(dec).sites
        return first, second

    first, second = sim.run_process(run())
    assert first == second  # placements are sticky
    assert all(0 <= s < 3 for s in first)
    # Round-robin striping from a per-file base.
    assert first[1] == (first[0] + 1) % 3


def test_get_map_without_allocate_reports_unmapped():
    sim, net, client, coord, nodes = build()

    def run():
        dec, _ = yield from coord_call(
            client, coord, cp.COORD_GET_MAP,
            cp.GetMapArgs(make_fh(6), 0, 4, allocate=False).encode(),
        )
        return cp.MapRes.decode(dec).sites

    assert sim.run_process(run()) == [-1, -1, -1, -1]


def test_block_maps_survive_coordinator_crash():
    sim, net, client, coord, nodes = build()
    fh = make_fh(5)

    def run():
        dec, _ = yield from coord_call(
            client, coord, cp.COORD_GET_MAP,
            cp.GetMapArgs(fh, 0, 8, allocate=True).encode(),
        )
        before = cp.MapRes.decode(dec).sites
        coord.crash()
        yield sim.timeout(0.5)
        coord.restart()
        dec, _ = yield from coord_call(
            client, coord, cp.COORD_GET_MAP,
            cp.GetMapArgs(fh, 0, 8, allocate=False).encode(),
        )
        return before, cp.MapRes.decode(dec).sites

    before, after = sim.run_process(run())
    assert before == after  # durable: no -1 entries after recovery


def test_reclaim_removes_object_from_all_nodes():
    sim, net, client, coord, nodes = build()
    fh = make_fh(9)

    def run():
        for node in nodes:
            yield from write_to_node(client, node, fh, 0, RealData(b"shard"))
        dec, _ = yield from coord_call(
            client, coord, cp.COORD_RECLAIM, cp.ReclaimArgs(fh).encode()
        )
        return ctrlproto.StatusRes.decode(dec).status

    assert sim.run_process(run()) == 0
    oid = object_id_for_fh(fh)
    assert all(oid not in node.store for node in nodes)


def test_reclaim_truncate_cuts_all_nodes():
    sim, net, client, coord, nodes = build()
    fh = make_fh(9)

    def run():
        for node in nodes:
            yield from write_to_node(client, node, fh, 0, RealData(b"0123456789"))
        yield from coord_call(
            client, coord, cp.COORD_RECLAIM,
            cp.ReclaimArgs(fh, truncate_to=4, remove=False).encode(),
        )

    sim.run_process(run())
    oid = object_id_for_fh(fh)
    assert all(node.store.get(oid).size == 4 for node in nodes)


def test_intent_complete_normal_path_no_recovery():
    sim, net, client, coord, nodes = build()
    fh = make_fh(11)

    def run():
        intent = cp.Intent(
            1234, cp.K_COMMIT, fh, 0, 0,
            [(n.address.host, n.address.port) for n in nodes],
        )
        yield from coord_call(
            client, coord, cp.COORD_INTENT, intent.encode()
        )
        yield from coord_call(
            client, coord, cp.COORD_COMPLETE, cp.CompleteArgs(1234).encode()
        )
        yield sim.timeout(10)  # let the watchdog run several passes

    sim.run_process(run())
    assert coord.recoveries == 0
    assert coord.pending == {}


def test_watchdog_recovers_abandoned_commit():
    """µproxy logs a commit intention then dies; the watchdog must push the
    commit to the storage nodes so unstable data becomes durable."""
    sim, net, client, coord, nodes = build(num_nodes=2)
    fh = make_fh(12)

    def run():
        for node in nodes:
            yield from write_to_node(client, node, fh, 0, RealData(b"unsynced"))
        intent = cp.Intent(
            77, cp.K_COMMIT, fh, 0, 0,
            [(n.address.host, n.address.port) for n in nodes],
        )
        yield from coord_call(
            client, coord, cp.COORD_INTENT, intent.encode()
        )
        # ... requester vanishes without completing ...
        yield sim.timeout(10)  # watchdog fires

    sim.run_process(run())
    assert coord.recoveries == 1
    oid = object_id_for_fh(fh)
    for node in nodes:
        node.crash()
        node.restart()
    # Data survived the post-recovery crash => the commit really happened.
    assert all(
        node.store.get(oid).read(0, 8) == b"unsynced" for node in nodes
    )


def test_coordinator_crash_recovers_pending_intent_from_log():
    sim, net, client, coord, nodes = build(num_nodes=2)
    fh = make_fh(13)

    def run():
        for node in nodes:
            yield from write_to_node(client, node, fh, 0, RealData(b"pending!"))
        intent = cp.Intent(
            88, cp.K_COMMIT, fh, 0, 0,
            [(n.address.host, n.address.port) for n in nodes],
        )
        yield from coord_call(
            client, coord, cp.COORD_INTENT, intent.encode()
        )
        coord.crash()
        yield sim.timeout(0.2)
        coord.restart()  # replays the log; must find intent 88 pending
        yield sim.timeout(1.0)

    sim.run_process(run())
    assert coord.recoveries == 1
    oid = object_id_for_fh(fh)
    for node in nodes:
        assert not node.store.get(oid).unstable_ranges


def test_mirror_write_recovery_repairs_lagging_replica():
    sim, net, client, coord, nodes = build(num_nodes=2)
    fh = make_fh(14)

    def run():
        # Replica 0 got the mirrored write; replica 1 did not (failure
        # between the two writes).
        yield from write_to_node(
            client, nodes[0], fh, 0, RealData(b"mirrored"), stable=FILE_SYNC
        )
        intent = cp.Intent(
            99, cp.K_MIRROR_WRITE, fh, 0, 8,
            [(n.address.host, n.address.port) for n in nodes],
        )
        yield from coord_call(
            client, coord, cp.COORD_INTENT, intent.encode()
        )
        yield sim.timeout(10)  # watchdog repairs
        dec, body = yield from read_from_node(client, nodes[1], fh, 0, 8)
        return body.to_bytes()

    assert sim.run_process(run()) == b"mirrored"
    assert coord.recoveries == 1


def test_crash_during_recovery_replays_intent_idempotently():
    """Crash the coordinator *while* it is recovering an abandoned commit:
    the completion was never logged, so the restart replays the same
    intention a second time.  The duplicate replay must be idempotent —
    data committed exactly as if recovery had run once."""
    sim, net, client, coord, nodes = build(num_nodes=2)
    fh = make_fh(21)

    def run():
        for node in nodes:
            yield from write_to_node(client, node, fh, 0, RealData(b"replayed"))
        intent = cp.Intent(
            55, cp.K_COMMIT, fh, 0, 0,
            [(n.address.host, n.address.port) for n in nodes],
        )
        yield from coord_call(
            client, coord, cp.COORD_INTENT, intent.encode()
        )
        # Recovery stalls: everything the coordinator sends vanishes, so
        # the watchdog (probe 1 s, timeout 2 s) is parked mid-recovery
        # retransmitting its COMMIT when the crash hits.
        net.fault_injector = silence_coordinator()
        yield sim.timeout(3.5)
        assert coord.recoveries == 1  # first replay began, never finished
        coord.crash()  # "complete" was never logged
        yield sim.timeout(0.2)
        net.fault_injector = None
        coord.restart()  # replays intent 55 from the stable log
        yield sim.timeout(5.0)

    sim.run_process(run())
    assert coord.recoveries >= 2  # the duplicate replay happened
    assert coord.pending == {}
    oid = object_id_for_fh(fh)
    for node in nodes:
        node.crash()
        node.restart()
        # Durable exactly once, with the original content.
        assert node.store.get(oid).read(0, 8) == b"replayed"
        assert not node.store.get(oid).unstable_ranges


def test_recoveries_counter_matches_tracer_ledger():
    """``Coordinator.recoveries`` counts every replay, even a second replay
    of one intention, and the tracer's ledger still ends with that
    intention closed as recovered."""
    from repro.obs import Tracer

    tracer = Tracer()
    sim, net, client, coord, nodes = build(num_nodes=2, tracer=tracer)
    fh = make_fh(22)

    def run():
        for node in nodes:
            yield from write_to_node(client, node, fh, 0, RealData(b"count"))
        intent = cp.Intent(
            66, cp.K_COMMIT, fh, 0, 0,
            [(n.address.host, n.address.port) for n in nodes],
        )
        yield from coord_call(
            client, coord, cp.COORD_INTENT, intent.encode()
        )
        # Stall the first replay so the crash lands before its completion
        # is logged (otherwise the restart would find nothing pending).
        net.fault_injector = silence_coordinator()
        yield sim.timeout(3.5)  # watchdog begins recovering
        coord.crash()
        yield sim.timeout(0.2)
        net.fault_injector = None
        coord.restart()  # second replay of the same intention
        yield sim.timeout(5.0)

    sim.run_process(run())
    assert coord.recoveries >= 2
    # The ledger's final state for the op is "recovered" (closed).
    from repro.obs.trace import INTENT_RECOVERED

    assert tracer.intents[66][0] == INTENT_RECOVERED
    assert tracer.open_intents() == []


def test_mirror_write_recovery_with_no_donor_is_noop():
    sim, net, client, coord, nodes = build(num_nodes=2)
    fh = make_fh(15)

    def run():
        intent = cp.Intent(
            101, cp.K_MIRROR_WRITE, fh, 0, 8,
            [(n.address.host, n.address.port) for n in nodes],
        )
        yield from coord_call(
            client, coord, cp.COORD_INTENT, intent.encode()
        )
        yield sim.timeout(10)

    sim.run_process(run())
    assert coord.recoveries == 1
    oid = object_id_for_fh(fh)
    assert all(oid not in node.store for node in nodes)


def test_watchdog_survives_a_donor_that_crashes_mid_repair():
    """The donor of a mirror-write repair answers its STAT and crashes
    before the copy: the read's timeout leaves the intention pending, the
    watchdog lives on, and a later pass repairs the lagging replica once
    the donor is back."""
    sim, net, client, coord, nodes = build(num_nodes=2)
    fh = make_fh(16)
    donor = nodes[0]
    serve_ctrl = donor._ctrl_service

    def crash_after_stat(proc, dec, body, src):
        result = yield from serve_ctrl(proc, dec, body, src)
        if proc == ctrlproto.CTRL_OBJ_STAT and donor.host.up:
            sim.call_at(sim.now, donor.crash)  # once the reply is sent
        return result

    donor.server.register(ctrlproto.SLICE_CTRL_PROGRAM, crash_after_stat)

    def run():
        yield from write_to_node(
            client, donor, fh, 0, RealData(b"mirrored"), stable=FILE_SYNC
        )
        intent = cp.Intent(
            99, cp.K_MIRROR_WRITE, fh, 0, 8,
            [(n.address.host, n.address.port) for n in nodes],
        )
        yield from coord_call(client, coord, cp.COORD_INTENT, intent.encode())
        yield sim.timeout(60 - sim.now)
        donor.server.register(ctrlproto.SLICE_CTRL_PROGRAM, serve_ctrl)
        donor.restart()
        yield sim.timeout(60)
        dec, body = yield from read_from_node(client, nodes[1], fh, 0, 8)
        return body.to_bytes()

    assert sim.run_process(run()) == b"mirrored"
    assert sim.crashed_processes == []
    assert coord.recoveries == 2  # the failed pass, then the repair
    assert coord.pending == {}


def test_removed_files_block_map_stays_gone_after_restart():
    """Replaying the log rebuilds the state the live coordinator had: a
    reclaim's completion drops the removed file's block map at replay too,
    not only live."""
    sim, net, client, coord, nodes = build()
    fh = make_fh(17)
    oid = object_id_for_fh(fh)

    def run():
        yield from coord_call(client, coord, cp.COORD_GET_MAP,
                              cp.GetMapArgs(fh, 0, 4, allocate=True).encode())
        yield from coord_call(client, coord, cp.COORD_RECLAIM,
                              cp.ReclaimArgs(fh).encode())
        live = oid in coord.block_maps
        # Another file's placement syncs the log past the completion.
        yield from coord_call(
            client, coord, cp.COORD_GET_MAP,
            cp.GetMapArgs(make_fh(18), 0, 1, allocate=True).encode())
        coord.crash()
        yield sim.timeout(0.5)
        coord.restart()
        return live, oid in coord.block_maps, dict(coord.pending)

    assert sim.run_process(run()) == (False, False, {})


def test_reclaim_with_a_site_down_is_retried_by_the_watchdog():
    """A remove whose fan-out cannot reach a crashed node leaves its
    intention pending; once the node is back a watchdog pass removes the
    object there and closes the intention."""
    sim, net, client, coord, nodes = build(num_nodes=2)
    fh = make_fh(19)
    oid = object_id_for_fh(fh)

    def run():
        for node in nodes:
            yield from write_to_node(client, node, fh, 0, RealData(b"doomed"),
                                     stable=FILE_SYNC)
        nodes[1].crash()
        yield from coord_call(client, coord, cp.COORD_RECLAIM,
                              cp.ReclaimArgs(fh).encode())
        answered = sim.now
        assert oid not in nodes[0].store
        assert len(coord.pending) == 1  # not closed: node 1 never answered
        nodes[1].restart()
        assert oid in nodes[1].store
        recoveries = coord.recoveries
        yield sim.timeout(60)
        return answered, coord.recoveries > recoveries

    answered, retried = sim.run_process(run())
    assert answered > 40  # the fan-out waited out node 1's retransmissions
    assert retried
    assert oid not in nodes[1].store
    assert coord.pending == {}


def _replayed(records):
    """``pending`` and ``block_maps`` of a fresh coordinator that played
    ``records``."""
    from types import SimpleNamespace

    shadow = SimpleNamespace(pending={}, block_maps={})
    for rec in records:
        Coordinator._play(shadow, rec)
    return shadow.pending, shadow.block_maps


@pytest.mark.parametrize("seed", range(4))
def test_playing_the_held_log_gives_the_live_state(seed):
    """Random GET_MAP/INTENT/COMPLETE/RECLAIM calls, coordinator and node
    crashes: at random instants while the coordinator is up, playing every
    record its log holds yields exactly its live ``pending`` and
    ``block_maps``."""
    import random

    from repro.rpc import RpcTimeout

    rng = random.Random(seed)
    sim, net, _client, coord, nodes = build(num_nodes=2)
    sites = [(n.address.host, n.address.port) for n in nodes]
    fhs = [make_fh(40 + i) for i in range(4)]
    op_ids = list(range(1, 9))
    checks = []

    def caller(port):
        client = RpcClient(net.add_host(f"caller{port}"), port,
                           retrans_timeout=0.3, max_tries=3)
        for _ in range(25):
            yield sim.timeout(rng.uniform(0.0, 1.5))
            fh = rng.choice(fhs)
            pick = rng.randrange(4)
            if pick == 0:
                proc = cp.COORD_GET_MAP
                args = cp.GetMapArgs(fh, rng.randrange(4), rng.randrange(1, 4),
                                     allocate=rng.random() < 0.7).encode()
            elif pick == 1:
                proc = cp.COORD_INTENT
                kind = rng.choice([cp.K_REMOVE, cp.K_TRUNCATE, cp.K_COMMIT])
                args = cp.Intent(rng.choice(op_ids), kind, fh, 3, 0,
                                 sites).encode()
            elif pick == 2:
                proc = cp.COORD_COMPLETE
                args = cp.CompleteArgs(rng.choice(op_ids)).encode()
            else:
                proc = cp.COORD_RECLAIM
                args = cp.ReclaimArgs(fh, rng.random() < 0.5, 2).encode()
            try:
                yield from coord_call(client, coord, proc, args)
            except RpcTimeout:
                pass  # the coordinator is down

    def crasher():
        for _ in range(4):
            yield sim.timeout(rng.uniform(2.0, 8.0))
            victim = rng.choice([coord] + nodes)
            victim.crash()
            yield sim.timeout(rng.uniform(0.1, 3.0))
            victim.restart()

    def checker():
        for _ in range(60):
            yield sim.timeout(rng.uniform(0.0, 1.0))
            if coord.host.up:
                assert _replayed(coord.log.records) == (
                    coord.pending, coord.block_maps)
                checks.append(sim.now)

    procs = [sim.process(caller(800 + i)) for i in range(3)]
    procs += [sim.process(crasher()), sim.process(checker())]
    sim.run_process(_wait_all(sim, procs))
    assert sim.crashed_processes == []
    assert len(checks) > 20
    assert coord.intents_logged > 0 and coord.block_maps


def _wait_all(sim, procs):
    yield sim.all_of(procs)
