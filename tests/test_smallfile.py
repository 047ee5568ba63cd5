"""Tests for the small-file allocator and server."""

import pytest

from repro.net import NetParams, Network
from repro.nfs import proto
from repro.nfs.fhandle import FHandle
from repro.nfs.types import FILE_SYNC, NF3REG, UNSTABLE
from repro.rpc import RpcClient
from repro.sim import Simulator
from repro.dirsvc.backing import BackingRegistry
from repro.smallfile.alloc import FragmentAllocator, round_fragment
from repro.nfs.errors import NFS3ERR_IO
from repro.smallfile.server import (
    BLOCK,
    SiteZone,
    SmallFileParams,
    SmallFileServer,
    sf_site_for,
)
from repro.storage import ctrlproto
from repro.storage.node import StorageNode
from repro.util.bytesim import EMPTY, PatternData, RealData


# -- allocator ---------------------------------------------------------------


def test_round_fragment_powers_of_two():
    assert round_fragment(1) == 128
    assert round_fragment(128) == 128
    assert round_fragment(129) == 256
    assert round_fragment(8192) == 8192
    assert round_fragment(8300 - 8192) == 128


def test_paper_example_8300_byte_file():
    """8300 bytes = 8192 for the first block + 128 for the last 108 bytes
    (the paper's worked example: 8320 bytes of physical storage)."""
    alloc = FragmentAllocator()
    _, first = alloc.allocate(8192)
    _, second = alloc.allocate(108)
    assert first + second == 8320


def test_allocator_appends_sequentially():
    alloc = FragmentAllocator()
    offsets = [alloc.allocate(8192)[0] for _ in range(5)]
    assert offsets == [0, 8192, 16384, 24576, 32768]


def test_allocator_best_fit_reuse():
    alloc = FragmentAllocator()
    a, sa = alloc.allocate(8192)
    b, sb = alloc.allocate(256)
    alloc.allocate(1024)
    alloc.free(a, sa)
    alloc.free(b, sb)
    # A 200-byte request best-fits the 256 fragment, not the 8192 one.
    off, size = alloc.allocate(200)
    assert (off, size) == (b, 256)
    # An 8 KB request reuses the freed big fragment.
    off2, _ = alloc.allocate(8000)
    assert off2 == a


def test_allocator_splits_larger_fragment():
    alloc = FragmentAllocator()
    a, sa = alloc.allocate(8192)
    alloc.allocate(128)  # keep bump ahead
    alloc.free(a, sa)
    off, size = alloc.allocate(1024)  # takes part of the 8192 fragment
    assert off == a
    assert size == 1024
    assert alloc.free_bytes() == 8192 - 1024


def test_allocator_no_overlaps_under_churn():
    alloc = FragmentAllocator()
    live = {}
    import random

    rng = random.Random(7)
    for i in range(300):
        if live and rng.random() < 0.4:
            key = rng.choice(list(live))
            off, size = live.pop(key)
            alloc.free(off, size)
        else:
            n = rng.randint(1, 9000)
            off, size = alloc.allocate(n)
            live[i] = (off, size)
    ranges = sorted(live.values())
    for (o1, s1), (o2, _s2) in zip(ranges, ranges[1:]):
        assert o1 + s1 <= o2, "allocated fragments overlap"


def test_allocator_rebuild_from_live_extents():
    alloc = FragmentAllocator()
    a = alloc.allocate(8192)
    b = alloc.allocate(1024)
    c = alloc.allocate(8192)
    alloc.free(*b)
    rebuilt = FragmentAllocator.rebuild([a, c])
    assert rebuilt.bump == alloc.bump
    # The gap where b lived is free again.
    off, size = rebuilt.allocate(1000)
    assert off == b[0]


# -- server ------------------------------------------------------------------


def build(num_nodes=2, num_sites=4, params=None):
    sim = Simulator()
    net = Network(sim, NetParams())
    nodes = [
        StorageNode(sim, net.add_host(f"store{i}")) for i in range(num_nodes)
    ]
    backing = BackingRegistry(sim)
    sf_host = net.add_host("sf0")
    server = SmallFileServer(
        sim, sf_host, backing, list(range(num_sites)),
        [n.address for n in nodes], num_sites, params,
    )
    client = RpcClient(net.add_host("client"), 700)
    return sim, net, client, server, nodes, backing


def make_fh(fileid):
    return FHandle(1, NF3REG, 0, fileid, 0, bytes(16)).pack()


def sf_write(client, server, fh, offset, data, stable=UNSTABLE):
    args = proto.WriteArgs(fh, offset, data.length, stable).encode()
    dec, _ = yield from client.call(
        server.address, proto.NFS_PROGRAM, proto.NFS_V3, proto.PROC_WRITE,
        args, data,
    )
    return proto.WriteRes.decode(dec)


def sf_read(client, server, fh, offset, count):
    dec, body = yield from client.call(
        server.address, proto.NFS_PROGRAM, proto.NFS_V3, proto.PROC_READ,
        proto.ReadArgs(fh, offset, count).encode(),
    )
    return proto.ReadRes.decode(dec), body


def sf_commit(client, server, fh):
    dec, _ = yield from client.call(
        server.address, proto.NFS_PROGRAM, proto.NFS_V3, proto.PROC_COMMIT,
        proto.CommitArgs(fh, 0, 0).encode(),
    )
    return proto.CommitRes.decode(dec)


def test_write_read_roundtrip():
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(42)

    def run():
        res = yield from sf_write(client, server, fh, 0, RealData(b"small file"))
        assert res.status == 0
        rres, body = yield from sf_read(client, server, fh, 0, 100)
        return rres, body.to_bytes()

    rres, body = sim.run_process(run())
    assert body == b"small file"
    assert rres.eof
    assert rres.attr.size == 10


def test_commit_writes_through_to_storage_nodes():
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(43)

    def run():
        yield from sf_write(client, server, fh, 0, PatternData(8300, seed=1))
        assert server.backing_writes == 0
        yield from sf_commit(client, server, fh)

    sim.run_process(run())
    assert server.backing_writes > 0
    total_stored = sum(
        obj.stored_bytes()
        for node in nodes
        for obj in [node.store.get(oid) for oid in node.store.object_ids()]
    )
    assert total_stored >= 8300


def test_uncommitted_data_lost_on_crash():
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(44)

    def run():
        wres = yield from sf_write(client, server, fh, 0, RealData(b"volatile"))
        verf1 = wres.verf
        server.core.crash()
        yield sim.timeout(0.1)
        server.core.restart(site_ids=[0, 1, 2, 3])
        rres, body = yield from sf_read(client, server, fh, 0, 8)
        cres = yield from sf_commit(client, server, fh)
        return verf1, cres.verf, body.length

    verf1, verf2, length = sim.run_process(run())
    assert verf1 != verf2
    assert length == 0


def test_committed_data_survives_crash():
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(45)
    payload = PatternData(20000, seed=9)

    def run():
        yield from sf_write(client, server, fh, 0, payload)
        yield from sf_commit(client, server, fh)
        server.core.crash()
        yield sim.timeout(0.1)
        server.core.restart(site_ids=[0, 1, 2, 3])
        rres, body = yield from sf_read(client, server, fh, 0, 20000)
        return body

    body = sim.run_process(run())
    assert body == payload  # re-read through the storage nodes


def test_partial_overwrite_preserves_rest():
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(46)
    base = PatternData(16384, seed=3)

    def run():
        yield from sf_write(client, server, fh, 0, base, stable=FILE_SYNC)
        yield from sf_write(client, server, fh, 100, RealData(b"PATCH"), stable=FILE_SYNC)
        rres, body = yield from sf_read(client, server, fh, 0, 16384)
        return body.to_bytes()

    body = sim.run_process(run())
    expected = bytearray(base.to_bytes())
    expected[100:105] = b"PATCH"
    assert body == bytes(expected)


def test_file_growth_reallocates_final_fragment():
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(47)

    def run():
        yield from sf_write(client, server, fh, 0, RealData(b"x" * 100), stable=FILE_SYNC)
        yield from sf_write(client, server, fh, 100, RealData(b"y" * 5000), stable=FILE_SYNC)
        rres, body = yield from sf_read(client, server, fh, 0, 5100)
        return body.to_bytes()

    body = sim.run_process(run())
    assert body == b"x" * 100 + b"y" * 5000
    zone = server.core.states[sf_site_for(47, 4)]
    rec = zone.maps[47]
    assert rec.extents[0][1] == 8192  # grew from 128 to a full block


def test_syncer_stabilizes_pending_writes():
    params = SmallFileParams(sync_interval=0.5)
    sim, net, client, server, nodes, backing = build(params=params)
    fh = make_fh(48)

    def run():
        yield from sf_write(client, server, fh, 0, RealData(b"lazy data"))
        yield sim.timeout(2.0)
        server.core.crash()
        yield sim.timeout(0.1)
        server.core.restart(site_ids=[0, 1, 2, 3])
        rres, body = yield from sf_read(client, server, fh, 0, 9)
        return body.to_bytes()

    assert sim.run_process(run()) == b"lazy data"


def test_ctrl_remove_frees_space():
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(49)

    def run():
        yield from sf_write(client, server, fh, 0, PatternData(10000, seed=2), stable=FILE_SYNC)
        zone = server.core.states[sf_site_for(49, 4)]
        allocated_before = zone.alloc.allocated_bytes
        dec, _ = yield from client.call(
            server.address, ctrlproto.SLICE_CTRL_PROGRAM, 1,
            ctrlproto.CTRL_OBJ_REMOVE, ctrlproto.ObjArgs(fh).encode(),
        )
        status = ctrlproto.StatusRes.decode(dec).status
        rres, body = yield from sf_read(client, server, fh, 0, 100)
        return status, allocated_before, zone.alloc.allocated_bytes, body.length

    status, before, after, length = sim.run_process(run())
    assert status == 0
    assert before > 0
    assert after == 0
    assert length == 0


def test_ctrl_truncate_shrinks():
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(50)

    def run():
        yield from sf_write(client, server, fh, 0, PatternData(20000, seed=4), stable=FILE_SYNC)
        dec, _ = yield from client.call(
            server.address, ctrlproto.SLICE_CTRL_PROGRAM, 1,
            ctrlproto.CTRL_OBJ_TRUNCATE, ctrlproto.TruncateArgs(fh, 5000).encode(),
        )
        rres, body = yield from sf_read(client, server, fh, 0, 20000)
        return rres, body

    rres, body = sim.run_process(run())
    assert rres.attr.size == 5000
    assert body.length == 5000
    assert body == PatternData(20000, seed=4).slice(0, 5000)


def test_misdirected_smallfile_request():
    sim, net, client, server, nodes, backing = build(num_sites=8)
    # Unload a site so a request routed there is misdirected.
    victim = sorted(server.core.states)[0]
    server.core.unload(victim)
    fileid = next(
        fid for fid in range(1, 500) if sf_site_for(fid, 8) == victim
    )

    def run():
        rres, _ = yield from sf_read(client, server, make_fh(fileid), 0, 10)
        return rres

    from repro.nfs.errors import SLICEERR_MISDIRECTED

    assert sim.run_process(run()).status == SLICEERR_MISDIRECTED


def test_create_batching_lays_out_sequentially():
    """Files created together land sequentially in the backing object."""
    sim, net, client, server, nodes, backing = build(num_sites=1)

    def run():
        for fid in range(100, 110):
            yield from sf_write(
                client, server, make_fh(fid), 0,
                PatternData(4000, seed=fid), stable=FILE_SYNC,
            )

    sim.run_process(run())
    zone = server.core.states[0]
    offsets = [zone.maps[fid].extents[0][0] for fid in range(100, 110)]
    assert offsets == sorted(offsets)
    # Dense packing: ten 4 KB files round to 8 KB fragments each... actually
    # 4096-byte requests round to 4096; layout is gapless.
    assert offsets[-1] - offsets[0] == 9 * 4096


# -- durability: crashes, flushes in progress and backing timeouts -------------


def replayed(backing, site):
    """A site as checkpoint plus replay of its stable records gives it."""
    site_backing = backing.site("sf", site)
    return SiteZone.recover(site_backing.snapshot,
                            site_backing.log.stable_records(), site)


def test_flush_begun_before_a_crash_journals_nothing_after_restart():
    """A COMMIT's flush is writing fragments when the server crashes; its
    storage replies arrive after the restart.  It must not journal then:
    the new boot's allocator treats those fragments as free."""
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(42)
    site = sf_site_for(42, 4)

    def run():
        yield from sf_write(client, server, fh, 0, PatternData(20000, seed=5))
        commit = sim.process(sf_commit(client, server, fh))
        yield sim.timeout(0.0005)
        server.core.crash()
        yield sim.timeout(0.01)
        server.core.restart(site_ids=[0, 1, 2, 3])
        yield commit
        yield sim.timeout(1.0)

    sim.run_process(run())
    live = server.core.states[site]
    assert 42 not in live.maps
    assert replayed(backing, site).maps == live.maps


@pytest.mark.parametrize("delay", [0.0, 0.00025, 0.0005, 0.00075, 0.001])
def test_read_during_a_flush_returns_one_version(delay):
    """A READ that arrives while a COMMIT flushes an overwrite returns the
    new bytes, not new blocks mixed with old ones."""
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(43)
    old, new = PatternData(20000, seed=1), PatternData(20000, seed=2)

    def run():
        yield from sf_write(client, server, fh, 0, old, stable=FILE_SYNC)
        yield from sf_write(client, server, fh, 0, new)
        commit = sim.process(sf_commit(client, server, fh))
        yield sim.timeout(delay)
        rres, body = yield from sf_read(client, server, fh, 0, 20000)
        yield commit
        return rres, body

    rres, body = sim.run_process(run())
    assert rres.status == 0
    assert body == new


def test_write_with_a_storage_node_down_answers_io():
    """A FILE_SYNC write whose fragments cannot reach the array fails with
    NFS3ERR_IO, journals nothing and leaves the live maps as replay has
    them; after a restart the file reads back empty, not other bytes."""
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(42)
    site = sf_site_for(42, 4)

    def run():
        nodes[0].crash()
        wres = yield from sf_write(client, server, fh, 0,
                                   PatternData(20000, seed=3), stable=FILE_SYNC)
        live = server.core.states[site]
        assert replayed(backing, site).maps == live.maps
        assert live.alloc.allocated_bytes == 0
        server.core.crash()
        nodes[0].restart()
        server.core.restart(site_ids=[0, 1, 2, 3])
        rres, body = yield from sf_read(client, server, fh, 0, 20000)
        return wres, rres, body

    wres, rres, body = sim.run_process(run())
    assert wres.status == NFS3ERR_IO
    assert rres.status == 0 and rres.attr.size == 0 and body.length == 0


def test_read_with_a_storage_node_down_answers_io_and_caches_nothing():
    """After a restart emptied the cache, a READ that cannot reach the
    array fails with NFS3ERR_IO; once the node is back the bytes are
    right (nothing was cached as resident)."""
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(42)
    payload = PatternData(20000, seed=4)

    def run():
        yield from sf_write(client, server, fh, 0, payload, stable=FILE_SYNC)
        server.core.crash()
        server.core.restart(site_ids=[0, 1, 2, 3])
        nodes[0].crash()
        down, _ = yield from sf_read(client, server, fh, 0, 20000)
        nodes[0].restart()
        up, body = yield from sf_read(client, server, fh, 0, 20000)
        return down, up, body

    down, up, body = sim.run_process(run())
    assert down.status == NFS3ERR_IO
    assert up.status == 0
    assert body == payload


def test_remove_waiting_out_a_flush_is_dropped_if_the_site_is_lost():
    """A REMOVE that waits out a COMMIT's flush of the same file, while
    the server crashes and restarts, must not free or journal on the old
    boot's state: it is dropped, and its retransmission removes the file
    on the new boot."""
    sim, net, client, server, nodes, backing = build()
    fh = make_fh(42)
    site = sf_site_for(42, 4)

    def remove():
        dec, _ = yield from client.call(
            server.address, ctrlproto.SLICE_CTRL_PROGRAM, 1,
            ctrlproto.CTRL_OBJ_REMOVE, ctrlproto.ObjArgs(fh).encode(),
        )
        return ctrlproto.StatusRes.decode(dec).status

    def run():
        yield from sf_write(client, server, fh, 0, PatternData(20000, seed=6),
                            stable=FILE_SYNC)
        yield from sf_write(client, server, fh, 0, PatternData(20000, seed=7))
        commit = sim.process(sf_commit(client, server, fh))
        yield sim.timeout(0.0003)
        removed = sim.process(remove())
        yield sim.timeout(0.0003)
        assert server._flushing
        server.core.crash()
        yield sim.timeout(0.01)
        server.core.restart(site_ids=[0, 1, 2, 3])
        yield commit
        return (yield removed)

    assert sim.run_process(run()) == 0
    live = server.core.states[site]
    assert 42 not in live.maps
    assert replayed(backing, site).maps == live.maps
    assert live.alloc.allocated_bytes == 0
