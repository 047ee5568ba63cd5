"""Tests for the network storage node: NFS I/O over the wire, commit
semantics, crash/verifier behaviour, prefetch, and control ops."""

import pytest

from repro.net import NetParams, Network
from repro.nfs import proto
from repro.nfs.fhandle import FHandle
from repro.nfs.types import FILE_SYNC, NF3REG, UNSTABLE
from repro.rpc import Decoder, RpcClient
from repro.sim import Simulator
from repro.storage import ctrlproto
from repro.storage.node import StorageNode, StorageNodeParams, object_id_for_fh
from repro.util.bytesim import PatternData, RealData


def make_fh(fileid=7, flags=0):
    return FHandle(1, NF3REG, flags, fileid, 0, bytes(16)).pack()


def build(params=None):
    sim = Simulator()
    net = Network(sim, NetParams())
    client_host = net.add_host("client")
    node_host = net.add_host("store1")
    node = StorageNode(sim, node_host, params)
    client = RpcClient(client_host, 700)
    return sim, net, client, node


def nfs_call(client, node, proc, args, body=None):
    from repro.util.bytesim import EMPTY

    return client.call(
        node.address, proto.NFS_PROGRAM, proto.NFS_V3, proc, args,
        body if body is not None else EMPTY,
    )


def write(client, node, fh, offset, data, stable=UNSTABLE):
    args = proto.WriteArgs(fh, offset, data.length, stable).encode()
    dec, _ = yield from nfs_call(client, node, proto.PROC_WRITE, args, data)
    return proto.WriteRes.decode(dec)


def read(client, node, fh, offset, count):
    args = proto.ReadArgs(fh, offset, count).encode()
    dec, body = yield from nfs_call(client, node, proto.PROC_READ, args)
    return proto.ReadRes.decode(dec), body


def commit(client, node, fh, offset=0, count=0):
    args = proto.CommitArgs(fh, offset, count).encode()
    dec, _ = yield from nfs_call(client, node, proto.PROC_COMMIT, args)
    return proto.CommitRes.decode(dec)


def test_write_then_read_roundtrip():
    sim, net, client, node = build()
    fh = make_fh()

    def run():
        res = yield from write(client, node, fh, 0, RealData(b"hello world"))
        assert res.status == 0
        assert res.count == 11
        rres, body = yield from read(client, node, fh, 0, 11)
        assert rres.status == 0
        return body.to_bytes()

    assert sim.run_process(run()) == b"hello world"


def test_read_reports_eof_and_size():
    sim, net, client, node = build()
    fh = make_fh()

    def run():
        yield from write(client, node, fh, 0, RealData(b"0123456789"))
        rres, body = yield from read(client, node, fh, 5, 100)
        return rres, body.to_bytes()

    rres, body = sim.run_process(run())
    assert body == b"56789"
    assert rres.eof
    assert rres.attr.size == 10


def test_read_missing_object_returns_empty():
    sim, net, client, node = build()

    def run():
        rres, body = yield from read(client, node, make_fh(999), 0, 100)
        return rres, body.length

    rres, length = sim.run_process(run())
    assert rres.status == 0
    assert length == 0
    assert rres.eof


def test_unstable_write_lost_on_crash_and_verf_changes():
    sim, net, client, node = build()
    fh = make_fh()

    def run():
        wres = yield from write(client, node, fh, 0, RealData(b"volatile"))
        verf_before = wres.verf
        node.crash()
        yield sim.timeout(0.1)
        node.restart()
        rres, body = yield from read(client, node, fh, 0, 8)
        cres = yield from commit(client, node, fh)
        return verf_before, cres.verf, body.length

    verf_before, verf_after, length = sim.run_process(run())
    assert verf_before != verf_after  # client must re-send its writes
    assert length == 0  # unstable data was lost


def test_committed_write_survives_crash():
    sim, net, client, node = build()
    fh = make_fh()

    def run():
        yield from write(client, node, fh, 0, RealData(b"precious"))
        yield from commit(client, node, fh)
        node.crash()
        yield sim.timeout(0.1)
        node.restart()
        rres, body = yield from read(client, node, fh, 0, 8)
        return body.to_bytes()

    assert sim.run_process(run()) == b"precious"


def test_file_sync_write_is_stable_immediately():
    sim, net, client, node = build()
    fh = make_fh()

    def run():
        wres = yield from write(
            client, node, fh, 0, RealData(b"synced"), stable=FILE_SYNC
        )
        assert wres.committed == FILE_SYNC
        node.crash()
        yield sim.timeout(0.1)
        node.restart()
        rres, body = yield from read(client, node, fh, 0, 6)
        return body.to_bytes()

    assert sim.run_process(run()) == b"synced"


def test_syncer_stabilizes_unstable_data():
    params = StorageNodeParams(sync_interval=0.5)
    sim, net, client, node = build(params)
    fh = make_fh()

    def run():
        yield from write(client, node, fh, 0, RealData(b"lazy"))
        yield sim.timeout(2.0)  # several syncer periods
        node.crash()
        yield sim.timeout(0.1)
        node.restart()
        rres, body = yield from read(client, node, fh, 0, 4)
        return body.to_bytes()

    assert sim.run_process(run()) == b"lazy"


def test_sequential_read_faster_than_random_via_prefetch():
    sim, net, client, node = build()
    fh = make_fh()
    nblocks = 32
    chunk = 32 << 10

    def load():
        data = PatternData(nblocks * chunk, seed=5)
        for i in range(nblocks):
            yield from write(
                client, node, fh, i * chunk, data.slice(i * chunk, (i + 1) * chunk)
            )
        yield from commit(client, node, fh)
        node.cache.clear()  # cold cache for the measurement

    def sequential():
        start = sim.now
        for i in range(nblocks):
            yield from read(client, node, fh, i * chunk, chunk)
        return sim.now - start

    def random_order():
        start = sim.now
        order = [(i * 17) % nblocks for i in range(nblocks)]
        for i in order:
            yield from read(client, node, fh, i * chunk, chunk)
        return sim.now - start

    sim.run_process(load())
    seq_time = sim.run_process(sequential())
    node.cache.clear()
    node._last_local.clear()
    node._prefetched_local.clear()
    rand_time = sim.run_process(random_order())
    assert seq_time < rand_time * 0.7


def test_ctrl_remove_object():
    sim, net, client, node = build()
    fh = make_fh()

    def run():
        yield from write(client, node, fh, 0, RealData(b"doomed"))
        dec, _ = yield from client.call(
            node.address, ctrlproto.SLICE_CTRL_PROGRAM, 1,
            ctrlproto.CTRL_OBJ_REMOVE, ctrlproto.ObjArgs(fh).encode(),
        )
        status = ctrlproto.StatusRes.decode(dec).status
        rres, body = yield from read(client, node, fh, 0, 6)
        return status, body.length

    status, length = sim.run_process(run())
    assert status == 0
    assert length == 0
    assert object_id_for_fh(fh) not in node.store


def test_ctrl_truncate_object():
    sim, net, client, node = build()
    fh = make_fh()

    def run():
        yield from write(client, node, fh, 0, RealData(b"0123456789"))
        dec, _ = yield from client.call(
            node.address, ctrlproto.SLICE_CTRL_PROGRAM, 1,
            ctrlproto.CTRL_OBJ_TRUNCATE, ctrlproto.TruncateArgs(fh, 4).encode(),
        )
        rres, body = yield from read(client, node, fh, 0, 10)
        return body.to_bytes()

    assert sim.run_process(run()) == b"0123"


def test_ctrl_stat_reports_unstable_bytes():
    sim, net, client, node = build()
    fh = make_fh()

    def run():
        yield from write(client, node, fh, 0, RealData(b"x" * 100))
        dec, _ = yield from client.call(
            node.address, ctrlproto.SLICE_CTRL_PROGRAM, 1,
            ctrlproto.CTRL_OBJ_STAT, ctrlproto.ObjArgs(fh).encode(),
        )
        before = ctrlproto.ObjStat.decode(dec)
        yield from commit(client, node, fh)
        dec, _ = yield from client.call(
            node.address, ctrlproto.SLICE_CTRL_PROGRAM, 1,
            ctrlproto.CTRL_OBJ_STAT, ctrlproto.ObjArgs(fh).encode(),
        )
        after = ctrlproto.ObjStat.decode(dec)
        return before, after

    before, after = sim.run_process(run())
    assert before.exists and before.unstable_bytes == 100
    assert after.unstable_bytes == 0
    assert after.size == 100


def test_object_id_ignores_policy_flags():
    plain = make_fh(fileid=5, flags=0)
    mirrored = make_fh(fileid=5, flags=1)
    assert object_id_for_fh(plain) == object_id_for_fh(mirrored)
    assert object_id_for_fh(make_fh(fileid=6)) != object_id_for_fh(plain)


def test_getattr_on_object():
    sim, net, client, node = build()
    fh = make_fh(fileid=31)

    def run():
        yield from write(client, node, fh, 0, RealData(b"z" * 77))
        dec, _ = yield from nfs_call(
            client, node, proto.PROC_GETATTR, proto.FhArgs(fh).encode()
        )
        return proto.GetattrRes.decode(dec)

    res = sim.run_process(run())
    assert res.status == 0
    assert res.attr.size == 77
    assert res.attr.fileid == 31
