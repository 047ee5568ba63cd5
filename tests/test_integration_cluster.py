"""End-to-end integration: NFS client -> µproxy -> Slice ensemble.

These tests drive the complete architecture of Figure 1 over the simulated
LAN: functional decomposition (name ops to directory servers, small I/O to
small-file servers, bulk I/O to storage nodes), attribute virtualization,
write verifiers, mirroring, reconfiguration, and µproxy state loss.
"""

import re

import pytest

from repro.dirsvc.config import NAME_HASHING
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.net import Host, NetParams
from repro.nfs.errors import NFS3_OK
from repro.nfs.fhandle import FHandle
from repro.nfs.types import Sattr3
from repro.smallfile.server import sf_site_for
from repro.util.bytesim import PatternData, RealData
from repro.workloads.bulkio import dd_read, dd_write

# Every cluster built in this module gets a tracer attached; the protocol
# invariants are replay-checked at teardown (see tests/conftest.py).
pytestmark = pytest.mark.usefixtures("trace_invariants")


def small_cluster(**overrides):
    defaults = dict(
        num_storage_nodes=4,
        num_dir_servers=2,
        num_sf_servers=2,
        dir_logical_sites=8,
        sf_logical_sites=8,
    )
    defaults.update(overrides)
    params = ClusterParams(**defaults)
    return SliceCluster(params=params)


def test_create_write_read_small_file():
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    payload = RealData(b"tiny file contents")

    def run():
        created = yield from client.create(cluster.root_fh, "small.txt")
        assert created.status == NFS3_OK
        fh = created.fh
        n = yield from client.write_file(fh, payload)
        assert n == payload.length
        data = yield from client.read_file(fh, payload.length)
        return data

    data = cluster.run(run())
    assert data == payload
    # The data went to a small-file server, not the storage array directly.
    assert sum(s.writes for s in cluster.sf_servers) > 0


def test_bulk_write_is_striped_across_storage_nodes():
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    size = 2 << 20  # 2 MB: well beyond the 64 KB threshold
    payload = PatternData(size, seed=11)

    def run():
        created = yield from client.create(cluster.root_fh, "big.bin")
        fh = created.fh
        yield from client.write_file(fh, payload)
        data = yield from client.read_file(fh, size)
        return data

    data = cluster.run(run())
    assert data == payload
    touched = [n for n in cluster.storage_nodes if n.writes > 0]
    assert len(touched) == 4  # every node got a share of the stripe


def test_getattr_reflects_io_via_attr_cache():
    """Directory servers never see bulk I/O; the µproxy's attribute cache
    must still give clients the correct size."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    size = 1 << 20

    def run():
        created = yield from client.create(cluster.root_fh, "sized.bin")
        fh = created.fh
        yield from client.write_file(fh, PatternData(size, seed=2))
        attrs = yield from client.getattr(fh)
        looked = yield from client.lookup(cluster.root_fh, "sized.bin")
        return attrs, looked

    attrs, looked = cluster.run(run())
    assert attrs.status == NFS3_OK
    assert attrs.attr.size == size
    assert looked.attr.size == size


def test_attr_writeback_reaches_directory_server():
    """After a commit, even a *different* client (own µproxy, cold cache)
    sees the pushed size."""
    cluster = small_cluster()
    writer, _p1 = cluster.add_client("writer")
    reader, _p2 = cluster.add_client("reader", port=701)
    size = 512 << 10

    def write_side():
        created = yield from writer.create(cluster.root_fh, "shared.bin")
        yield from writer.write_file(created.fh, PatternData(size, seed=3))

    cluster.run(write_side())

    def read_side():
        looked = yield from reader.lookup(cluster.root_fh, "shared.bin")
        assert looked.status == NFS3_OK
        assert looked.attr.size == size
        data = yield from reader.read_file(looked.fh, size)
        return data

    data = cluster.run(read_side())
    assert data == PatternData(size, seed=3)


def test_file_spanning_threshold():
    """A file larger than the threshold has its first 64 KB on a small-file
    server and the rest on the storage array; reads reassemble it."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    size = 256 << 10
    payload = PatternData(size, seed=5)

    def run():
        created = yield from client.create(cluster.root_fh, "spanning.bin")
        fh = created.fh
        yield from client.write_file(fh, payload)
        data = yield from client.read_file(fh, size)
        return data

    data = cluster.run(run())
    assert data == payload
    assert sum(s.writes for s in cluster.sf_servers) > 0
    assert sum(n.writes for n in cluster.storage_nodes) > 0


def test_replies_returned_matches_ops_sent_and_tracer():
    """Every NFS op the client sends gets exactly one reply back through the
    µproxy, whether forwarded from a server or synthesized (commit replies,
    attribute-cache getattrs); the µproxy counter and the tracer agree."""
    cluster = small_cluster(num_storage_nodes=2)
    client, proxy = cluster.add_client()
    size = 1 << 20

    def run():
        fh, _ = yield from dd_write(client, cluster.root_fh, "dd.bin", size,
                                    seed=3)
        yield from dd_read(client, fh, size, verify_seed=3)
        # An uncommitted append leaves the µproxy's attributes dirty, so it
        # answers the next GETATTR itself.
        yield from client.write(fh, size, RealData(b"tail"))
        synthesized = proxy.synthesized
        yield from client.getattr(fh)
        assert proxy.synthesized == synthesized + 1
        yield from client.commit(fh)

    cluster.run(run())
    assert proxy.commits_absorbed == 2
    traced = cluster.tracer.summary()["replies"]
    assert proxy.replies_returned == client.ops_sent == traced


def _checksum_cluster(switch):
    shape = dict(num_storage_nodes=2, num_dir_servers=1, num_sf_servers=1,
                 dir_logical_sites=8, sf_logical_sites=8)
    if switch == "net-params":
        shape["net"] = NetParams(verify_checksums=False)
    params = ClusterParams(**shape)
    if switch == "set-after-build":
        params.net.verify_checksums = False
    return SliceCluster(params=params)


@pytest.mark.parametrize("switch", ["default", "net-params",
                                    "set-after-build"])
def test_one_checksum_switch_covers_every_packet_source(switch, monkeypatch):
    """``NetParams.verify_checksums`` alone decides whether packets carry a
    checksum, for every server class and for µproxy-synthesized replies."""
    delivered = []  # (sender class, checksum, checksum_ok())
    deliver, loopback = Host.deliver, Host.loopback

    def record(sender, pkt):
        delivered.append(
            (re.sub(r"\d+$", "", sender), pkt.cksum, pkt.checksum_ok())
        )

    def recording_deliver(self, pkt):
        record(pkt.src.host, pkt)
        deliver(self, pkt)

    def recording_loopback(self, pkt, delay=0.0):
        record("uproxy", pkt)
        loopback(self, pkt, delay)

    monkeypatch.setattr(Host, "deliver", recording_deliver)
    monkeypatch.setattr(Host, "loopback", recording_loopback)
    cluster = _checksum_cluster(switch)
    client, proxy = cluster.add_client()

    def run():
        small = yield from client.create(cluster.root_fh, "small.txt")
        yield from client.write_file(small.fh, RealData(b"small"))
        fh, _ = yield from dd_write(client, cluster.root_fh, "dd.bin",
                                    256 << 10, seed=5)
        yield from dd_read(client, fh, 256 << 10, verify_seed=5)
        proxy._refresh_tables()  # one configuration-service exchange
        yield cluster.sim.timeout(1.0)

    cluster.run(run())
    assert cluster.configsvc.fetches + cluster.configsvc.not_modified > 0
    senders = {sender for sender, _c, _ok in delivered}
    assert {"store", "dir", "sf", "coord", "configsvc", "uproxy"} <= senders
    if switch == "default":
        assert all(cksum is not None and ok for _s, cksum, ok in delivered)
    else:
        assert [d for d in delivered if d[1] is not None] == []


def test_commit_is_absorbed_by_uproxy():
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        created = yield from client.create(cluster.root_fh, "c.bin")
        yield from client.write_file(created.fh, PatternData(200 << 10, seed=1))

    cluster.run(run())
    assert proxy.commits_absorbed >= 1
    assert proxy.synthesized >= 1


def test_storage_node_reboot_forces_redrive():
    """Unstable writes lost in a node crash are re-sent by the client when
    the (virtualized) write verifier changes; data ends up intact."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    size = 1 << 20
    payload = PatternData(size, seed=7)

    def run():
        created = yield from client.create(cluster.root_fh, "fragile.bin")
        fh = created.fh
        # Write without commit: everything unstable.
        yield from client.write_file(fh, payload, do_commit=False)
        # Crash one storage node: its share of the stripe evaporates.
        victim = cluster.storage_nodes[0]
        victim.crash()
        yield cluster.sim.timeout(0.05)
        victim.restart()
        # Now commit: the µproxy sees the changed node verifier, bumps its
        # epoch, and the client's verifier check triggers a redrive.
        yield from client.write_file(fh, payload)  # includes commit+redrive
        data = yield from client.read_file(fh, size)
        return data

    data = cluster.run(run())
    assert data == payload


@pytest.mark.parametrize("same_server", [False, True],
                         ids=["moved-away", "reloaded-here"])
def test_unstable_writes_survive_an_sf_site_unload(same_server):
    """Unload a small file's site between its unstable writes and the
    COMMIT: reload it on the same server, or move it to the other one.
    The commit answers a changed verifier (the client writes again) or
    finds the writes flushed: either way the read-back returns them."""
    cluster = small_cluster()
    client, _proxy = cluster.add_client()
    payload = PatternData(12000, seed=2)
    held = []
    commit = client.commit

    def commit_after_unload(fh, *args):
        if not held:
            site = sf_site_for(FHandle.unpack(fh).fileid,
                               cluster.params.sf_logical_sites)
            old = next(s for s in cluster.sf_servers if site in s.core.states)
            held.append(any(key[0] == site for key in old.pending))
            old.core.unload(site)
            if same_server:
                old.core.load(site)
            else:
                new = next(s for s in cluster.sf_servers if s is not old)
                new.core.load(site)
                cluster.configsvc.rebind("sf", site, new.address)
        return (yield from commit(fh, *args))

    client.commit = commit_after_unload

    def run():
        created = yield from client.create(cluster.root_fh, "moved.txt")
        yield from client.write_file(created.fh, payload)
        return (yield from client.read_file(created.fh, payload.length))

    assert cluster.run(run()) == payload
    assert held == [True]


def test_mirrored_file_survives_replica_failure():
    cluster = small_cluster(mirror_files=True)
    client, proxy = cluster.add_client()
    size = 1 << 20
    payload = PatternData(size, seed=13)

    def run():
        created = yield from client.create(cluster.root_fh, "mirrored.bin")
        fh_decoded = FHandle.unpack(created.fh)
        assert fh_decoded.mirrored
        yield from client.write_file(created.fh, payload)
        # Kill one storage node for good; reads must fail over to mirrors.
        cluster.storage_nodes[1].crash()
        data = yield from client.read_file(created.fh, size)
        return data

    data = cluster.run(run())
    assert data == payload


def test_mirrored_write_lands_on_two_nodes():
    cluster = small_cluster(mirror_files=True)
    client, proxy = cluster.add_client()

    def run():
        created = yield from client.create(cluster.root_fh, "m2.bin")
        # One block, just above the threshold so it goes to storage nodes.
        yield from client.write_file(
            created.fh, PatternData(32 << 10, seed=4), offset=64 << 10
        )
        return created.fh

    fh = cluster.run(run())
    from repro.storage.node import object_id_for_fh

    oid = object_id_for_fh(fh)
    holders = [n for n in cluster.storage_nodes if oid in n.store]
    assert len(holders) == 2


def test_readdir_spans_sites_under_name_hashing():
    cluster = small_cluster(name_mode=NAME_HASHING)
    client, proxy = cluster.add_client()

    def run():
        for i in range(40):
            res = yield from client.create(cluster.root_fh, f"entry{i:02d}")
            assert res.status == NFS3_OK
        status, entries = yield from client.readdir(cluster.root_fh)
        return status, [e.name for e in entries]

    status, names = cluster.run(run())
    assert status == 0
    got = sorted(n for n in names if n.startswith("entry"))
    assert got == [f"entry{i:02d}" for i in range(40)]
    assert names.count(".") == 1


def test_uproxy_state_loss_recovers_transparently():
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    size = 300 << 10
    payload = PatternData(size, seed=21)

    def run():
        created = yield from client.create(cluster.root_fh, "amnesia.bin")
        fh = created.fh
        yield from client.write_file(fh, payload)
        proxy.discard_state()  # the µproxy may do this at any time (§2.1)
        data = yield from client.read_file(fh, size)
        attrs = yield from client.getattr(fh)
        return data, attrs

    data, attrs = cluster.run(run())
    assert data == payload
    assert attrs.attr.size == size


def test_reconfiguration_with_stale_proxy_tables():
    """Move a logical directory site between servers; a client whose µproxy
    still has the old table must keep working (MISDIRECTED -> refresh ->
    client retransmission)."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def phase1():
        for i in range(20):
            res = yield from client.create(cluster.root_fh, f"pre{i}")
            assert res.status == NFS3_OK

    cluster.run(phase1())
    # Migrate every site hosted by dir server 0 to dir server 1.
    moved_any = False
    for site in sorted(cluster.dir_servers[0].core.states):
        moved = cluster.move_dir_site(site, to_server=1)
        moved_any = moved_any or moved > 0
    assert moved_any
    old_version = proxy.dir_table.version

    def phase2():
        for i in range(20):
            res = yield from client.lookup(cluster.root_fh, f"pre{i}")
            assert res.status == NFS3_OK, f"pre{i}"
        created = yield from client.create(cluster.root_fh, "post")
        assert created.status == NFS3_OK

    cluster.run(phase2())
    assert proxy.misdirects_seen > 0
    assert proxy.dir_table.version > old_version
    assert cluster.configsvc.fetches > 0


def test_remove_reclaims_data_everywhere():
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    size = 512 << 10

    def run():
        created = yield from client.create(cluster.root_fh, "reap.bin")
        fh = created.fh
        yield from client.write_file(fh, PatternData(size, seed=6))
        res = yield from client.remove(cluster.root_fh, "reap.bin")
        assert res.status == NFS3_OK
        # Give the coordinator's reclaim fan-out time to land.
        yield cluster.sim.timeout(2.0)
        return fh

    fh = cluster.run(run())
    from repro.storage.node import object_id_for_fh

    oid = object_id_for_fh(fh)
    assert all(oid not in node.store for node in cluster.storage_nodes)
    assert all(
        not any(z.maps for z in s.core.states.values()) or True
        for s in cluster.sf_servers
    )
    total_sf_maps = sum(
        1 for s in cluster.sf_servers for z in s.core.states.values()
        for fid in z.maps if fid == FHandle.unpack(fh).fileid
    )
    assert total_sf_maps == 0


def test_truncate_propagates_to_data_servers():
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        created = yield from client.create(cluster.root_fh, "trunc.bin")
        fh = created.fh
        yield from client.write_file(fh, PatternData(200 << 10, seed=8))
        res = yield from client.setattr(fh, Sattr3(size=10 << 10))
        assert res.status == NFS3_OK
        yield cluster.sim.timeout(2.0)  # reclaim fan-out
        data = yield from client.read_file(fh, 200 << 10)
        attrs = yield from client.getattr(fh)
        return data, attrs

    data, attrs = cluster.run(run())
    assert attrs.attr.size == 10 << 10
    assert data.length == 10 << 10
    assert data == PatternData(200 << 10, seed=8).slice(0, 10 << 10)


def test_rename_and_nested_dirs_through_proxy():
    cluster = small_cluster(mkdir_p=1.0)  # force orphan mkdirs
    client, proxy = cluster.add_client()

    def run():
        d1 = yield from client.mkdir(cluster.root_fh, "alpha")
        assert d1.status == NFS3_OK
        d2 = yield from client.mkdir(cluster.root_fh, "beta")
        assert d2.status == NFS3_OK
        f = yield from client.create(d1.fh, "payload")
        assert f.status == NFS3_OK
        res = yield from client.rename(d1.fh, "payload", d2.fh, "moved")
        assert res.status == NFS3_OK
        found = yield from client.lookup(d2.fh, "moved")
        gone = yield from client.lookup(d1.fh, "payload")
        return found, gone

    found, gone = cluster.run(run())
    assert found.status == NFS3_OK
    from repro.nfs.errors import NFS3ERR_NOENT

    assert gone.status == NFS3ERR_NOENT


def test_two_clients_are_isolated_proxies():
    cluster = small_cluster()
    c1, p1 = cluster.add_client("c1")
    c2, p2 = cluster.add_client("c2", port=701)

    def run():
        a = yield from c1.create(cluster.root_fh, "from-c1")
        b = yield from c2.create(cluster.root_fh, "from-c2")
        assert a.status == NFS3_OK and b.status == NFS3_OK
        x = yield from c1.lookup(cluster.root_fh, "from-c2")
        y = yield from c2.lookup(cluster.root_fh, "from-c1")
        return x, y

    x, y = cluster.run(run())
    assert x.status == NFS3_OK
    assert y.status == NFS3_OK
    assert p1.requests_routed > 0 and p2.requests_routed > 0
