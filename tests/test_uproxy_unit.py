"""Focused µproxy unit tests: segmentation, verifier virtualization,
readdir chaining, split I/O, synthesized error replies, and the route
every procedure takes."""

import pytest

from repro.core.placement import IoPolicy
from repro.dirsvc.config import NAME_HASHING
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.nfs import proto
from repro.nfs.errors import NFS3ERR_INVAL, NFS3ERR_IO, NFS3ERR_ISDIR, NFS3_OK
from repro.nfs.fhandle import FHandle
from repro.nfs.types import FILE_SYNC, UNSTABLE, Sattr3
from repro.obs import Tracer
from repro.smallfile.server import sf_site_for
from repro.util.bytesim import PatternData, RealData


def small_cluster(tracer=None, **overrides):
    defaults = dict(
        num_storage_nodes=4, num_dir_servers=2, num_sf_servers=2,
        dir_logical_sites=8, sf_logical_sites=8,
    )
    defaults.update(overrides)
    return SliceCluster(params=ClusterParams(**defaults), tracer=tracer)


# -- _io_segments ------------------------------------------------------------


def segments_of(proxy, offset, count):
    return proxy._io_segments(offset, count)


def test_segments_single_below_threshold():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    assert segments_of(proxy, 0, 32 << 10) == [(0, 32 << 10)]
    assert segments_of(proxy, 32 << 10, 32 << 10) == [(32 << 10, 32 << 10)]


def test_segments_single_above_threshold():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    assert segments_of(proxy, 64 << 10, 32 << 10) == [(64 << 10, 32 << 10)]
    assert segments_of(proxy, 96 << 10, 32 << 10) == [(96 << 10, 32 << 10)]


def test_segments_straddle_threshold():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    t = 64 << 10
    segs = segments_of(proxy, t - 1000, 2000)
    assert segs == [(t - 1000, 1000), (t, 1000)]


def test_segments_straddle_stripe_units():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    unit = 32 << 10
    start = (64 << 10) + unit - 100
    segs = segments_of(proxy, start, unit + 200)
    assert segs[0] == (start, 100)
    assert segs[1] == ((64 << 10) + unit, unit)
    assert segs[2][1] == 100
    assert sum(length for _o, length in segs) == unit + 200


def test_segments_cover_range_exactly():
    cluster = small_cluster()
    _c, proxy = cluster.add_client()
    for offset, count in [(0, 300 << 10), (1234, 98765), (63 << 10, 5 << 10)]:
        segs = segments_of(proxy, offset, count)
        assert segs[0][0] == offset
        assert sum(length for _o, length in segs) == count
        pos = offset
        for seg_off, seg_len in segs:
            assert seg_off == pos
            pos += seg_len


# -- error synthesis ------------------------------------------------------------


def test_read_write_on_directory_rejected_without_server_hop():
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        made = yield from client.mkdir(cluster.root_fh, "d")
        routed_before = proxy.requests_routed
        res, _ = yield from client.read(made.fh, 0, 100)
        wres = yield from client.write(made.fh, 0, RealData(b"x"))
        return res.status, wres.status, proxy.requests_routed - routed_before

    rstatus, wstatus, routed = cluster.run(run())
    assert rstatus == NFS3ERR_ISDIR
    assert wstatus == NFS3ERR_ISDIR
    assert routed == 0  # answered locally by the µproxy


def test_io_on_symlink_rejected():
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        made = yield from client.symlink(cluster.root_fh, "ln", "/t")
        res, _ = yield from client.read(made.fh, 0, 10)
        return res.status

    assert cluster.run(run()) == NFS3ERR_INVAL


# -- verifier virtualization ---------------------------------------------------


def test_all_writes_carry_one_virtual_verifier():
    """Stripes land on different nodes with different native verifiers; the
    client must see a single virtualized one."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        created = yield from client.create(cluster.root_fh, "f")
        verfs = set()
        for i in range(8):
            res = yield from client.write(
                created.fh, (64 << 10) + i * (32 << 10),
                PatternData(32 << 10, seed=i), UNSTABLE,
            )
            verfs.add(res.verf)
        return verfs

    verfs = cluster.run(run())
    assert len(verfs) == 1
    assert verfs.pop() == proxy.verf_epoch


def test_discard_state_bumps_epoch():
    cluster = small_cluster()
    _client, proxy = cluster.add_client()
    before = proxy.verf_epoch
    proxy.discard_state()
    assert proxy.verf_epoch != before


def test_node_reboot_bumps_epoch_on_next_reply():
    cluster = small_cluster()
    client, proxy = cluster.add_client()

    def run():
        created = yield from client.create(cluster.root_fh, "f")
        yield from client.write(
            created.fh, 64 << 10, PatternData(32 << 10, seed=1), UNSTABLE
        )
        epoch_before = proxy.verf_epoch
        for node in cluster.storage_nodes:
            node.crash()
            node.restart()
        # Any subsequent write reply reveals a changed node verifier.
        yield from client.write(
            created.fh, 64 << 10, PatternData(32 << 10, seed=2), UNSTABLE
        )
        return epoch_before

    epoch_before = cluster.run(run())
    assert proxy.verf_epoch != epoch_before


# -- readdir chaining -----------------------------------------------------------


def test_readdir_chains_through_empty_sites():
    """Name hashing with far more logical sites than entries: most sites
    hold nothing for the directory, and the µproxy must chain through the
    empty ones without confusing the client."""
    cluster = small_cluster(name_mode=NAME_HASHING, dir_logical_sites=8)
    client, proxy = cluster.add_client()

    def run():
        for i in range(3):
            res = yield from client.create(cluster.root_fh, f"only{i}")
            assert res.status == NFS3_OK
        status, entries = yield from client.readdir(cluster.root_fh)
        return status, sorted(
            e.name for e in entries if e.name.startswith("only")
        )

    status, names = cluster.run(run())
    assert status == 0
    assert names == ["only0", "only1", "only2"]


def test_readdir_empty_directory_name_hashing():
    cluster = small_cluster(name_mode=NAME_HASHING)
    client, proxy = cluster.add_client()

    def run():
        made = yield from client.mkdir(cluster.root_fh, "empty")
        status, entries = yield from client.readdir(made.fh)
        return status, [e.name for e in entries]

    status, names = cluster.run(run())
    assert status == 0
    assert sorted(names) == [".", ".."]


# -- split I/O end-to-end ---------------------------------------------------------


def test_unaligned_write_read_consistency():
    """A write straddling both the threshold and stripe boundaries reads
    back identically regardless of read alignment."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    offset = (64 << 10) - 5000
    payload = PatternData(80_000, seed=9)

    def run():
        created = yield from client.create(cluster.root_fh, "span")
        res = yield from client.write(created.fh, offset, payload)
        assert res.status == NFS3_OK
        assert res.count == payload.length
        whole = yield from client.read_file(
            created.fh, offset + payload.length
        )
        res2, tail = yield from client.read(
            created.fh, offset + 1234, 50_000
        )
        return whole, tail

    whole, tail = cluster.run(run())
    assert whole.slice(offset, offset + payload.length) == payload
    assert tail == payload.slice(1234, 1234 + 50_000)


def test_readdirplus_through_proxy():
    cluster = small_cluster(name_mode=NAME_HASHING)
    client, _proxy = cluster.add_client()

    def run():
        for i in range(10):
            res = yield from client.create(cluster.root_fh, f"pf{i}")
            assert res.status == NFS3_OK
        status, entries = yield from client.readdir(cluster.root_fh, plus=True)
        return status, entries

    status, entries = cluster.run(run())
    assert status == 0
    named = {e.name: e for e in entries if e.name.startswith("pf")}
    assert len(named) == 10
    # READDIRPLUS returns handles for each entry.
    assert all(e.fh is not None for e in named.values())


# -- split I/O: one status rule for every segment -----------------------------


def test_split_read_with_a_dead_segment_answers_an_error():
    """A READ straddling a stripe boundary whose second segment's node is
    down answers NFS3ERR_IO, not OK with the missing bytes zeroed; once
    the node is back the same read returns the data.  The client's
    retransmissions while the first scatter waits on the dead segment are
    dropped, not scattered again."""
    cluster = small_cluster(tracer=Tracer())
    splits = cluster.tracer.counts
    client, proxy = cluster.add_client()
    unit = cluster.params.io.stripe_unit
    base = 64 << 10
    payload = PatternData(4 * unit, seed=3)

    def run():
        created = yield from client.create(cluster.root_fh, "f")
        res = yield from client.write(created.fh, base, payload, FILE_SYNC)
        assert res.status == NFS3_OK
        (dead,) = proxy._segment_targets(FHandle.unpack(created.fh),
                                         base + unit)
        node = cluster.storage_node_at(dead)
        node.crash()
        failed, _ = yield from client.read(created.fh, base + unit - 1000,
                                           2000)
        assert splits["uproxy.split.read"] == 1
        node.restart()
        res, data = yield from client.read(created.fh, base + unit - 1000,
                                           2000)
        return failed, res, data

    failed, res, data = cluster.run(run())
    assert splits["uproxy.split.read"] == 2
    assert not proxy._splitting
    assert (failed.status, failed.count) == (NFS3ERR_IO, 0)
    assert (res.status, res.count) == (NFS3_OK, 2000)
    assert data == payload.slice(unit - 1000, unit + 1000)


def test_split_write_to_a_moved_site_is_retried_on_fresh_tables():
    """A split WRITE whose small-file segment reaches a server that no
    longer hosts its site is not answered with the private MISDIRECTED
    code: the µproxy refreshes its tables and the client's retransmission
    splits again."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    threshold = cluster.params.io.threshold
    payload = PatternData(2000, seed=5)

    def run():
        plan = cluster.add_sf_server()
        moved = {move.site for move in plan.moves_for("sf")}
        for i in range(100):
            created = yield from client.create(cluster.root_fh, f"f{i}")
            fileid = FHandle.unpack(created.fh).fileid
            if sf_site_for(fileid, cluster.sf_table.num_sites) in moved:
                break
        res = yield from client.write(created.fh, threshold - 1000, payload,
                                      FILE_SYNC)
        _r, data = yield from client.read(created.fh, threshold - 1000, 2000)
        return res, data

    res, data = cluster.run(run())
    assert (res.status, res.count) == (NFS3_OK, 2000)
    assert proxy.misdirects_seen >= 1
    assert data == payload


def test_split_read_of_a_mirrored_file_alternates_replicas():
    cluster = small_cluster(mirror_files=True)
    client, proxy = cluster.add_client()
    unit = cluster.params.io.stripe_unit
    base = 64 << 10
    payload = PatternData(4 * unit, seed=4)

    def run():
        created = yield from client.create(cluster.root_fh, "m")
        fh = FHandle.unpack(created.fh)
        assert fh.mirrored
        res = yield from client.write(created.fh, base, payload, FILE_SYNC)
        assert res.status == NFS3_OK
        reads = []
        for _ in range(2):
            res, data = yield from client.read(created.fh, base + unit - 1000,
                                               2000)
            reads.append((res.status, data))
        return fh, reads

    fh, reads = cluster.run(run())
    expected = payload.slice(unit - 1000, unit + 1000)
    assert reads == [(NFS3_OK, expected)] * 2
    # Two segments per read, each sent to one replica in turn.
    assert proxy._mirror_toggle[fh.fileid] == 4


def test_readdirplus_chains_through_empty_sites():
    cluster = small_cluster(name_mode=NAME_HASHING, dir_logical_sites=8)
    client, proxy = cluster.add_client()
    chased = []
    chain = proxy._readdir_chain

    def counted(client_addr, xid, rec, site):
        chased.append(site)
        return chain(client_addr, xid, rec, site)

    proxy._readdir_chain = counted

    def run():
        made = yield from client.mkdir(cluster.root_fh, "d")
        for i in range(2):
            res = yield from client.create(made.fh, f"e{i}")
            assert res.status == NFS3_OK
        return (yield from client.readdir(made.fh, plus=True))

    status, entries = cluster.run(run())
    assert status == NFS3_OK
    assert chased
    named = {e.name: e for e in entries}
    assert sorted(named) == [".", "..", "e0", "e1"]
    assert named["e0"].fh is not None and named["e1"].fh is not None


# -- synthesized replies ----------------------------------------------------------


def test_synthesized_getattr_reply_arrives_when_it_did():
    """A GETATTR of a file with writes in flight is answered by the µproxy
    through ``Host.loopback``; the reply reaches the client at the same
    simulated time as when the loopback ran as a waited-for process."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    sim = cluster.sim
    seen = {}

    def run():
        f = (yield from client.create(cluster.root_fh, "f")).fh
        yield from client.write(f, 0, PatternData(1000, seed=1))
        seen["sent"], before = sim.now, proxy.synthesized
        res = yield from client.getattr(f)
        assert res.status == NFS3_OK
        seen["replied"] = sim.now
        assert proxy.synthesized == before + 1

    cluster.run(run())
    assert (repr(seen["sent"]), repr(seen["replied"])) == (
        "0.008889090424242421", "0.00894409042424242")


class _CutFirstGetattrReply:
    """Ingress filter ahead of the µproxy: cuts the first reply to a
    pending GETATTR to 48 header bytes (its status and 20 bytes of its
    fattr3)."""

    def __init__(self, proxy):
        self.proxy = proxy
        self.cut_from = []

    def inbound(self, pkt):
        xid = int.from_bytes(pkt.header[:4], "big")
        rec = self.proxy.pending.get((pkt.dst.port, xid))
        if not self.cut_from and rec is not None \
                and rec.proc == proto.PROC_GETATTR:
            self.cut_from.append(len(pkt.header))
            pkt.header = pkt.header[:48]
        return (pkt,)


def test_undecodable_reply_is_dropped_and_the_retransmission_recovers():
    """The µproxy holding the pending record drops and counts a reply it
    cannot decode, and the client's retransmission gets the whole reply."""
    cluster = small_cluster()
    client, proxy = cluster.add_client()
    cutter = _CutFirstGetattrReply(proxy)
    client.host.ingress_filters.insert(0, cutter)

    def run():
        res = yield from client.getattr(cluster.root_fh)
        return res.status

    assert cluster.run(run()) == NFS3_OK
    assert cutter.cut_from == [112]
    assert proxy.counters()["replies_dropped"] == 1
    assert cluster.sim.crashed_processes == []


# -- every procedure's route ----------------------------------------------------

#: (procedure, the µproxy tracer counts its request adds, by one each)
ROUTES = [
    (proto.PROC_NULL, "uproxy.route.null"),
    (proto.PROC_MKDIR, "uproxy.route.mkdir-switch"),
    (proto.PROC_CREATE, "uproxy.route.name-entry"),
    (proto.PROC_WRITE, "uproxy.route.small-file"),
    (proto.PROC_WRITE, "uproxy.route.bulk-write"),
    (proto.PROC_GETATTR, "uproxy.absorb.getattr-cache"),
    (proto.PROC_COMMIT, "uproxy.absorb.commit", "uproxy.route.commit-fanout"),
    (proto.PROC_GETATTR, "uproxy.route.attr-site"),
    (proto.PROC_READ, "uproxy.route.small-file"),
    (proto.PROC_READ, "uproxy.route.bulk-read"),
    (proto.PROC_SETATTR, "uproxy.route.attr-site"),
    (proto.PROC_ACCESS, "uproxy.route.attr-site"),
    (proto.PROC_LOOKUP, "uproxy.route.name-entry"),
    (proto.PROC_SYMLINK, "uproxy.route.name-entry"),
    (proto.PROC_READLINK, "uproxy.route.attr-site"),
    (proto.PROC_MKNOD, "uproxy.route.name-entry"),
    (proto.PROC_LINK, "uproxy.route.name-entry"),
    (proto.PROC_RENAME, "uproxy.route.rename-target"),
    (proto.PROC_READDIR, "uproxy.route.readdir-cookie"),
    (proto.PROC_READDIRPLUS, "uproxy.route.readdir-cookie"),
    (proto.PROC_REMOVE, "uproxy.route.name-entry"),
    (proto.PROC_RMDIR, "uproxy.route.name-entry"),
    (proto.PROC_FSSTAT, "uproxy.route.attr-site"),
    (proto.PROC_FSINFO, "uproxy.route.attr-site"),
    (proto.PROC_PATHCONF, "uproxy.route.attr-site"),
]


def test_every_procedure_takes_its_route():
    cluster = small_cluster(tracer=Tracer())
    client, _proxy = cluster.add_client()
    counts = cluster.tracer.counts
    root = cluster.root_fh
    bulk = 64 << 10
    added = []

    def step(call):
        """Run one client call; note the µproxy counts it added."""
        before = dict(counts)
        result = yield from call
        added.append({
            k: v - before.get(k, 0) for k, v in counts.items()
            if k.startswith("uproxy.") and v != before.get(k, 0)
        })
        return result

    def run():
        """One call per ROUTES row, in order."""
        yield from step(client.null())
        d = (yield from step(client.mkdir(root, "d"))).fh
        f = (yield from step(client.create(d, "f"))).fh
        yield from step(client.write(f, 0, PatternData(1000, seed=1)))
        yield from step(client.write(f, bulk, PatternData(1000, seed=2)))
        yield from step(client.getattr(f))
        yield from step(client.commit(f))
        yield from step(client.getattr(f))
        yield from step(client.read(f, 0, 1000))
        yield from step(client.read(f, bulk, 1000))
        yield from step(client.setattr(f, Sattr3(mode=0o600)))
        yield from step(client.access(f))
        yield from step(client.lookup(d, "f"))
        s = (yield from step(client.symlink(d, "s", "f"))).fh
        yield from step(client.readlink(s))
        yield from step(client._call(proto.PROC_MKNOD,
                                     proto.DirOpArgs(d, "n").encode()))
        yield from step(client.link(f, d, "g"))
        yield from step(client.rename(d, "g", d, "h"))
        yield from step(client.readdir_page(d))
        yield from step(client.readdirplus_page(d))
        yield from step(client.remove(d, "h"))
        yield from step(client.rmdir(root, "d"))
        for proc in (proto.PROC_FSSTAT, proto.PROC_FSINFO,
                     proto.PROC_PATHCONF):
            yield from step(client._call(proc, proto.FhArgs(root).encode()))

    cluster.run(run())
    assert added == [dict.fromkeys(keys, 1) for _proc, *keys in ROUTES]
    assert {proc for proc, *_keys in ROUTES} == {p.num for p in proto.PROCS}
