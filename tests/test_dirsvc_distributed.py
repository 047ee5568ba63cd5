"""Distributed directory-service tests: name hashing across servers, orphan
mkdir two-phase commit, misdirection, crash recovery, failover, migration,
and cross-server mutations that no lost message or crossed race strands."""

import pytest

from repro.dirsvc import NAME_HASHING, DirServerParams, NameConfig
from repro.dirsvc import peerproto as pp
from repro.nfs import proto
from repro.nfs.errors import (
    NFS3ERR_EXIST,
    NFS3ERR_JUKEBOX,
    NFS3ERR_NOENT,
    NFS3ERR_NOTEMPTY,
    NFS3_OK,
    SLICEERR_MISDIRECTED,
)
from repro.nfs.fhandle import FHandle
from repro.nfs.types import Sattr3
from repro.rpc.messages import CallHeader
from repro.rpc.xdr import Decoder

from dir_harness import DirHarness
from drops import DropWhen


def test_name_hashing_distributes_entries():
    h = DirHarness(num_servers=4, mode=NAME_HASHING, num_sites=16)

    def run():
        for i in range(200):
            yield from h.create(h.root_fh, f"file-{i}")

    h.run(run())
    per_server = [
        sum(s.count_entries(h.root_fh.fileid) for s in srv.sites.values())
        for srv in h.servers
    ]
    assert sum(per_server) == 200
    # Probabilistically balanced: every server holds a decent share.
    assert min(per_server) > 20


def test_name_hashing_lookup_across_servers():
    h = DirHarness(num_servers=4, mode=NAME_HASHING, num_sites=16)

    def run():
        created = {}
        for i in range(40):
            res = yield from h.create(h.root_fh, f"f{i}")
            assert res.status == NFS3_OK
            created[f"f{i}"] = res.fh
        for name, fh in created.items():
            res = yield from h.lookup(h.root_fh, name)
            assert res.status == NFS3_OK, name
            assert res.fh == fh, name

    h.run(run())


def test_name_hashing_readdir_spans_sites():
    h = DirHarness(num_servers=4, mode=NAME_HASHING, num_sites=16)

    def run():
        for i in range(50):
            yield from h.create(h.root_fh, f"x{i}")
        status, names = yield from h.readdir_all(h.root_fh)
        return status, names

    status, names = h.run(run())
    assert status == 0
    got = sorted(n for n in names if n.startswith("x"))
    assert got == sorted(f"x{i}" for i in range(50))
    assert names.count(".") == 1  # dot entries only from the home site


def test_orphan_mkdir_two_phase_commit():
    """With p=1 every mkdir is redirected: the new directory's home is the
    hash site while its name entry lives at the parent's home site."""
    h = DirHarness(num_servers=4, num_sites=16, mkdir_p=1.0)

    def run():
        results = []
        for i in range(12):
            res = yield from h.mkdir(h.root_fh, f"dir{i}")
            assert res.status == NFS3_OK
            results.append(FHandle.unpack(res.fh))
        # All lookups succeed even though attr cells are scattered.
        for i in range(12):
            res = yield from h.lookup(h.root_fh, f"dir{i}")
            assert res.status == NFS3_OK
            assert res.attr.nlink == 2
        root = yield from h.getattr(h.root_fh)
        return results, root

    fhs, root = h.run(run())
    homes = {fh.home_site for fh in fhs}
    assert len(homes) > 1  # genuinely distributed
    assert root.attr.nlink == 2 + 12
    # Cross-site operations actually happened.
    assert sum(s.cross_site_ops for s in h.servers) > 0


def test_orphan_mkdir_duplicate_name_rejected_remotely():
    h = DirHarness(num_servers=4, num_sites=16, mkdir_p=1.0)

    def run():
        first = yield from h.mkdir(h.root_fh, "dup")
        second = yield from h.mkdir(h.root_fh, "dup")
        return first, second

    first, second = h.run(run())
    assert first.status == NFS3_OK
    assert second.status == NFS3ERR_EXIST


def test_nested_tree_under_switching():
    h = DirHarness(num_servers=3, num_sites=12, mkdir_p=0.5)

    def run():
        parent = h.root_fh
        chain = []
        for depth in range(6):
            res = yield from h.mkdir(parent, f"level{depth}")
            assert res.status == NFS3_OK
            parent = FHandle.unpack(res.fh)
            chain.append(parent)
            f = yield from h.create(parent, f"file{depth}")
            assert f.status == NFS3_OK
        # Walk the chain down again by lookup.
        cursor = h.root_fh
        for depth in range(6):
            res = yield from h.lookup(cursor, f"level{depth}")
            assert res.status == NFS3_OK
            cursor = FHandle.unpack(res.fh)
            leaf = yield from h.lookup(cursor, f"file{depth}")
            assert leaf.status == NFS3_OK

    h.run(run())


def test_cross_site_link_and_remove_keep_nlink_consistent():
    h = DirHarness(num_servers=4, mode=NAME_HASHING, num_sites=16)

    def run():
        created = yield from h.create(h.root_fh, "shared-target")
        fh = FHandle.unpack(created.fh)
        for i in range(3):
            res = yield from h.link(fh, h.root_fh, f"alias{i}")
            assert res.status == NFS3_OK
        after_links = yield from h.getattr(fh)
        assert after_links.attr.nlink == 4
        yield from h.remove(h.root_fh, "alias0")
        yield from h.remove(h.root_fh, "shared-target")
        rest = yield from h.getattr(fh)
        assert rest.attr.nlink == 2
        yield from h.remove(h.root_fh, "alias1")
        yield from h.remove(h.root_fh, "alias2")
        gone = yield from h.getattr(fh)
        return gone

    from repro.nfs.errors import NFS3ERR_STALE

    assert h.run(run()).status == NFS3ERR_STALE


def test_cross_site_rename():
    h = DirHarness(num_servers=4, mode=NAME_HASHING, num_sites=16)

    def run():
        d1 = yield from h.mkdir(h.root_fh, "from-dir")
        d2 = yield from h.mkdir(h.root_fh, "to-dir")
        d1fh, d2fh = FHandle.unpack(d1.fh), FHandle.unpack(d2.fh)
        created = yield from h.create(d1fh, "payload")
        res = yield from h.rename(d1fh, "payload", d2fh, "moved-payload")
        assert res.status == NFS3_OK
        old = yield from h.lookup(d1fh, "payload")
        new = yield from h.lookup(d2fh, "moved-payload")
        return created, old, new

    created, old, new = h.run(run())
    assert old.status == NFS3ERR_NOENT
    assert new.status == NFS3_OK
    assert new.attr.fileid == FHandle.unpack(created.fh).fileid


def test_rmdir_emptiness_checked_across_sites():
    h = DirHarness(num_servers=4, mode=NAME_HASHING, num_sites=16)

    def run():
        made = yield from h.mkdir(h.root_fh, "busy")
        dir_fh = FHandle.unpack(made.fh)
        yield from h.create(dir_fh, "entry-elsewhere")
        res = yield from h.rmdir(h.root_fh, "busy")
        assert res.status == NFS3ERR_NOTEMPTY
        yield from h.remove(dir_fh, "entry-elsewhere")
        res = yield from h.rmdir(h.root_fh, "busy")
        return res

    assert h.run(run()).status == NFS3_OK


def test_misdirected_request_reports_error():
    h = DirHarness(num_servers=2, num_sites=8)

    def run():
        # Send a lookup for an entry owned by server 0's site to server 1.
        site = h.config.entry_site(h.root_fh, "anything")
        wrong_server = h.servers[1] if h.site_map[site] == 0 else h.servers[0]
        dec, _ = yield from h.client.call(
            wrong_server.address, proto.NFS_PROGRAM, proto.NFS_V3,
            proto.PROC_LOOKUP,
            proto.DirOpArgs(h.root_fh.pack(), "anything").encode(),
        )
        return proto.LookupRes.decode(dec)

    assert h.run(run()).status == SLICEERR_MISDIRECTED
    assert sum(s.misdirected for s in h.servers) == 1


def test_crash_recovery_preserves_synced_state():
    h = DirHarness(num_servers=1, num_sites=4)
    server = h.servers[0]

    def phase1():
        for i in range(10):
            res = yield from h.create(h.root_fh, f"f{i}")
            assert res.status == NFS3_OK

    h.run(phase1())
    server.core.crash()
    server.core.restart(site_ids=[0, 1, 2, 3])

    def phase2():
        for i in range(10):
            res = yield from h.lookup(h.root_fh, f"f{i}")
            assert res.status == NFS3_OK

    h.run(phase2())


def test_failover_to_surviving_server():
    """Server 1 dies; server 0 assumes its logical sites from shared
    backing storage and serves its files."""
    h = DirHarness(num_servers=2, num_sites=8)

    def phase1():
        handles = {}
        for i in range(30):
            res = yield from h.create(h.root_fh, f"f{i}")
            assert res.status == NFS3_OK
            handles[f"f{i}"] = res.fh
        return handles

    handles = h.run(phase1())
    dead = h.servers[1]
    dead_sites = sorted(dead.core.states)
    dead.core.crash()
    # Failover: rebind the dead server's sites to server 0.
    for site in dead_sites:
        h.site_map[site] = 0
        h.servers[0].core.load(site)

    def phase2():
        for name, fh in handles.items():
            res = yield from h.lookup(h.root_fh, name)
            assert res.status == NFS3_OK, name
            assert res.fh == fh

    h.run(phase2())


def test_migration_moves_single_site():
    """Reconfiguration moves one logical site; only its cells move."""
    # p=1 scatters directory attribute cells over the hash sites.
    h = DirHarness(num_servers=2, num_sites=8, mkdir_p=1.0)

    def phase1():
        for i in range(100):
            yield from h.mkdir(h.root_fh, f"m{i}")

    h.run(phase1())
    total_cells = sum(
        s.cell_count() for srv in h.servers for s in srv.sites.values()
    )
    # Pick a populated site on server 0 other than the root's site 0.
    victim_site = max(
        (s for s in sorted(h.servers[0].core.states) if s != 0),
        key=lambda s: h.servers[0].sites[s].cell_count(),
    )
    moved = h.servers[0].core.unload(victim_site).cell_count()
    h.site_map[victim_site] = 1
    h.servers[1].core.load(victim_site)
    assert 0 < moved < total_cells / 2  # roughly 1/Nth of the data

    def phase2():
        for i in range(100):
            res = yield from h.lookup(h.root_fh, f"m{i}")
            assert res.status == NFS3_OK, f"m{i}"
            attrs = yield from h.getattr(
                FHandle.unpack(res.fh)
            )
            assert attrs.status == NFS3_OK

    h.run(phase2())


def test_in_doubt_transaction_resolved_after_participant_crash():
    """Participant crashes after PREPARE is stable but before COMMIT
    arrives; on restart it must learn the outcome from the coordinator."""
    h = DirHarness(num_servers=2, num_sites=8, mkdir_p=1.0)

    # Find a mkdir whose home (serving site) is on server 1 but whose name
    # entry (root's home = site 0) is on server 0: server 0 is participant.
    name = None
    for i in range(200):
        candidate = f"orphan-{i}"
        site = h.config.mkdir_site(h.root_fh, candidate)
        if h.site_map[site] == 1:
            name = candidate
            break
    assert name is not None

    from repro.dirsvc import peerproto as pp
    from repro.rpc.messages import CallHeader
    from repro.rpc.xdr import Decoder

    def drop_peer_commit(pkt):
        try:
            call = CallHeader.decode(Decoder(pkt.header))
        except Exception:
            return False
        return (
            call.prog == pp.SLICE_PEER_PROGRAM and call.proc == pp.PEER_COMMIT
        )

    h.net.fault_injector = DropWhen(drop_peer_commit)

    def phase1():
        res = yield from h.mkdir(h.root_fh, name)
        return res

    res = h.run(phase1())
    assert res.status == NFS3_OK  # coordinator decided commit
    h.net.fault_injector = None

    def lookup_now():
        res = yield from h.lookup(h.root_fh, name)
        return res

    # The participant (server 0) never applied the entry.
    assert h.run(lookup_now()).status == NFS3ERR_NOENT

    # Crash and restart the participant: recovery resolves the in-doubt tx
    # with the coordinator and applies the prepared ops.
    sites0 = sorted(h.servers[0].core.states)
    h.servers[0].core.crash()
    h.servers[0].core.restart(site_ids=sites0)

    def settle_and_lookup():
        yield h.sim.timeout(5.0)
        res = yield from h.lookup(h.root_fh, name)
        return res

    final = h.run(settle_and_lookup())
    assert final.status == NFS3_OK


def test_move_dir_site_stale_proxies_refetch_exactly_once():
    """Migration convergence economics: after ``SliceCluster.move_dir_site``
    each stale µproxy discovers the move via one MISDIRECTED reply and pays
    the config service exactly one table fetch — not one per request."""
    from repro.ensemble.cluster import SliceCluster
    from repro.ensemble.params import ClusterParams

    cluster = SliceCluster(params=ClusterParams(
        num_storage_nodes=2, num_dir_servers=2, num_sf_servers=1,
        dir_logical_sites=8, sf_logical_sites=2,
    ))
    clients = [cluster.add_client() for _ in range(2)]
    root = FHandle.unpack(cluster.root_fh)
    # Name entries co-locate with their parent (the root, site 0), so
    # instead find a directory name that mkdir-switching places on a
    # server-0 (even) site other than the root's: operations on its
    # *children* then route to that site.
    name = next(
        n for n in (f"probe-{i}" for i in range(200))
        if cluster.name_config.mkdir_site(root, n) % 2 == 0
        and cluster.name_config.mkdir_site(root, n) != 0
    )
    site = cluster.name_config.mkdir_site(root, name)
    dir_fh = []

    def warm():
        res = yield from clients[0][0].mkdir(cluster.root_fh, name)
        assert res.status == NFS3_OK
        dir_fh.append(res.fh)
        res = yield from clients[1][0].lookup(cluster.root_fh, name)
        assert res.status == NFS3_OK

    cluster.run(warm())
    cluster.move_dir_site(site, to_server=1)
    fetches_before = cluster.configsvc.fetches

    def create_child(ci):
        # CREATE routes to entry_site(dir, child) == the migrated site
        # and is never synthesized from proxy soft state.
        res = yield from clients[ci][0].create(dir_fh[0], f"child-{ci}")
        assert res.status == NFS3_OK

    for ci in (0, 1):
        cluster.run(create_child(ci))
        proxy = clients[ci][1]
        assert proxy.misdirects_seen >= 1
        # Exactly one fetch per stale proxy, however many requests hit it.
        assert cluster.configsvc.fetches - fetches_before == ci + 1

    # Converged: further traffic through either proxy costs no new fetch.
    def relook(ci):
        res = yield from clients[ci][0].lookup(dir_fh[0], f"child-{ci}")
        assert res.status == NFS3_OK

    for ci in (0, 1):
        cluster.run(relook(ci))
    assert cluster.configsvc.fetches - fetches_before == 2
    assert all(
        clients[ci][1].dir_table.lookup(site)
        == cluster.dir_servers[1].address
        for ci in (0, 1)
    )


# -- one mutation path: no lost message strands a transaction ---------------


def _peer_call(pkt):
    """``(xid, proc)`` of a dir-peer call packet, else None."""
    try:
        call = CallHeader.decode(Decoder(pkt.header))
    except Exception:
        return None
    if call.prog != pp.SLICE_PEER_PROGRAM:
        return None
    return call.xid, call.proc


class _Replies:
    """DropWhen predicate: the replies to the ``proc`` calls that
    ``client`` sends."""
    def __init__(self, client, proc):
        self.address = client.address
        self.proc = proc
        self.xids = set()

    def __call__(self, pkt):
        call = _peer_call(pkt)
        if call is not None:
            if pkt.src == self.address and call[1] == self.proc:
                self.xids.add(call[0])
            return False
        return (pkt.dst == self.address
                and int.from_bytes(pkt.header[:4], "big") in self.xids)


def _calls_to(proc):
    """DropWhen predicate: every dir-peer call of procedure ``proc``."""
    return lambda pkt: (_peer_call(pkt) or (0, None))[1] == proc


def _orphan_on_server_1(h):
    """A root mkdir that server 1 serves while its entry (the root's home
    site) lives on server 0."""
    return next(
        name for name in (f"orphan-{i}" for i in range(200))
        if h.site_map[h.config.mkdir_site(h.root_fh, name)] == 1
    )


def _after(h, delay, op):
    def run():
        yield h.sim.timeout(delay)
        res = yield from op()
        return res

    return h.run(run())


def test_lost_prepare_reply_does_not_strand_the_name():
    """Every PREPARE reply lost: the mkdir gives up, and the participant,
    left prepared, learns the abort from the coordinator by itself."""
    h = DirHarness(num_servers=2, num_sites=8, mkdir_p=1.0)
    name = _orphan_on_server_1(h)
    h.net.fault_injector = DropWhen(
        _Replies(h.servers[1].client, pp.PEER_PREPARE))
    assert h.run(h.mkdir(h.root_fh, name)).status == NFS3ERR_JUKEBOX
    assert len(h.servers[0].prepared) == 1
    h.net.fault_injector = None

    res = _after(h, 60.0, lambda: h.mkdir(h.root_fh, name))
    assert res.status in (NFS3_OK, NFS3ERR_EXIST)
    assert h.run(h.lookup(h.root_fh, name)).status == NFS3_OK
    assert not any(server.prepared for server in h.servers)


def test_lost_commit_is_resolved_without_a_restart():
    """Every COMMIT lost: the client has its OK, and the participant
    applies the entry once it asks the coordinator; nobody restarts."""
    h = DirHarness(num_servers=2, num_sites=8, mkdir_p=1.0)
    name = _orphan_on_server_1(h)
    h.net.fault_injector = DropWhen(_calls_to(pp.PEER_COMMIT))
    assert h.run(h.mkdir(h.root_fh, name)).status == NFS3_OK
    h.net.fault_injector = None

    assert _after(h, 60.0, lambda: h.lookup(h.root_fh, name)).status == NFS3_OK
    assert not any(server.prepared for server in h.servers)


def _restart(server):
    """Crash ``server`` and restart it with the sites it hosted."""
    sites = sorted(server.core.states)
    server.core.crash()
    server.core.restart(site_ids=sites)


def test_torn_commit_applies_the_prepared_ops_once():
    """A participant's commit is one unsynced record: a torn tail keeps it
    whole or not at all, so the mkdir's +1 on the parent applies once."""
    h = DirHarness(num_servers=2, num_sites=8, mkdir_p=1.0)
    name = _orphan_on_server_1(h)
    assert h.run(h.mkdir(h.root_fh, name)).status == NFS3_OK
    root_log = h.backing.site("dir", h.root_fh.home_site).log
    root_log.torn_tail = lambda unsynced: unsynced - 1
    _restart(h.servers[0])
    assert _after(h, 60.0, lambda: h.lookup(h.root_fh, name)).status == NFS3_OK
    assert h.run(h.getattr(h.root_fh)).attr.nlink == 3
    assert not any(server.prepared for server in h.servers)


def test_checkpoint_keeps_an_in_doubt_transaction():
    """Every COMMIT lost and both servers checkpointing every 2 s: the
    checkpoint holds the prepared group and the coordinator's decision, so
    the participant that restarts at 5 s, while the coordinator still
    retries its COMMIT, commits the entry."""
    h = DirHarness(num_servers=2, num_sites=8, mkdir_p=1.0,
                   params=DirServerParams(checkpoint_interval=2.0))
    name = _orphan_on_server_1(h)
    h.net.fault_injector = DropWhen(_calls_to(pp.PEER_COMMIT))
    mkdir = h.sim.process(h.mkdir(h.root_fh, name))
    h.sim.run(until=5.0)
    assert h.backing.site("dir", h.root_fh.home_site).generation > 1
    _restart(h.servers[0])
    assert len(h.servers[0].prepared) == 1
    h.sim.run(until=65.0)
    assert mkdir.value.status == NFS3_OK
    assert h.run(h.lookup(h.root_fh, name)).status == NFS3_OK
    assert not any(server.prepared for server in h.servers)


def test_committed_transaction_sends_no_resolve():
    """The happy path costs no message beyond PREPARE and COMMIT."""
    h = DirHarness(num_servers=2, num_sites=8, mkdir_p=1.0)
    procs = []
    h.net.fault_injector = DropWhen(
        lambda pkt: procs.append((_peer_call(pkt) or (0, None))[1]) and False)
    assert h.run(h.mkdir(h.root_fh, _orphan_on_server_1(h))).status == NFS3_OK
    _after(h, 60.0, lambda: h.lookup(h.root_fh, "."))
    assert procs.count(pp.PEER_PREPARE) == procs.count(pp.PEER_COMMIT) == 1
    assert pp.PEER_RESOLVE not in procs


def _names_on(h, servers):
    """The first ``(a<i>, b<j>)`` root names whose entries live on the
    given servers under name hashing."""
    def first(prefix, server):
        return next(
            name for name in (f"{prefix}{i}" for i in range(200))
            if h.site_map[h.config.entry_site(h.root_fh, name)] == server
        )

    return first("a", servers[0]), first("b", servers[1])


def _names_consistent(h, names):
    """Generator: every name that looks up OK has attributes (no name
    whose object is gone)."""
    for name in names:
        res = yield from h.lookup(h.root_fh, name)
        if res.status == NFS3_OK:
            attrs = yield from h.getattr(FHandle.unpack(res.fh))
            assert attrs.status == NFS3_OK, (name, attrs.status)
        else:
            assert res.status == NFS3ERR_NOENT, (name, res.status)


@pytest.mark.parametrize("settle", [0.0, 60.0])
def test_lossy_rename_leaves_one_name_and_no_dangling_remove(settle):
    """A cross-server RENAME whose PREPARE replies are lost gives up.  The
    entry install and the source delete are one transaction, so one name
    stays; and a REMOVE of the source waits for the prepared delete
    instead of bypassing it."""
    h = DirHarness(num_servers=2, mode=NAME_HASHING, num_sites=8)
    a, b = _names_on(h, (0, 1))
    created = h.run(h.create(h.root_fh, a))
    assert created.status == NFS3_OK
    h.net.fault_injector = DropWhen(
        _Replies(h.servers[1].client, pp.PEER_PREPARE))
    res = h.run(h.rename(h.root_fh, a, h.root_fh, b))
    assert res.status == NFS3ERR_JUKEBOX
    h.net.fault_injector = None

    found = [
        name for name in (a, b)
        if _after(h, settle, lambda n=name: h.lookup(h.root_fh, n)).status
        == NFS3_OK
    ]
    assert len(found) == 1
    assert h.run(h.remove(h.root_fh, found[0])).status == NFS3_OK
    h.run(_names_consistent(h, (a, b)))
    gone = h.run(h.getattr(FHandle.unpack(created.fh)))
    assert gone.status != NFS3_OK
    _after(h, 60.0, lambda: h.lookup(h.root_fh, "."))
    assert not any(server.prepared for server in h.servers)


def test_crossed_renames_both_go_through():
    """``a -> b`` served by one server and ``b -> a`` by the other, at
    once: each needs the other's name.  The older transaction wins the
    tie and the younger goes after it; neither answers JUKEBOX."""
    h = DirHarness(num_servers=2, mode=NAME_HASHING, num_sites=8)
    a, b = _names_on(h, (0, 1))
    for name in (a, b):
        assert h.run(h.create(h.root_fh, name)).status == NFS3_OK
    results = []

    def rename(src, dst):
        res = yield from h.rename(h.root_fh, src, h.root_fh, dst)
        results.append(res.status)

    def both():
        yield h.sim.all_of([h.sim.process(rename(a, b)),
                            h.sim.process(rename(b, a))])

    h.run(both())
    assert NFS3ERR_JUKEBOX not in results
    assert set(results) <= {NFS3_OK, NFS3ERR_NOENT}
    h.run(_names_consistent(h, (a, b)))
    names = [n for n in (a, b)
             if h.run(h.lookup(h.root_fh, n)).status == NFS3_OK]
    assert len(names) == 1
    survivor = h.run(h.lookup(h.root_fh, names[0]))
    assert survivor.attr.nlink == 1
    assert not any(server.prepared for server in h.servers)


@pytest.mark.parametrize("mkdir_p", [0.0, 1.0])
def test_rmdir_asks_only_the_home_site_under_mkdir_switching(mkdir_p):
    """Every entry of a directory lives at its home site, so an rmdir
    counts there: no COUNT when the home is hosted by the serving server,
    one when it is not."""
    h = DirHarness(num_servers=4, num_sites=16, mkdir_p=mkdir_p)
    names = [f"gone-{i}" for i in range(8)]

    def make():
        for name in names:
            assert (yield from h.mkdir(h.root_fh, name)).status == NFS3_OK

    h.run(make())
    procs = []
    h.net.fault_injector = DropWhen(
        lambda pkt: procs.append((_peer_call(pkt) or (0, None))[1]) and False)
    serving = h.site_map[h.root_fh.home_site]
    remote_homes = sum(
        h.site_map[h.config.mkdir_site(h.root_fh, name)] != serving
        for name in names
    )
    for name in names:
        assert h.run(h.rmdir(h.root_fh, name)).status == NFS3_OK
    assert procs.count(pp.PEER_COUNT) == remote_homes
    assert (remote_homes == 0) == (mkdir_p == 0.0)
