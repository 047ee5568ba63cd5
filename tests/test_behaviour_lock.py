"""Behaviour lock: hashes of seeded runs, pinned so that a change to what
the model does in simulated time fails tier-1.

Three kinds of value are pinned:

- ``Tracer.digest()`` of the untar, bulk and mixed-ops chaos scenarios under
  seeded fault plans, and of one namespace scenario under name hashing
  with the dir-peer traffic lossy.  The digest covers span timestamps and attributes,
  injected faults, coordinator intents and the WAL crash ledger.
- An untraced fingerprint of small workload runs: small untar, bulk and
  SPECsfs-mix runs on Slice ensembles built with :mod:`repro.api`, and an
  untar plus a short SFS mix plus one pass over every procedure the
  monolithic baseline serves, in ``mfs`` and ``ffs`` mode.  It hashes the
  ``repr`` of every NFS call latency, the final ``sim.now``, and the
  request, packet, byte and WAL-record counts of every component.
  Kernel step counts are left out of it and pinned on their own (below).
- The µproxy cycles of each Slice fingerprint run: the ``repr`` of every
  µproxy's ``CostModel.cycles`` and ``packets``.  Cycles are never charged
  to simulated time, so attaching the cost model leaves the fingerprints
  alone; pinning them makes a µproxy that decodes, rewrites or keeps more
  or less per packet fail tier-1.
- The kernel steps of each Slice fingerprint run: ``sim._eid -
  len(sim._heap)``, the events the kernel stepped.  Fewer steps for the
  same behaviour is a speed-up, not a model change, so a change that moves
  them leaves the fingerprints alone; pinning them makes that change show
  in tier-1 and declare its new counts.

Every Slice cluster here has two directory servers, so dir-peer RPCs run:
two-phase commits under mkdir switching, and attribute and entry fetches
under name hashing.  The ``slice-peer`` run picks its names so that every
dir-peer procedure but RESOLVE and every transaction op but the orphaned
mkdir's name entry (which ``slice-untar`` sends) runs, and it ends with a
directory-site move that makes the µproxy refetch its tables.

Rule: only a change that declares a model change may re-pin these values.
It lists the old values, the new values and the reason in CHANGES.md.
The values were pinned on CPython 3.11.7.

To print the current values in the pinned format, or only those that
differ from the pinned ones (as ``name: old -> new``; µproxy cycles one
line per µproxy and phase, as ``cycles name[index] phase: old -> new``)::

    PYTHONPATH=src python -m tests.test_behaviour_lock
    PYTHONPATH=src python -m tests.test_behaviour_lock --diff

``--diff`` exits 1 when any value differs from its pinned one, else 0.
"""

from __future__ import annotations

import ast
import functools
import hashlib

import pytest

from repro.api import ClusterSpec, build
from repro.core.cost import CostModel
from repro.dirsvc import peerproto as pp
from repro.dirsvc.config import MKDIR_SWITCHING, NAME_HASHING
from repro.ensemble.baseline import BaselineParams, MonolithicServer
from repro.ensemble.params import ClusterParams
from repro.faults import (
    BulkIOChaosScenario,
    ChaosHarness,
    CrashWindow,
    FaultPlan,
    MixedOpsChaosScenario,
    NamespaceChaosScenario,
    PacketFaultRule,
    SlowDiskWindow,
    UntarChaosScenario,
)
from repro.net import NetParams, Network
from repro.nfs import proto
from repro.nfs.client import NfsClient
from repro.nfs.errors import NFS3_OK
from repro.nfs.fhandle import FHandle
from repro.nfs.types import FILE_SYNC, Sattr3
from repro.sim import Simulator
from repro.util.bytesim import PatternData
from repro.workloads.bulkio import dd_read, dd_write
from repro.workloads.fileset import FilesetSpec
from repro.workloads.specsfs import SfsConfig, SfsRun
from repro.workloads.untar import UntarSpec, UntarWorkload

PINNED_ON = "3.11.7"

#: chaos run -> Tracer.digest()
CHAOS_DIGESTS = {
    "bulk-1": "5a5bc41884b7bb5c2ef7165082dbae974e3cd57c5f7cd987b1c7464dff3cf8ac",
    "bulk-2": "487216f2b97d18440e0bac8b8a69ef9bf244ecb78b72119bc1eef1bb8a2b3bf0",
    "bulk-3": "4b0b76446111ecd03b2bf3df441b6796855ffde514a84ec832c3953bea9b71ad",
    "mixed-1": "f2542b0b5f2e4de25612d254c72b42c4c24f750c855473813db777682536c55b",
    "mixed-2": "3664a68bf53ba350010487d5d06b7c93353e2d07912aaaa0da35a1f0aaeb3ec3",
    "mixed-3": "63c507782964e81cfa8a4bce14855d6f37ec42bc131584a56aef85bfc2655d25",
    "namespace-1": "2ad85190aaf362e129667e1b8f3039ea6e97a64e9e717d252f1dd45a0cdbd5e9",
    "untar-1": "beb58783c31eaa68738537e0ea966cf376442c82d3bba7585203ef3413e92116",
    "untar-2": "2e866af87bdcb7209bda901c4427046df92d84b0a6ae23dd35913e50ebabb3bd",
    "untar-3": "0199dc987a757ea73699ad5229d50ecc3ecdb059a7f2f121f61eb3215083b12e",
}

#: workload run -> fingerprint
FINGERPRINTS = {
    "baseline-ffs": "2625fc45bb87aa96590817d3ff30c190",
    "baseline-mfs": "58d85b5b4c759ddf4860069d7961f808",
    "slice-bulk": "b96562ee1751dc910bfbafbfa98bd006",
    "slice-peer": "fabfca0c51945bc1aa056ce84562fe30",
    "slice-sfs": "27b57494f2c7a7126269ae610f85b5db",
    "slice-untar": "9c70ee652e6c1c57321d7792b2660916",
    "slice-untar-hashed": "482d8747dc33dd350da5c09cfc38245c",
}

#: slice workload run -> per µproxy, repr((cycles, packets))
UPROXY_CYCLES = {
    "slice-bulk": (
        "({'intercept': 101920.0, 'decode': 548000.0, 'rewrite': 241632.0, 'softstate': 277500.0}, 182)",
    ),
    "slice-peer": (
        "({'intercept': 13440.0, 'decode': 64280.0, 'rewrite': 10396.0, 'softstate': 16250.0}, 24)",
    ),
    "slice-sfs": (
        "({'intercept': 138880.0, 'decode': 775064.0, 'rewrite': 185828.0, 'softstate': 257500.0}, 248)",
        "({'intercept': 63840.0, 'decode': 302856.0, 'rewrite': 52788.0, 'softstate': 76250.0}, 114)",
    ),
    "slice-untar": (
        "({'intercept': 437920.0, 'decode': 2383448.0, 'rewrite': 353464.0, 'softstate': 488750.0}, 782)",
        "({'intercept': 434560.0, 'decode': 2360816.0, 'rewrite': 350752.0, 'softstate': 485000.0}, 776)",
    ),
    "slice-untar-hashed": (
        "({'intercept': 437920.0, 'decode': 2262488.0, 'rewrite': 353464.0, 'softstate': 488750.0}, 782)",
        "({'intercept': 434560.0, 'decode': 2221712.0, 'rewrite': 350752.0, 'softstate': 485000.0}, 776)",
    ),
}

#: slice workload run -> kernel steps
KERNEL_STEPS = {
    "slice-bulk": 3827,
    "slice-peer": 478,
    "slice-sfs": 5640,
    "slice-untar": 9007,
    "slice-untar-hashed": 9756,
}


# -- chaos digests --------------------------------------------------------------


def _lossy():
    return [PacketFaultRule(loss=0.02, dup=0.01, reorder=0.02)]


def _untar(seed):
    plan = FaultPlan(seed=seed, packet_faults=_lossy(), crashes=[
        CrashWindow("dir", index=1, at=0.1, restart_at=0.5,
                    torn_tail=bool(seed % 2)),
    ])
    return plan, UntarChaosScenario(total_entries=40, seed=0)


def _bulk(seed):
    plan = FaultPlan(
        seed=seed, packet_faults=_lossy(),
        crashes=[CrashWindow("storage", index=seed % 3, at=0.05,
                             restart_at=0.3)],
        slow_disks=[SlowDiskWindow("storage", index=(seed + 1) % 3,
                                   factor=3.0, start=0.0, end=1.0)],
    )
    return plan, BulkIOChaosScenario(sizes=[192 << 10], seed=seed)


def _mixed(seed):
    plan = FaultPlan(seed=seed, packet_faults=_lossy(), crashes=[
        CrashWindow("sf", index=seed % 2, at=0.1, restart_at=0.4,
                    torn_tail=True),
    ])
    return plan, MixedOpsChaosScenario(ops=40, seed=seed)


def _namespace(seed):
    """Returns the cluster shape and settle time too: name hashing, and
    long enough for every prepared transaction to be resolved."""
    plan = FaultPlan(seed=seed, packet_faults=[
        PacketFaultRule(prog=pp.SLICE_PEER_PROGRAM, loss=0.1),
        PacketFaultRule(src="dir", dst="dir", loss=0.1),
    ], crashes=[CrashWindow("dir", index=1, at=0.1, restart_at=0.5)])
    params = ClusterParams(**ChaosHarness.DEFAULT_SHAPE,
                           name_mode=NAME_HASHING)
    return plan, NamespaceChaosScenario(ops=40, seed=seed), params, 30.0


CHAOS_RUNS = {
    f"{kind}-{seed}": (make, seed)
    for kind, make in (("untar", _untar), ("bulk", _bulk), ("mixed", _mixed))
    for seed in (1, 2, 3)
}
CHAOS_RUNS["namespace-1"] = (_namespace, 1)


def chaos_digest(name: str) -> str:
    make, seed = CHAOS_RUNS[name]
    plan, scenario, *shape = make(seed)
    params, settle = shape or (None, 5.0)
    return ChaosHarness(plan, params=params).run(scenario, settle=settle).digest


# -- untraced fingerprints ---------------------------------------------------


def _time_calls(client: NfsClient, latencies: list) -> None:
    """Record the simulated latency of every NFS call ``client`` makes."""
    call = client._call

    def timed(*args, **kwargs):
        start = client.sim.now
        result = yield from call(*args, **kwargs)
        latencies.append(client.sim.now - start)
        return result

    client._call = timed


def _host_counts(net: Network) -> list:
    return [
        (name, host.packets_sent, host.packets_received, host.packets_dropped)
        for name, host in sorted(net.hosts.items())
    ] + [(net.packets_delivered, net.bytes_delivered)]


def _rpc_counts(rpc) -> tuple:
    return (rpc.requests_handled, rpc.duplicates_dropped,
            rpc.duplicates_replayed)


def _wal_counts(log) -> tuple:
    return (log.base_lsn + len(log.records), log.stable_count,
            log.bytes_logged, log.syncs)


def _digest(state) -> str:
    return hashlib.sha256(repr(state).encode()).hexdigest()[:32]


def _slice_state(cluster, latencies: list) -> tuple:
    """The run's fingerprint, per µproxy the ``repr`` of its cycles and
    packet count, and the kernel steps the run took."""
    servers = (cluster.dir_servers + cluster.sf_servers
               + cluster.storage_nodes + cluster.coordinators)
    cycles = tuple(repr((p.cost.cycles, p.cost.packets))
                   for _c, p in cluster.clients)
    return _digest((
        [repr(x) for x in latencies],
        repr(cluster.sim.now),
        _host_counts(cluster.net),
        [(s.host.name, _rpc_counts(s.server)) for s in servers],
        [(d.host.name, d.ops_served, d.cross_site_ops)
         for d in cluster.dir_servers],
        [(p.requests_routed, p.replies_returned, p.synthesized,
          p.commits_absorbed) for _c, p in cluster.clients],
        [(key, _wal_counts(b.log))
         for key, b in sorted(cluster.backing._sites.items())],
        [_wal_counts(c.log) for c in cluster.coordinators],
    )), cycles, cluster.sim._eid - len(cluster.sim._heap)


def _slice_cluster(clients: int, name_mode: str = MKDIR_SWITCHING):
    params = ClusterSpec(storage_nodes=4, dir_servers=2,
                         sf_servers=2).to_params()
    params.name_mode = name_mode
    cluster = build(ClusterSpec(params=params))
    latencies: list = []
    nfs = []
    for i in range(clients):
        client, _proxy = cluster.add_client(f"c{i}", port=700 + i,
                                            cost=CostModel())
        _time_calls(client, latencies)
        nfs.append(client)
    return cluster, nfs, latencies


def run_slice_untar(name_mode: str = MKDIR_SWITCHING) -> tuple:
    cluster, clients, latencies = _slice_cluster(2, name_mode)
    procs = [
        UntarWorkload(client, cluster.root_fh, UntarSpec(total_entries=60),
                      prefix=f"p{i}", seed=i).run()
        for i, client in enumerate(clients)
    ]
    cluster.run(_all(cluster.sim, procs))
    assert sum(d.cross_site_ops for d in cluster.dir_servers) > 0
    return _slice_state(cluster, latencies)


def run_slice_bulk() -> tuple:
    cluster, (client,), latencies = _slice_cluster(1)

    def drive():
        for i, size in enumerate((384 << 10, 1 << 20)):
            fh, _ = yield from dd_write(client, cluster.root_fh, f"f{i}",
                                        size, seed=i)
            yield from dd_read(client, fh, size, verify_seed=i)

    cluster.run(drive())
    return _slice_state(cluster, latencies)


def _count_peer_traffic(cluster) -> tuple:
    """Wraps every directory server's peer service and the step where a
    participant ends a transaction it prepared; returns the sets of peer
    procedures served and of ops applied for a remote coordinator."""
    procs, ops = set(), set()
    for server in cluster.dir_servers:
        serve, finish = server._peer_service, server._finish_prepared

        def counted(procnum, dec, body, src, serve=serve):
            procs.add(procnum)
            return serve(procnum, dec, body, src)

        def finished(txid, site, commit, server=server, finish=finish):
            if commit:
                ops.update(map(_op_kind, server.prepared.get((txid, site), ())))
            return finish(txid, site, commit)

        server.server.register(pp.SLICE_PEER_PROGRAM, counted)
        server._finish_prepared = finished
    return procs, ops


def _op_kind(op) -> str:
    if type(op) is pp.AdjLink:
        return f"AdjLink{op.delta:+d}"
    return type(op).__name__


#: What :func:`run_slice_peer` must reach.
PEER_PROCS = {pp.PEER_GET_ATTRS, pp.PEER_GET_ENTRY, pp.PEER_COUNT,
              pp.PEER_TOUCH, pp.PEER_PREPARE, pp.PEER_COMMIT}
PEER_OPS = {"AdjLink+1", "AdjLink-1", "DelName", "SetParent", "TouchDir"}


def run_slice_peer() -> tuple:
    """Name hashing on two directory servers, with names picked so that
    each dir-peer procedure and transaction op runs; then a directory
    site moves and the stale µproxy refetches its tables."""
    cluster, (client,), latencies = _slice_cluster(1, NAME_HASHING)
    procs, ops = _count_peer_traffic(cluster)
    config = cluster.name_config
    servers = [server.address for server in cluster.dir_servers]

    def site_of(dir_fh: bytes, name: str) -> int:
        return config.entry_hash_site(FHandle.unpack(dir_fh).fileid, name)

    def name_on(server: int, dir_fh: bytes, prefix: str) -> str:
        """The first ``prefix<i>`` whose entry lives on ``server``."""
        return next(
            name for name in (f"{prefix}{i}" for i in range(1000))
            if cluster.dir_table.lookup(site_of(dir_fh, name))
            == servers[server]
        )

    def ok(res):
        assert res.status == NFS3_OK, res
        return res

    def drive():
        root = cluster.root_fh
        # Two directories, homed on different servers (their mkdirs touch
        # the root's remote attribute cell by transaction).
        a_name, b_name = name_on(1, root, "a"), name_on(0, root, "b")
        a = ok((yield from client.mkdir(root, a_name))).fh
        b = ok((yield from client.mkdir(root, b_name))).fh
        # A file in a whose attributes live on server 0 (a remote touch
        # of a's mtime), linked into b from server 1 (+1 link by
        # transaction), looked up there (remote attributes) and unlinked
        # (-1 link by transaction).
        f_name = name_on(0, a, "f")
        f = ok((yield from client.create(a, f_name))).fh
        link = name_on(1, b, "l")
        ok((yield from client.link(f, b, link)))
        ok((yield from client.lookup(b, link)))
        ok((yield from client.remove(b, link)))
        # A cross-site rename: the source entry is fetched from server 0
        # and deleted there by transaction.
        ok((yield from client.rename(a, f_name, b, name_on(1, b, "g"))))
        # A directory homed on server 0 moves from a to b by server 1:
        # parent link counts and its parent pointer change remotely.
        c_name = name_on(0, a, "c")
        ok((yield from client.mkdir(a, c_name)))
        d_name = name_on(1, b, "d")
        ok((yield from client.rename(a, c_name, b, d_name)))
        # rmdir counts the directory's entries on the other server.
        ok((yield from client.rmdir(b, d_name)))
        # Move a server-0 site that is not the root's to server 1; the
        # next create there is misdirected and refetches the tables.
        e_name = next(
            name for name in (f"e{i}" for i in range(1000))
            if site_of(root, name) not in (0, site_of(root, a_name),
                                           site_of(root, b_name))
            and cluster.dir_table.lookup(site_of(root, name)) == servers[0]
        )
        cluster.move_dir_site(site_of(root, e_name), to_server=1)
        ok((yield from client.create(root, e_name)))

    cluster.run(drive())
    assert procs >= PEER_PROCS, sorted(PEER_PROCS - procs)
    assert ops >= PEER_OPS, sorted(PEER_OPS - ops)
    svc = cluster.configsvc
    assert svc.fetches - svc.not_modified >= 1
    return _slice_state(cluster, latencies)


def _sfs_config() -> SfsConfig:
    return SfsConfig(
        offered_load=150.0, num_procs=4, warmup=0.2, window=0.8,
        fileset=FilesetSpec(num_files=24, num_dirs=3, num_symlinks=3),
    )


def run_slice_sfs() -> tuple:
    cluster, clients, latencies = _slice_cluster(2)
    run = SfsRun(cluster.sim, clients, cluster.root_fh, _sfs_config())
    cluster.run(run.execute())
    return _slice_state(cluster, latencies)


def _all(sim, procs):
    yield sim.all_of([sim.process(p) for p in procs])


def _every_baseline_proc(client: NfsClient, root: bytes):
    """One call to each procedure the baseline serves, the metadata
    updates that force FFS synchronous writes among them."""
    made = yield from client.mkdir(root, "d")
    created = yield from client.create(made.fh, "a")
    fh = created.fh
    yield from client.write(fh, 0, PatternData(20 << 10, seed=3),
                            stable=FILE_SYNC)
    yield from client.commit(fh)
    yield from client.read(fh, 4096, 8192)
    yield from client.link(fh, root, "a-link")
    yield from client.rename(made.fh, "a", root, "b")
    yield from client.symlink(root, "s", "b")
    yield from client.readlink((yield from client.lookup(root, "s")).fh)
    yield from client.setattr(fh, Sattr3(mode=0o600))
    yield from client.access(fh)
    yield from client.getattr(fh)
    yield from client.readdir(root)
    yield from client.remove(root, "a-link")
    yield from client.rmdir(root, "d")
    for proc in ("FSSTAT", "FSINFO", "PATHCONF"):
        yield from client._call(getattr(proto, f"PROC_{proc}"),
                                proto.FhArgs(root).encode())
    yield from client.null()


def run_baseline(mode: str) -> tuple:
    sim = Simulator()
    net = Network(sim, NetParams())
    server = MonolithicServer(sim, net.add_host("nfs-server"),
                              BaselineParams(mode=mode))
    clients = [NfsClient(sim, net.add_host(f"c{i}"), server.address)
               for i in range(2)]
    latencies: list = []
    for client in clients:
        _time_calls(client, latencies)
    root = server.root_fh()
    sim.run_process(_every_baseline_proc(clients[0], root))
    sim.run_process(_all(sim, [
        UntarWorkload(client, root, UntarSpec(total_entries=40),
                      prefix=f"p{i}", seed=i).run()
        for i, client in enumerate(clients)
    ]))
    sim.run_process(SfsRun(sim, clients, root, _sfs_config()).execute())
    return _digest((
        [repr(x) for x in latencies],
        repr(sim.now),
        _host_counts(net),
        server.ops_served,
        _rpc_counts(server.server),
    )), None, None


FINGERPRINT_RUNS = {
    "slice-untar": run_slice_untar,
    "slice-untar-hashed": lambda: run_slice_untar(NAME_HASHING),
    "slice-bulk": run_slice_bulk,
    "slice-peer": run_slice_peer,
    "slice-sfs": run_slice_sfs,
    "baseline-mfs": lambda: run_baseline("mfs"),
    "baseline-ffs": lambda: run_baseline("ffs"),
}


@functools.lru_cache(maxsize=None)
def workload_run(name: str) -> tuple:
    """(fingerprint, µproxy cycles or None, kernel steps or None) of one
    workload run; each run runs once per process, for all of its pinned
    values."""
    return FINGERPRINT_RUNS[name]()


# -- the lock ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CHAOS_RUNS))
def test_chaos_digest_is_pinned(name):
    assert chaos_digest(name) == CHAOS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FINGERPRINT_RUNS))
def test_workload_fingerprint_is_pinned(name):
    assert workload_run(name)[0] == FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(UPROXY_CYCLES))
def test_uproxy_cycles_are_pinned(name):
    assert workload_run(name)[1] == UPROXY_CYCLES[name]


@pytest.mark.parametrize("name", sorted(KERNEL_STEPS))
def test_kernel_steps_are_pinned(name):
    assert workload_run(name)[2] == KERNEL_STEPS[name]


def _current_values():
    """(name, pinned, current) for every pinned value."""
    for name in sorted(CHAOS_RUNS):
        yield name, CHAOS_DIGESTS.get(name), chaos_digest(name)
    for name in sorted(FINGERPRINT_RUNS):
        yield name, FINGERPRINTS.get(name), workload_run(name)[0]
    for name in sorted(UPROXY_CYCLES):
        yield f"cycles {name}", UPROXY_CYCLES[name], workload_run(name)[1]
    for name in sorted(KERNEL_STEPS):
        yield f"steps {name}", KERNEL_STEPS[name], workload_run(name)[2]


def _cycle_changes(pinned, current):
    """The moved µproxy cycles of one run, one line per µproxy and phase
    (and packet count): ``[index] phase: old -> new``."""
    if pinned is None or current is None or len(pinned) != len(current):
        yield f": {pinned} -> {current}"
        return
    for index, (old, new) in enumerate(zip(pinned, current)):
        (old_cycles, old_packets), (new_cycles, new_packets) = (
            ast.literal_eval(old), ast.literal_eval(new))
        old_cycles["packets"], new_cycles["packets"] = old_packets, new_packets
        for phase in {**old_cycles, **new_cycles}:
            before, after = old_cycles.get(phase), new_cycles.get(phase)
            if before != after:
                yield f"[{index}] {phase}: {before} -> {after}"


def _print_diff() -> bool:
    """Print every moved value; returns whether any moved."""
    moved = False
    for name, pinned, current in _current_values():
        if current == pinned:
            continue
        moved = True
        if name.startswith("cycles "):
            for change in _cycle_changes(pinned, current):
                print(f"{name}{change}")
        else:
            print(f"{name}: {pinned} -> {current}")
    return moved


def _print_pinned() -> None:
    import platform

    print(f'PINNED_ON = "{platform.python_version()}"\n')
    print("#: chaos run -> Tracer.digest()\nCHAOS_DIGESTS = {")
    for name in sorted(CHAOS_RUNS):
        print(f'    "{name}": "{chaos_digest(name)}",')
    print("}\n\n#: workload run -> fingerprint\nFINGERPRINTS = {")
    for name in sorted(FINGERPRINT_RUNS):
        print(f'    "{name}": "{workload_run(name)[0]}",')
    print("}\n\n#: slice workload run -> per µproxy, repr((cycles, packets))")
    print("UPROXY_CYCLES = {")
    for name in sorted(FINGERPRINT_RUNS):
        cycles = workload_run(name)[1]
        if cycles is not None:
            print(f'    "{name}": (')
            for one in cycles:
                print(f'        "{one}",')
            print("    ),")
    print("}\n\n#: slice workload run -> kernel steps\nKERNEL_STEPS = {")
    for name in sorted(FINGERPRINT_RUNS):
        steps = workload_run(name)[2]
        if steps is not None:
            print(f'    "{name}": {steps},')
    print("}")


if __name__ == "__main__":
    import sys

    if "--diff" not in sys.argv[1:]:
        _print_pinned()
    elif _print_diff():
        sys.exit(1)
