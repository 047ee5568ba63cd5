"""Chaos-tolerant workload scenarios for :class:`~repro.faults.harness.
ChaosHarness`.

A scenario is two generators::

    drive(harness)   # issue the workload while faults are firing
    verify(harness)  # after quiesce + settle: prove the end state

Scenarios must be *chaos-tolerant*: when a server crashes between executing
a non-idempotent operation and its reply reaching the client, the client
retransmits into a fresh boot epoch whose duplicate-request cache is empty,
so the retry re-executes and may answer ``NFS3ERR_EXIST`` (create/mkdir) or
``NFS3ERR_NOENT`` (remove).  Those answers mean "your first try worked" —
the helpers here absorb them and recover the file handle by lookup, exactly
as a real NFS client's ``EEXIST``-after-retransmit heuristic does.

Each scenario keeps its own expected-namespace model as it drives, then
verifies the cluster's end state against it with plain reads — so the model
comparison covers the surviving effects of every operation, not just the
happy path.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.dirsvc.state import attr_key_for
from repro.nfs.errors import (
    NFS3ERR_EXIST,
    NFS3ERR_NOENT,
    NFS3_OK,
    NfsError,
)
from repro.nfs.fhandle import FHandle
from repro.nfs.types import NF3DIR, NF3REG, Sattr3
from repro.util.bytesim import PatternData
from repro.workloads.untar import UntarSpec, build_tree_plan

__all__ = [
    "UntarChaosScenario",
    "BulkIOChaosScenario",
    "MixedOpsChaosScenario",
    "NamespaceChaosScenario",
    "RebalanceChaosScenario",
    "check_namespace",
]


# -- chaos-tolerant primitives ---------------------------------------------


def ensure_dir(client, parent_fh: bytes, name: str):
    """Generator: mkdir that treats EXIST-after-retransmit as success."""
    res = yield from client.mkdir(parent_fh, name)
    if res.status == NFS3_OK:
        return res.fh
    if res.status == NFS3ERR_EXIST:
        looked = yield from client.lookup(parent_fh, name)
        if looked.status == NFS3_OK:
            return looked.fh
        raise NfsError(looked.status, f"lookup after EXIST mkdir {name}")
    raise NfsError(res.status, f"mkdir {name}")


def ensure_file(client, parent_fh: bytes, name: str):
    """Generator: guarded create that absorbs EXIST-after-retransmit."""
    res = yield from client.create(parent_fh, name)
    if res.status == NFS3_OK:
        return res.fh
    if res.status == NFS3ERR_EXIST:
        looked = yield from client.lookup(parent_fh, name)
        if looked.status == NFS3_OK:
            return looked.fh
        raise NfsError(looked.status, f"lookup after EXIST create {name}")
    raise NfsError(res.status, f"create {name}")


def ensure_removed(client, parent_fh: bytes, name: str):
    """Generator: remove that treats NOENT-after-retransmit as success."""
    res = yield from client.remove(parent_fh, name)
    if res.status not in (NFS3_OK, NFS3ERR_NOENT):
        raise NfsError(res.status, f"remove {name}")


def _readdir_names(client, dir_fh: bytes):
    """Generator: the set of entry names in a directory (minus . and ..)."""
    status, listing = yield from client.readdir(dir_fh)
    if status != NFS3_OK:
        raise NfsError(status, "readdir during verification")
    return {e.name for e in listing if e.name not in (".", "..")}


# -- scenario 1: name-intensive untar ---------------------------------------


class UntarChaosScenario:
    """The paper's untar benchmark, hardened for mid-run server reboots.

    Replays the same deterministic FreeBSD-src-style tree plan as
    :class:`~repro.workloads.untar.UntarWorkload` (same seed, same plan)
    with the seven-op create sequence, but every non-idempotent step is
    retransmit-tolerant.  Verification walks every directory it created and
    compares the full listing against the plan.
    """

    name = "untar"

    def __init__(self, total_entries: int = 150, seed: int = 0,
                 prefix: str = "chaos", client_index: int = 0):
        self.spec = UntarSpec(total_entries=total_entries)
        self.plan = build_tree_plan(self.spec, seed)
        self.prefix = prefix
        self.client_index = client_index
        # plan-index (-1 = subtree root) -> fh, and -> expected child names.
        self._dir_fhs: Dict[int, bytes] = {}
        self._expected: Dict[int, Set[str]] = {-1: set()}
        self.entries_created = 0

    def drive(self, harness):
        client = harness.client(self.client_index)
        root_fh = yield from ensure_dir(
            client, harness.cluster.root_fh, self.prefix
        )
        self._dir_fhs[-1] = root_fh
        for index, (kind, parent_index, name) in enumerate(self.plan):
            parent_fh = self._dir_fhs[parent_index]
            if kind == "mkdir":
                yield from client.lookup(parent_fh, name)  # miss expected
                yield from client.access(parent_fh)
                fh = yield from ensure_dir(client, parent_fh, name)
                yield from client.setattr(fh, Sattr3(mode=0o755))
                self._dir_fhs[index] = fh
                self._expected[index] = set()
            else:
                yield from client.lookup(parent_fh, name)
                yield from client.access(parent_fh)
                fh = yield from ensure_file(client, parent_fh, name)
                yield from client.getattr(fh)
                yield from client.lookup(parent_fh, name)  # hit
                yield from client.setattr(fh, Sattr3(mode=0o644))
                yield from client.setattr(fh, Sattr3(atime=1.0, mtime=1.0))
            self._expected[parent_index].add(name)
            self.entries_created += 1
        return self.entries_created

    def verify(self, harness):
        client = harness.client(self.client_index)
        # The subtree root must resolve from the cluster root by name.
        res = yield from client.lookup(harness.cluster.root_fh, self.prefix)
        assert res.status == NFS3_OK, f"untar root vanished: {res.status}"
        checked = 0
        for index, expected in sorted(self._expected.items()):
            names = yield from _readdir_names(client, self._dir_fhs[index])
            assert names == expected, (
                f"dir #{index}: expected {sorted(expected)}, "
                f"found {sorted(names)}"
            )
            checked += 1
        return checked


# -- scenario 2: bulk I/O integrity -----------------------------------------


class BulkIOChaosScenario:
    """Write large patterned files through the block path; read them back.

    Exercises the striped read/write splitting, write-behind + commit with
    verifier redrive, and the storage nodes' crash-verifier machinery.
    Verification re-reads every byte after the cluster settles.
    """

    name = "bulkio"

    def __init__(self, sizes: Optional[List[int]] = None, seed: int = 0,
                 client_index: int = 0):
        self.sizes = list(sizes) if sizes else [256 << 10, 384 << 10]
        self.seed = seed
        self.client_index = client_index
        self._files: List[Tuple[bytes, PatternData]] = []

    def drive(self, harness):
        client = harness.client(self.client_index)
        root = harness.cluster.root_fh
        for i, size in enumerate(self.sizes):
            payload = PatternData(size, seed=self.seed * 1000 + i)
            fh = yield from ensure_file(client, root, f"bulk{i}.bin")
            yield from client.write_file(fh, payload)
            self._files.append((fh, payload))
            # Immediate read-back catches corruption while faults still fire.
            data = yield from client.read_file(fh, size)
            assert data == payload, f"mid-run corruption in bulk{i}.bin"
        return len(self._files)

    def verify(self, harness):
        client = harness.client(self.client_index)
        for i, (fh, payload) in enumerate(self._files):
            data = yield from client.read_file(fh, payload.length)
            assert data == payload, f"post-settle corruption in bulk{i}.bin"
        return len(self._files)


# -- scenario 2b: online scale-out under chaos -------------------------------


class RebalanceChaosScenario:
    """Bulk I/O while a storage node joins — and a *source* node crashes
    mid-rebalance.

    The drive writes patterned files through the block path, then calls
    ``cluster.add_storage_node()`` and runs the rebalancer concurrently
    with more I/O.  Once migration is under way, the scenario crashes the
    source node of the plan's first site move (event-driven, via
    ``controller.crash_now`` — guaranteed mid-drain, no clock guessing)
    and restarts it after ``down_for`` simulated seconds; the rebalancer's
    ctrl-plane copies and the clients' retransmissions must both ride out
    the outage.  Verification re-reads every byte, then asserts the plan's
    epoch really installed and every migration closed — the
    ``reconfig-epoch-monotonic`` and ``no-lost-write-across-rebind``
    invariants run in :meth:`ChaosHarness.run` afterwards.
    """

    name = "rebalance"

    def __init__(self, sizes: Optional[List[int]] = None, seed: int = 0,
                 down_for: float = 2.0, client_index: int = 0):
        # Enough distinct files (distinct placement hash bases) and enough
        # blocks per file that the stolen sites actually hold data — a
        # too-small seed set can leave the rebalancer with zero units.
        self.sizes = list(sizes) if sizes else [
            256 << 10, 320 << 10, 384 << 10, 448 << 10,
        ]
        self.seed = seed
        self.down_for = down_for
        self.client_index = client_index
        self._files: List[Tuple[bytes, PatternData]] = []
        self.report = None
        self.epoch_before = None

    def _write_one(self, client, root, index: int, size: int):
        payload = PatternData(size, seed=self.seed * 1000 + index)
        fh = yield from ensure_file(client, root, f"reb{index}.bin")
        yield from client.write_file(fh, payload)
        self._files.append((fh, payload))

    def _revive_later(self, harness, victim: int):
        yield harness.cluster.sim.timeout(self.down_for)
        harness.controller.restart_now("storage", index=victim)

    def drive(self, harness):
        cluster = harness.cluster
        sim = cluster.sim
        client = harness.client(self.client_index)
        root = cluster.root_fh
        # Seed data that the rebalancer will have to move.
        for i, size in enumerate(self.sizes):
            yield from self._write_one(client, root, i, size)
        self.epoch_before = cluster.configsvc.epoch
        plan = cluster.add_storage_node()
        assert not plan.empty, "nothing to rebalance"
        victim = next(
            i for i, node in enumerate(cluster.storage_nodes)
            if node.address == plan.moves[0].src
        )
        rebalance = sim.process(
            cluster.rebalance(plan), name="chaos-rebalance"
        )
        # Crash the migration source while its sites are draining, and
        # schedule the revival *concurrently*: the live writes below must
        # ride out the outage, not gate the restart behind their own
        # retransmission stalls.
        yield sim.timeout(0.01)
        harness.controller.crash_now("storage", index=victim)
        revive = sim.process(
            self._revive_later(harness, victim), name="chaos-revive"
        )
        # Clients keep writing into the outage + rebalance window.
        base = len(self.sizes)
        for i, size in enumerate(self.sizes):
            yield from self._write_one(client, root, base + i, size)
        yield revive
        self.report = yield rebalance
        return len(self._files)

    def verify(self, harness):
        cluster = harness.cluster
        assert cluster.configsvc.epoch == self.epoch_before + 1
        assert self.report is not None and self.report.sites_moved > 0
        assert self.report.units_moved > 0, "rebalance moved nothing"
        for node in cluster.storage_nodes:
            assert not node.barrier_sites, node.barrier_sites
        client = harness.client(self.client_index)
        for i, (fh, payload) in enumerate(self._files):
            data = yield from client.read_file(fh, payload.length)
            assert data == payload, f"post-rebalance corruption in reb{i}.bin"
        return len(self._files)


# -- scenario 3: SPECsfs-style operation mix ---------------------------------


class MixedOpsChaosScenario:
    """A seeded random mix of namespace + data operations (SPECsfs flavor).

    Creates, writes, overwrites, removes, and re-reads small files across a
    growing directory tree, maintaining its own expected-namespace model as
    it goes; every mutation is retransmit-tolerant.  Verification walks the
    final tree: directory listings and every surviving file's content must
    match the model exactly.
    """

    name = "mixed"

    def __init__(self, ops: int = 120, seed: int = 0,
                 max_file_bytes: int = 16 << 10, client_index: int = 0):
        self.ops = ops
        self.seed = seed
        self.max_file_bytes = max_file_bytes
        self.client_index = client_index
        # Model state, keyed by directory id (0 = scenario root).
        self._dir_fhs: Dict[int, bytes] = {}
        self._children: Dict[int, Set[str]] = {0: set()}
        # (dir_id, name) -> (fh, PatternData | None for empty files)
        self._file_state: Dict[
            Tuple[int, str], Tuple[bytes, Optional[PatternData]]
        ] = {}
        self.ops_executed = 0

    def drive(self, harness):
        client = harness.client(self.client_index)
        rng = random.Random(self.seed * 7919 + 11)  # scenario-private stream
        root_fh = yield from ensure_dir(
            client, harness.cluster.root_fh, "mix"
        )
        self._dir_fhs[0] = root_fh
        next_dir = 1
        next_file = 0
        for _ in range(self.ops):
            dir_id = rng.choice(sorted(self._dir_fhs))
            dir_fh = self._dir_fhs[dir_id]
            roll = rng.random()
            if roll < 0.12 and len(self._dir_fhs) < 12:
                name = f"d{next_dir}"
                fh = yield from ensure_dir(client, dir_fh, name)
                self._dir_fhs[next_dir] = fh
                self._children[next_dir] = set()
                self._children[dir_id].add(name)
                next_dir += 1
            elif roll < 0.45:
                name = f"f{next_file}"
                next_file += 1
                fh = yield from ensure_file(client, dir_fh, name)
                self._children[dir_id].add(name)
                self._file_state[(dir_id, name)] = (fh, None)
                if rng.random() < 0.8:
                    payload = PatternData(
                        rng.randrange(512, self.max_file_bytes),
                        seed=rng.randrange(1 << 30),
                    )
                    yield from client.write_file(fh, payload)
                    self._file_state[(dir_id, name)] = (fh, payload)
            elif roll < 0.65:
                target = self._pick_file(rng, dir_id)
                if target is not None:
                    fh, _old = self._file_state[target]
                    payload = PatternData(
                        rng.randrange(512, self.max_file_bytes),
                        seed=rng.randrange(1 << 30),
                    )
                    yield from client.write_file(fh, payload)
                    self._file_state[target] = (fh, payload)
            elif roll < 0.80:
                target = self._pick_file(rng, dir_id)
                if target is not None:
                    fh, payload = self._file_state[target]
                    if payload is not None:
                        data = yield from client.read_file(
                            fh, payload.length
                        )
                        assert data == payload, f"mid-run mismatch {target}"
                    else:
                        yield from client.getattr(fh)
            elif roll < 0.92:
                target = self._pick_file(rng, dir_id)
                if target is not None:
                    t_dir, name = target
                    yield from ensure_removed(
                        client, self._dir_fhs[t_dir], name
                    )
                    self._children[t_dir].discard(name)
                    del self._file_state[target]
            else:
                target = self._pick_file(rng, dir_id)
                if target is not None:
                    fh, _payload = self._file_state[target]
                    yield from client.setattr(fh, Sattr3(mode=0o600))
            self.ops_executed += 1
        return self.ops_executed

    def _pick_file(self, rng: random.Random,
                   dir_id: int) -> Optional[Tuple[int, str]]:
        """A file in ``dir_id`` if any, else any file, else None."""
        local = sorted(
            key for key in self._file_state if key[0] == dir_id
        )
        pool = local or sorted(self._file_state)
        return rng.choice(pool) if pool else None

    def verify(self, harness):
        client = harness.client(self.client_index)
        for dir_id in sorted(self._dir_fhs):
            names = yield from _readdir_names(
                client, self._dir_fhs[dir_id]
            )
            expected = self._children[dir_id]
            assert names == expected, (
                f"mix dir {dir_id}: expected {sorted(expected)}, "
                f"found {sorted(names)}"
            )
        verified = 0
        for key in sorted(self._file_state):
            fh, payload = self._file_state[key]
            if payload is None:
                res = yield from client.getattr(fh)
                assert res.status == NFS3_OK, f"empty file {key} vanished"
            else:
                data = yield from client.read_file(fh, payload.length)
                assert data == payload, f"content mismatch for {key}"
            verified += 1
        return verified


# -- scenario 4: cross-server namespace mutations -------------------------------


class NamespaceChaosScenario:
    """Directory mutations that cross directory servers: mkdir, create,
    link, rename (directories between parents too), remove and rmdir.

    Run it under name hashing, where almost every mutation is a two-phase
    commit between servers, with the dir-peer program lossy and a
    directory server crashing.  The scenario's picture of the tree only
    chooses plausible targets: any answer but OK (a retransmission's EXIST
    or NOENT, a lost race's JUKEBOX) makes it re-read the tree.
    Verification walks the tree through NFS (every listed name resolves
    to live attributes) and then checks the servers' cells with
    :func:`check_namespace`.
    """

    name = "namespace"

    def __init__(self, ops: int = 60, seed: int = 0, client_index: int = 0):
        self.ops = ops
        self.seed = seed
        self.client_index = client_index
        # Directory fileid -> fh; directory fileid -> {name: (fh, is_dir)}.
        self._dirs: Dict[int, bytes] = {}
        self._entries: Dict[int, Dict[str, Tuple[bytes, bool]]] = {}
        self._root = 0
        self.ops_executed = 0

    def drive(self, harness):
        client = harness.client(self.client_index)
        rng = random.Random(self.seed * 6271 + 5)  # scenario-private stream
        root_fh = yield from ensure_dir(client, harness.cluster.root_fh, "ns")
        self._root = _fileid(root_fh)
        yield from self._resync(client, root_fh)
        for index in range(self.ops):
            status = yield from self._step(client, rng, index)
            if status != NFS3_OK:
                yield from self._resync(client, root_fh)
            self.ops_executed += 1
        return self.ops_executed

    def _step(self, client, rng: random.Random, index: int):
        """Generator: one random mutation; returns its status."""
        dir_id = rng.choice(sorted(self._dirs))
        dir_fh = self._dirs[dir_id]
        files = sorted((d, n) for d, names in self._entries.items()
                       for n, (_fh, is_dir) in names.items() if not is_dir)
        subdirs = sorted((d, n) for d, names in self._entries.items()
                         for n, (_fh, is_dir) in names.items() if is_dir)
        roll = rng.random()
        if roll < 0.15 and len(self._dirs) < 8:
            res = yield from client.mkdir(dir_fh, f"d{index}")
            if res.status == NFS3_OK:
                self._dirs[_fileid(res.fh)] = res.fh
                self._entries[_fileid(res.fh)] = {}
                self._entries[dir_id][f"d{index}"] = (res.fh, True)
            return res.status
        if roll < 0.40 or not files:
            res = yield from client.create(dir_fh, f"f{index}")
            if res.status == NFS3_OK:
                self._entries[dir_id][f"f{index}"] = (res.fh, False)
            return res.status
        if roll < 0.50:
            src_dir, src = rng.choice(files)
            fh = self._entries[src_dir][src][0]
            res = yield from client.link(fh, dir_fh, f"l{index}")
            if res.status == NFS3_OK:
                self._entries[dir_id][f"l{index}"] = (fh, False)
            return res.status
        if roll < 0.72:
            src_dir, src = rng.choice(files + subdirs)
            fh, is_dir = self._entries[src_dir][src]
            if is_dir and self._under(dir_id, _fileid(fh)):
                dir_id, dir_fh = self._root, self._dirs[self._root]
            targets = sorted(n for n, (_fh, d) in self._entries[dir_id].items()
                             if not d and not is_dir)
            dst = (rng.choice(targets) if targets and rng.random() < 0.3
                   else f"r{index}")
            res = yield from client.rename(self._dirs[src_dir], src,
                                           dir_fh, dst)
            if res.status == NFS3_OK and (src_dir, src) != (dir_id, dst):
                del self._entries[src_dir][src]
                self._entries[dir_id][dst] = (fh, is_dir)
            return res.status
        if roll < 0.88:
            src_dir, src = rng.choice(files)
            res = yield from client.remove(self._dirs[src_dir], src)
            if res.status == NFS3_OK:
                del self._entries[src_dir][src]
            return res.status
        empty = [(d, n) for d, n in subdirs
                 if not self._entries[_fileid(self._entries[d][n][0])]]
        if not empty:
            return NFS3_OK
        parent, name = rng.choice(empty)
        res = yield from client.rmdir(self._dirs[parent], name)
        if res.status == NFS3_OK:
            gone = _fileid(self._entries[parent].pop(name)[0])
            del self._dirs[gone], self._entries[gone]
        return res.status

    def _under(self, dir_id: int, ancestor: int) -> bool:
        """True if ``dir_id`` is ``ancestor`` or lies beneath it."""
        if dir_id == ancestor:
            return True
        return any(
            is_dir and self._under(dir_id, _fileid(fh))
            for fh, is_dir in self._entries.get(ancestor, {}).values()
        )

    def _resync(self, client, root_fh: bytes):
        """Generator: re-read the tree under the scenario root; every listed
        name must resolve to live attributes.  Returns the names seen."""
        self._dirs = {self._root: root_fh}
        self._entries = {}
        pending = [self._root]
        seen = 0
        while pending:
            dir_id = pending.pop()
            entries = self._entries[dir_id] = {}
            for name in sorted((yield from _readdir_names(
                    client, self._dirs[dir_id]))):
                res = yield from client.lookup(self._dirs[dir_id], name)
                assert res.status == NFS3_OK, f"lookup {name}: {res.status}"
                attrs = yield from client.getattr(res.fh)
                assert attrs.status == NFS3_OK, (
                    f"{name} names a dead object: {attrs.status}")
                is_dir = attrs.attr.ftype == NF3DIR
                entries[name] = (res.fh, is_dir)
                if is_dir:
                    self._dirs[_fileid(res.fh)] = res.fh
                    pending.append(_fileid(res.fh))
                seen += 1
        return seen

    def verify(self, harness):
        client = harness.client(self.client_index)
        seen = yield from self._resync(client, self._dirs[self._root])
        check_namespace(harness.cluster)
        return seen


def _fileid(fh: bytes) -> int:
    return FHandle.unpack(fh).fileid


def check_namespace(cluster) -> None:
    """Assert the directory servers' cells form one consistent namespace:
    no transaction is left prepared, every name cell's target attribute
    cell exists, each regular file's link count equals its names, and
    each directory's is two plus its subdirectories and it points back at
    its parent.  Every logical site must be loaded."""
    attrs: Dict[bytes, object] = {}
    names = []
    for server in cluster.dir_servers:
        assert not server.prepared, (
            f"{server.host.name} left prepared: {sorted(server.prepared)}")
        for state in server.sites.values():
            attrs.update(state.attr_cells)
            names.extend(state.name_cells.values())
    links: Dict[bytes, int] = {}
    for cell in names:
        key = attr_key_for(cell.target_fileid)
        assert key in attrs, (
            f"{cell.name!r} in directory {cell.parent_fileid} names a "
            f"missing object {cell.target_fileid}")
        if cell.target_ftype == NF3DIR:
            parent = attrs[key].parent_fileid
            assert parent == cell.parent_fileid, (
                f"directory {cell.target_fileid} points at {parent}, named "
                f"in {cell.parent_fileid}")
            key = attr_key_for(cell.parent_fileid)
        links[key] = links.get(key, 0) + 1
    for key, cell in attrs.items():
        if cell.ftype == NF3REG:
            assert cell.nlink == links.get(key, 0), (
                f"file {cell.fileid}: nlink {cell.nlink}, "
                f"{links.get(key, 0)} names")
        elif cell.ftype == NF3DIR:
            assert cell.nlink == 2 + links.get(key, 0), (
                f"directory {cell.fileid}: nlink {cell.nlink}, "
                f"{links.get(key, 0)} subdirectories")
