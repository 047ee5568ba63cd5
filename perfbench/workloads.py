"""The benchmark's three workloads, each seeded and self-checking.

A workload object makes its inputs from its seed when it is constructed.
``setup()`` builds a fresh ensemble and preloads its state; ``measure()``
runs the measured phase; ``verify()`` reads results back and counts every
mismatch as a failed operation; ``raw()`` returns the simulated samples of
the run, which repeat exactly for a given seed.  :func:`pool` turns the raw
samples of several runs into the simulated metrics.  All clients are
coroutines on one simulator, so the whole run is one OS thread.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cost import PHASES, CostModel
from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.nfs.errors import NFS3_OK, NFS3ERR_EXIST, NFS3ERR_NOENT, NfsError
from repro.nfs.types import Sattr3, UNSTABLE
from repro.rpc.endpoint import RpcAcceptError, RpcTimeout
from repro.smallfile.server import SmallFileParams
from repro.storage.node import StorageNodeParams
from repro.util.bytesim import PatternData
from repro.workloads.fileset import FilesetSpec, build_fileset
from repro.workloads.specsfs import SFS97_MIX
from repro.workloads.untar import UntarSpec, build_tree_plan

from metrics import tail_percentile

MB = 1e6
RPC_ERRORS = (RpcTimeout, RpcAcceptError)


class OpLog:
    """Counts NFS calls and failures; records simulated call latencies."""

    def __init__(self, sim):
        self.sim = sim
        self.attempted = 0
        self.failed = 0
        self.latency: List[float] = []
        self.recording = False

    def fail(self) -> None:
        """Count one failed check of an op that was already attempted."""
        self.failed += 1

    def lost(self) -> None:
        """Count an op that could not even be issued (its input failed)."""
        self.attempted += 1
        self.failed += 1

    def call(self, gen, ok: Sequence[int] = (NFS3_OK,)):
        """Generator: run one NFS call; returns its result, or None when it
        timed out or returned a status outside ``ok``."""
        start = self.sim.now
        self.attempted += 1
        try:
            res = yield from gen
        except RPC_ERRORS:
            self.failed += 1
            return None
        if self.recording:
            self.latency.append(self.sim.now - start)
        status = res[0].status if isinstance(res, tuple) else res.status
        if status not in ok:
            self.failed += 1
            return None
        return res

    def instrument(self, client, names: Sequence[str]) -> None:
        """Route a client's own calls to ``names`` through :meth:`call`, so
        the calls its streaming helpers make are counted and timed too."""
        for name in names:
            setattr(client, name, self._wrapped(getattr(client, name)))

    def _wrapped(self, method):
        call = self.call

        def wrapper(*args, **kwargs):
            res = yield from call(method(*args, **kwargs))
            if res is None:
                raise NfsError(5, f"{method.__name__} failed")
            return res

        return wrapper


class Workload:
    """Shared plumbing: one cluster, one op log, and client hosts whose
    µproxies carry a cost model (counted, never charged to simulated time)."""

    name = ""
    closed_loop = True

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.cluster: Optional[SliceCluster] = None
        self.log: Optional[OpLog] = None
        self.costs: List[CostModel] = []
        self.measured_ops = 0
        self.phase_start = 0.0
        self.phase_end = 0.0

    def make_cluster(self, params: ClusterParams, clients: int, tracer=None):
        cluster = SliceCluster(params=params, tracer=tracer)
        self.cluster = cluster
        self.log = OpLog(cluster.sim)
        self.costs = [CostModel() for _ in range(clients)]
        self.clients = [
            cluster.add_client(f"c{i}", port=700 + i, cost=self.costs[i])[0]
            for i in range(clients)
        ]
        return cluster

    def run_phase(self, procs) -> float:
        """Run generator processes to completion; simulated seconds taken."""
        sim = self.cluster.sim
        start = sim.now

        def all_done():
            yield sim.all_of([sim.process(p) for p in procs])

        self.cluster.run(all_done())
        return sim.now - start

    def measure(self) -> None:
        log = self.log
        before = log.attempted
        log.recording = True
        for cost in self.costs:
            cost.reset()
        self.phase_start = self.cluster.sim.now
        self.measured_phase()
        self.phase_end = self.cluster.sim.now
        log.recording = False
        self.measured_ops = log.attempted - before

    def verify(self) -> None:
        """Read-back checks after the measured phase (statuses alone are
        checked as the calls complete)."""

    def raw(self) -> Dict[str, object]:
        """Simulated samples of this run (see :func:`pool`)."""
        return {
            "latency": self.log.latency,
            "ops": self.measured_ops,
            "sim_s": self.phase_end - self.phase_start,
            "lags": [],
            "read_bytes": 0, "read_s": 0.0,
            "write_bytes": 0, "write_s": 0.0,
            "sim_end_s": self.cluster.sim.now,
        }

    def cycles_per_packet(self) -> Dict[str, float]:
        packets = sum(c.packets for c in self.costs)
        return {
            phase: sum(c.cycles[phase] for c in self.costs) / packets
            if packets else 0.0
            for phase in PHASES
        }


def pool(raws: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Simulated metrics over the pooled samples of several runs."""
    latency = [x for r in raws for x in r["latency"]]
    lags = [x for r in raws for x in r["lags"]]
    q, tail = tail_percentile(latency, 0.99)
    _q, p50 = tail_percentile(latency, 0.5, min_beyond=0)

    def rate(key: str, seconds: str, scale: float = 1.0) -> float:
        elapsed = sum(r[seconds] for r in raws)
        return sum(r[key] for r in raws) / elapsed / scale if elapsed else 0.0

    return {
        "sim_ops_per_s": rate("ops", "sim_s"),
        "lat_mean_ms": sum(latency) / len(latency) * 1e3,
        "lat_p50_ms": p50 * 1e3,
        "lat_p99_ms": tail * 1e3,
        "lat_samples": len(latency),
        "lat_tail_q": q,
        "gen_lag_p99_ms": tail_percentile(lags, 0.99)[1] * 1e3 if lags else 0.0,
        "sim_write_MBps": rate("write_bytes", "write_s", MB),
        "sim_read_MBps": rate("read_bytes", "read_s", MB),
    }


# -- untar --------------------------------------------------------------------

class Untar(Workload):
    """Closed loop: four untar processes on four client hosts, each
    unpacking its own seeded tree with the paper's 7-op create sequence."""

    name = "untar"
    procs = 4
    entries = 150  # per process
    max_stagger = 2e-3  # seconds; process start offsets are drawn from it

    def __init__(self, seed: int):
        super().__init__(seed)
        spec = UntarSpec(total_entries=self.entries)
        self.plans = [
            build_tree_plan(spec, seed=seed * self.procs + i)
            for i in range(self.procs)
        ]
        self.starts = [self.rng.uniform(0, self.max_stagger)
                       for _ in range(self.procs)]

    def params(self) -> ClusterParams:
        return ClusterParams(
            num_storage_nodes=2, num_dir_servers=2, num_sf_servers=1,
            dir_logical_sites=16, sf_logical_sites=4,
        )

    def setup(self, tracer=None) -> None:
        cluster = self.make_cluster(self.params(), self.procs, tracer)
        log = self.log
        self.roots: List[Optional[bytes]] = []

        def make_roots():
            for i, client in enumerate(self.clients):
                res = yield from log.call(
                    client.mkdir(cluster.root_fh, f"p{self.seed}-{i}"))
                self.roots.append(res.fh if res is not None else None)

        cluster.run(make_roots())
        self.dir_fhs: List[Dict[int, bytes]] = []

    def measured_phase(self) -> None:
        self.dir_fhs = [{} for _ in range(self.procs)]
        self.run_phase([self._unpack(i) for i in range(self.procs)])

    def _unpack(self, index: int):
        client, log = self.clients[index], self.log
        yield self.cluster.sim.timeout(self.starts[index])
        dir_fhs = self.dir_fhs[index]
        if self.roots[index] is not None:
            dir_fhs[-1] = self.roots[index]
        for step, (kind, parent, name) in enumerate(self.plans[index]):
            parent_fh = dir_fhs.get(parent)
            if parent_fh is None:
                log.lost()  # its directory was never made
                continue
            yield from log.call(client.lookup(parent_fh, name),
                                ok=(NFS3ERR_NOENT,))
            yield from log.call(client.access(parent_fh))
            if kind == "mkdir":
                made = yield from log.call(client.mkdir(parent_fh, name))
                if made is None:
                    continue
                dir_fhs[step] = made.fh
                yield from log.call(
                    client.setattr(made.fh, Sattr3(mode=0o755)))
                continue
            created = yield from log.call(client.create(parent_fh, name))
            if created is None:
                continue
            yield from log.call(client.getattr(created.fh))
            yield from log.call(client.lookup(parent_fh, name))
            yield from log.call(client.setattr(created.fh, Sattr3(mode=0o644)))
            yield from log.call(
                client.setattr(created.fh, Sattr3(atime=1.0, mtime=1.0)))

    def verify(self) -> None:
        """Every created directory must list exactly its planned entries."""
        log = self.log

        def check(index):
            client = self.clients[index]
            expected: Dict[int, int] = {}
            for _kind, parent, _name in self.plans[index]:
                expected[parent] = expected.get(parent, 0) + 1
            for step, fh in sorted(self.dir_fhs[index].items()):
                log.attempted += 1
                try:
                    status, entries = yield from client.readdir(fh)
                except RPC_ERRORS:
                    log.fail()
                    continue
                names = [e.name for e in entries if e.name not in (".", "..")]
                if status != NFS3_OK or len(names) != expected.get(step, 0):
                    log.fail()

        self.run_phase([check(i) for i in range(self.procs)])

    def working_set(self) -> str:
        entries = sum(len(p) for p in self.plans)
        return (f"{entries} entries in {self.procs} trees; every cache "
                "holds them (default µproxy and server caches)")


# -- bulk ---------------------------------------------------------------------

class Bulk(Workload):
    """Closed loop: four dd clients each write their own file, then read it
    back sequentially, over eight storage nodes with checksums on."""

    name = "bulk"
    clients_n = 4
    nodes = 8
    file_bytes = 9 << 19  # 4.5 MB per client, plus up to 7 seeded blocks
    node_cache = 768 << 10  # x 8 nodes = 6 MB, well under the data
    block = 32 << 10
    max_stagger = 5e-3

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        # Seeded sizes (whole 32 KB blocks), payloads and start offsets.
        self.sizes = [
            self.file_bytes + self.block * rng.randrange(0, 8)
            for _ in range(self.clients_n)
        ]
        self.patterns = [rng.randrange(1 << 30) for _ in range(self.clients_n)]
        self.starts = [rng.uniform(0, self.max_stagger)
                       for _ in range(2 * self.clients_n)]

    def params(self) -> ClusterParams:
        return ClusterParams(
            num_storage_nodes=self.nodes, num_dir_servers=1, num_sf_servers=2,
            storage=StorageNodeParams(cache_bytes=self.node_cache),
        )

    def setup(self, tracer=None) -> None:
        cluster = self.make_cluster(self.params(), self.clients_n, tracer)
        log = self.log
        for client in self.clients:
            log.instrument(client, ("read", "write", "commit"))
        self.fhs: List[Optional[bytes]] = []

        def create_files():
            for i, client in enumerate(self.clients):
                res = yield from log.call(
                    client.create(cluster.root_fh, f"dd{self.seed}-{i}.bin"))
                self.fhs.append(res.fh if res is not None else None)

        cluster.run(create_files())

    def payload(self, i: int) -> PatternData:
        return PatternData(self.sizes[i], seed=self.patterns[i])

    def measured_phase(self) -> None:
        n = self.clients_n
        self.write_s = self.run_phase([self._write(i) for i in range(n)])
        self.data: List[Optional[object]] = [None] * n
        self.read_s = self.run_phase([self._read(i) for i in range(n)])

    def _write(self, i: int):
        yield self.cluster.sim.timeout(self.starts[i])
        if self.fhs[i] is None:
            return
        try:
            yield from self.clients[i].write_file(self.fhs[i], self.payload(i))
        except (NfsError,) + RPC_ERRORS:
            pass  # the failing call was counted by the op log

    def _read(self, i: int):
        yield self.cluster.sim.timeout(self.starts[self.clients_n + i])
        if self.fhs[i] is None:
            return
        try:
            self.data[i] = yield from self.clients[i].read_file(
                self.fhs[i], self.sizes[i])
        except (NfsError,) + RPC_ERRORS:
            pass

    def verify(self) -> None:
        """Compare every read-back byte with the written pattern, one NFS
        read block at a time; each mismatching block is a failed read."""
        for i in range(self.clients_n):
            data = self.data[i]
            if data is None:
                continue
            expected = self.payload(i)
            if data.length != expected.length:
                self.log.fail()
                continue
            for off in range(0, expected.length, self.block):
                end = min(off + self.block, expected.length)
                if data.slice(off, end) != expected.slice(off, end):
                    self.log.fail()

    def raw(self) -> Dict[str, object]:
        out = super().raw()
        total = sum(self.sizes)
        out.update(write_bytes=total, write_s=self.write_s,
                   read_bytes=total, read_s=self.read_s)
        return out

    def working_set(self) -> str:
        return (f"{sum(self.sizes)} data bytes vs "
                f"{self.node_cache * self.nodes} bytes of storage-node cache")


# -- sfs ----------------------------------------------------------------------

_OPS = [name for name, _w in SFS97_MIX]
_WEIGHTS = [w for _n, w in SFS97_MIX]
_XFER = [8 << 10, 16 << 10, 32 << 10]
_XFER_WEIGHTS = [40, 30, 30]


class Sfs(Workload):
    """Open loop: the SPECsfs97 op mix at a fixed offered rate against a
    Slice-2 ensemble whose small-file cache the file set overflows.

    Every op has a due time drawn in advance from a Poisson schedule.  Each
    of ``procs`` generator processes issues its ops in order, waiting for
    the due time when it is early and issuing at once when a slow earlier
    op made it late; latency runs from the due time, so a stall counts
    against every op it delays, and the lateness itself is ``gen_lag``.
    The file set is fixed (``fileset_seed``); the seed draws the op stream.
    """

    name = "sfs"
    closed_loop = False
    procs = 64
    rate = 500.0  # offered ops per simulated second, all procs
    warmup = 0.5
    window = 6.0
    nfiles = 300
    fileset_seed = 1
    sf_cache = 256 << 10  # per small-file server
    node_cache = 1 << 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.fileset_spec = FilesetSpec(
            num_files=self.nfiles, num_dirs=max(5, self.nfiles // 30),
            num_symlinks=max(5, self.nfiles // 50), seed=self.fileset_seed,
        )
        self.schedules = [self._schedule(i) for i in range(self.procs)]

    def _schedule(self, index: int) -> List[Tuple[float, str, int, int]]:
        """(due offset, op, pick, transfer size) drawn from the seed."""
        rng = random.Random(self.seed * 1009 + index)
        mean_gap = self.procs / self.rate
        due, out = 0.0, []
        while True:
            due += rng.expovariate(1.0 / mean_gap)
            if due >= self.warmup + self.window:
                return out
            op = rng.choices(_OPS, weights=_WEIGHTS, k=1)[0]
            out.append((due, op, rng.randrange(1 << 30),
                        rng.choices(_XFER, weights=_XFER_WEIGHTS, k=1)[0]))

    def params(self) -> ClusterParams:
        return ClusterParams(
            num_storage_nodes=2, num_dir_servers=1, num_sf_servers=2,
            mkdir_p=1.0, dir_logical_sites=16, sf_logical_sites=8,
            storage=StorageNodeParams(cache_bytes=self.node_cache,
                                      num_disks=1),
            smallfile=SmallFileParams(cache_bytes=self.sf_cache),
        )

    def setup(self, tracer=None) -> None:
        cluster = self.make_cluster(self.params(), 4, tracer)
        log = self.log

        def build():
            log.attempted += 1
            try:
                self.fileset = yield from build_fileset(
                    self.clients[0], cluster.root_fh, self.fileset_spec,
                    f"sfs{self.seed}",
                )
            except (NfsError,) + RPC_ERRORS:
                log.fail()
                self.fileset = None

        cluster.run(build())
        self.lags: List[float] = []
        self.due_latency: List[float] = []
        self.read_bytes = 0
        self.write_bytes = 0

    def measured_phase(self) -> None:
        if self.fileset is None:
            return
        start = self.cluster.sim.now
        self.window_start = start + self.warmup
        self.run_phase([self._generator(i, start) for i in range(self.procs)])

    def _generator(self, index: int, start: float):
        sim = self.cluster.sim
        client = self.clients[index % len(self.clients)]
        created: List[Tuple[bytes, str]] = []
        for n, (offset, op, pick, xfer) in enumerate(self.schedules[index]):
            due = start + offset
            if sim.now < due:
                yield sim.timeout(due - sim.now)
            in_window = due >= self.window_start
            if in_window:
                self.lags.append(sim.now - due)
            before = self.log.attempted
            yield from self._issue(client, op, pick, xfer, index, n, created,
                                   in_window)
            if in_window and self.log.attempted > before:
                self.due_latency.append(sim.now - due)

    def _issue(self, client, op, pick, xfer, proc, n, created, in_window):
        fs, log = self.fileset, self.log
        fh, size = fs.files[pick % len(fs.files)]
        directory = fs.dirs[pick % len(fs.dirs)]
        if op == "lookup":
            name = f"file{(pick >> 8) % len(fs.files):06d}"
            yield from log.call(client.lookup(directory, name),
                                ok=(NFS3_OK, NFS3ERR_NOENT))
        elif op == "read":
            count = min(xfer, size)
            offset = (pick >> 4) % max(1, size - count + 1)
            res = yield from log.call(client.read(fh, offset, count))
            if res is not None and in_window:
                self.read_bytes += res[1].length
        elif op == "write":
            count = min(xfer, max(1024, size))
            offset = (pick >> 4) % max(1, size - count + 1) if size > count else 0
            res = yield from log.call(client.write(
                fh, offset, PatternData(count, seed=pick & 0xFFFF),
                stable=UNSTABLE))
            if res is not None and in_window:
                self.write_bytes += count
        elif op in ("getattr", "fsstat"):
            # fsstat has no public client call; a getattr stands in.
            target = fs.root_fh if op == "fsstat" else fh
            yield from log.call(client.getattr(target))
        elif op == "setattr":
            yield from log.call(client.setattr(fh, Sattr3(mode=0o644)))
        elif op == "access":
            yield from log.call(client.access(fh))
        elif op == "readlink":
            yield from log.call(
                client.readlink(fs.symlinks[pick % len(fs.symlinks)]))
        elif op == "readdir":
            yield from log.call(client.readdir_page(directory))
        elif op == "readdirplus":
            yield from log.call(client.readdirplus_page(directory))
        elif op == "commit":
            yield from log.call(client.commit(fh))
        elif op == "create":
            name = f"new{proc:02d}-{n:06d}"
            res = yield from log.call(client.create(directory, name, mode=0))
            if res is not None:
                created.append((directory, name))
        elif op == "remove":
            if created:  # remove this generator's own oldest file
                where, name = created.pop(0)
                yield from log.call(client.remove(where, name))
        elif op == "symlink":
            yield from log.call(client.symlink(
                directory, f"nsym{proc:02d}-{n:06d}", "target"),
                ok=(NFS3_OK, NFS3ERR_EXIST))

    def raw(self) -> Dict[str, object]:
        out = super().raw()
        out.update(
            latency=self.due_latency, lags=self.lags,
            ops=len(self.due_latency), sim_s=self.window,
            read_bytes=self.read_bytes, read_s=self.window,
            write_bytes=self.write_bytes, write_s=self.window,
        )
        return out

    def working_set(self) -> str:
        return (f"{self.nfiles}-file set (seed {self.fileset_seed}) vs "
                f"{self.sf_cache * 2} bytes of small-file cache")


WORKLOADS = {cls.name: cls for cls in (Untar, Bulk, Sfs)}
