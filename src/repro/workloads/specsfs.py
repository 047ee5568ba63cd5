"""SPECsfs97-like load generator (Figures 5 and 6).

Reproduces the benchmark's method: generator processes produce the SFS97
NFS V3 operation mix against a self-scaling small-file-skewed file set at a
requested offered load, and the harness reports delivered throughput (IOPS)
and mean latency.  Like the original, generators send NFS requests directly
(no client kernel cache) and pace themselves with exponential think times,
so a saturated server shows up as delivered < offered plus rising latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.metrics.stats import LatencyRecorder
from repro.nfs.client import NfsClient
from repro.nfs.types import Sattr3, UNSTABLE
from repro.util.bytesim import PatternData
from .fileset import Fileset, FilesetSpec, build_fileset

__all__ = ["SFS97_MIX", "SfsConfig", "SfsResult", "SfsRun"]

# The SFS97 NFS V3 operation mix (percent).
SFS97_MIX = [
    ("lookup", 27),
    ("read", 18),
    ("getattr", 11),
    ("readdirplus", 9),
    ("write", 9),
    ("access", 7),
    ("readlink", 7),
    ("commit", 5),
    ("readdir", 2),
    ("setattr", 1),
    ("create", 1),
    ("remove", 1),
    ("fsstat", 1),
    ("symlink", 1),
]

_OPS = [name for name, _w in SFS97_MIX]
_WEIGHTS = [w for _n, w in SFS97_MIX]

# I/O transfer size distribution (bytes, weight): mostly small transfers.
_XFER_SIZES = [(8 << 10, 40), (16 << 10, 30), (32 << 10, 30)]

# The self-scaling file set: bytes per op/s of offered load.
FILESET_BYTES_PER_IOPS = 1 << 20


@dataclass
class SfsConfig:
    offered_load: float = 100.0  # target ops/sec, all processes combined
    num_procs: int = 8
    warmup: float = 2.0
    window: float = 8.0
    fileset: Optional[FilesetSpec] = None
    seed: int = 0

    def resolved_fileset(self) -> FilesetSpec:
        if self.fileset is not None:
            return self.fileset
        return FilesetSpec.for_bytes(
            int(self.offered_load * FILESET_BYTES_PER_IOPS),
            seed=self.seed,
        )


@dataclass
class SfsResult:
    offered_load: float
    achieved_iops: float = 0.0
    mean_latency_ms: float = 0.0
    p95_latency_ms: float = 0.0
    ops_completed: int = 0
    errors: int = 0
    per_op_counts: dict = field(default_factory=dict)


class SfsRun:
    """One load point: build the file set, run generators, measure."""

    def __init__(self, sim, clients: List[NfsClient], root_fh: bytes,
                 config: SfsConfig, dirname: str = "sfs"):
        if not clients:
            raise ValueError("need at least one client")
        self.sim = sim
        self.clients = clients
        self.root_fh = root_fh
        self.config = config
        self.dirname = dirname
        self.fileset: Optional[Fileset] = None
        self.latency = LatencyRecorder("sfs")
        self.completed = 0
        self.errors = 0
        self.per_op_counts: dict = {}
        self._recording = False
        self._create_counter = 0

    # -- driver ------------------------------------------------------------

    def execute(self):
        """Generator: build the file set, then measure; returns SfsResult."""
        config = self.config
        self.fileset = yield from build_fileset(
            self.clients[0], self.root_fh, config.resolved_fileset(),
            self.dirname,
        )
        result = yield from self.execute_with_existing()
        return result

    def execute_with_existing(self):
        """Generator: measure against a pre-built ``self.fileset``."""
        config = self.config
        if self.fileset is None:
            raise ValueError("no fileset: call execute() or set one")
        procs = []
        per_proc_rate = config.offered_load / config.num_procs
        for index in range(config.num_procs):
            client = self.clients[index % len(self.clients)]
            rng = random.Random((config.seed << 16) | index)
            procs.append(
                self.sim.process(
                    self._generator(client, per_proc_rate, rng),
                    name=f"sfs-gen{index}",
                )
            )
        yield self.sim.timeout(config.warmup)
        self._recording = True
        start = self.sim.now
        yield self.sim.timeout(config.window)
        self._recording = False
        elapsed = self.sim.now - start
        self._stop = True
        # Give generators a moment to notice and wind down.
        yield self.sim.timeout(0.05)
        for proc in procs:
            proc.interrupt("done")
        result = SfsResult(
            offered_load=config.offered_load,
            achieved_iops=self.completed / elapsed if elapsed else 0.0,
            mean_latency_ms=self.latency.mean() * 1e3,
            p95_latency_ms=self.latency.percentile(0.95) * 1e3,
            ops_completed=self.completed,
            errors=self.errors,
            per_op_counts=dict(self.per_op_counts),
        )
        return result

    _stop = False

    # -- generator process ---------------------------------------------------

    def _generator(self, client: NfsClient, rate: float, rng: random.Random):
        from repro.sim import Interrupt

        mean_think = 1.0 / rate if rate > 0 else 1.0
        # Open-loop pacing against a deadline schedule: response latency
        # does not slow the offered rate, so overload shows up as delivered
        # < offered with queueing latency (SPECsfs semantics), not as a
        # silently reduced request rate.
        next_time = self.sim.now + rng.expovariate(1.0 / mean_think)
        try:
            while not self._stop:
                delay = next_time - self.sim.now
                if delay > 0:
                    yield self.sim.timeout(delay)
                next_time += rng.expovariate(1.0 / mean_think)
                if self._stop:
                    return
                op = rng.choices(_OPS, weights=_WEIGHTS, k=1)[0]
                start = self.sim.now
                try:
                    status = yield from self._issue(client, op, rng)
                except Exception:
                    status = -1
                if self._recording:
                    self.latency.record(self.sim.now - start)
                    self.per_op_counts[op] = self.per_op_counts.get(op, 0) + 1
                    if status == 0:
                        self.completed += 1
                    else:
                        self.errors += 1
        except Interrupt:
            return

    def _pick_file(self, rng) -> tuple:
        return rng.choice(self.fileset.files)

    def _xfer_size(self, rng) -> int:
        sizes = [s for s, _w in _XFER_SIZES]
        weights = [w for _s, w in _XFER_SIZES]
        return rng.choices(sizes, weights=weights, k=1)[0]

    def _issue(self, client: NfsClient, op: str, rng: random.Random):
        fs = self.fileset
        if op == "lookup":
            dir_index = rng.randrange(len(fs.dirs))
            file_index = rng.randrange(len(fs.files))
            res = yield from client.lookup(
                fs.dirs[dir_index], f"file{file_index:06d}"
            )
            # A miss (file lives in another dir) still counts as a
            # successful lookup operation, as in SFS.
            return 0 if res.status in (0, 2) else res.status
        if op == "read":
            fh, size = self._pick_file(rng)
            count = min(self._xfer_size(rng), size)
            offset = rng.randrange(max(1, size - count + 1))
            res, _body = yield from client.read(fh, offset, count)
            return res.status
        if op == "write":
            fh, size = self._pick_file(rng)
            count = min(self._xfer_size(rng), max(1024, size))
            offset = rng.randrange(max(1, size - count + 1)) if size > count else 0
            res = yield from client.write(
                fh, offset, PatternData(count, seed=rng.randrange(1 << 16)),
                stable=UNSTABLE,
            )
            return res.status
        if op == "getattr":
            fh, _size = self._pick_file(rng)
            res = yield from client.getattr(fh)
            return res.status
        if op == "setattr":
            fh, _size = self._pick_file(rng)
            res = yield from client.setattr(fh, Sattr3(mode=0o644))
            return res.status
        if op == "access":
            fh, _size = self._pick_file(rng)
            res = yield from client.access(fh)
            return res.status
        if op == "readlink":
            if not fs.symlinks:
                return 0
            res = yield from client.readlink(rng.choice(fs.symlinks))
            return res.status
        if op in ("readdir", "readdirplus"):
            res = yield from client.readdir_page(rng.choice(fs.dirs))
            return res.status
        if op == "commit":
            fh, _size = self._pick_file(rng)
            res = yield from client.commit(fh)
            return res.status
        if op == "create":
            self._create_counter += 1
            name = f"new{self._create_counter:06d}"
            res = yield from client.create(rng.choice(fs.dirs), name, mode=0)
            return res.status
        if op == "remove":
            # Remove a file created by this run, if any remain.
            if self._create_counter <= 0:
                return 0
            name = f"new{self._create_counter:06d}"
            self._create_counter -= 1
            res = yield from client.remove(rng.choice(fs.dirs), name)
            return 0 if res.status in (0, 2) else res.status
        if op == "fsstat":
            dec_res = yield from self._fsstat(client)
            return dec_res
        if op == "symlink":
            self._create_counter += 1
            res = yield from client.symlink(
                rng.choice(fs.dirs), f"nsym{self._create_counter:06d}", "target"
            )
            return 0 if res.status in (0, 17) else res.status
        return 0

    def _fsstat(self, client: NfsClient):
        from repro.nfs import proto

        dec, _ = yield from client._call(
            proto.PROC_FSSTAT, proto.FhArgs(self.root_fh).encode()
        )
        return proto.FsstatRes.decode(dec).status
