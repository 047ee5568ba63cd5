"""Monolithic NFS-server baselines.

The paper compares Slice against two single-server configurations:

- **N-MFS** (Figure 3): a FreeBSD NFS server exporting a memory-based file
  system.  It wins at light load (no journaling, no cross-server hops) and
  saturates on its single CPU as clients are added.
- **FreeBSD NFS + CCD** (Figure 5): the same server exporting its eight-disk
  array as one volume; SPECsfs saturation (~850 IOPS) is bounded by the
  disk arms.

Both are modeled here by one server class wrapping the reference
:class:`~repro.ensemble.modelfs.ModelFS` for semantics, with an FFS-flavored
cost model (buffer cache, chunk-interleaved disk array, synchronous
metadata updates) or a pure-CPU MFS mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net import Host
from repro.nfs import proto
from repro.nfs.errors import NFS3ERR_NOTSUPP
from repro.nfs.fhandle import FHandle
from repro.nfs.types import DATA_SYNC, FILE_SYNC
from repro.rpc import RpcAcceptError, RpcServer
from repro.rpc.messages import PROC_UNAVAIL
from repro.rpc.xdr import Decoder
from repro.storage.cache import BufferCache
from repro.storage.disk import DiskArray, DiskParams
from repro.util.bytesim import EMPTY
from .modelfs import ModelFS

__all__ = ["MonolithicServer", "BaselineParams", "BASE_PORT"]

BASE_PORT = 2049
BLOCK = 8 << 10

CPU_PER_OP = 170e-6
CPU_PER_BYTE = 2.5e-9
METADATA_WRITES_PER_UPDATE = 2  # FFS synchronous metadata updates
SYNC_INTERVAL = 1.0


@dataclass
class BaselineParams:
    mode: str = "ffs"  # "ffs" (disk-backed) or "mfs" (memory file system)
    num_disks: int = 8
    disk: DiskParams = field(default_factory=DiskParams)
    channel_bandwidth: float = 72e6
    cache_bytes: int = 200 << 20

    def __post_init__(self):
        if self.mode not in ("ffs", "mfs"):
            raise ValueError(f"unknown baseline mode: {self.mode}")


#: The ModelFS call serving each procedure that needs no disk I/O beyond
#: the synchronous metadata writes of the updates below.
_FS_CALLS = {
    proto.PROC_GETATTR: lambda fs, a, now: fs.getattr(a.fh),
    proto.PROC_SETATTR:
        lambda fs, a, now: fs.setattr(a.fh, a.sattr, a.guard_ctime, now),
    proto.PROC_LOOKUP: lambda fs, a, now: fs.lookup(a.dir_fh, a.name),
    proto.PROC_ACCESS: lambda fs, a, now: fs.access(a.fh, a.access),
    proto.PROC_READLINK: lambda fs, a, now: fs.readlink(a.fh),
    proto.PROC_CREATE:
        lambda fs, a, now: fs.create(a.dir_fh, a.name, a.mode, a.sattr, now),
    proto.PROC_MKDIR: lambda fs, a, now: fs.mkdir(a.dir_fh, a.name, a.sattr, now),
    proto.PROC_SYMLINK:
        lambda fs, a, now: fs.symlink(a.dir_fh, a.name, a.path, now),
    proto.PROC_REMOVE: lambda fs, a, now: fs.remove(a.dir_fh, a.name, now),
    proto.PROC_RMDIR: lambda fs, a, now: fs.rmdir(a.dir_fh, a.name, now),
    proto.PROC_RENAME: lambda fs, a, now: fs.rename(
        a.from_dir, a.from_name, a.to_dir, a.to_name, now),
    proto.PROC_LINK: lambda fs, a, now: fs.link(a.fh, a.dir_fh, a.name, now),
    proto.PROC_READDIR: lambda fs, a, now: fs.readdir(a.dir_fh, a.cookie),
    proto.PROC_READDIRPLUS:
        lambda fs, a, now: fs.readdir(a.dir_fh, a.cookie, plus=True),
    proto.PROC_FSINFO:
        lambda fs, a, now: proto.FsinfoRes(0, fs.getattr(a.fh).attr),
    proto.PROC_PATHCONF:
        lambda fs, a, now: proto.PathconfRes(0, fs.getattr(a.fh).attr),
}

#: Updates that FFS follows with synchronous metadata writes.
_UPDATE_PROCS = {
    proto.PROC_SETATTR, proto.PROC_CREATE, proto.PROC_MKDIR,
    proto.PROC_SYMLINK, proto.PROC_REMOVE, proto.PROC_RMDIR,
    proto.PROC_RENAME, proto.PROC_LINK,
}


class MonolithicServer:
    """A single NFS server exporting one volume."""

    def __init__(
        self,
        sim,
        host: Host,
        params: Optional[BaselineParams] = None,
        port: int = BASE_PORT,
    ):
        self.sim = sim
        self.host = host
        self.params = params or BaselineParams()
        self.fs = ModelFS()
        self.server = RpcServer(host, port)
        self.server.register(proto.NFS_PROGRAM, self._service)
        self.on_disk = self.params.mode == "ffs"
        if self.on_disk:
            self.array = DiskArray(
                sim, self.params.num_disks, self.params.disk,
                self.params.channel_bandwidth,
            )
            self.cache = BufferCache(self.params.cache_bytes)
        else:
            self.array = None
            self.cache = None
        self._phys: Dict = {}
        self._dirty: set = set()
        self._meta_ptr = 0
        self.verf = int.from_bytes(
            hashlib.md5(host.name.encode()).digest()[:8], "big"
        )
        self.ops_served = 0
        if self.on_disk:
            sim.process(self._syncer(), name=f"baseline-sync:{host.name}")

    @property
    def address(self):
        return self.server.address

    def root_fh(self) -> bytes:
        return self.fs.root_fh()

    # -- disk helpers ---------------------------------------------------------

    def _phys_for(self, fileid: int, block: int) -> int:
        key = (fileid, block)
        phys = self._phys.get(key)
        if phys is None:
            phys = self.array.allocate(BLOCK)
            self._phys[key] = phys
        return phys

    def _data_blocks(self, fh: bytes, offset: int, count: int):
        try:
            fileid = FHandle.unpack(fh).fileid
        except ValueError:
            fileid = 0
        first = offset // BLOCK
        last = (offset + count - 1) // BLOCK if count else first
        return fileid, range(first, last + 1)

    def _inode_read(self, fh: bytes):
        """Generator: charge an inode/indirect-block read if cold (the
        FFS metadata path that makes SPECsfs disk-arm bound)."""
        try:
            fileid = FHandle.unpack(fh).fileid
        except ValueError:
            fileid = 0
        key = ("ino", fileid // 32)
        if not self.cache.lookup(key):
            self._meta_ptr = (self._meta_ptr + 6151 * BLOCK) % (1 << 36)
            yield from self.array.access(self._meta_ptr, BLOCK, write=False)
            self.cache.insert(key, BLOCK)

    def _read_blocks(self, fh: bytes, offset: int, count: int):
        """Generator: charge disk time for uncached data blocks."""
        fileid, blocks = self._data_blocks(fh, offset, count)
        for block in blocks:
            key = (fileid, block)
            if self.cache.lookup(key):
                continue
            phys = self._phys_for(fileid, block)
            yield from self.array.access(phys, BLOCK, write=False)
            for victim, _size in self.cache.insert(key, BLOCK):
                self._dirty.discard(victim)
                yield from self._flush_one(victim)

    def _dirty_blocks(self, fh: bytes, offset: int, count: int):
        fileid, blocks = self._data_blocks(fh, offset, count)
        for block in blocks:
            key = (fileid, block)
            self._dirty.add(key)
            for victim, _size in self.cache.insert(key, BLOCK, dirty=True):
                self._dirty.discard(victim)
                yield from self._flush_one(victim)

    def _flush_one(self, key):
        fileid, block = key
        phys = self._phys_for(fileid, block)
        yield from self.array.access(phys, BLOCK, write=True)
        self.cache.mark_clean(key)

    def _flush_range(self, fh: bytes, offset: int, count: int):
        fileid, blocks = self._data_blocks(fh, offset, count)
        for block in blocks:
            key = (fileid, block)
            if key in self._dirty:
                self._dirty.discard(key)
                yield from self._flush_one(key)

    def _flush_file(self, fh: bytes):
        """Generator: flush every dirty block of one file (commit)."""
        try:
            fileid = FHandle.unpack(fh).fileid
        except ValueError:
            fileid = 0
        for key in [k for k in self._dirty if k[0] == fileid]:
            self._dirty.discard(key)
            yield from self._flush_one(key)

    def _metadata_write(self):
        """FFS-style synchronous metadata update (random small write)."""
        for _ in range(METADATA_WRITES_PER_UPDATE):
            self._meta_ptr = (self._meta_ptr + 7919 * BLOCK) % (1 << 36)
            yield from self.array.access(self._meta_ptr, BLOCK, write=True)

    def _syncer(self):
        while True:
            yield self.sim.timeout(SYNC_INTERVAL)
            if not self.host.up:
                continue
            for key in list(self._dirty):
                self._dirty.discard(key)
                yield from self._flush_one(key)

    # -- NFS service -----------------------------------------------------

    def _service(self, procnum: int, dec: Decoder, body, src):
        if procnum >= len(proto.PROCS):
            raise RpcAcceptError(PROC_UNAVAIL)
        yield from self.host.cpu_work(CPU_PER_OP)
        now = self.sim.now
        self.ops_served += 1
        if procnum == proto.PROC_NULL:
            return b"", EMPTY
        proc = proto.PROCS[procnum]
        call = _FS_CALLS.get(procnum)
        own = self._OWN_BODIES.get(procnum)
        if call is None and own is None:
            return proc.result(NFS3ERR_NOTSUPP).encode(), EMPTY
        args = proc.args.decode(dec)
        if own is not None:
            res, data = yield from own(self, args, body, now)
            return res.encode(), data
        res = call(self.fs, args, now)
        if self.on_disk and procnum in _UPDATE_PROCS and res.status == 0:
            yield from self._metadata_write()
        return res.encode(), EMPTY

    def _read(self, args, body, now):
        yield from self.host.cpu_work(CPU_PER_BYTE * args.count)
        if self.on_disk:
            yield from self._inode_read(args.fh)
            yield from self._read_blocks(args.fh, args.offset, args.count)
        return self.fs.read(args.fh, args.offset, args.count, now)

    def _write(self, args, body, now):
        yield from self.host.cpu_work(CPU_PER_BYTE * args.count)
        res = self.fs.write(
            args.fh, args.offset, body.slice(0, args.count),
            args.stable, self.verf, now,
        )
        if self.on_disk and res.status == 0:
            yield from self._inode_read(args.fh)
            yield from self._dirty_blocks(args.fh, args.offset, args.count)
            if args.stable in (DATA_SYNC, FILE_SYNC):
                yield from self._flush_range(args.fh, args.offset, args.count)
        return res, EMPTY

    def _commit(self, args, body, now):
        if self.on_disk:
            yield from self._flush_file(args.fh)
        return self.fs.commit(args.fh, self.verf), EMPTY

    def _fsstat(self, args, body, now):
        attrs = self.fs.getattr(args.fh).attr
        nodes = self.fs.node_count()
        yield from ()
        return proto.FsstatRes(
            0, attrs, tbytes=1 << 40, fbytes=(1 << 40) - nodes * 4096,
            abytes=(1 << 40) - nodes * 4096, tfiles=1 << 20,
            ffiles=(1 << 20) - nodes, afiles=(1 << 20) - nodes,
        ), EMPTY

    #: Procedures that drive the disk model (or count nodes) themselves.
    _OWN_BODIES = {
        proto.PROC_READ: _read,
        proto.PROC_WRITE: _write,
        proto.PROC_COMMIT: _commit,
        proto.PROC_FSSTAT: _fsstat,
    }
