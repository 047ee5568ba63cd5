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
from repro.nfs.fhandle import FHandle
from repro.nfs.types import DATA_SYNC, FILE_SYNC
from repro.rpc import RpcServer
from repro.rpc.xdr import Decoder
from repro.storage.cache import BufferCache
from repro.storage.disk import DiskArray, DiskParams
from repro.util.bytesim import EMPTY
from .modelfs import ModelFS

__all__ = ["MonolithicServer", "BaselineParams", "BASE_PORT"]

BASE_PORT = 2049
BLOCK = 8 << 10


@dataclass
class BaselineParams:
    mode: str = "ffs"  # "ffs" (disk-backed) or "mfs" (memory file system)
    cpu_per_op: float = 170e-6
    cpu_per_byte: float = 2.5e-9
    num_disks: int = 8
    disk: DiskParams = field(default_factory=DiskParams)
    channel_bandwidth: float = 72e6
    cache_bytes: int = 200 << 20
    metadata_writes_per_update: int = 2  # FFS synchronous metadata updates
    sync_interval: float = 1.0

    def __post_init__(self):
        if self.mode not in ("ffs", "mfs"):
            raise ValueError(f"unknown baseline mode: {self.mode}")


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
        for _ in range(self.params.metadata_writes_per_update):
            self._meta_ptr = (self._meta_ptr + 7919 * BLOCK) % (1 << 36)
            yield from self.array.access(self._meta_ptr, BLOCK, write=True)

    def _syncer(self):
        while True:
            yield self.sim.timeout(self.params.sync_interval)
            if not self.host.up:
                continue
            for key in list(self._dirty):
                self._dirty.discard(key)
                yield from self._flush_one(key)

    # -- NFS service -----------------------------------------------------

    def _service(self, procnum: int, dec: Decoder, body, src):
        p = self.params
        yield from self.host.cpu_work(p.cpu_per_op)
        now = self.host.clock()
        fs = self.fs
        self.ops_served += 1
        if procnum == proto.PROC_NULL:
            return b"", EMPTY
        if procnum == proto.PROC_GETATTR:
            return fs.getattr(proto.decode_fh_args(dec)).encode(), EMPTY
        if procnum == proto.PROC_SETATTR:
            args = proto.decode_setattr_args(dec)
            res = fs.setattr(args.fh, args.sattr, args.guard_ctime, now)
            if self.on_disk and res.status == 0:
                yield from self._metadata_write()
            return res.encode(), EMPTY
        if procnum == proto.PROC_LOOKUP:
            args = proto.decode_diropargs(dec)
            return fs.lookup(args.dir_fh, args.name).encode(), EMPTY
        if procnum == proto.PROC_ACCESS:
            args = proto.decode_access_args(dec)
            return fs.access(args.fh, args.access).encode(), EMPTY
        if procnum == proto.PROC_READLINK:
            return fs.readlink(proto.decode_fh_args(dec)).encode(), EMPTY
        if procnum == proto.PROC_READ:
            args = proto.decode_read_args(dec)
            yield from self.host.cpu_work(p.cpu_per_byte * args.count)
            if self.on_disk:
                yield from self._inode_read(args.fh)
                yield from self._read_blocks(args.fh, args.offset, args.count)
            res, data = fs.read(args.fh, args.offset, args.count, now)
            return res.encode(), data
        if procnum == proto.PROC_WRITE:
            args = proto.decode_write_args(dec)
            yield from self.host.cpu_work(p.cpu_per_byte * args.count)
            res = fs.write(
                args.fh, args.offset, body.slice(0, args.count),
                args.stable, self.verf, now,
            )
            if self.on_disk and res.status == 0:
                yield from self._inode_read(args.fh)
                yield from self._dirty_blocks(args.fh, args.offset, args.count)
                if args.stable in (DATA_SYNC, FILE_SYNC):
                    yield from self._flush_range(args.fh, args.offset, args.count)
            return res.encode(), EMPTY
        if procnum == proto.PROC_CREATE:
            args = proto.decode_create_args(dec)
            res = fs.create(args.dir_fh, args.name, args.mode, args.sattr, now)
            if self.on_disk and res.status == 0:
                yield from self._metadata_write()
            return res.encode(), EMPTY
        if procnum == proto.PROC_MKDIR:
            args = proto.decode_mkdir_args(dec)
            res = fs.mkdir(args.dir_fh, args.name, args.sattr, now)
            if self.on_disk and res.status == 0:
                yield from self._metadata_write()
            return res.encode(), EMPTY
        if procnum == proto.PROC_SYMLINK:
            args = proto.decode_symlink_args(dec)
            res = fs.symlink(args.dir_fh, args.name, args.path, now)
            if self.on_disk and res.status == 0:
                yield from self._metadata_write()
            return res.encode(), EMPTY
        if procnum == proto.PROC_REMOVE:
            args = proto.decode_diropargs(dec)
            res = fs.remove(args.dir_fh, args.name, now)
            if self.on_disk and res.status == 0:
                yield from self._metadata_write()
            return res.encode(), EMPTY
        if procnum == proto.PROC_RMDIR:
            args = proto.decode_diropargs(dec)
            res = fs.rmdir(args.dir_fh, args.name, now)
            if self.on_disk and res.status == 0:
                yield from self._metadata_write()
            return res.encode(), EMPTY
        if procnum == proto.PROC_RENAME:
            args = proto.decode_rename_args(dec)
            res = fs.rename(
                args.from_dir, args.from_name, args.to_dir, args.to_name, now
            )
            if self.on_disk and res.status == 0:
                yield from self._metadata_write()
            return res.encode(), EMPTY
        if procnum == proto.PROC_LINK:
            args = proto.decode_link_args(dec)
            res = fs.link(args.fh, args.dir_fh, args.name, now)
            if self.on_disk and res.status == 0:
                yield from self._metadata_write()
            return res.encode(), EMPTY
        if procnum in (proto.PROC_READDIR, proto.PROC_READDIRPLUS):
            args = proto.decode_readdir_args(dec)
            return fs.readdir(args.dir_fh, args.cookie).encode(), EMPTY
        if procnum == proto.PROC_FSSTAT:
            fh = proto.decode_fh_args(dec)
            attrs = fs.getattr(fh).attr
            nodes = fs.node_count()
            return proto.FsstatRes(
                0, attrs, tbytes=1 << 40, fbytes=(1 << 40) - nodes * 4096,
                abytes=(1 << 40) - nodes * 4096, tfiles=1 << 20,
                ffiles=(1 << 20) - nodes, afiles=(1 << 20) - nodes,
            ).encode(), EMPTY
        if procnum == proto.PROC_FSINFO:
            fh = proto.decode_fh_args(dec)
            return proto.FsinfoRes(0, fs.getattr(fh).attr).encode(), EMPTY
        if procnum == proto.PROC_PATHCONF:
            fh = proto.decode_fh_args(dec)
            return proto.PathconfRes(0, fs.getattr(fh).attr).encode(), EMPTY
        if procnum == proto.PROC_COMMIT:
            args = proto.decode_commit_args(dec)
            if self.on_disk:
                yield from self._flush_file(args.fh)
            return fs.commit(args.fh, self.verf).encode(), EMPTY
        from repro.nfs.errors import NFS3ERR_NOTSUPP

        return proto.GetattrRes(NFS3ERR_NOTSUPP).encode(), EMPTY
