"""NFS V3 client.

Models the paper's FreeBSD NFS/UDP client stack: synchronous RPC with
retransmission underneath, block-sized transfers with a bounded read-ahead
window and asynchronous write-behind on top, and a CPU cost model per
operation and per byte.  Single-client bandwidth in Table 2 is limited by
exactly these costs (writes saturate the client CPU; zero-copy reads are
bounded by the read-ahead depth), so they are explicit parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net import Address, Host
from repro.rpc import Credential, RpcClient
from repro.util.bytesim import Data, concat
from repro.util.hashing import md5_u64
from . import proto
from .errors import NfsError
from .fhandle import FHandle
from .types import Sattr3, UNSTABLE

__all__ = ["NfsClient", "ClientParams"]


@dataclass
class ClientParams:
    """Client stack behaviour and costs (defaults: the paper's 450 MHz PCs,
    32 KB NFS blocks, read-ahead of four blocks)."""

    rsize: int = 32 << 10
    wsize: int = 32 << 10
    readahead: int = 4  # blocks read ahead => readahead+1 outstanding
    write_window: int = 8  # outstanding asynchronous writes
    cpu_per_op: float = 55e-6
    read_cpu_per_byte: float = 14e-9  # zero-copy receive path
    write_cpu_per_byte: float = 22e-9
    mirror_write_cpu_per_byte: float = 7e-9  # µproxy duplication, on-client
    retrans_timeout: float = 0.7
    max_tries: int = 10


class NfsClient:
    """One mounted client of a (possibly virtual) NFS server."""

    def __init__(
        self,
        sim,
        host: Host,
        server: Address,
        port: int = 700,
        params: Optional[ClientParams] = None,
        machine_name: Optional[str] = None,
        uid: int = 0,
    ):
        self.sim = sim
        self.host = host
        self.server = server
        self.params = params or ClientParams()
        self.rpc = RpcClient(
            host, port,
            cred=Credential(machine_name or host.name, uid=uid, gid=uid),
            retrans_timeout=self.params.retrans_timeout,
            max_tries=self.params.max_tries,
            # A *stable* per-endpoint seed: the builtin hash() of a string
            # varies with PYTHONHASHSEED, which would make xid streams (and
            # with them retransmit jitter and every chaos-run digest) differ
            # between interpreter invocations.
            xid_seed=md5_u64(f"{host.name}:{port}".encode()) & 0xFFFF,
        )
        self.ops_sent = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- plumbing ------------------------------------------------------------

    JUKEBOX_RETRIES = 10
    JUKEBOX_DELAY = 0.15

    def _call(self, procnum: int, args: bytes, body: Data = None):
        from repro.nfs.errors import NFS3ERR_JUKEBOX
        from repro.util.bytesim import EMPTY

        payload = body if body is not None else EMPTY
        for attempt in range(self.JUKEBOX_RETRIES + 1):
            yield from self.host.cpu_work(self.params.cpu_per_op)
            self.ops_sent += 1
            dec, reply_body = yield from self.rpc.call(
                self.server, proto.NFS_PROGRAM, proto.NFS_V3, procnum, args,
                payload,
            )
            # Every NFS result starts with its status; JUKEBOX means "try
            # again later" (the server is briefly unable to serve — here,
            # a cross-site transaction lost its lock race).
            if dec.remaining >= 4:
                status = int.from_bytes(
                    dec.data[dec.offset:dec.offset + 4], "big"
                )
                if (
                    status == NFS3ERR_JUKEBOX
                    and attempt < self.JUKEBOX_RETRIES
                ):
                    yield self.sim.timeout(self.JUKEBOX_DELAY * (attempt + 1))
                    continue
            return dec, reply_body
        return dec, reply_body

    # -- name-space and attribute operations -----------------------------------

    def null(self):
        dec, _ = yield from self._call(proto.PROC_NULL, b"")
        return None

    def getattr(self, fh: bytes):
        dec, _ = yield from self._call(proto.PROC_GETATTR, proto.FhArgs(fh).encode())
        return proto.GetattrRes.decode(dec)

    def setattr(self, fh: bytes, sattr: Sattr3, guard: Optional[float] = None):
        dec, _ = yield from self._call(
            proto.PROC_SETATTR, proto.SetattrArgs(fh, sattr, guard).encode()
        )
        return proto.SetattrRes.decode(dec)

    def lookup(self, dir_fh: bytes, name: str):
        dec, _ = yield from self._call(
            proto.PROC_LOOKUP, proto.DirOpArgs(dir_fh, name).encode()
        )
        return proto.LookupRes.decode(dec)

    def access(self, fh: bytes, bits: int = 0x3F):
        dec, _ = yield from self._call(
            proto.PROC_ACCESS, proto.AccessArgs(fh, bits).encode()
        )
        return proto.AccessRes.decode(dec)

    def readlink(self, fh: bytes):
        dec, _ = yield from self._call(proto.PROC_READLINK, proto.FhArgs(fh).encode())
        return proto.ReadlinkRes.decode(dec)

    def create(self, dir_fh: bytes, name: str, mode: int = 1,
               sattr: Optional[Sattr3] = None):
        dec, _ = yield from self._call(
            proto.PROC_CREATE,
            proto.CreateArgs(dir_fh, name, mode, sattr or Sattr3()).encode(),
        )
        return proto.CreateRes.decode(dec)

    def mkdir(self, dir_fh: bytes, name: str, sattr: Optional[Sattr3] = None):
        dec, _ = yield from self._call(
            proto.PROC_MKDIR,
            proto.MkdirArgs(dir_fh, name, sattr or Sattr3()).encode(),
        )
        return proto.MkdirRes.decode(dec)

    def symlink(self, dir_fh: bytes, name: str, path: str):
        dec, _ = yield from self._call(
            proto.PROC_SYMLINK,
            proto.SymlinkArgs(dir_fh, name, Sattr3(), path).encode(),
        )
        return proto.SymlinkRes.decode(dec)

    def remove(self, dir_fh: bytes, name: str):
        dec, _ = yield from self._call(
            proto.PROC_REMOVE, proto.DirOpArgs(dir_fh, name).encode()
        )
        return proto.RemoveRes.decode(dec)

    def rmdir(self, dir_fh: bytes, name: str):
        dec, _ = yield from self._call(
            proto.PROC_RMDIR, proto.DirOpArgs(dir_fh, name).encode()
        )
        return proto.RemoveRes.decode(dec)

    def rename(self, from_dir: bytes, from_name: str, to_dir: bytes, to_name: str):
        dec, _ = yield from self._call(
            proto.PROC_RENAME,
            proto.RenameArgs(from_dir, from_name, to_dir, to_name).encode(),
        )
        return proto.RenameRes.decode(dec)

    def link(self, fh: bytes, dir_fh: bytes, name: str):
        dec, _ = yield from self._call(
            proto.PROC_LINK, proto.LinkArgs(fh, dir_fh, name).encode()
        )
        return proto.LinkRes.decode(dec)

    def readdir_page(self, dir_fh: bytes, cookie: int = 0, count: int = 4096):
        dec, _ = yield from self._call(
            proto.PROC_READDIR,
            proto.ReaddirArgs(dir_fh, cookie, 0, count).encode(),
        )
        return proto.ReaddirRes.decode(dec)

    def readdirplus_page(self, dir_fh: bytes, cookie: int = 0,
                         maxcount: int = 32768):
        dec, _ = yield from self._call(
            proto.PROC_READDIRPLUS,
            proto.ReaddirplusArgs(dir_fh, cookie, 0, 4096, maxcount).encode(),
        )
        return proto.ReaddirRes.decode(dec, plus=True)

    def readdir(self, dir_fh: bytes, count: int = 4096, plus: bool = False):
        """Full directory listing, following cookies to EOF."""
        entries = []
        cookie = 0
        while True:
            if plus:
                res = yield from self.readdirplus_page(dir_fh, cookie)
            else:
                res = yield from self.readdir_page(dir_fh, cookie, count)
            if res.status != 0:
                return res.status, entries
            entries.extend(res.entries)
            if res.eof or not res.entries:
                return 0, entries
            cookie = res.entries[-1].cookie

    def commit(self, fh: bytes, offset: int = 0, count: int = 0):
        dec, _ = yield from self._call(
            proto.PROC_COMMIT, proto.CommitArgs(fh, offset, count).encode()
        )
        return proto.CommitRes.decode(dec)

    # -- raw block I/O ---------------------------------------------------------

    def read(self, fh: bytes, offset: int, count: int):
        dec, body = yield from self._call(
            proto.PROC_READ, proto.ReadArgs(fh, offset, count).encode()
        )
        res = proto.ReadRes.decode(dec)
        if res.status == 0:
            yield from self.host.cpu_work(
                self.params.read_cpu_per_byte * body.length
            )
            self.bytes_read += body.length
        return res, body

    def write(self, fh: bytes, offset: int, data: Data, stable: int = UNSTABLE):
        yield from self.host.cpu_work(
            self.params.write_cpu_per_byte * data.length
        )
        if self._is_mirrored(fh):
            yield from self.host.cpu_work(
                self.params.mirror_write_cpu_per_byte * data.length
            )
        dec, _ = yield from self._call(
            proto.PROC_WRITE,
            proto.WriteArgs(fh, offset, data.length, stable).encode(),
            data,
        )
        res = proto.WriteRes.decode(dec)
        if res.status == 0:
            self.bytes_written += data.length
        return res

    @staticmethod
    def _is_mirrored(fh: bytes) -> bool:
        try:
            return FHandle.unpack(fh).mirrored
        except ValueError:
            return False

    # -- streaming file I/O (read-ahead / write-behind) -------------------------

    def read_file(self, fh: bytes, length: int, offset: int = 0) -> Data:
        """Generator: sequential read with a bounded read-ahead window;
        returns the file content as Data."""
        rsize = self.params.rsize
        window = self.params.readahead + 1
        chunks: List[Tuple[int, int]] = []
        pos = offset
        while pos < offset + length:
            step = min(rsize, offset + length - pos)
            chunks.append((pos, step))
            pos += step
        results: dict = {}
        stop_at = [len(chunks)]
        cursor = [0]

        def worker():
            while True:
                index = cursor[0]
                if index >= stop_at[0]:
                    return
                cursor[0] = index + 1
                chunk_off, chunk_len = chunks[index]
                res, body = yield from self.read(fh, chunk_off, chunk_len)
                if res.status != 0:
                    raise NfsError(res.status, f"read at {chunk_off}")
                results[chunk_off] = body
                if res.eof or body.length < chunk_len:
                    stop_at[0] = min(stop_at[0], index + 1)

        workers = [
            self.sim.process(worker(), name=f"nfs-read:{self.host.name}")
            for _ in range(min(window, len(chunks)))
        ]
        if workers:
            yield self.sim.all_of(workers)
        return concat([results[o] for o, _l in chunks if o in results])

    def write_file(self, fh: bytes, data: Data, offset: int = 0,
                   stable: int = UNSTABLE, do_commit: bool = True,
                   max_redrives: int = 3):
        """Generator: windowed write-behind plus commit, re-sending the data
        if the server's write verifier proves a reboot lost unstable writes.
        Returns the number of bytes durably written."""
        wsize = self.params.wsize
        chunks: List[Tuple[int, int]] = []
        pos = 0
        while pos < data.length:
            step = min(wsize, data.length - pos)
            chunks.append((pos, step))
            pos += step
        for attempt in range(max_redrives + 1):
            verfs: List[int] = []
            cursor = [0]
            failed: List[int] = []

            def worker():
                while cursor[0] < len(chunks):
                    index = cursor[0]
                    cursor[0] = index + 1
                    chunk_off, chunk_len = chunks[index]
                    res = yield from self.write(
                        fh, offset + chunk_off,
                        data.slice(chunk_off, chunk_off + chunk_len), stable,
                    )
                    if res.status != 0:
                        failed.append(res.status)
                        return
                    verfs.append(res.verf)

            workers = [
                self.sim.process(worker(), name=f"nfs-write:{self.host.name}")
                for _ in range(min(self.params.write_window, len(chunks)))
            ]
            if workers:
                yield self.sim.all_of(workers)
            if failed:
                raise NfsError(failed[0], "write")
            if stable != UNSTABLE or not do_commit:
                return data.length
            cres = yield from self.commit(fh, offset, data.length)
            if cres.status != 0:
                raise NfsError(cres.status, "commit")
            if all(v == cres.verf for v in verfs):
                return data.length
            # Verifier mismatch: a server lost our unstable writes; redrive.
        raise NfsError(5, "write verifier never stabilized")  # NFS3ERR_IO
