"""The directory server: name space and attribute management (§3.2, §4.3).

Each physical directory server hosts a set of *logical sites*.  Name
entries and attribute cells are placed on logical sites by the volume's
name-routing policy (mkdir switching or name hashing); the same code base
serves both because name cells carry remote keys to attribute cells on
other sites.

Durability follows the dataless-manager design: every mutation is journaled
to the site's write-ahead log in shared backing storage and synced (group
commit) before the reply; cross-site updates run two-phase commit with the
serving site as coordinator.  Recovery — which the paper's prototype left
unimplemented — rebuilds a site from checkpoint + log and resolves in-doubt
transactions with their coordinators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net import Address, Host
from repro.nfs import proto
from repro.nfs.errors import (
    NFS3ERR_EXIST,
    NFS3ERR_INVAL,
    NFS3ERR_ISDIR,
    NFS3ERR_JUKEBOX,
    NFS3ERR_NOENT,
    NFS3ERR_NOTDIR,
    NFS3ERR_NOTEMPTY,
    NFS3ERR_NOTSUPP,
    NFS3ERR_NOT_SYNC,
    NFS3ERR_STALE,
    NFS3_OK,
    SLICEERR_MISDIRECTED,
)
from repro.nfs.fhandle import FHandle
from repro.nfs.types import (
    DirEntry,
    Fattr3,
    NF3DIR,
    NF3LNK,
    NF3REG,
    Sattr3,
)
from repro.rpc import RpcClient, RpcServer, RpcTimeout
from repro.rpc.xdr import Decoder
from repro.storage import coordproto as cp
from repro.util.bytesim import EMPTY
from . import peerproto as pp
from .backing import BackingRegistry
from .config import NameConfig
from .locks import KeyLocks
from .state import AttrCell, NameCell, SiteState, attr_key_for, name_key_for

__all__ = ["DirectoryServer", "DirServerParams", "DIR_PORT", "COOKIE_SITE_SHIFT"]

DIR_PORT = 5049

# Readdir cookies carry the logical site in their top bits; the µproxy uses
# this to iterate a name-hashed directory across sites.
COOKIE_SITE_SHIFT = 48
COOKIE_LOCAL_MASK = (1 << COOKIE_SITE_SHIFT) - 1


@dataclass
class DirServerParams:
    cpu_per_op: float = 160e-6
    cpu_per_entry: float = 2e-6
    readdir_max_entries: int = 128
    checkpoint_interval: float = 120.0
    prepare_retries: int = 10
    retry_backoff: float = 0.015
    # Server-to-server calls use a short bounded retry; the end client's
    # own NFS retransmission provides the unbounded outer loop.
    peer_retrans_timeout: float = 0.5
    peer_max_tries: int = 4


class _Misdirected(Exception):
    """Request routed to a server that does not host the logical site."""


class _OpError(Exception):
    def __init__(self, status: int):
        super().__init__(f"nfs status {status}")
        self.status = status


class DirectoryServer:
    """One physical directory server hosting one or more logical sites."""

    _txid_counter = itertools.count(1)

    def __init__(
        self,
        sim,
        host: Host,
        config: NameConfig,
        backing: BackingRegistry,
        site_ids: List[int],
        *,
        peer_lookup: Callable[[int], Address],
        coordinator: Optional[Address] = None,
        params: Optional[DirServerParams] = None,
        volume: int = 1,
        port: int = DIR_PORT,
        mirror_files: bool = False,
        tracer=None,
    ):
        self.sim = sim
        self.host = host
        self.config = config
        self.backing = backing
        self.peer_lookup = peer_lookup
        self.coordinator = coordinator
        self.params = params or DirServerParams()
        self.volume = volume
        self.port = port
        self.mirror_files = mirror_files
        self.tracer = tracer
        self.server = RpcServer(host, port)
        self.server.tracer = tracer
        self.server.trace_component = f"dirsvc:{host.name}"
        self.server.register(proto.NFS_PROGRAM, self._nfs_service)
        self.server.register(pp.SLICE_PEER_PROGRAM, self._peer_service)
        self.client = RpcClient(
            host, port + 1,
            retrans_timeout=self.params.peer_retrans_timeout,
            max_tries=self.params.peer_max_tries,
        )
        self.sites: Dict[int, SiteState] = {}
        self.locks: Dict[int, KeyLocks] = {}
        # txid -> "c"/"a", this server acting as transaction coordinator.
        self.tx_outcomes: Dict[str, str] = {}
        # txid -> (site_id, ops), this server acting as participant.
        self.prepared: Dict[str, Tuple[int, List[Dict]]] = {}
        self.ops_served = 0
        self.cross_site_ops = 0
        self.misdirected = 0
        for site_id in site_ids:
            self._load_site(site_id)
        sim.process(self._checkpointer(), name=f"dir-ckpt:{host.name}")

    @property
    def address(self) -> Address:
        return self.server.address

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def telemetry_gauges(self, scope) -> None:
        """Register this manager's pull-gauges on a metrics scope."""
        scope.gauge("loaded_sites", fn=lambda: len(self.sites))
        scope.gauge(
            "wal_depth",
            fn=lambda: sum(
                self.backing.site("dir", sid).log.depth for sid in self.sites
            ),
        )
        scope.gauge(
            "wal_unsynced",
            fn=lambda: sum(
                self.backing.site("dir", sid).log.unsynced
                for sid in self.sites
            ),
        )
        scope.gauge("prepared_tx", fn=lambda: len(self.prepared))
        cpu = self.host.cpu
        scope.gauge("cpu_queue", fn=lambda: cpu.queue_length)
        scope.gauge("cpu_util", fn=cpu.utilization)

    # ------------------------------------------------------------------
    # site lifecycle
    # ------------------------------------------------------------------

    def _load_site(self, site_id: int) -> None:
        site_backing = self.backing.site("dir", site_id)
        state = SiteState.from_snapshot(site_backing.snapshot, site_id)
        pending: Dict[str, Dict] = {}
        for record in site_backing.log.stable_records():
            op = record.get("op")
            if op == "tx_prepare":
                pending[record["txid"]] = record
            elif op in ("tx_commit", "tx_abort"):
                pending.pop(record.get("txid"), None)
            elif op == "tx_decide":
                self.tx_outcomes[record["txid"]] = record["outcome"]
            else:
                state.apply_record(record)
        state.finish_recovery()
        self.sites[site_id] = state
        self.locks[site_id] = KeyLocks(self.sim)
        for txid, record in pending.items():
            self.prepared[txid] = (site_id, record["ops"])
            self.sim.process(
                self._resolve_in_doubt(txid, site_id, record),
                name=f"dir-resolve:{self.host.name}",
            )

    def unload_site(self, site_id: int) -> int:
        """Checkpoint a site and stop hosting it (reconfiguration step).

        Returns the number of cells handed over (the moved data)."""
        state = self.sites.pop(site_id, None)
        if state is None:
            return 0
        self.locks.pop(site_id, None)
        site_backing = self.backing.site("dir", site_id)
        site_backing.checkpoint(state.snapshot())
        return state.cell_count()

    def load_site(self, site_id: int) -> None:
        """Start hosting a logical site (reconfiguration/failover step)."""
        if site_id not in self.sites:
            self._load_site(site_id)

    def hosted_sites(self) -> List[int]:
        return sorted(self.sites)

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        """Lose all in-memory state; backing storage (shared array) survives.

        Log records appended but never synced lived in this server's memory
        buffer, so they die with it.
        """
        for site_id in self.sites:
            self.backing.site("dir", site_id).log.crash()
        self.host.crash()
        self.sites.clear()
        self.locks.clear()
        self.prepared.clear()
        self.server.clear_duplicate_cache()

    def restart(self, site_ids: Optional[List[int]] = None) -> None:
        self.host.restart()
        for site_id in site_ids or []:
            self._load_site(site_id)

    def _checkpointer(self):
        while True:
            yield self.sim.timeout(self.params.checkpoint_interval)
            if not self.host.up:
                continue
            for site_id, state in list(self.sites.items()):
                site_backing = self.backing.site("dir", site_id)
                yield from site_backing.log.sync()
                site_backing.checkpoint(state.snapshot())

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _state(self, site: int) -> SiteState:
        state = self.sites.get(site)
        if state is None:
            self.misdirected += 1
            if self.tracer is not None:
                self.tracer.event(
                    f"dirsvc:{self.host.name}", "misdirected",
                    self.sim.now, site=site,
                )
            raise _Misdirected(site)
        return state

    def _log(self, site: int):
        return self.backing.site("dir", site).log

    def _journal(self, site: int, records: List[Dict]):
        log = self._log(site)
        for record in records:
            log.append(record)
        yield from log.sync()

    def _journal_pairs(self, pairs: List[Tuple[int, Dict]]):
        """Journal (site, record) pairs, each to its own site's log, then
        sync every touched log (group commit batches concurrent ops)."""
        logs = []
        for site, record in pairs:
            log = self._log(site)
            log.append(record)
            if log not in logs:
                logs.append(log)
        for log in logs:
            yield from log.sync()

    def _now(self) -> float:
        return self.host.clock()

    def _fh(self, raw: bytes) -> FHandle:
        try:
            return FHandle.unpack(raw)
        except ValueError:
            raise _OpError(NFS3ERR_STALE)

    def _attrs_of(self, state: SiteState, fileid: int) -> Optional[AttrCell]:
        return state.get_attr_cell(attr_key_for(fileid))

    def _new_txid(self) -> str:
        return f"{self.host.name}:{next(self._txid_counter)}"

    # ------------------------------------------------------------------
    # NFS service
    # ------------------------------------------------------------------

    _ERROR_RES = {
        proto.PROC_GETATTR: lambda s: proto.GetattrRes(s),
        proto.PROC_SETATTR: lambda s: proto.SetattrRes(s),
        proto.PROC_LOOKUP: lambda s: proto.LookupRes(s),
        proto.PROC_ACCESS: lambda s: proto.AccessRes(s),
        proto.PROC_READLINK: lambda s: proto.ReadlinkRes(s),
        proto.PROC_CREATE: lambda s: proto.CreateRes(s),
        proto.PROC_MKDIR: lambda s: proto.MkdirRes(s),
        proto.PROC_SYMLINK: lambda s: proto.SymlinkRes(s),
        proto.PROC_MKNOD: lambda s: proto.CreateRes(s),
        proto.PROC_REMOVE: lambda s: proto.RemoveRes(s),
        proto.PROC_RMDIR: lambda s: proto.RemoveRes(s),
        proto.PROC_RENAME: lambda s: proto.RenameRes(s),
        proto.PROC_LINK: lambda s: proto.LinkRes(s),
        proto.PROC_READDIR: lambda s: proto.ReaddirRes(s),
        proto.PROC_READDIRPLUS: lambda s: proto.ReaddirRes(s, plus=True),
        proto.PROC_FSSTAT: lambda s: proto.FsstatRes(s),
        proto.PROC_FSINFO: lambda s: proto.FsinfoRes(s),
        proto.PROC_PATHCONF: lambda s: proto.PathconfRes(s),
        proto.PROC_COMMIT: lambda s: proto.CommitRes(s),
        proto.PROC_READ: lambda s: proto.ReadRes(s),
        proto.PROC_WRITE: lambda s: proto.WriteRes(s),
    }

    _HANDLERS = {}

    def _nfs_service(self, procnum: int, dec: Decoder, body, src):
        handler = self._HANDLERS.get(procnum)
        yield from self.host.cpu_work(self.params.cpu_per_op)
        if procnum == proto.PROC_NULL:
            return b"", EMPTY
        if handler is None:
            res = self._ERROR_RES.get(procnum, proto.GetattrRes)(NFS3ERR_NOTSUPP)
            return res.encode(), EMPTY
        try:
            res = yield from handler(self, dec)
        except _Misdirected:
            res = self._ERROR_RES[procnum](SLICEERR_MISDIRECTED)
        except _OpError as exc:
            res = self._ERROR_RES[procnum](exc.status)
        self.ops_served += 1
        return res.encode(), EMPTY

    # -- reads ------------------------------------------------------------

    def _op_getattr(self, dec):
        fh = self._fh(proto.decode_fh_args(dec))
        state = self._state(fh.home_site)
        cell = state.get_attr_cell(fh.key)
        if cell is None:
            return proto.GetattrRes(NFS3ERR_STALE)
        yield from ()
        return proto.GetattrRes(NFS3_OK, cell.to_fattr())

    def _op_access(self, dec):
        args = proto.decode_access_args(dec)
        fh = self._fh(args.fh)
        state = self._state(fh.home_site)
        cell = state.get_attr_cell(fh.key)
        if cell is None:
            return proto.AccessRes(NFS3ERR_STALE)
        yield from ()
        return proto.AccessRes(NFS3_OK, cell.to_fattr(), args.access)

    def _op_readlink(self, dec):
        fh = self._fh(proto.decode_fh_args(dec))
        state = self._state(fh.home_site)
        cell = state.get_attr_cell(fh.key)
        if cell is None:
            return proto.ReadlinkRes(NFS3ERR_STALE)
        if cell.ftype != NF3LNK:
            return proto.ReadlinkRes(NFS3ERR_INVAL)
        yield from ()
        return proto.ReadlinkRes(NFS3_OK, cell.to_fattr(), cell.symlink_target)

    def _op_lookup(self, dec):
        args = proto.decode_diropargs(dec)
        dir_fh = self._fh(args.dir_fh)
        if dir_fh.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        site = self.config.entry_site(dir_fh, args.name)
        state = self._state(site)
        dir_attr = self._local_dir_attr(dir_fh)
        if args.name == ".":
            attr = yield from self._fetch_attrs(dir_fh.home_site, dir_fh.key)
            if attr is None:
                return proto.LookupRes(NFS3ERR_STALE)
            return proto.LookupRes(
                NFS3_OK, attr.to_fh(self.volume).pack(), attr.to_fattr(), dir_attr
            )
        if args.name == "..":
            attr = yield from self._fetch_attrs(dir_fh.home_site, dir_fh.key)
            if attr is None:
                return proto.LookupRes(NFS3ERR_STALE)
            parent_key = attr_key_for(attr.parent_fileid)
            pattr = yield from self._fetch_attrs(attr.parent_site, parent_key)
            if pattr is None:
                return proto.LookupRes(NFS3ERR_NOENT, dir_attr=dir_attr)
            return proto.LookupRes(
                NFS3_OK, pattr.to_fh(self.volume).pack(), pattr.to_fattr(), dir_attr
            )
        cell = state.get_name_cell(dir_fh.fileid, args.name)
        if cell is None:
            return proto.LookupRes(NFS3ERR_NOENT, dir_attr=dir_attr)
        target_fh = cell.target_fh(self.volume)
        attr = yield from self._fetch_attrs(cell.target_site, target_fh.key)
        fattr = attr.to_fattr() if attr is not None else None
        return proto.LookupRes(NFS3_OK, target_fh.pack(), fattr, dir_attr)

    def _local_dir_attr(self, dir_fh: FHandle) -> Optional[Fattr3]:
        state = self.sites.get(dir_fh.home_site)
        if state is None:
            return None
        cell = state.get_attr_cell(dir_fh.key)
        return cell.to_fattr() if cell else None

    def _fetch_attrs(self, site: int, key: bytes):
        """Generator: attribute cell from a local site or via the peer
        protocol ("following a cross-site link")."""
        state = self.sites.get(site)
        if state is not None:
            yield from ()
            return state.get_attr_cell(key)
        self.cross_site_ops += 1
        try:
            dec, _ = yield from self.client.call(
                self.peer_lookup(site), pp.SLICE_PEER_PROGRAM, pp.PEER_V1,
                pp.PEER_GET_ATTRS, pp.encode_key_args(site, key),
            )
        except RpcTimeout:
            return None
        doc = pp.decode_json(dec)
        if doc.get("status") != 0:
            return None
        return AttrCell(**doc["cell"])

    # -- readdir -----------------------------------------------------------

    def _op_readdir(self, dec):
        args = proto.decode_readdir_args(dec)
        res = yield from self._readdir_common(
            args.dir_fh, args.cookie, args.count, plus=False
        )
        return res

    def _op_readdirplus(self, dec):
        args = proto.decode_readdirplus_args(dec)
        res = yield from self._readdir_common(
            args.dir_fh, args.cookie, args.maxcount, plus=True
        )
        return res

    def _readdir_common(self, raw_fh: bytes, cookie: int, count: int, plus: bool):
        dir_fh = self._fh(raw_fh)
        if dir_fh.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        site = cookie >> COOKIE_SITE_SHIFT
        local_cookie = cookie & COOKIE_LOCAL_MASK
        if cookie == 0:
            site = dir_fh.home_site
        state = self._state(site)
        entries: List[DirEntry] = []
        budget = max(8, min(count // 32, self.params.readdir_max_entries))
        site_bits = site << COOKIE_SITE_SHIFT

        def add(fileid, name, local, attr=None, fh=None):
            entries.append(DirEntry(fileid, name, site_bits | local, attr, fh))

        if site == dir_fh.home_site:
            dir_cell = state.get_attr_cell(dir_fh.key)
            if dir_cell is None:
                return proto.ReaddirRes(NFS3ERR_STALE, plus=plus)
            if local_cookie < 1:
                add(dir_fh.fileid, ".", 1,
                    dir_cell.to_fattr() if plus else None,
                    raw_fh if plus else None)
            if local_cookie < 2:
                add(dir_cell.parent_fileid or dir_fh.fileid, "..", 2)
        for cell in state.entries_of(dir_fh.fileid):
            if cell.cookie <= local_cookie:
                continue
            if len(entries) >= budget:
                break
            attr = None
            fh = None
            if plus:
                target_state = self.sites.get(cell.target_site)
                if target_state is not None:
                    target_cell = target_state.get_attr_cell(
                        attr_key_for(cell.target_fileid)
                    )
                    if target_cell is not None:
                        attr = target_cell.to_fattr()
                fh = cell.target_fh(self.volume).pack()
            add(cell.target_fileid, cell.name, cell.cookie, attr, fh)
        yield from self.host.cpu_work(self.params.cpu_per_entry * len(entries))
        # eof for THIS site: nothing hosted here follows the last cookie we
        # emitted (the µproxy chains sites for name-hashed directories).
        last_local = (
            (entries[-1].cookie & COOKIE_LOCAL_MASK) if entries else local_cookie
        )
        all_cells = state.entries_of(dir_fh.fileid)
        eof = not any(cell.cookie > last_local for cell in all_cells)
        dir_attr = self._local_dir_attr(dir_fh)
        return proto.ReaddirRes(
            NFS3_OK, dir_attr, cookieverf=1, entries=entries, eof=eof, plus=plus
        )

    # -- attribute updates ---------------------------------------------------

    def _op_setattr(self, dec):
        args = proto.decode_setattr_args(dec)
        fh = self._fh(args.fh)
        state = self._state(fh.home_site)
        cell = state.get_attr_cell(fh.key)
        if cell is None:
            return proto.SetattrRes(NFS3ERR_STALE)
        if args.guard_ctime is not None and abs(cell.ctime - args.guard_ctime) > 1e-6:
            return proto.SetattrRes(NFS3ERR_NOT_SYNC)
        now = self._now()
        sattr = args.sattr
        if sattr.mode is not None:
            cell.mode = sattr.mode
        if sattr.uid is not None:
            cell.uid = sattr.uid
        if sattr.gid is not None:
            cell.gid = sattr.gid
        truncating = (
            sattr.size is not None
            and cell.ftype == NF3REG
            and sattr.size < cell.size
        )
        if sattr.size is not None and cell.ftype == NF3REG:
            cell.size = sattr.size
        if sattr.atime is not None:
            cell.atime = now if sattr.atime == "server" else sattr.atime
        if sattr.mtime is not None:
            cell.mtime = now if sattr.mtime == "server" else sattr.mtime
        cell.ctime = now
        yield from self._journal(fh.home_site, [state.put_attr_cell(cell)])
        if truncating and self.coordinator is not None:
            yield from self._reclaim(fh, truncate_to=sattr.size, remove=False)
        return proto.SetattrRes(NFS3_OK, cell.to_fattr())

    def _reclaim(self, fh: FHandle, truncate_to: int = 0, remove: bool = True):
        try:
            yield from self.client.call(
                self.coordinator, cp.SLICE_COORD_PROGRAM, cp.COORD_V1,
                cp.COORD_RECLAIM,
                cp.encode_reclaim_args(fh.pack(), truncate_to, remove),
            )
        except RpcTimeout:
            pass  # coordinator recovers the reclaim from its own log

    # -- create-family --------------------------------------------------------

    def _op_create(self, dec):
        args = proto.decode_create_args(dec)
        res = yield from self._create_common(
            args.dir_fh, args.name, NF3REG, args.sattr, args.mode, ""
        )
        return res

    def _op_symlink(self, dec):
        args = proto.decode_symlink_args(dec)
        res = yield from self._create_common(
            args.dir_fh, args.name, NF3LNK, args.sattr, 0, args.path
        )
        return res

    def _create_common(self, raw_dir, name, ftype, sattr: Sattr3, mode, linkpath):
        dir_fh = self._fh(raw_dir)
        if dir_fh.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        site = self.config.entry_site(dir_fh, name)
        state = self._state(site)
        locks = self.locks[site]
        name_key = name_key_for(dir_fh.fileid, name)
        yield from locks.acquire(name_key)
        try:
            existing = state.get_name_cell(dir_fh.fileid, name)
            if existing is not None:
                if mode != 0:  # GUARDED / EXCLUSIVE
                    raise _OpError(NFS3ERR_EXIST)
                target_fh = existing.target_fh(self.volume)
                attr = yield from self._fetch_attrs(
                    existing.target_site, target_fh.key
                )
                return proto.CreateRes(
                    NFS3_OK, target_fh.pack(),
                    attr.to_fattr() if attr else None,
                    self._local_dir_attr(dir_fh),
                )
            now = self._now()
            flags = 0
            if ftype == NF3REG and self.mirror_files:
                from repro.nfs.fhandle import FLAG_MIRRORED

                flags = FLAG_MIRRORED
            cell = AttrCell(
                fileid=state.alloc_fileid(), ftype=ftype,
                mode=sattr.mode if sattr.mode is not None else 0o644,
                nlink=1, uid=sattr.uid or 0, gid=sattr.gid or 0,
                size=len(linkpath) if ftype == NF3LNK else 0,
                atime=now, mtime=now, ctime=now,
                flags=flags, home_site=site,
                symlink_target=linkpath,
            )
            cell.parent_fileid = dir_fh.fileid
            cell.parent_site = dir_fh.home_site
            name_cell = NameCell(
                dir_fh.fileid, name, cell.fileid, ftype, flags, site
            )
            pairs = [
                (site, state.put_attr_cell(cell)),
                (site, state.put_name_cell(name_cell)),
            ]
            pairs.extend(self._touch_local_dir(dir_fh, now))
            yield from self._journal_pairs(pairs)
            yield from self._touch_remote_dir(dir_fh, now)
            return proto.CreateRes(
                NFS3_OK, cell.to_fh(self.volume).pack(), cell.to_fattr(),
                self._local_dir_attr(dir_fh),
            )
        finally:
            locks.release(name_key)

    def _touch_local_dir(self, dir_fh: FHandle, now: float,
                         nlink_delta: int = 0) -> List[Tuple[int, Dict]]:
        """Update the parent directory's mtime (and optionally nlink) if its
        attribute cell is hosted here; returns (site, record) pairs."""
        state = self.sites.get(dir_fh.home_site)
        if state is None:
            return []
        cell = state.get_attr_cell(dir_fh.key)
        if cell is None:
            return []
        cell.mtime = now
        cell.ctime = now
        if nlink_delta:
            cell.nlink = max(1, cell.nlink + nlink_delta)
        return [(dir_fh.home_site, state.put_attr_cell(cell))]

    def _touch_remote_dir(self, dir_fh: FHandle, now: float):
        """Best-effort remote parent mtime update (timestamps are allowed to
        drift; link counts are not, and go through transactions instead)."""
        if dir_fh.home_site in self.sites:
            return
        self.cross_site_ops += 1
        try:
            yield from self.client.call(
                self.peer_lookup(dir_fh.home_site), pp.SLICE_PEER_PROGRAM,
                pp.PEER_V1, pp.PEER_TOUCH,
                pp.encode_touch_args(dir_fh.home_site, dir_fh.key, now),
            )
        except RpcTimeout:
            pass

    def _op_mkdir(self, dec):
        args = proto.decode_mkdir_args(dec)
        dir_fh = self._fh(args.dir_fh)
        if dir_fh.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        # The µproxy and the server derive the same (deterministic) mkdir
        # switching decision, so the new directory's home is unambiguous.
        site = self.config.mkdir_site(dir_fh, args.name)
        entry_site = self.config.entry_site(dir_fh, args.name)
        state = self._state(site)
        now = self._now()
        cell = AttrCell(
            fileid=state.alloc_fileid(), ftype=NF3DIR,
            mode=args.sattr.mode if args.sattr.mode is not None else 0o755,
            nlink=2, uid=args.sattr.uid or 0, gid=args.sattr.gid or 0,
            size=0, atime=now, mtime=now, ctime=now,
            flags=0, home_site=site,
            parent_fileid=dir_fh.fileid, parent_site=dir_fh.home_site,
        )
        name_cell = NameCell(
            dir_fh.fileid, args.name, cell.fileid, NF3DIR, 0, site
        )
        if entry_site in self.sites:
            # Name entry hosted here: single-server commit.
            entry_state = self.sites[entry_site]
            locks = self.locks[entry_site]
            name_key = name_key_for(dir_fh.fileid, args.name)
            yield from locks.acquire(name_key)
            try:
                if entry_state.get_name_cell(dir_fh.fileid, args.name):
                    raise _OpError(NFS3ERR_EXIST)
                pairs = [
                    (site, state.put_attr_cell(cell)),
                    (entry_site, entry_state.put_name_cell(name_cell)),
                ]
                pairs.extend(self._touch_local_dir(dir_fh, now, nlink_delta=1))
                yield from self._journal_pairs(pairs)
            finally:
                locks.release(name_key)
            if dir_fh.home_site not in self.sites:
                # Parent attributes on a remote server (name hashing):
                # bump its link count transactionally.
                ops = [{
                    "op": "touch_dir", "key": dir_fh.key.hex(),
                    "mtime": now, "nlink_delta": 1,
                }]
                status = yield from self._run_remote_tx(
                    dir_fh.home_site, site, ops, local_records=lambda: []
                )
                if status != NFS3_OK:
                    raise _OpError(status)
        else:
            # Orphaned directory (§3.3.2): the name entry and parent link
            # count live on another server — two-phase commit.
            ops = [
                {
                    "op": "put_name", "parent": dir_fh.fileid,
                    "name": args.name, "t_fileid": cell.fileid,
                    "t_ftype": NF3DIR, "t_flags": 0, "t_site": site,
                    "must_not_exist": True,
                },
                {
                    "op": "touch_dir", "key": dir_fh.key.hex(),
                    "mtime": now, "nlink_delta": 1,
                },
            ]
            status = yield from self._run_remote_tx(
                entry_site, site, ops,
                local_records=lambda: [(site, state.put_attr_cell(cell))],
            )
            if status != NFS3_OK:
                raise _OpError(status)
        return proto.MkdirRes(
            NFS3_OK, cell.to_fh(self.volume).pack(), cell.to_fattr(),
            self._local_dir_attr(dir_fh),
        )

    # -- remove-family --------------------------------------------------------

    def _op_remove(self, dec):
        args = proto.decode_diropargs(dec)
        res = yield from self._remove_common(args.dir_fh, args.name, rmdir=False)
        return res

    def _op_rmdir(self, dec):
        args = proto.decode_diropargs(dec)
        res = yield from self._remove_common(args.dir_fh, args.name, rmdir=True)
        return res

    def _remove_common(self, raw_dir, name, rmdir: bool):
        dir_fh = self._fh(raw_dir)
        if dir_fh.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        site = self.config.entry_site(dir_fh, name)
        state = self._state(site)
        locks = self.locks[site]
        name_key = name_key_for(dir_fh.fileid, name)
        yield from locks.acquire(name_key)
        try:
            cell = state.get_name_cell(dir_fh.fileid, name)
            if cell is None:
                raise _OpError(NFS3ERR_NOENT)
            if rmdir and cell.target_ftype != NF3DIR:
                raise _OpError(NFS3ERR_NOTDIR)
            if not rmdir and cell.target_ftype == NF3DIR:
                raise _OpError(NFS3ERR_ISDIR)
            now = self._now()
            if rmdir:
                empty = yield from self._dir_is_empty(cell.target_fileid)
                if not empty:
                    raise _OpError(NFS3ERR_NOTEMPTY)
            if cell.target_site in self.sites:
                pairs = [(site, state.del_name_cell(dir_fh.fileid, name))]
                pairs.extend(
                    self._dec_link_local(cell.target_site, cell, now, rmdir)
                )
                pairs.extend(
                    self._touch_local_dir(dir_fh, now, nlink_delta=-1 if rmdir else 0)
                )
                yield from self._journal_pairs(pairs)
                yield from self._touch_remote_dir(dir_fh, now)
            else:
                ops = [{
                    "op": "dec_link",
                    "key": attr_key_for(cell.target_fileid).hex(),
                    "ctime": now,
                    "drop": 2 if rmdir else 1,
                }]
                pairs_fn = lambda: (
                    [(site, state.del_name_cell(dir_fh.fileid, name))]
                    + self._touch_local_dir(
                        dir_fh, now, nlink_delta=-1 if rmdir else 0
                    )
                )
                status = yield from self._run_remote_tx(
                    cell.target_site, site, ops, local_records=pairs_fn
                )
                if status != NFS3_OK:
                    raise _OpError(status)
                yield from self._touch_remote_dir(dir_fh, now)
            return proto.RemoveRes(NFS3_OK, self._local_dir_attr(dir_fh))
        finally:
            locks.release(name_key)

    def _dec_link_local(self, site: int, name_cell: NameCell, now: float,
                        is_dir: bool) -> List[Tuple[int, Dict]]:
        state = self.sites[site]
        key = attr_key_for(name_cell.target_fileid)
        cell = state.get_attr_cell(key)
        if cell is None:
            return []
        cell.nlink -= 2 if is_dir else 1
        cell.ctime = now
        if cell.nlink <= 0:
            record = state.del_attr_cell(key)
            if cell.ftype == NF3REG and self.coordinator is not None:
                self.sim.process(
                    self._reclaim(cell.to_fh(self.volume)),
                    name=f"reclaim:{self.host.name}",
                )
            return [(site, record)]
        return [(site, state.put_attr_cell(cell))]

    def _dir_is_empty(self, dir_fileid: int):
        """Generator: check a directory has no entries on any relevant site."""
        if self.config.readdir_spans_sites():
            sites = list(range(self.config.num_logical_sites))
        else:
            # Entries of a directory live only on its home site.
            sites = None  # all hosted + the home site (see below)
        if sites is None:
            # mkdir switching: every entry of dir is at the dir's home site,
            # which is where the dec_link'd attr cell lives.  Check every
            # hosted site plus (via peers) the home if remote.
            local_total = sum(
                state.count_entries(dir_fileid) for state in self.sites.values()
            )
            if local_total:
                return False
            # The home site may be remote; find it from any name cell?  The
            # caller holds the target fhandle's site via the name cell; to
            # keep this simple and correct we also ask all peers.
            sites = list(range(self.config.num_logical_sites))
        by_server: Dict[Address, List[int]] = {}
        local_count = 0
        for s in sites:
            if s in self.sites:
                local_count += self.sites[s].count_entries(dir_fileid)
            else:
                by_server.setdefault(self.peer_lookup(s), []).append(s)
        if local_count:
            return False
        for addr, remote_sites in by_server.items():
            self.cross_site_ops += 1
            try:
                dec, _ = yield from self.client.call(
                    addr, pp.SLICE_PEER_PROGRAM, pp.PEER_V1, pp.PEER_COUNT,
                    pp.encode_count_args(dir_fileid, remote_sites),
                )
            except RpcTimeout:
                raise _OpError(NFS3ERR_JUKEBOX)
            if pp.decode_json(dec).get("count", 0):
                return False
        return True

    # -- link & rename ------------------------------------------------------

    def _op_link(self, dec):
        args = proto.decode_link_args(dec)
        file_fh = self._fh(args.fh)
        dir_fh = self._fh(args.dir_fh)
        if dir_fh.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        if file_fh.ftype == NF3DIR:
            raise _OpError(NFS3ERR_ISDIR)
        site = self.config.entry_site(dir_fh, args.name)
        state = self._state(site)
        locks = self.locks[site]
        name_key = name_key_for(dir_fh.fileid, args.name)
        yield from locks.acquire(name_key)
        try:
            if state.get_name_cell(dir_fh.fileid, args.name):
                raise _OpError(NFS3ERR_EXIST)
            now = self._now()
            name_cell = NameCell(
                dir_fh.fileid, args.name, file_fh.fileid, file_fh.ftype,
                file_fh.flags, file_fh.home_site,
            )
            if file_fh.home_site in self.sites:
                target_state = self.sites[file_fh.home_site]
                cell = target_state.get_attr_cell(file_fh.key)
                if cell is None:
                    raise _OpError(NFS3ERR_STALE)
                cell.nlink += 1
                cell.ctime = now
                pairs = [
                    (site, state.put_name_cell(name_cell)),
                    (file_fh.home_site, target_state.put_attr_cell(cell)),
                ]
                pairs.extend(self._touch_local_dir(dir_fh, now))
                yield from self._journal_pairs(pairs)
                file_attr = cell.to_fattr()
            else:
                ops = [{
                    "op": "adj_link", "key": file_fh.key.hex(),
                    "delta": 1, "ctime": now,
                }]
                status = yield from self._run_remote_tx(
                    file_fh.home_site, site, ops,
                    local_records=lambda: (
                        [(site, state.put_name_cell(name_cell))]
                        + self._touch_local_dir(dir_fh, now)
                    ),
                )
                if status != NFS3_OK:
                    raise _OpError(status)
                attr = yield from self._fetch_attrs(file_fh.home_site, file_fh.key)
                file_attr = attr.to_fattr() if attr else None
            yield from self._touch_remote_dir(dir_fh, now)
            return proto.LinkRes(NFS3_OK, file_attr, self._local_dir_attr(dir_fh))
        finally:
            locks.release(name_key)

    def _op_rename(self, dec):
        """Rename, implemented as link-then-remove across sites (§4.3)."""
        args = proto.decode_rename_args(dec)
        from_dir = self._fh(args.from_dir)
        to_dir = self._fh(args.to_dir)
        if from_dir.ftype != NF3DIR or to_dir.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        to_site = self.config.entry_site(to_dir, args.to_name)
        from_site = self.config.entry_site(from_dir, args.from_name)
        state = self._state(to_site)
        locks = self.locks[to_site]
        to_key = name_key_for(to_dir.fileid, args.to_name)
        yield from locks.acquire(to_key)
        try:
            # 1. Find the source entry.
            if from_site in self.sites:
                src_cell = self.sites[from_site].get_name_cell(
                    from_dir.fileid, args.from_name
                )
            else:
                src_cell = yield from self._peer_get_entry(
                    from_site, from_dir.fileid, args.from_name
                )
            if src_cell is None:
                raise _OpError(NFS3ERR_NOENT)
            now = self._now()
            same_entry = (
                from_dir.fileid == to_dir.fileid
                and args.from_name == args.to_name
            )
            if same_entry:
                return proto.RenameRes(
                    NFS3_OK, self._local_dir_attr(from_dir),
                    self._local_dir_attr(to_dir),
                )
            # 2. Deal with an existing target entry (overwrite semantics).
            existing = state.get_name_cell(to_dir.fileid, args.to_name)
            if existing is not None:
                if existing.target_ftype == NF3DIR:
                    empty = yield from self._dir_is_empty(existing.target_fileid)
                    if not empty:
                        raise _OpError(NFS3ERR_NOTEMPTY)
                yield from self._unlink_target(state, existing, now)
            # 3. Install the new entry locally.
            new_cell = NameCell(
                to_dir.fileid, args.to_name, src_cell.target_fileid,
                src_cell.target_ftype, src_cell.target_flags,
                src_cell.target_site,
            )
            pairs = [(to_site, state.put_name_cell(new_cell))]
            pairs.extend(self._touch_local_dir(to_dir, now))
            yield from self._journal_pairs(pairs)
            # 4. Remove the old entry (locally or via the peer tx).
            if from_site in self.sites:
                from_state = self.sites[from_site]
                pairs = [(
                    from_site,
                    from_state.del_name_cell(from_dir.fileid, args.from_name),
                )]
                pairs.extend(self._touch_local_dir(from_dir, now))
                yield from self._journal_pairs(pairs)
            else:
                ops = [{
                    "op": "del_name", "parent": from_dir.fileid,
                    "name": args.from_name,
                }]
                status = yield from self._run_remote_tx(
                    from_site, to_site, ops, local_records=lambda: []
                )
                if status != NFS3_OK:
                    raise _OpError(status)
            # 5. Directory link counts & parent pointer for moved dirs.
            if (
                src_cell.target_ftype == NF3DIR
                and from_dir.fileid != to_dir.fileid
            ):
                yield from self._move_dir_bookkeeping(
                    src_cell, from_dir, to_dir, now
                )
            yield from self._touch_remote_dir(from_dir, now)
            yield from self._touch_remote_dir(to_dir, now)
            return proto.RenameRes(
                NFS3_OK, self._local_dir_attr(from_dir),
                self._local_dir_attr(to_dir),
            )
        finally:
            locks.release(to_key)

    def _unlink_target(self, state: SiteState, cell: NameCell, now: float):
        """Drop the object a rename overwrites."""
        if cell.target_site in self.sites:
            pairs = self._dec_link_local(
                cell.target_site, cell, now, cell.target_ftype == NF3DIR
            )
            if pairs:
                yield from self._journal_pairs(pairs)
            return
        ops = [{
            "op": "dec_link", "key": attr_key_for(cell.target_fileid).hex(),
            "ctime": now, "drop": 2 if cell.target_ftype == NF3DIR else 1,
        }]
        status = yield from self._run_remote_tx(
            cell.target_site, cell.target_site, ops, local_records=lambda: []
        )
        if status != NFS3_OK:
            raise _OpError(status)

    def _move_dir_bookkeeping(self, src_cell, from_dir, to_dir, now):
        """A directory moved between parents: fix nlink and parent pointer."""
        for dfh, delta in ((from_dir, -1), (to_dir, +1)):
            if dfh.home_site in self.sites:
                st = self.sites[dfh.home_site]
                cell = st.get_attr_cell(dfh.key)
                if cell:
                    cell.nlink = max(2, cell.nlink + delta)
                    cell.ctime = now
                    yield from self._journal(
                        dfh.home_site, [st.put_attr_cell(cell)]
                    )
            else:
                ops = [{
                    "op": "touch_dir", "key": dfh.key.hex(),
                    "mtime": now, "nlink_delta": delta,
                }]
                yield from self._run_remote_tx(
                    dfh.home_site, dfh.home_site, ops, local_records=lambda: []
                )
        # Update the moved directory's parent pointer at its home site.
        key = attr_key_for(src_cell.target_fileid)
        if src_cell.target_site in self.sites:
            st = self.sites[src_cell.target_site]
            cell = st.get_attr_cell(key)
            if cell:
                cell.parent_fileid = to_dir.fileid
                cell.parent_site = to_dir.home_site
                yield from self._journal(
                    src_cell.target_site, [st.put_attr_cell(cell)]
                )
        else:
            ops = [{
                "op": "set_parent", "key": key.hex(),
                "parent_fileid": to_dir.fileid, "parent_site": to_dir.home_site,
            }]
            yield from self._run_remote_tx(
                src_cell.target_site, src_cell.target_site, ops,
                local_records=lambda: [],
            )

    def _peer_get_entry(self, site: int, parent_fileid: int, name: str):
        self.cross_site_ops += 1
        try:
            dec, _ = yield from self.client.call(
                self.peer_lookup(site), pp.SLICE_PEER_PROGRAM, pp.PEER_V1,
                pp.PEER_GET_ENTRY, pp.encode_entry_args(site, parent_fileid, name),
            )
        except RpcTimeout:
            raise _OpError(NFS3ERR_JUKEBOX)
        doc = pp.decode_json(dec)
        if doc.get("status") != 0:
            return None
        return NameCell(**doc["cell"])

    # -- fs info ------------------------------------------------------------

    def _op_fsstat(self, dec):
        fh = self._fh(proto.decode_fh_args(dec))
        attr = self._local_dir_attr(fh) or Fattr3(ftype=NF3DIR, fileid=fh.fileid)
        total_cells = sum(s.cell_count() for s in self.sites.values())
        yield from ()
        return proto.FsstatRes(
            NFS3_OK, attr,
            tbytes=1 << 40, fbytes=(1 << 40) - total_cells * 256,
            abytes=(1 << 40) - total_cells * 256,
            tfiles=1 << 20, ffiles=(1 << 20) - total_cells,
            afiles=(1 << 20) - total_cells,
        )

    def _op_fsinfo(self, dec):
        fh = self._fh(proto.decode_fh_args(dec))
        yield from ()
        return proto.FsinfoRes(NFS3_OK, self._local_dir_attr(fh))

    def _op_pathconf(self, dec):
        fh = self._fh(proto.decode_fh_args(dec))
        yield from ()
        return proto.PathconfRes(NFS3_OK, self._local_dir_attr(fh))

    # ------------------------------------------------------------------
    # distributed transactions (serving site = coordinator)
    # ------------------------------------------------------------------

    def _run_remote_tx(
        self, remote_site: int, local_site: int, ops: List[Dict],
        local_records: Callable[[], List[Dict]],
    ):
        """Generator: 2PC with one remote participant.

        PREPARE validates and locks at the remote; the local decision record
        plus local mutations are forced to the local log; COMMIT applies at
        the remote.  Lock conflicts abort and retry with backoff; validation
        failures surface as NFS statuses.
        """
        self.cross_site_ops += 1
        remote_addr = self.peer_lookup(remote_site)
        for attempt in range(self.params.prepare_retries):
            txid = self._new_txid()
            try:
                dec, _ = yield from self.client.call(
                    remote_addr, pp.SLICE_PEER_PROGRAM, pp.PEER_V1,
                    pp.PEER_PREPARE,
                    pp.encode_prepare_args(txid, remote_site, local_site, ops),
                )
            except RpcTimeout:
                return NFS3ERR_JUKEBOX
            doc = pp.decode_json(dec)
            if doc["status"] == pp.PREPARE_CONFLICT:
                yield self.sim.timeout(self.params.retry_backoff * (attempt + 1))
                continue
            if doc["status"] == pp.PREPARE_REJECT:
                return doc.get("nfs_status", NFS3ERR_INVAL)
            # Decision: commit.  Force the decision + local effects.
            self.tx_outcomes[txid] = "c"
            pairs = [(local_site, {"op": "tx_decide", "txid": txid, "outcome": "c"})]
            pairs.extend(local_records())
            yield from self._journal_pairs(pairs)
            try:
                yield from self.client.call(
                    remote_addr, pp.SLICE_PEER_PROGRAM, pp.PEER_V1,
                    pp.PEER_COMMIT, pp.encode_txid_args(txid, remote_site),
                )
            except RpcTimeout:
                pass  # participant resolves with us after it recovers
            return NFS3_OK
        return NFS3ERR_JUKEBOX

    # ------------------------------------------------------------------
    # peer service (this server as participant)
    # ------------------------------------------------------------------

    def _peer_service(self, procnum: int, dec: Decoder, body, src):
        yield from self.host.cpu_work(self.params.cpu_per_op)
        if procnum == pp.PEER_GET_ATTRS:
            args = pp.decode_key_args(dec)
            state = self.sites.get(args.site)
            cell = state.get_attr_cell(bytes.fromhex(args.key_hex)) if state else None
            if cell is None:
                return pp.encode_json({"status": 1}), EMPTY
            from dataclasses import asdict

            return pp.encode_json({"status": 0, "cell": asdict(cell)}), EMPTY
        if procnum == pp.PEER_GET_ENTRY:
            args = pp.decode_entry_args(dec)
            state = self.sites.get(args.site)
            cell = (
                state.get_name_cell(args.parent_fileid, args.name)
                if state else None
            )
            if cell is None:
                return pp.encode_json({"status": 1}), EMPTY
            from dataclasses import asdict

            return pp.encode_json({"status": 0, "cell": asdict(cell)}), EMPTY
        if procnum == pp.PEER_COUNT:
            args = pp.decode_count_args(dec)
            count = sum(
                self.sites[s].count_entries(args.dir_fileid)
                for s in args.sites
                if s in self.sites
            )
            return pp.encode_json({"count": count}), EMPTY
        if procnum == pp.PEER_TOUCH:
            args = pp.decode_touch_args(dec)
            state = self.sites.get(args.site)
            if state is not None:
                cell = state.get_attr_cell(bytes.fromhex(args.key_hex))
                if cell is not None and args.mtime > cell.mtime:
                    cell.mtime = args.mtime
                    cell.ctime = max(cell.ctime, args.mtime)
                    state.put_attr_cell(cell)  # journaled lazily at checkpoint
            return pp.encode_json({"status": 0}), EMPTY
        if procnum == pp.PEER_PREPARE:
            result = yield from self._peer_prepare(pp.decode_prepare_args(dec))
            return result, EMPTY
        if procnum == pp.PEER_COMMIT:
            args = pp.decode_txid_args(dec)
            result = yield from self._peer_commit(args.txid, args.site)
            return result, EMPTY
        if procnum == pp.PEER_ABORT:
            args = pp.decode_txid_args(dec)
            self._peer_release(args.txid, args.site)
            self._log(args.site).append({"op": "tx_abort", "txid": args.txid})
            return pp.encode_json({"status": 0}), EMPTY
        if procnum == pp.PEER_RESOLVE:
            args = pp.decode_txid_args(dec)
            outcome = self.tx_outcomes.get(args.txid)
            code = {
                "c": pp.RESOLVE_COMMITTED, "a": pp.RESOLVE_ABORTED,
            }.get(outcome, pp.RESOLVE_UNKNOWN)
            return pp.encode_json({"outcome": code}), EMPTY
        from repro.rpc.endpoint import RpcAcceptError
        from repro.rpc.messages import PROC_UNAVAIL

        raise RpcAcceptError(PROC_UNAVAIL)

    def _op_lock_keys(self, site: int, ops: List[Dict]) -> List[bytes]:
        keys = []
        for op in ops:
            if op["op"] in ("put_name", "del_name"):
                keys.append(name_key_for(op["parent"], op["name"]))
            else:
                keys.append(bytes.fromhex(op["key"]))
        return keys

    def _validate_ops(self, state: SiteState, ops: List[Dict]) -> Optional[int]:
        """Returns an NFS error status if any op cannot apply, else None."""
        for op in ops:
            kind = op["op"]
            if kind == "put_name":
                if op.get("must_not_exist") and state.get_name_cell(
                    op["parent"], op["name"]
                ):
                    return NFS3ERR_EXIST
            elif kind == "del_name":
                if not state.get_name_cell(op["parent"], op["name"]):
                    return NFS3ERR_NOENT
            elif kind in ("adj_link", "dec_link", "touch_dir", "set_parent"):
                if state.get_attr_cell(bytes.fromhex(op["key"])) is None:
                    return NFS3ERR_STALE
            elif kind == "del_attr":
                pass
            else:
                return NFS3ERR_INVAL
        return None

    def _peer_prepare(self, args: pp.PrepareArgs):
        state = self.sites.get(args.site)
        if state is None:
            return pp.encode_json(
                {"status": pp.PREPARE_REJECT, "nfs_status": SLICEERR_MISDIRECTED}
            )
        locks = self.locks[args.site]
        keys = self._op_lock_keys(args.site, args.ops)
        acquired = []
        for key in keys:
            if locks.try_acquire(("tx", key)):
                acquired.append(("tx", key))
            else:
                locks.release_all(acquired)
                return pp.encode_json({"status": pp.PREPARE_CONFLICT})
        nfs_status = self._validate_ops(state, args.ops)
        if nfs_status is not None:
            locks.release_all(acquired)
            return pp.encode_json(
                {"status": pp.PREPARE_REJECT, "nfs_status": nfs_status}
            )
        self.prepared[args.txid] = (args.site, args.ops)
        yield from self._journal(args.site, [{
            "op": "tx_prepare", "txid": args.txid, "coord_site": args.coord_site,
            "ops": args.ops,
        }])
        return pp.encode_json({"status": pp.PREPARE_OK})

    def _peer_commit(self, txid: str, site: int):
        entry = self.prepared.pop(txid, None)
        log = self._log(site)
        if entry is not None:
            _site, ops = entry
            state = self.sites.get(site)
            if state is not None:
                records = self._apply_ops(site, state, ops)
                for record in records:
                    log.append(record)
            self._peer_release_keys(site, ops)
        log.append({"op": "tx_commit", "txid": txid})
        yield from ()
        return pp.encode_json({"status": 0})

    def _peer_release(self, txid: str, site: int) -> None:
        entry = self.prepared.pop(txid, None)
        if entry is not None:
            self._peer_release_keys(site, entry[1])

    def _peer_release_keys(self, site: int, ops: List[Dict]) -> None:
        locks = self.locks.get(site)
        if locks is None:
            return
        for key in self._op_lock_keys(site, ops):
            locks.release(("tx", key))

    def _apply_ops(self, site: int, state: SiteState, ops: List[Dict]) -> List[Dict]:
        """Apply transaction ops; returns the journal records produced."""
        records: List[Dict] = []
        for op in ops:
            kind = op["op"]
            if kind == "put_name":
                records.append(state.put_name_cell(NameCell(
                    op["parent"], op["name"], op["t_fileid"],
                    op["t_ftype"], op["t_flags"], op["t_site"],
                )))
            elif kind == "del_name":
                records.append(state.del_name_cell(op["parent"], op["name"]))
            elif kind == "adj_link":
                key = bytes.fromhex(op["key"])
                cell = state.get_attr_cell(key)
                if cell is not None:
                    cell.nlink += op["delta"]
                    cell.ctime = op["ctime"]
                    records.append(state.put_attr_cell(cell))
            elif kind == "dec_link":
                key = bytes.fromhex(op["key"])
                cell = state.get_attr_cell(key)
                if cell is not None:
                    cell.nlink -= op.get("drop", 1)
                    cell.ctime = op["ctime"]
                    if cell.nlink <= 0:
                        records.append(state.del_attr_cell(key))
                        if cell.ftype == NF3REG and self.coordinator is not None:
                            self.sim.process(
                                self._reclaim(cell.to_fh(self.volume)),
                                name=f"reclaim:{self.host.name}",
                            )
                    else:
                        records.append(state.put_attr_cell(cell))
            elif kind == "touch_dir":
                key = bytes.fromhex(op["key"])
                cell = state.get_attr_cell(key)
                if cell is not None:
                    cell.mtime = max(cell.mtime, op["mtime"])
                    cell.ctime = max(cell.ctime, op["mtime"])
                    cell.nlink = max(1, cell.nlink + op.get("nlink_delta", 0))
                    records.append(state.put_attr_cell(cell))
            elif kind == "del_attr":
                records.append(state.del_attr_cell(bytes.fromhex(op["key"])))
            elif kind == "set_parent":
                key = bytes.fromhex(op["key"])
                cell = state.get_attr_cell(key)
                if cell is not None:
                    cell.parent_fileid = op["parent_fileid"]
                    cell.parent_site = op["parent_site"]
                    records.append(state.put_attr_cell(cell))
        return records

    def _resolve_in_doubt(self, txid: str, site: int, record: Dict):
        """Ask the transaction coordinator how an in-doubt tx ended."""
        coord_site = record["coord_site"]
        try:
            dec, _ = yield from self.client.call(
                self.peer_lookup(coord_site), pp.SLICE_PEER_PROGRAM, pp.PEER_V1,
                pp.PEER_RESOLVE, pp.encode_txid_args(txid, coord_site),
            )
            outcome = pp.decode_json(dec).get("outcome")
        except RpcTimeout:
            outcome = pp.RESOLVE_UNKNOWN
        if outcome == pp.RESOLVE_COMMITTED:
            yield from self._peer_commit(txid, site)
        else:
            # Aborted or unknown: presume abort (coordinator never logged a
            # commit decision that we could have missed).
            self._peer_release(txid, site)
            self._log(site).append({"op": "tx_abort", "txid": txid})


DirectoryServer._HANDLERS = {
    proto.PROC_GETATTR: DirectoryServer._op_getattr,
    proto.PROC_SETATTR: DirectoryServer._op_setattr,
    proto.PROC_LOOKUP: DirectoryServer._op_lookup,
    proto.PROC_ACCESS: DirectoryServer._op_access,
    proto.PROC_READLINK: DirectoryServer._op_readlink,
    proto.PROC_CREATE: DirectoryServer._op_create,
    proto.PROC_MKDIR: DirectoryServer._op_mkdir,
    proto.PROC_SYMLINK: DirectoryServer._op_symlink,
    proto.PROC_REMOVE: DirectoryServer._op_remove,
    proto.PROC_RMDIR: DirectoryServer._op_rmdir,
    proto.PROC_RENAME: DirectoryServer._op_rename,
    proto.PROC_LINK: DirectoryServer._op_link,
    proto.PROC_READDIR: DirectoryServer._op_readdir,
    proto.PROC_READDIRPLUS: DirectoryServer._op_readdirplus,
    proto.PROC_FSSTAT: DirectoryServer._op_fsstat,
    proto.PROC_FSINFO: DirectoryServer._op_fsinfo,
    proto.PROC_PATHCONF: DirectoryServer._op_pathconf,
}
