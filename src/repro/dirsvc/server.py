"""The directory server: name space and attribute management (§3.2, §4.3).

Each physical directory server hosts a set of *logical sites*.  Name
entries and attribute cells are placed on logical sites by the volume's
name-routing policy (mkdir switching or name hashing); the same code base
serves both because name cells carry remote keys to attribute cells on
other sites.

Every namespace mutation is one list of typed ops (PutAttr, PutName,
DelName, AdjLink, TouchDir, SetParent), each bound to the logical site of
its cell, committed by :meth:`DirectoryServer._mutate` as one transaction
that the serving site coordinates: one group commit when this server hosts
every site, else two-phase commit with the remote groups in PREPAREs.
Local mutations and PREPAREs lock the same keys, and a participant left
prepared asks the coordinator how the transaction ended, so no lost
message strands it.

Durability follows the dataless-manager design: each site a mutation
touches journals its group of ops as one record in the site's write-ahead
log in shared backing storage, synced (group commit) before the reply; the
serving site's record carries the commit decision.  Recovery — which the
paper's prototype left unimplemented — rebuilds a site from checkpoint +
log, replaying each record through the same :meth:`SiteState.play` the
live path ran, and resolves in-doubt transactions with their coordinators.
The site life cycle, checkpoints and journal are the
:class:`~repro.dirsvc.backing.ManagerCore` small-file servers run on too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

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
from repro.nfs.fhandle import FLAG_MIRRORED, FHandle
from repro.nfs.types import (
    DirEntry,
    Fattr3,
    NF3DIR,
    NF3LNK,
    NF3REG,
    Sattr3,
)
from repro.rpc import RpcAcceptError, RpcClient, RpcServer, RpcTimeout
from repro.rpc.messages import PROC_UNAVAIL
from repro.rpc.xdr import Decoder
from repro.storage import coordproto as cp
from repro.util.bytesim import EMPTY
from . import peerproto as pp
from .backing import CHECKPOINT_INTERVAL, BackingRegistry, ManagerCore
from .config import NameConfig
from .locks import KeyLocks
from .state import (
    AttrCell, NameCell, SiteState, attr_key_for, group_record, name_key_for,
    outcome_record, prepare_record,
)

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
    checkpoint_interval: float = CHECKPOINT_INTERVAL
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


#: What :meth:`DirectoryServer._commit` returns when a lock was busy.
_CONFLICT = -1


class _Tx:
    """One namespace mutation at its serving site: the owner of the locks
    it holds here and, from its first PREPARE on, a transaction that keeps
    its txid (and so its age) across conflict retries."""

    __slots__ = ("txid", "held", "prepared")

    def __init__(self):
        self.txid: Optional[str] = None
        self.held: List[Tuple[KeyLocks, bytes]] = []
        self.prepared: Dict[int, List[NamedTuple]] = {}  # site -> its ops


def _age(txid: str) -> Tuple[int, str]:
    """Orders transactions by when they first prepared at their
    coordinator, then by coordinator."""
    host, number = txid.rsplit(":", 1)
    return int(number), host


class DirectoryServer:
    """One physical directory server hosting one or more logical sites."""

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
        self.locks: Dict[int, KeyLocks] = {}
        # Numbered per server, so a run's txids (and message sizes) do not
        # depend on what else ran in the process.
        self._txids = itertools.count(1)
        # As transaction coordinator: the txids not decided yet.  A decided
        # one is in its serving site's ``SiteState.decided``.
        self.in_flight: Set[str] = set()
        self.ops_served = 0
        self.cross_site_ops = 0
        self.misdirected = 0
        self.core = ManagerCore(
            sim, self.server, backing, "dir", SiteState, site_ids,
            checkpoint_interval=self.params.checkpoint_interval,
            on_load=self._on_load, on_play=self._reclaim_freed,
            on_crash=self._on_crash,
        )
        #: site id -> state of every site hosted here (the core's dict).
        self.sites: Dict[int, SiteState] = self.core.states

    @property
    def address(self) -> Address:
        return self.server.address

    @property
    def prepared(self) -> Dict[Tuple[str, int], List[NamedTuple]]:
        """(txid, site) -> ops of every group held prepared here (one
        transaction may prepare several sites hosted here)."""
        return {
            (txid, site_id): ops
            for site_id, state in self.sites.items()
            for txid, (_coord, ops) in state.prepared.items()
        }

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """Current load readings (levels, not cumulative counts)."""
        return {
            **self.core.gauges(),
            "prepared_tx": len(self.prepared),
            "cpu_queue": self.host.cpu.queue_length,
            "cpu_util": self.host.cpu.utilization(),
        }

    def counters(self) -> Dict[str, int]:
        """Cumulative counts since construction."""
        return {
            **self.server.counters(),
            "ops_served": self.ops_served,
            "cross_site_ops": self.cross_site_ops,
            "misdirected": self.misdirected,
        }

    # ------------------------------------------------------------------
    # site lifecycle
    # ------------------------------------------------------------------

    def _on_load(self, site_id: int, state: SiteState) -> None:
        self.locks[site_id] = locks = KeyLocks(self.sim)
        # In-doubt transactions hold their locks again and ask at once: the
        # COMMIT they waited for may have died with this server.
        for txid, (coord_site, ops) in state.prepared.items():
            for key in self._lock_keys(ops):
                locks.try_acquire(key, txid)
            self.sim.spawn(self._resolve(txid, site_id, coord_site, 0.0),
                           name=f"dir-resolve:{self.host.name}")

    def _on_crash(self) -> None:
        self.locks.clear()
        self.in_flight.clear()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _state(self, site: int) -> SiteState:
        state = self.sites.get(site)
        if state is None:
            self.misdirected += 1
            raise _Misdirected(site)
        return state

    def _reclaim_freed(self, cells: List[AttrCell]) -> None:
        """Reclaim the data of the files a played record left with no
        links."""
        for cell in cells:
            if cell.ftype == NF3REG and self.coordinator is not None:
                self.sim.process(self._reclaim(cell.to_fh(self.volume)),
                                 name=f"reclaim:{self.host.name}")

    def _now(self) -> float:
        return self.host.clock()

    def _fh(self, raw: bytes) -> FHandle:
        try:
            return FHandle.unpack(raw)
        except ValueError:
            raise _OpError(NFS3ERR_STALE)

    def _new_txid(self) -> str:
        return f"{self.host.name}:{next(self._txids)}"

    # ------------------------------------------------------------------
    # NFS service
    # ------------------------------------------------------------------

    def _nfs_service(self, procnum: int, dec: Decoder, body, src):
        if procnum >= len(proto.PROCS):
            raise RpcAcceptError(PROC_UNAVAIL)
        handler = self._HANDLERS.get(procnum)
        yield from self.host.cpu_work(self.params.cpu_per_op)
        if procnum == proto.PROC_NULL:
            return b"", EMPTY
        proc = proto.PROCS[procnum]
        if handler is None:
            return proc.result(NFS3ERR_NOTSUPP).encode(), EMPTY
        args = proc.args.decode(dec)
        try:
            res = yield from handler(self, args)
        except _Misdirected:
            res = proc.result(SLICEERR_MISDIRECTED)
        except _OpError as exc:
            res = proc.result(exc.status)
        self.ops_served += 1
        return res.encode(), EMPTY

    # -- reads ------------------------------------------------------------

    def _op_getattr(self, args):
        fh = self._fh(args.fh)
        state = self._state(fh.home_site)
        cell = state.get_attr_cell(fh.key)
        if cell is None:
            return proto.GetattrRes(NFS3ERR_STALE)
        yield from ()
        return proto.GetattrRes(NFS3_OK, cell.to_fattr())

    def _op_access(self, args):
        fh = self._fh(args.fh)
        state = self._state(fh.home_site)
        cell = state.get_attr_cell(fh.key)
        if cell is None:
            return proto.AccessRes(NFS3ERR_STALE)
        yield from ()
        return proto.AccessRes(NFS3_OK, cell.to_fattr(), args.access)

    def _op_readlink(self, args):
        fh = self._fh(args.fh)
        state = self._state(fh.home_site)
        cell = state.get_attr_cell(fh.key)
        if cell is None:
            return proto.ReadlinkRes(NFS3ERR_STALE)
        if cell.ftype != NF3LNK:
            return proto.ReadlinkRes(NFS3ERR_INVAL)
        yield from ()
        return proto.ReadlinkRes(NFS3_OK, cell.to_fattr(), cell.symlink_target)

    def _op_lookup(self, args):
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
        dec = yield from self._peer_call(
            site, pp.PEER_GET_ATTRS, pp.KeyArgs(site, key))
        return pp.AttrRes.decode(dec).cell if dec is not None else None

    def _peer_call(self, site: int, proc: int, args):
        """Generator: one dir-peer call to the server hosting ``site``;
        returns the reply's decoder, or None when the call timed out."""
        try:
            dec, _ = yield from self.client.call(
                self.peer_lookup(site), pp.SLICE_PEER_PROGRAM, pp.PEER_V1,
                proc, args.encode(),
            )
        except RpcTimeout:
            return None
        return dec

    # -- readdir -----------------------------------------------------------

    def _op_readdir(self, args):
        res = yield from self._readdir_common(
            args.dir_fh, args.cookie, args.count, plus=False
        )
        return res

    def _op_readdirplus(self, args):
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
        for entry_cookie, cell in state.entries_after(
                dir_fh.fileid, local_cookie, budget - len(entries)):
            attr = fh = None
            if plus:
                target_fh = cell.target_fh(self.volume)
                target_state = self.sites.get(cell.target_site)
                if target_state is not None:
                    target_cell = target_state.get_attr_cell(target_fh.key)
                    if target_cell is not None:
                        attr = target_cell.to_fattr()
                fh = target_fh.pack()
            add(cell.target_fileid, cell.name, entry_cookie, attr, fh)
        yield from self.host.cpu_work(self.params.cpu_per_entry * len(entries))
        # eof for THIS site: nothing hosted here follows the last cookie we
        # emitted (the µproxy chains sites for name-hashed directories).
        last_local = (
            (entries[-1].cookie & COOKIE_LOCAL_MASK) if entries else local_cookie
        )
        eof = not state.entries_after(dir_fh.fileid, last_local, 1)
        dir_attr = self._local_dir_attr(dir_fh)
        return proto.ReaddirRes(
            NFS3_OK, dir_attr, cookieverf=1, entries=entries, eof=eof, plus=plus
        )

    # -- attribute updates ---------------------------------------------------

    def _op_setattr(self, args):
        fh = self._fh(args.fh)
        state = self._state(fh.home_site)
        cell = state.get_attr_cell(fh.key)
        if cell is None:
            return proto.SetattrRes(NFS3ERR_STALE)
        if args.guard_ctime is not None and abs(cell.ctime - args.guard_ctime) > 1e-6:
            return proto.SetattrRes(NFS3ERR_NOT_SYNC)
        now = self._now()
        sattr = args.sattr
        cell = AttrCell(**vars(cell))
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
        yield from self.core.journal(
            [(fh.home_site, group_record([pp.PutAttr(cell)]))])
        if truncating and self.coordinator is not None:
            yield from self._reclaim(fh, truncate_to=sattr.size, remove=False)
        return proto.SetattrRes(NFS3_OK, cell.to_fattr())

    def _reclaim(self, fh: FHandle, truncate_to: int = 0, remove: bool = True):
        try:
            yield from self.client.call(
                self.coordinator, cp.SLICE_COORD_PROGRAM, cp.COORD_V1,
                cp.COORD_RECLAIM,
                cp.ReclaimArgs(fh.pack(), remove, truncate_to).encode(),
            )
        except RpcTimeout:
            pass  # coordinator recovers the reclaim from its own log

    # -- create-family --------------------------------------------------------

    def _op_create(self, args):
        res = yield from self._create_common(
            args.dir_fh, args.name, NF3REG, args.sattr, args.mode, ""
        )
        return res

    def _op_symlink(self, args):
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

        def build():
            existing = state.get_name_cell(dir_fh.fileid, name)
            if existing is not None:
                if mode != 0:  # GUARDED / EXCLUSIVE
                    raise _OpError(NFS3ERR_EXIST)
                target_fh = existing.target_fh(self.volume)
                attr = yield from self._fetch_attrs(
                    existing.target_site, target_fh.key
                )
                return None, (target_fh, attr)
            now = self._now()
            flags = FLAG_MIRRORED if ftype == NF3REG and self.mirror_files else 0
            cell = AttrCell(
                fileid=state.alloc_fileid(), ftype=ftype,
                mode=sattr.mode if sattr.mode is not None else 0o644,
                nlink=1, uid=sattr.uid or 0, gid=sattr.gid or 0,
                size=len(linkpath) if ftype == NF3LNK else 0,
                atime=now, mtime=now, ctime=now,
                flags=flags, home_site=site,
                symlink_target=linkpath,
                parent_fileid=dir_fh.fileid, parent_site=dir_fh.home_site,
            )
            name_cell = NameCell(
                dir_fh.fileid, name, cell.fileid, ftype, flags, site
            )
            ops = [
                (site, pp.PutAttr(cell)),
                (site, pp.PutName(name_cell, must_not_exist=True)),
                self._touch(dir_fh, now),
            ]
            return ops, (cell.to_fh(self.volume), cell)

        fh, attr = yield from self._mutate(
            site, [(site, name_key_for(dir_fh.fileid, name))], build
        )
        return proto.CreateRes(
            NFS3_OK, fh.pack(), attr.to_fattr() if attr else None,
            self._local_dir_attr(dir_fh),
        )

    @staticmethod
    def _touch(dir_fh: FHandle, now: float, nlink_delta: int = 0):
        """The op advancing a parent directory's mtime (and link count)."""
        return dir_fh.home_site, pp.TouchDir(dir_fh.key, now, nlink_delta)

    def _op_mkdir(self, args):
        dir_fh = self._fh(args.dir_fh)
        if dir_fh.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        # The µproxy and the server derive the same (deterministic) mkdir
        # switching decision, so the new directory's home is unambiguous.
        # When the name entry lives elsewhere the directory is orphaned
        # (§3.3.2) and the mutation commits across sites.
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
        ops = [
            (site, pp.PutAttr(cell)),
            (entry_site, pp.PutName(name_cell, must_not_exist=True)),
            self._touch(dir_fh, now, 1),
        ]
        keys = []
        if entry_site in self.sites:
            keys.append((entry_site, name_key_for(dir_fh.fileid, args.name)))
        yield from self._mutate(site, keys, ops)
        return proto.MkdirRes(
            NFS3_OK, cell.to_fh(self.volume).pack(), cell.to_fattr(),
            self._local_dir_attr(dir_fh),
        )

    # -- remove-family --------------------------------------------------------

    def _op_remove(self, args):
        res = yield from self._remove_common(args.dir_fh, args.name, rmdir=False)
        return res

    def _op_rmdir(self, args):
        res = yield from self._remove_common(args.dir_fh, args.name, rmdir=True)
        return res

    def _remove_common(self, raw_dir, name, rmdir: bool):
        dir_fh = self._fh(raw_dir)
        if dir_fh.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        site = self.config.entry_site(dir_fh, name)
        state = self._state(site)
        now = self._now()

        def build():
            cell = state.get_name_cell(dir_fh.fileid, name)
            if cell is None:
                raise _OpError(NFS3ERR_NOENT)
            if rmdir and cell.target_ftype != NF3DIR:
                raise _OpError(NFS3ERR_NOTDIR)
            if not rmdir and cell.target_ftype == NF3DIR:
                raise _OpError(NFS3ERR_ISDIR)
            if rmdir and not (yield from self._dir_is_empty(cell)):
                raise _OpError(NFS3ERR_NOTEMPTY)
            key = attr_key_for(cell.target_fileid)
            return [
                (site, pp.DelName(dir_fh.fileid, name)),
                (cell.target_site, pp.AdjLink(key, -2 if rmdir else -1, now)),
                self._touch(dir_fh, now, -1 if rmdir else 0),
            ], None

        yield from self._mutate(
            site, [(site, name_key_for(dir_fh.fileid, name))], build
        )
        return proto.RemoveRes(NFS3_OK, self._local_dir_attr(dir_fh))

    def _dir_is_empty(self, cell: NameCell):
        """Generator: True if the directory ``cell`` names has no entries.

        Under mkdir switching they all live at the directory's home site;
        under name hashing on every site, with one COUNT per other server.
        """
        if self.config.readdir_spans_sites():
            sites = range(self.config.num_logical_sites)
        else:
            sites = [cell.target_site]
        by_server: Dict[Address, List[int]] = {}
        for s in sites:
            if s in self.sites:
                if self.sites[s].count_entries(cell.target_fileid):
                    return False
            else:
                by_server.setdefault(self.peer_lookup(s), []).append(s)
        for remote_sites in by_server.values():
            self.cross_site_ops += 1
            dec = yield from self._peer_call(
                remote_sites[0], pp.PEER_COUNT,
                pp.CountArgs(cell.target_fileid, remote_sites))
            if dec is None:
                raise _OpError(NFS3ERR_JUKEBOX)
            if pp.U32Res.decode(dec).value:
                return False
        return True

    # -- link & rename ------------------------------------------------------

    def _op_link(self, args):
        file_fh = self._fh(args.fh)
        dir_fh = self._fh(args.dir_fh)
        if dir_fh.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        if file_fh.ftype == NF3DIR:
            raise _OpError(NFS3ERR_ISDIR)
        site = self.config.entry_site(dir_fh, args.name)
        self._state(site)
        now = self._now()
        name_cell = NameCell(
            dir_fh.fileid, args.name, file_fh.fileid, file_fh.ftype,
            file_fh.flags, file_fh.home_site,
        )
        ops = [
            (site, pp.PutName(name_cell, must_not_exist=True)),
            (file_fh.home_site, pp.AdjLink(file_fh.key, 1, now)),
            self._touch(dir_fh, now),
        ]
        yield from self._mutate(
            site, [(site, name_key_for(dir_fh.fileid, args.name))], ops
        )
        attr = yield from self._fetch_attrs(file_fh.home_site, file_fh.key)
        return proto.LinkRes(
            NFS3_OK, attr.to_fattr() if attr else None,
            self._local_dir_attr(dir_fh),
        )

    def _op_rename(self, args):
        """Rename: install the new entry, delete the old one, unlink what
        it overwrites and, for a directory changing parents, move its
        parent link and pointer, all in one transaction (§4.3)."""
        from_dir = self._fh(args.from_dir)
        to_dir = self._fh(args.to_dir)
        if from_dir.ftype != NF3DIR or to_dir.ftype != NF3DIR:
            raise _OpError(NFS3ERR_NOTDIR)
        to_site = self.config.entry_site(to_dir, args.to_name)
        from_site = self.config.entry_site(from_dir, args.from_name)
        state = self._state(to_site)
        now = self._now()
        keys = {(to_site, name_key_for(to_dir.fileid, args.to_name))}
        if from_site in self.sites:
            keys.add((from_site, name_key_for(from_dir.fileid, args.from_name)))

        def build():
            if from_site in self.sites:
                src = self.sites[from_site].get_name_cell(
                    from_dir.fileid, args.from_name
                )
            else:
                src = yield from self._peer_get_entry(
                    from_site, from_dir.fileid, args.from_name
                )
            if src is None:
                raise _OpError(NFS3ERR_NOENT)
            if (from_dir.fileid, args.from_name) == (to_dir.fileid, args.to_name):
                return None, None
            moved = src.target_ftype == NF3DIR and from_dir.fileid != to_dir.fileid
            ops = [
                (to_site, pp.PutName(NameCell(
                    to_dir.fileid, args.to_name, src.target_fileid,
                    src.target_ftype, src.target_flags, src.target_site,
                ))),
                (from_site, pp.DelName(from_dir.fileid, args.from_name)),
            ]
            to_links = int(moved)
            existing = state.get_name_cell(to_dir.fileid, args.to_name)
            if existing is not None:
                is_dir = existing.target_ftype == NF3DIR
                if is_dir and not (yield from self._dir_is_empty(existing)):
                    raise _OpError(NFS3ERR_NOTEMPTY)
                to_links -= is_dir
                ops.append((existing.target_site, pp.AdjLink(
                    attr_key_for(existing.target_fileid), -2 if is_dir else -1,
                    now,
                )))
            if moved:
                ops.append((src.target_site, pp.SetParent(
                    attr_key_for(src.target_fileid), to_dir.fileid,
                    to_dir.home_site,
                )))
            if from_dir.fileid != to_dir.fileid:
                ops.append(self._touch(from_dir, now, -int(moved)))
            ops.append(self._touch(to_dir, now, to_links))
            return ops, None

        yield from self._mutate(to_site, sorted(keys), build)
        return proto.RenameRes(
            NFS3_OK, self._local_dir_attr(from_dir),
            self._local_dir_attr(to_dir),
        )

    def _peer_get_entry(self, site: int, parent_fileid: int, name: str):
        self.cross_site_ops += 1
        dec = yield from self._peer_call(
            site, pp.PEER_GET_ENTRY, pp.EntryArgs(site, parent_fileid, name))
        if dec is None:
            raise _OpError(NFS3ERR_JUKEBOX)
        return pp.EntryRes.decode(dec).cell

    # -- fs info ------------------------------------------------------------

    def _op_fsstat(self, args):
        fh = self._fh(args.fh)
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

    def _op_fsinfo(self, args):
        fh = self._fh(args.fh)
        yield from ()
        return proto.FsinfoRes(NFS3_OK, self._local_dir_attr(fh))

    def _op_pathconf(self, args):
        fh = self._fh(args.fh)
        yield from ()
        return proto.PathconfRes(NFS3_OK, self._local_dir_attr(fh))

    # ------------------------------------------------------------------
    # namespace transactions (serving site = coordinator)
    # ------------------------------------------------------------------

    def _mutate(self, site: int, keys: List[Tuple[int, bytes]], build):
        """Generator: run one namespace mutation, coordinated by the serving
        ``site``; returns ``build``'s value, or raises :class:`_OpError`.

        The ``(site, name key)`` pairs ``keys``, every entry the mutation
        reads or changes at a site hosted here, are locked before ``build``
        runs: a generator reading state under them that returns ``(ops,
        value)``, ops being ``(site, op)`` pairs or None for no change (or
        ``build`` is the ops list itself).  On a busy lock every lock held
        here is released before backing off, and the mutation is built
        again under the same txid (see :meth:`_peer_prepare`).
        """
        tx = _Tx()
        boot = self.core.boots
        try:
            for attempt in range(self.params.prepare_retries):
                for key_site, key in keys:
                    locks = self.locks[key_site]
                    yield from locks.acquire(key, tx)
                    tx.held.append((locks, key))
                try:
                    ops, value = ((yield from build()) if callable(build)
                                  else (build, None))
                    status = NFS3_OK
                    if ops is not None:
                        status = yield from self._commit(site, tx, ops, boot)
                finally:
                    for locks, key in tx.held:
                        locks.release(key)
                    tx.held.clear()
                if status == NFS3_OK:
                    return value
                if status != _CONFLICT:
                    raise _OpError(status)
                yield self.sim.timeout(self.params.retry_backoff * (attempt + 1))
                if self.core.boots != boot:
                    break  # crashed while backing off: retry nothing
            raise _OpError(NFS3ERR_JUKEBOX)
        finally:
            self.in_flight.discard(tx.txid)

    def _commit(self, site: int, tx: _Tx, ops, boot: int):
        """Generator: commit one mutation's ``(site, op)`` pairs, grouped by
        site; returns an NFS status, or ``_CONFLICT`` on a busy lock.

        Groups hosted here lock, validate and are journaled, one record
        per site.  Remote groups are prepared first, and the decision
        rides on the serving site's record (every handler gives the serving
        site an op), synced before any COMMIT or reply.  A remote parent
        whose mtime alone changes is touched after the commit, best effort:
        timestamps may drift, link counts may not.
        """
        groups: Dict[int, List[NamedTuple]] = {site: []}
        touches = []
        for op_site, op in ops:
            if (op_site not in self.sites and type(op) is pp.TouchDir
                    and not op.nlink_delta):
                touches.append((op_site, op))
            else:
                groups.setdefault(op_site, []).append(op)
        remote = [s for s in groups if s not in self.sites]
        for op_site, group in groups.items():
            if op_site in remote:
                continue
            locks = self.locks[op_site]
            for key in self._lock_keys(group, local=True):
                if not locks.try_acquire(key, tx):
                    return _CONFLICT
                tx.held.append((locks, key))
            status = self._validate_ops(self.sites[op_site], group)
            if status is not None:
                return status
        if remote:
            status = yield from self._prepare(site, tx, groups, remote)
            if status != NFS3_OK:
                return status
            if self.core.boots != boot:
                return NFS3ERR_JUKEBOX
        yield from self.core.journal([
            (op_site, group_record(
                group, tx.txid if remote and op_site == site else None))
            for op_site, group in groups.items() if op_site not in remote
        ])
        if remote:
            if self.core.boots != boot:
                return NFS3ERR_JUKEBOX  # the decision may not have survived
            self.in_flight.discard(tx.txid)
            for op_site in remote:  # a participant left out asks (RESOLVE)
                yield from self._peer_call(
                    op_site, pp.PEER_COMMIT, pp.TxidArgs(tx.txid, op_site))
        for op_site, op in touches:
            self.cross_site_ops += 1
            yield from self._peer_call(
                op_site, pp.PEER_TOUCH, pp.TouchArgs(op_site, op.key, op.mtime))
        return NFS3_OK

    def _prepare(self, site: int, tx: _Tx, groups, remote: List[int]):
        """Generator: PREPARE each remote group an earlier attempt did not;
        returns an NFS status or ``_CONFLICT``.  A timeout or a rejection
        ends the transaction (presumed abort: prepared groups ask)."""
        if tx.txid is None:
            tx.txid = self._new_txid()
            self.cross_site_ops += 1
        self.in_flight.add(tx.txid)
        if any(groups.get(s) != ops for s, ops in tx.prepared.items()):
            return NFS3ERR_JUKEBOX  # rebuilt otherwise: cannot be withdrawn
        for op_site in remote:
            if op_site in tx.prepared:
                continue
            dec = yield from self._peer_call(op_site, pp.PEER_PREPARE, (
                pp.PrepareArgs(tx.txid, op_site, site, groups[op_site])))
            if dec is None:
                return NFS3ERR_JUKEBOX
            res = pp.PrepareRes.decode(dec)
            if res.status == pp.PREPARE_CONFLICT:
                return _CONFLICT
            if res.status == pp.PREPARE_REJECT:
                return res.nfs_status
            tx.prepared[op_site] = groups[op_site]
        return NFS3_OK

    @staticmethod
    def _lock_keys(ops: List[NamedTuple], local: bool = False) -> List[bytes]:
        """The keys a group of ops locks: its name entries and the cells it
        changes, but no new cell.  A group applied here leaves out its name
        entries, which its handler locked before reading them, and the
        parents its TouchDir ops touch (touches commute, and concurrent
        creates in one directory share a group commit)."""
        keys = []
        for op in ops:
            kind = type(op)
            if kind is pp.AdjLink or kind is pp.SetParent or (
                    kind is pp.TouchDir and not local):
                keys.append(op.key)
            elif local or kind is pp.PutAttr:
                continue
            elif kind is pp.PutName:
                keys.append(name_key_for(op.cell.parent_fileid, op.cell.name))
            else:  # DelName
                keys.append(name_key_for(op.parent_fileid, op.name))
        return list(dict.fromkeys(keys))

    @staticmethod
    def _validate_ops(state: SiteState, ops: List[NamedTuple]) -> Optional[int]:
        """Returns an NFS error status if any op cannot apply, else None.
        Dropping a link needs no cell: a name whose object is gone can
        still be removed."""
        for op in ops:
            kind = type(op)
            if kind is pp.PutName:
                cell = op.cell
                if op.must_not_exist and state.get_name_cell(
                    cell.parent_fileid, cell.name
                ):
                    return NFS3ERR_EXIST
            elif kind is pp.DelName:
                if not state.get_name_cell(op.parent_fileid, op.name):
                    return NFS3ERR_NOENT
            elif kind is pp.PutAttr or (kind is pp.AdjLink and op.delta < 0):
                continue
            elif state.get_attr_cell(op.key) is None:
                return NFS3ERR_STALE
        return None

    # ------------------------------------------------------------------
    # peer service (this server as participant)
    # ------------------------------------------------------------------

    def _peer_service(self, procnum: int, dec: Decoder, body, src):
        yield from self.host.cpu_work(self.params.cpu_per_op)
        if procnum == pp.PEER_GET_ATTRS:
            args = pp.KeyArgs.decode(dec)
            state = self.sites.get(args.site)
            cell = state.get_attr_cell(args.key) if state else None
            return pp.AttrRes(cell).encode(), EMPTY
        if procnum == pp.PEER_GET_ENTRY:
            args = pp.EntryArgs.decode(dec)
            state = self.sites.get(args.site)
            cell = (
                state.get_name_cell(args.parent_fileid, args.name)
                if state else None
            )
            return pp.EntryRes(cell).encode(), EMPTY
        if procnum == pp.PEER_COUNT:
            args = pp.CountArgs.decode(dec)
            count = sum(
                self.sites[s].count_entries(args.dir_fileid)
                for s in args.sites
                if s in self.sites
            )
            return pp.U32Res(count).encode(), EMPTY
        if procnum == pp.PEER_TOUCH:
            args = pp.TouchArgs.decode(dec)
            state = self.sites.get(args.site)
            if state is not None:
                cell = state.get_attr_cell(args.key)
                if cell is not None and args.mtime > cell.mtime:
                    # Journaled lazily, by the next checkpoint.
                    state.apply([pp.TouchDir(args.key, args.mtime, 0)])
            return pp.U32Res(0).encode(), EMPTY
        if procnum == pp.PEER_PREPARE:
            result = yield from self._peer_prepare(pp.PrepareArgs.decode(dec))
            return result.encode(), EMPTY
        if procnum == pp.PEER_COMMIT:
            args = pp.TxidArgs.decode(dec)
            self._finish_prepared(args.txid, args.site, commit=True)
            return pp.U32Res(0).encode(), EMPTY
        if procnum == pp.PEER_RESOLVE:
            args = pp.TxidArgs.decode(dec)
            state = self.sites.get(args.site)
            if args.txid in self.in_flight or state is None:
                code = pp.RESOLVE_IN_FLIGHT  # ask again (later, or elsewhere)
            elif args.txid in state.decided:
                code = pp.RESOLVE_COMMITTED
            else:  # decided abort, or begun before this server restarted
                code = pp.RESOLVE_ABORTED
            return pp.U32Res(code).encode(), EMPTY
        raise RpcAcceptError(PROC_UNAVAIL)

    def _peer_prepare(self, args: pp.PrepareArgs):
        """Generator: lock and validate a remote group and hold it prepared.

        A group prepared here already answers OK again.  A busy key
        conflicts, except that a PREPARE holding no lock yet waits for a
        younger mutation in progress here, which either commits or, on a
        conflict, releases its locks before backing off.  So of two crossed
        mutations the older goes through; any longer wait ends when the
        coordinator's PREPARE call times out.
        """
        state = self.sites.get(args.site)
        if state is None:
            return pp.PrepareRes(pp.PREPARE_REJECT, SLICEERR_MISDIRECTED)
        if args.txid in state.prepared:
            return pp.PrepareRes(pp.PREPARE_OK)
        locks = self.locks[args.site]
        acquired = []
        for key in self._lock_keys(args.ops):
            if not locks.try_acquire(key, args.txid):
                holder = locks.owner(key)
                if (acquired or not isinstance(holder, _Tx)
                        or holder.txid is None
                        or _age(holder.txid) < _age(args.txid)):
                    locks.release_all(acquired)
                    return pp.PrepareRes(pp.PREPARE_CONFLICT)
                yield from locks.acquire(key, args.txid)
            acquired.append(key)
        nfs_status = self._validate_ops(state, args.ops)
        if nfs_status is not None:
            locks.release_all(acquired)
            return pp.PrepareRes(pp.PREPARE_REJECT, nfs_status)
        self.sim.spawn(self._resolve(args.txid, args.site, args.coord_site,
                                     self._resolve_after()),
                       name=f"dir-resolve:{self.host.name}")
        yield from self.core.journal([(args.site, prepare_record(
            args.txid, args.coord_site, args.ops))])
        return pp.PrepareRes(pp.PREPARE_OK)

    def _finish_prepared(self, txid: str, site: int, commit: bool) -> None:
        """End a transaction prepared here: log the outcome (a commit
        applies the prepared ops) and release its locks.  The record is
        synced by whatever syncs the log next; until then a crash leaves
        the group prepared, and it asks again."""
        ops = self.prepared.get((txid, site))
        if ops is None:
            return
        record = outcome_record(txid, commit)
        self.core.play(site, record)
        self.core.log(site).append(record)
        self.locks[site].release_all(self._lock_keys(ops))

    def _resolve_after(self) -> float:
        """The coordinator's whole PREPARE budget: one PREPARE call's full
        retransmission schedule, then a backoff after each conflict.  A
        participant waits this long before it asks, so a transaction that
        commits as usual costs no extra message."""
        p, client = self.params, self.client
        schedule = sum(
            min(p.peer_retrans_timeout * client.backoff ** i,
                client.max_retrans_timeout)
            for i in range(p.peer_max_tries)
        )
        backoffs = p.retry_backoff * p.prepare_retries * (p.prepare_retries + 1) / 2
        return schedule * (1 + client.jitter) + backoffs

    def _resolve(self, txid: str, site: int, coord_site: int, wait: float):
        """Generator: after ``wait`` seconds, unless a COMMIT came first,
        ask the coordinator how a transaction prepared here ended.  Presumed
        abort is sound: the coordinator syncs its decision before anyone
        hears of it.  In flight, or no answer, means ask again later.
        """
        boot = self.core.boots
        while True:
            if wait:
                yield self.sim.timeout(wait)
            if self.core.boots != boot or (txid, site) not in self.prepared:
                return
            dec = yield from self._peer_call(
                coord_site, pp.PEER_RESOLVE, pp.TxidArgs(txid, coord_site))
            outcome = (pp.RESOLVE_IN_FLIGHT if dec is None
                       else pp.U32Res.decode(dec).value)
            if self.core.boots != boot or (txid, site) not in self.prepared:
                return
            if outcome != pp.RESOLVE_IN_FLIGHT:
                self._finish_prepared(
                    txid, site, commit=outcome == pp.RESOLVE_COMMITTED
                )
                return
            wait = self._resolve_after()


#: One ``_op_<name>`` per served procedure; a renamed method drops out of
#: this map (and its procedure would answer NOTSUPP), so a test pins it.
DirectoryServer._HANDLERS = {
    proc.num: getattr(DirectoryServer, f"_op_{proc.name}")
    for proc in proto.PROCS
    if hasattr(DirectoryServer, f"_op_{proc.name}")
}
