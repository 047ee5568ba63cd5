"""Small-file server (§4.4).

Handles I/O below the threshold offset for every file, managing each file
as a sequence of 8 KB logical blocks whose physical homes are best-fit
fragments inside large backing objects striped over the network storage
array.  The server is dataless: its authoritative structures are the map
records, changed only by typed ops (:class:`PutMap`, :class:`DelMap`)
journaled and checkpointed to shared backing storage by the
:class:`~repro.dirsvc.backing.ManagerCore` the directory servers run on
too; file data lives in the backing objects on the storage nodes and is
cached here in memory (the 1 GB ensemble cache whose overflow produces the
latency jump in Figure 6).

NFS V3 commit semantics are honoured end to end: unstable writes buffer in
server memory and die with a crash; commit (or the periodic syncer) writes
data fragments to the storage nodes and forces the map-record journal.  A
storage node that does not answer fails the request with ``NFS3ERR_IO``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.dirsvc.backing import BackingRegistry, ManagerCore
from repro.dirsvc.state import group_record
from repro.net import Address, Host
from repro.nfs import proto
from repro.nfs.errors import (
    NFS3ERR_IO, NFS3ERR_NOTSUPP, NFS3_OK, SLICEERR_MISDIRECTED,
)
from repro.nfs.fhandle import FHandle
from repro.nfs.types import DATA_SYNC, FILE_SYNC, Fattr3, NF3REG
from repro.rpc import RpcAcceptError, RpcClient, RpcServer, RpcTimeout
from repro.rpc.messages import PROC_UNAVAIL
from repro.rpc.xdr import Decoder
from repro.storage import ctrlproto
from repro.util.bytesim import EMPTY, Data
from repro.util.extents import ExtentMap
from repro.util.hashing import md5_u64
from .alloc import FragmentAllocator, round_fragment

__all__ = ["SmallFileServer", "SmallFileParams", "SF_PORT", "sf_site_for"]

SF_PORT = 6049
BLOCK = 8 << 10

# Pseudo-volumes for the backing objects each logical site keeps in the
# storage array: data zone and map-record array.
ZONE_VOLUME = 0xFFFE
MAP_VOLUME = 0xFFFC

CPU_PER_OP = 60e-6
CPU_PER_BYTE = 2e-9
STRIPE = 64 << 10  # backing-object striping unit over storage nodes
MAP_RECORDS_PER_BLOCK = 64
# Retransmission policy of the server's own calls to the storage nodes.
PEER_RETRANS_TIMEOUT = 0.5
PEER_MAX_TRIES = 4


def sf_site_for(fileid: int, num_sites: int) -> int:
    """Logical small-file site for a file (µproxy and servers agree)."""
    return md5_u64(b"sf:" + fileid.to_bytes(8, "big")) % num_sites


def _zone_fh(volume: int, site: int) -> bytes:
    return FHandle(volume, NF3REG, 0, site, 0, bytes(16)).pack()


class PutMap(NamedTuple):
    """A file's map record: its size, and each logical 8 KB block's
    (zone offset, fragment size).  A site's maps hold the ops they played,
    so nothing changes one after it is journaled."""

    fileid: int
    size: int
    extents: Dict[int, Tuple[int, int]]


class DelMap(NamedTuple):
    fileid: int


class SiteZone:
    """In-memory state of one logical small-file site.  Its maps change
    only through :meth:`play`, live and at replay alike; the allocator is
    rebuilt from them on recovery."""

    def __init__(self, site_id: int):
        self.site_id = site_id
        self.maps: Dict[int, PutMap] = {}
        self.alloc = FragmentAllocator()
        # Mirror of the backing object, filled lazily from storage nodes.
        self.mirror = ExtentMap()

    def play(self, record: Dict) -> None:
        """Apply one journal record, a :func:`group_record` of map ops."""
        for op in record["ops"]:
            if type(op) is PutMap:
                self.maps[op.fileid] = op
            else:
                self.maps.pop(op.fileid, None)

    def snapshot(self) -> Dict:
        return group_record(list(self.maps.values()))

    @classmethod
    def recover(cls, snap: Optional[Dict], records: List[Dict],
                site_id: int) -> "SiteZone":
        """Rebuild a site from its checkpoint and the journal records
        after it."""
        zone = cls(site_id)
        for record in [snap] + records if snap else records:
            zone.play(record)
        zone.alloc = FragmentAllocator.rebuild(
            extent for rec in zone.maps.values()
            for extent in rec.extents.values()
        )
        return zone


@dataclass
class SmallFileParams:
    cache_bytes: int = 450 << 20  # of a 512 MB server
    sync_interval: float = 1.0


class _SiteLost(Exception):
    """The site a flush works on was lost to a crash or moved away: the
    flush neither writes nor journals any more."""


class SmallFileServer:
    """One physical small-file server hosting one or more logical sites."""

    def __init__(
        self,
        sim,
        host: Host,
        backing: BackingRegistry,
        site_ids: List[int],
        storage_nodes: List[Address],
        num_logical_sites: int,
        params: Optional[SmallFileParams] = None,
        port: int = SF_PORT,
        tracer=None,
    ):
        self.sim = sim
        self.host = host
        self.storage_nodes = list(storage_nodes)
        self.num_logical_sites = num_logical_sites
        self.params = params or SmallFileParams()
        self.tracer = tracer
        self.server = RpcServer(host, port)
        self.server.tracer = tracer
        self.server.trace_component = f"sf:{host.name}"
        self.server.register(proto.NFS_PROGRAM, self._nfs_service)
        self.server.register(ctrlproto.SLICE_CTRL_PROGRAM, self._ctrl_service)
        self.client = RpcClient(
            host, port + 1,
            retrans_timeout=PEER_RETRANS_TIMEOUT,
            max_tries=PEER_MAX_TRIES,
        )
        from repro.storage.cache import BufferCache

        # Keys ("z" or "m", zone, block) name the zone instance, so a site
        # reloaded here starts cold even if I/O of its old zone lands late.
        self.cache = BufferCache(self.params.cache_bytes)
        # (site, fileid) -> unstable overlay of file content
        self.pending: Dict[Tuple[int, int], ExtentMap] = {}
        # (site, fileid) -> (completion event, claimed overlay) of the
        # in-progress flush.  Flushes serialize per file: a flush claims
        # the overlay at its *start* but only makes it durable at its
        # *end*, so a commit that merely observed an empty overlay must
        # still wait out the in-flight flush before acknowledging
        # stability; reads see the claimed overlay until then.
        self._flushing: Dict[Tuple[int, int], Tuple[object, ExtentMap]] = {}
        self.reads = 0
        self.writes = 0
        self.backing_reads = 0
        self.backing_writes = 0
        self.core = ManagerCore(sim, self.server, backing, "sf", SiteZone,
                                site_ids, on_unload=self._on_unload,
                                on_crash=self._on_crash)
        self.verf = self._new_verf()
        sim.process(self._syncer(), name=f"sf-syncer:{host.name}")

    @property
    def address(self) -> Address:
        return self.server.address

    # -- telemetry ----------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """Current load readings (levels, not cumulative counts)."""
        return {
            **self.core.gauges(),
            "pending_overlays": len(self.pending),
            "cache_used_frac": self.cache.used / self.cache.capacity,
            "cache_hit_rate": self.cache.hit_ratio(),
            "cpu_queue": self.host.cpu.queue_length,
            "cpu_util": self.host.cpu.utilization(),
        }

    def counters(self) -> Dict[str, int]:
        """Cumulative counts since construction."""
        return {
            **self.server.counters(),
            "reads": self.reads,
            "writes": self.writes,
            "backing_reads": self.backing_reads,
            "backing_writes": self.backing_writes,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
        }

    def _new_verf(self) -> int:
        digest = hashlib.md5(
            f"sf:{self.host.name}:{self.core.boots}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def _on_unload(self, site_id: int) -> None:
        """The site's unstable writes, pending or claimed by a flush, are
        not made stable here any more: drop them and, as a crash does,
        answer with a new write verifier so that their clients write them
        again.  (Its cached blocks are keyed by the zone, which is gone.)"""
        lost = [key for key in self.pending if key[0] == site_id]
        if lost or any(key[0] == site_id for key in self._flushing):
            for key in lost:
                del self.pending[key]
            self.core.boots += 1
            self.verf = self._new_verf()

    def _on_crash(self) -> None:
        """Unstable data and caches are lost; the next boot answers with a
        new write verifier."""
        self.pending.clear()
        self.cache.clear()
        self.verf = self._new_verf()

    # -- backing I/O ---------------------------------------------------------
    #
    # A backing call that times out raises RpcTimeout out of these helpers
    # and caches nothing; the request fails with NFS3ERR_IO.

    def _node_for(self, offset: int) -> Address:
        index = (offset // STRIPE) % len(self.storage_nodes)
        return self.storage_nodes[index]

    def _stripes(self, pos: int, end: int):
        """(offset, length) of each piece of [pos, end) one stripe holds."""
        while pos < end:
            step = min(STRIPE - pos % STRIPE, end - pos)
            yield pos, step
            pos += step

    def _read_backing(self, zone: SiteZone, offset: int, length: int):
        """Generator: ensure [offset, offset+length) of the zone's backing
        object is resident; returns the mirrored Data."""
        fh = _zone_fh(ZONE_VOLUME, zone.site_id)
        first = offset // BLOCK
        last = (offset + length - 1) // BLOCK if length else first
        # Coalesce missing blocks into contiguous runs [start, stop), each
        # one RPC (split at stripe boundaries by the node mapping).
        runs: List[List[int]] = []
        for block in range(first, last + 1):
            if self.cache.lookup(("z", zone, block)):
                continue
            if runs and runs[-1][1] == block:
                runs[-1][1] += 1
            else:
                runs.append([block, block + 1])
        for start, stop in runs:
            for pos, step in self._stripes(start * BLOCK, stop * BLOCK):
                dec, data = yield from self.client.call(
                    self._node_for(pos), proto.NFS_PROGRAM, proto.NFS_V3,
                    proto.PROC_READ, proto.ReadArgs(fh, pos, step).encode(),
                )
                self.backing_reads += 1
                if data.length:
                    zone.mirror.write(pos, data)
            for block in range(start, stop):
                self._cache_insert(("z", zone, block))
        return zone.mirror.read(offset, length)

    def _cache_insert(self, key) -> None:
        # Zone cache entries are clean (write path writes through), so
        # evictions are silent.
        self.cache.insert(key, BLOCK)

    def _write_backing(self, zone: SiteZone, offset: int, data: Data):
        """Generator: write-through a zone region to the storage array."""
        fh = _zone_fh(ZONE_VOLUME, zone.site_id)
        zone.mirror.write(offset, data)
        end = offset + data.length
        blocks = range(offset // BLOCK, (end - 1) // BLOCK + 1)
        for pos, step in self._stripes(offset, end):
            try:
                yield from self.client.call(
                    self._node_for(pos), proto.NFS_PROGRAM, proto.NFS_V3,
                    proto.PROC_WRITE,
                    proto.WriteArgs(fh, pos, step, FILE_SYNC).encode(),
                    data.slice(pos - offset, pos - offset + step),
                )
            except RpcTimeout:
                # The mirror holds bytes the array may not: read it again.
                for block in blocks:
                    self.cache.discard(("z", zone, block))
                raise
            self.backing_writes += 1
        for block in blocks:
            self._cache_insert(("z", zone, block))

    def _load_map(self, zone: SiteZone, fileid: int):
        """Generator: charge a map-array read if the record's block is cold;
        the authoritative record comes from the journaled state."""
        key = ("m", zone, fileid // MAP_RECORDS_PER_BLOCK)
        if not self.cache.lookup(key):
            fh = _zone_fh(MAP_VOLUME, zone.site_id)
            offset = (fileid // MAP_RECORDS_PER_BLOCK) * BLOCK
            yield from self.client.call(
                self._node_for(offset), proto.NFS_PROGRAM, proto.NFS_V3,
                proto.PROC_READ, proto.ReadArgs(fh, offset, BLOCK).encode(),
            )
            self.backing_reads += 1
            self.cache.insert(key, BLOCK)
        return zone.maps.get(fileid)

    # -- request routing helpers ---------------------------------------------

    def _site_of(self, fh: FHandle) -> Optional[SiteZone]:
        site = sf_site_for(fh.fileid, self.num_logical_sites)
        return self.core.states.get(site)

    def _attrs(self, fh: FHandle, size: int) -> Fattr3:
        now = self.sim.now
        return Fattr3(
            ftype=NF3REG, size=size, used=size, fileid=fh.fileid,
            atime=now, mtime=now, ctime=now,
        )

    def _overlays(self, zone: SiteZone, fileid: int) -> List[ExtentMap]:
        """A file's unstable writes, oldest first: the overlay a flush in
        progress claimed, then the one pending."""
        key = (zone.site_id, fileid)
        flushing = self._flushing.get(key)
        overlays = [flushing[1]] if flushing is not None else []
        if key in self.pending:
            overlays.append(self.pending[key])
        return overlays

    @staticmethod
    def _file_size(rec: Optional[PutMap], overlays: List[ExtentMap]) -> int:
        return max([rec.size if rec else 0]
                   + [overlay.size for overlay in overlays])

    # -- NFS service -----------------------------------------------------

    def _nfs_service(self, procnum: int, dec: Decoder, body, src):
        if procnum >= len(proto.PROCS):
            raise RpcAcceptError(PROC_UNAVAIL)
        if procnum == proto.PROC_NULL:
            return b"", EMPTY
        proc = proto.PROCS[procnum]
        handler = self._HANDLERS.get(procnum)
        if handler is None:
            return proc.result(NFS3ERR_NOTSUPP).encode(), EMPTY
        args = proc.args.decode(dec)
        fh = FHandle.unpack(args.fh)
        count = args.count if procnum in (proto.PROC_READ, proto.PROC_WRITE) else 0
        yield from self.host.cpu_work(
            CPU_PER_OP + CPU_PER_BYTE * count)
        zone = self._site_of(fh)
        if zone is None:
            return proc.result(SLICEERR_MISDIRECTED).encode(), EMPTY
        try:
            return (yield from handler(self, zone, fh, args, body))
        except RpcTimeout:
            return proc.result(NFS3ERR_IO).encode(), EMPTY
        except _SiteLost:
            return None  # begun before a crash or a move: the client retries

    def _do_getattr(self, zone, fh, args, body):
        rec = yield from self._load_map(zone, fh.fileid)
        size = self._file_size(rec, self._overlays(zone, fh.fileid))
        return proto.GetattrRes(NFS3_OK, self._attrs(fh, size)).encode(), EMPTY

    def _do_read(self, zone, fh, args, body):
        rec = yield from self._load_map(zone, fh.fileid)
        # The unstable writes as of now: one a flush claims meanwhile
        # stays in the view until its map record is journaled.
        overlays = self._overlays(zone, fh.fileid)
        size = self._file_size(rec, overlays)
        stop = min(args.offset + args.count, size)
        view = ExtentMap()
        if rec is not None and stop > args.offset:
            # Pull the stable blocks that overlap the request.
            first = args.offset // BLOCK
            last = (stop - 1) // BLOCK
            for block in range(first, last + 1):
                extent = rec.extents.get(block)
                if extent is None:
                    continue
                zone_off, _alloc = extent
                want = min(BLOCK, max(0, rec.size - block * BLOCK))
                data = yield from self._read_backing(zone, zone_off, want)
                view.write(block * BLOCK, data)
        for overlay in overlays:
            for off, data in overlay.extents():
                view.write(off, data)
        view.truncate(max(view.size, stop))
        payload = view.read(args.offset, max(0, stop - args.offset))
        self.reads += 1
        res = proto.ReadRes(
            NFS3_OK, self._attrs(fh, size),
            count=payload.length, eof=args.offset + args.count >= size,
        )
        return res.encode(), payload

    def _do_write(self, zone, fh, args, body):
        overlay = self.pending.setdefault(
            (zone.site_id, fh.fileid), ExtentMap()
        )
        overlay.write(args.offset, body.slice(0, args.count))
        committed = args.stable
        if args.stable in (DATA_SYNC, FILE_SYNC):
            yield from self._flush_file(zone, fh.fileid)
            committed = FILE_SYNC
        self.writes += 1
        rec = zone.maps.get(fh.fileid)
        size = self._file_size(rec, self._overlays(zone, fh.fileid))
        res = proto.WriteRes(
            NFS3_OK, self._attrs(fh, size), count=args.count,
            committed=committed, verf=self.verf,
        )
        return res.encode(), EMPTY

    def _do_commit(self, zone, fh, args, body):
        yield from self._flush_file(zone, fh.fileid)
        rec = zone.maps.get(fh.fileid)
        size = self._file_size(rec, self._overlays(zone, fh.fileid))
        res = proto.CommitRes(NFS3_OK, self._attrs(fh, size), verf=self.verf)
        return res.encode(), EMPTY

    _HANDLERS = {
        proto.PROC_GETATTR: _do_getattr,
        proto.PROC_READ: _do_read,
        proto.PROC_WRITE: _do_write,
        proto.PROC_COMMIT: _do_commit,
    }

    # -- flushing -------------------------------------------------------------

    def _settle(self, zone: SiteZone, key: Tuple[int, int]):
        """Generator: wait out the file's flush in progress, if any;
        returns whether ``zone`` is still the live state of its site."""
        while key in self._flushing:
            yield self._flushing[key][0]
        return self.core.states.get(zone.site_id) is zone

    def _flush_file(self, zone: SiteZone, fileid: int):
        """Generator: make a file's pending writes stable — allocate
        fragments, write data through to the storage array, journal the map
        record.

        Serialized per file: if another flush of this file is in flight we
        piggyback on its completion (and then flush any overlay that
        accumulated meanwhile).  Without this a COMMIT racing the periodic
        syncer could find the overlay already claimed, return success
        immediately, and acknowledge stability for data the in-flight flush
        had not yet written — a window the chaos suite catches as a
        zero-filled tail after a lost-reply retransmission.

        A backing timeout journals nothing and puts the claimed writes back
        under any newer ones, for a later flush; it raises RpcTimeout.
        """
        key = (zone.site_id, fileid)
        if not (yield from self._settle(zone, key)):
            raise _SiteLost(zone.site_id)
        overlay = self.pending.pop(key, None)
        if overlay is None or not overlay.extents():
            return
        done = self.sim.event()
        self._flushing[key] = done, overlay
        try:
            yield from self._flush_overlay(zone, fileid, overlay)
        except RpcTimeout:
            if self.core.states.get(zone.site_id) is zone:
                newer = self.pending.get(key)
                for off, data in newer.extents() if newer else ():
                    overlay.write(off, data)
                self.pending[key] = overlay
            raise
        finally:
            if self._flushing.get(key, (None,))[0] is done:
                del self._flushing[key]
            done.succeed(None)

    def _flush_overlay(self, zone: SiteZone, fileid: int, overlay: ExtentMap):
        """Generator: the flush body — caller holds the per-file flush lock.

        It builds the new map on a copy and frees the fragments it
        replaces only once every block is written, so the live maps and
        allocator never hold what the journal does not."""
        rec = zone.maps.get(fileid) or PutMap(fileid, 0, {})
        extents = dict(rec.extents)
        new_size = max(rec.size, overlay.size)
        fresh, replaced = [], []
        first_dirty = min(off for off, _d in overlay.extents())
        last_dirty = max(off + d.length for off, d in overlay.extents())
        try:
            for block in range(first_dirty // BLOCK,
                               (last_dirty - 1) // BLOCK + 1):
                block_lo = block * BLOCK
                block_hi = min(block_lo + BLOCK, new_size)
                dirty = any(
                    off < block_hi and off + d.length > block_lo
                    for off, d in overlay.extents()
                )
                if not dirty:
                    continue
                if self.core.states.get(zone.site_id) is not zone:
                    raise _SiteLost(zone.site_id)
                want = block_hi - block_lo
                # Assemble the block's new content: stable base + overlay.
                base = ExtentMap()
                old_extent = extents.get(block)
                if old_extent is not None:
                    old_len = min(BLOCK, max(0, rec.size - block_lo))
                    stable = yield from self._read_backing(
                        zone, old_extent[0], old_len
                    )
                    base.write(block_lo, stable)
                for off, d in overlay.extents():
                    lo, hi = max(off, block_lo), min(off + d.length, block_hi)
                    if hi > lo:
                        base.write(lo, d.slice(lo - off, hi - off))
                base.truncate(max(base.size, block_hi))
                content = base.read(block_lo, want)
                if old_extent is not None and old_extent[1] >= round_fragment(want):
                    extent = old_extent
                else:
                    if old_extent is not None:
                        replaced.append(old_extent)
                    extent = zone.alloc.allocate(want)
                    fresh.append(extent)
                extents[block] = extent
                yield from self._write_backing(zone, extent[0], content)
        except RpcTimeout:
            for extent in fresh:
                zone.alloc.free(*extent)
            raise
        if self.core.states.get(zone.site_id) is not zone:
            raise _SiteLost(zone.site_id)
        for extent in replaced:
            zone.alloc.free(*extent)
        yield from self.core.journal([(zone.site_id, group_record(
            [PutMap(fileid, new_size, extents)]))])

    def _syncer(self):
        while True:
            yield self.sim.timeout(self.params.sync_interval)
            if not self.host.up:
                continue
            for (site_id, fileid) in list(self.pending):
                zone = self.core.states.get(site_id)
                if zone is not None:
                    try:
                        yield from self._flush_file(zone, fileid)
                    except (RpcTimeout, _SiteLost):
                        pass  # a later pass, or the client, tries again

    # -- control service ---------------------------------------------------

    def _ctrl_service(self, procnum: int, dec: Decoder, body, src):
        yield from self.host.cpu_work(CPU_PER_OP)
        if procnum == ctrlproto.CTRL_PING:
            return ctrlproto.StatusRes(0).encode(), EMPTY
        if procnum == ctrlproto.CTRL_OBJ_REMOVE:
            fh = FHandle.unpack(ctrlproto.ObjArgs.decode(dec).fh)
            zone = self._site_of(fh)
            if zone is None:
                return ctrlproto.StatusRes(1).encode(), EMPTY
            key = (zone.site_id, fh.fileid)
            self.pending.pop(key, None)
            if not (yield from self._settle(zone, key)):
                return None  # lost or moved meanwhile: the caller retries
            rec = zone.maps.get(fh.fileid)
            if rec is not None:
                for extent in rec.extents.values():
                    zone.alloc.free(*extent)
                yield from self.core.journal([(zone.site_id, group_record(
                    [DelMap(fh.fileid)]))])
            return ctrlproto.StatusRes(0 if rec else 1).encode(), EMPTY
        if procnum == ctrlproto.CTRL_OBJ_TRUNCATE:
            args = ctrlproto.TruncateArgs.decode(dec)
            fh = FHandle.unpack(args.fh)
            zone = self._site_of(fh)
            if zone is None:
                return ctrlproto.StatusRes(1).encode(), EMPTY
            key = (zone.site_id, fh.fileid)
            overlay = self.pending.get(key)
            if overlay is not None:
                overlay.truncate(min(overlay.size, args.size))
            if not (yield from self._settle(zone, key)):
                return None  # lost or moved meanwhile: the caller retries
            rec = zone.maps.get(fh.fileid)
            if rec is not None and args.size < rec.size:
                cutoff = (args.size + BLOCK - 1) // BLOCK
                for block, extent in rec.extents.items():
                    if block >= cutoff:
                        zone.alloc.free(*extent)
                kept = {b: e for b, e in rec.extents.items() if b < cutoff}
                yield from self.core.journal([(zone.site_id, group_record(
                    [PutMap(fh.fileid, args.size, kept)]))])
            return ctrlproto.StatusRes(0).encode(), EMPTY
        if procnum == ctrlproto.CTRL_OBJ_STAT:
            fh = FHandle.unpack(ctrlproto.ObjArgs.decode(dec).fh)
            zone = self._site_of(fh)
            if zone is None:
                return ctrlproto.ObjStat(False, 0, 0).encode(), EMPTY
            rec = zone.maps.get(fh.fileid)
            overlays = self._overlays(zone, fh.fileid)
            exists = rec is not None or bool(overlays)
            size = self._file_size(rec, overlays)
            unstable = sum(overlay.stored_bytes() for overlay in overlays)
            return ctrlproto.ObjStat(exists, size, unstable).encode(), EMPTY
        raise RpcAcceptError(PROC_UNAVAIL)
