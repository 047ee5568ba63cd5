"""Small-file server (§4.4).

Handles I/O below the threshold offset for every file, managing each file
as a sequence of 8 KB logical blocks whose physical homes are best-fit
fragments inside large backing objects striped over the network storage
array.  The server is dataless: its authoritative structures are the map
records, journaled to a write-ahead log and checkpointed to shared backing
storage; file data lives in the backing objects on the storage nodes and is
cached here in memory (the 1 GB ensemble cache whose overflow produces the
latency jump in Figure 6).

NFS V3 commit semantics are honoured end to end: unstable writes buffer in
server memory and die with a crash; commit (or the periodic syncer) writes
data fragments to the storage nodes and forces the map-record journal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dirsvc.backing import BackingRegistry
from repro.net import Address, Host
from repro.nfs import proto
from repro.nfs.errors import NFS3_OK
from repro.nfs.fhandle import FHandle
from repro.nfs.types import DATA_SYNC, FILE_SYNC, Fattr3, NF3REG
from repro.rpc import RpcClient, RpcServer, RpcTimeout
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
# storage array: data zone, journal, and map-record array.
ZONE_VOLUME = 0xFFFE
LOG_VOLUME = 0xFFFD
MAP_VOLUME = 0xFFFC


def sf_site_for(fileid: int, num_sites: int) -> int:
    """Logical small-file site for a file (µproxy and servers agree)."""
    return md5_u64(b"sf:" + fileid.to_bytes(8, "big")) % num_sites


def _zone_fh(volume: int, site: int) -> bytes:
    return FHandle(volume, NF3REG, 0, site, 0, bytes(16)).pack()


@dataclass
class MapRecord:
    """Per-file map: logical 8 KB block -> (zone offset, fragment size)."""

    size: int = 0
    extents: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def to_journal(self, fileid: int) -> Dict:
        return {
            "op": "map", "fileid": fileid, "size": self.size,
            "extents": [[b, o, s] for b, (o, s) in self.extents.items()],
        }

    @classmethod
    def from_journal(cls, record: Dict) -> "MapRecord":
        return cls(
            record["size"],
            {b: (o, s) for b, o, s in record["extents"]},
        )


class SiteZone:
    """In-memory state of one logical small-file site."""

    def __init__(self, site_id: int):
        self.site_id = site_id
        self.maps: Dict[int, MapRecord] = {}
        self.alloc = FragmentAllocator()
        # Mirror of the backing object, filled lazily from storage nodes.
        self.mirror = ExtentMap()

    def snapshot(self) -> Dict:
        return {
            "maps": [rec.to_journal(fid) for fid, rec in self.maps.items()],
        }

    @classmethod
    def recover(cls, site_id: int, snapshot: Optional[Dict], records) -> "SiteZone":
        zone = cls(site_id)
        if snapshot:
            for rec in snapshot["maps"]:
                zone.maps[rec["fileid"]] = MapRecord.from_journal(rec)
        for record in records:
            if record["op"] == "map":
                zone.maps[record["fileid"]] = MapRecord.from_journal(record)
            elif record["op"] == "del":
                zone.maps.pop(record["fileid"], None)
        live = [
            extent
            for rec in zone.maps.values()
            for extent in rec.extents.values()
        ]
        zone.alloc = FragmentAllocator.rebuild(live)
        return zone


@dataclass
class SmallFileParams:
    cache_bytes: int = 450 << 20  # of a 512 MB server
    cpu_per_op: float = 60e-6
    cpu_per_byte: float = 2e-9
    sync_interval: float = 1.0
    stripe: int = 64 << 10  # backing-object striping unit over storage nodes
    threshold: int = 64 << 10
    map_records_per_block: int = 64
    peer_retrans_timeout: float = 0.5
    peer_max_tries: int = 4


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
        self.backing = backing
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
            retrans_timeout=self.params.peer_retrans_timeout,
            max_tries=self.params.peer_max_tries,
        )
        from repro.storage.cache import BufferCache
        from repro.storage.disk import LogDevice

        self.cache = BufferCache(self.params.cache_bytes)
        # Dedicated journal spindle (sequential appends for all sites).
        self.log_device = LogDevice(sim)
        self.zones: Dict[int, SiteZone] = {}
        # (site, fileid) -> unstable overlay of file content
        self.pending: Dict[Tuple[int, int], ExtentMap] = {}
        # (site, fileid) -> completion event of the in-progress flush.
        # Flushes must serialize per file: a flush claims the overlay at
        # its *start* but only makes it durable at its *end*, so a commit
        # that merely observed an empty overlay must still wait out the
        # in-flight flush before acknowledging stability.
        self._flushing: Dict[Tuple[int, int], object] = {}
        self._log_offsets: Dict[int, int] = {}
        self._boot_count = 0
        self.verf = self._new_verf()
        self.reads = 0
        self.writes = 0
        self.backing_reads = 0
        self.backing_writes = 0
        for site_id in site_ids:
            self._load_site(site_id)
        sim.process(self._syncer(), name=f"sf-syncer:{host.name}")

    @property
    def address(self) -> Address:
        return self.server.address

    # -- telemetry ----------------------------------------------------------

    def telemetry_gauges(self, scope) -> None:
        """Register this server's pull-gauges on a metrics scope."""
        scope.gauge("loaded_sites", fn=lambda: len(self.zones))
        scope.gauge(
            "wal_depth",
            fn=lambda: sum(
                self.backing.site("sf", sid).log.depth for sid in self.zones
            ),
        )
        scope.gauge(
            "wal_unsynced",
            fn=lambda: sum(
                self.backing.site("sf", sid).log.unsynced
                for sid in self.zones
            ),
        )
        scope.gauge("pending_overlays", fn=lambda: len(self.pending))
        cache = self.cache
        scope.gauge("cache_used_frac",
                    fn=lambda: cache.used / cache.capacity)
        scope.gauge("cache_hit_rate", fn=cache.hit_ratio)
        cpu = self.host.cpu
        scope.gauge("cpu_queue", fn=lambda: cpu.queue_length)
        scope.gauge("cpu_util", fn=cpu.utilization)

    def _new_verf(self) -> int:
        digest = hashlib.md5(
            f"sf:{self.host.name}:{self._boot_count}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    # -- site lifecycle -----------------------------------------------------

    def _load_site(self, site_id: int) -> None:
        site_backing = self.backing.site("sf", site_id)
        zone = SiteZone.recover(
            site_id, site_backing.snapshot, site_backing.log.stable_records()
        )
        site_backing.log.write_cost = self.log_device.cost_fn()
        self.zones[site_id] = zone

    def unload_site(self, site_id: int) -> int:
        """Checkpoint and stop hosting a site; returns live map count."""
        zone = self.zones.pop(site_id, None)
        if zone is None:
            return 0
        site_backing = self.backing.site("sf", site_id)
        site_backing.checkpoint(zone.snapshot())
        return len(zone.maps)

    def load_site(self, site_id: int) -> None:
        if site_id not in self.zones:
            self._load_site(site_id)

    def hosted_sites(self) -> List[int]:
        return sorted(self.zones)

    def crash(self) -> None:
        """Unstable data and caches are lost; backing state survives."""
        for site_id in self.zones:
            self.backing.site("sf", site_id).log.crash()
        self.host.crash()
        self.zones.clear()
        self.pending.clear()
        self.cache.clear()
        self.server.clear_duplicate_cache()

    def restart(self, site_ids: Optional[List[int]] = None) -> None:
        self._boot_count += 1
        self.verf = self._new_verf()
        self.host.restart()
        for site_id in site_ids or []:
            self._load_site(site_id)

    # -- backing I/O ---------------------------------------------------------

    def _node_for(self, offset: int) -> Address:
        index = (offset // self.params.stripe) % len(self.storage_nodes)
        return self.storage_nodes[index]

    def _read_backing(self, zone: SiteZone, offset: int, length: int):
        """Generator: ensure [offset, offset+length) of the zone's backing
        object is resident; returns the mirrored Data."""
        fh = _zone_fh(ZONE_VOLUME, zone.site_id)
        first = offset // BLOCK
        last = (offset + length - 1) // BLOCK if length else first
        missing: List[int] = []
        for block in range(first, last + 1):
            if not self.cache.lookup(("z", zone.site_id, block)):
                missing.append(block)
        # Coalesce missing blocks into contiguous runs, each one RPC
        # (split at stripe boundaries by the node mapping).
        runs: List[Tuple[int, int]] = []
        for block in missing:
            if runs and runs[-1][0] + runs[-1][1] == block:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((block, 1))
        for start_block, nblocks in runs:
            run_off = start_block * BLOCK
            run_len = nblocks * BLOCK
            pos = run_off
            while pos < run_off + run_len:
                in_stripe = self.params.stripe - (pos % self.params.stripe)
                step = min(in_stripe, run_off + run_len - pos)
                try:
                    dec, data = yield from self.client.call(
                        self._node_for(pos), proto.NFS_PROGRAM, proto.NFS_V3,
                        proto.PROC_READ, proto.encode_read_args(fh, pos, step),
                    )
                    self.backing_reads += 1
                    if data.length:
                        zone.mirror.write(pos, data)
                except RpcTimeout:
                    pass
                pos += step
            for block in range(start_block, start_block + nblocks):
                self._cache_insert(("z", zone.site_id, block))
        return zone.mirror.read(offset, length)

    def _cache_insert(self, key) -> None:
        # Zone cache entries are clean (write path writes through), so
        # evictions are silent.
        self.cache.insert(key, BLOCK)

    def _write_backing(self, zone: SiteZone, offset: int, data: Data):
        """Generator: write-through a zone region to the storage array."""
        fh = _zone_fh(ZONE_VOLUME, zone.site_id)
        zone.mirror.write(offset, data)
        pos = offset
        end = offset + data.length
        while pos < end:
            in_stripe = self.params.stripe - (pos % self.params.stripe)
            step = min(in_stripe, end - pos)
            try:
                yield from self.client.call(
                    self._node_for(pos), proto.NFS_PROGRAM, proto.NFS_V3,
                    proto.PROC_WRITE,
                    proto.encode_write_args(fh, pos, step, FILE_SYNC),
                    data.slice(pos - offset, pos - offset + step),
                )
                self.backing_writes += 1
            except RpcTimeout:
                pass
            pos += step
        for block in range(offset // BLOCK, (end - 1) // BLOCK + 1):
            self._cache_insert(("z", zone.site_id, block))

    def _load_map(self, zone: SiteZone, fileid: int):
        """Generator: charge a map-array read if the record's block is cold;
        the authoritative record comes from the journaled state."""
        key = ("m", zone.site_id, fileid // self.params.map_records_per_block)
        if not self.cache.lookup(key):
            fh = _zone_fh(MAP_VOLUME, zone.site_id)
            offset = (fileid // self.params.map_records_per_block) * BLOCK
            try:
                yield from self.client.call(
                    self._node_for(offset), proto.NFS_PROGRAM, proto.NFS_V3,
                    proto.PROC_READ, proto.encode_read_args(fh, offset, BLOCK),
                )
                self.backing_reads += 1
            except RpcTimeout:
                pass
            self.cache.insert(key, BLOCK)
        return zone.maps.get(fileid)

    # -- request routing helpers ---------------------------------------------

    def _site_of(self, fh: FHandle) -> Optional[SiteZone]:
        site = sf_site_for(fh.fileid, self.num_logical_sites)
        return self.zones.get(site)

    def _attrs(self, fh: FHandle, size: int) -> Fattr3:
        now = self.host.clock()
        return Fattr3(
            ftype=NF3REG, size=size, used=size, fileid=fh.fileid,
            atime=now, mtime=now, ctime=now,
        )

    def _file_size(self, zone: SiteZone, fileid: int, rec) -> int:
        size = rec.size if rec else 0
        overlay = self.pending.get((zone.site_id, fileid))
        if overlay is not None:
            size = max(size, overlay.size)
        return size

    # -- NFS service -----------------------------------------------------

    def _nfs_service(self, procnum: int, dec: Decoder, body, src):
        if procnum == proto.PROC_READ:
            result = yield from self._do_read(dec)
            return result
        if procnum == proto.PROC_WRITE:
            result = yield from self._do_write(dec, body)
            return result
        if procnum == proto.PROC_COMMIT:
            result = yield from self._do_commit(dec)
            return result
        if procnum == proto.PROC_GETATTR:
            fh = FHandle.unpack(proto.decode_fh_args(dec))
            yield from self.host.cpu_work(self.params.cpu_per_op)
            zone = self._site_of(fh)
            if zone is None:
                from repro.nfs.errors import SLICEERR_MISDIRECTED

                return proto.GetattrRes(SLICEERR_MISDIRECTED).encode(), EMPTY
            rec = yield from self._load_map(zone, fh.fileid)
            size = self._file_size(zone, fh.fileid, rec)
            return proto.GetattrRes(NFS3_OK, self._attrs(fh, size)).encode(), EMPTY
        from repro.nfs.errors import NFS3ERR_NOTSUPP

        yield from ()
        return proto.GetattrRes(NFS3ERR_NOTSUPP).encode(), EMPTY

    def _do_read(self, dec: Decoder):
        args = proto.decode_read_args(dec)
        fh = FHandle.unpack(args.fh)
        yield from self.host.cpu_work(
            self.params.cpu_per_op + self.params.cpu_per_byte * args.count
        )
        zone = self._site_of(fh)
        if zone is None:
            from repro.nfs.errors import SLICEERR_MISDIRECTED

            return proto.ReadRes(SLICEERR_MISDIRECTED).encode(), EMPTY
        rec = yield from self._load_map(zone, fh.fileid)
        size = self._file_size(zone, fh.fileid, rec)
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
        overlay = self.pending.get((zone.site_id, fh.fileid))
        if overlay is not None:
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

    def _do_write(self, dec: Decoder, body):
        args = proto.decode_write_args(dec)
        fh = FHandle.unpack(args.fh)
        yield from self.host.cpu_work(
            self.params.cpu_per_op + self.params.cpu_per_byte * args.count
        )
        zone = self._site_of(fh)
        if zone is None:
            from repro.nfs.errors import SLICEERR_MISDIRECTED

            return proto.WriteRes(SLICEERR_MISDIRECTED).encode(), EMPTY
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
        size = self._file_size(zone, fh.fileid, rec)
        res = proto.WriteRes(
            NFS3_OK, self._attrs(fh, size), count=args.count,
            committed=committed, verf=self.verf,
        )
        return res.encode(), EMPTY

    def _do_commit(self, dec: Decoder):
        args = proto.decode_commit_args(dec)
        fh = FHandle.unpack(args.fh)
        yield from self.host.cpu_work(self.params.cpu_per_op)
        zone = self._site_of(fh)
        if zone is None:
            from repro.nfs.errors import SLICEERR_MISDIRECTED

            return proto.CommitRes(SLICEERR_MISDIRECTED).encode(), EMPTY
        yield from self._flush_file(zone, fh.fileid)
        rec = zone.maps.get(fh.fileid)
        size = self._file_size(zone, fh.fileid, rec)
        res = proto.CommitRes(NFS3_OK, self._attrs(fh, size), verf=self.verf)
        return res.encode(), EMPTY

    # -- flushing -------------------------------------------------------------

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
        """
        key = (zone.site_id, fileid)
        while True:
            inflight = self._flushing.get(key)
            if inflight is None:
                break
            yield inflight
        overlay = self.pending.pop(key, None)
        if overlay is None or not overlay.extents():
            return
        done = self.sim.event()
        self._flushing[key] = done
        try:
            yield from self._flush_overlay(zone, fileid, overlay)
        finally:
            if self._flushing.get(key) is done:
                del self._flushing[key]
            done.succeed(None)

    def _flush_overlay(self, zone: SiteZone, fileid: int, overlay: ExtentMap):
        """Generator: the flush body — caller holds the per-file flush lock."""
        rec = zone.maps.get(fileid)
        if rec is None:
            rec = MapRecord()
            zone.maps[fileid] = rec
        new_size = max(rec.size, overlay.size)
        first_dirty = min(off for off, _d in overlay.extents())
        last_dirty = max(off + d.length for off, d in overlay.extents())
        for block in range(first_dirty // BLOCK, (last_dirty - 1) // BLOCK + 1):
            block_lo = block * BLOCK
            block_hi = min(block_lo + BLOCK, new_size)
            dirty = any(
                off < block_hi and off + d.length > block_lo
                for off, d in overlay.extents()
            )
            if not dirty:
                continue
            want = block_hi - block_lo
            # Assemble the block's new content: stable base + overlay.
            base = ExtentMap()
            old_extent = rec.extents.get(block)
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
            rounded = round_fragment(want)
            if old_extent is not None and old_extent[1] >= rounded:
                zone_off = old_extent[0]
                alloc_size = old_extent[1]
            else:
                if old_extent is not None:
                    zone.alloc.free(*old_extent)
                zone_off, alloc_size = zone.alloc.allocate(want)
            rec.extents[block] = (zone_off, alloc_size)
            yield from self._write_backing(zone, zone_off, content)
        rec.size = new_size
        log = self.backing.site("sf", zone.site_id).log
        log.append(rec.to_journal(fileid))
        yield from log.sync()

    def _syncer(self):
        while True:
            yield self.sim.timeout(self.params.sync_interval)
            if not self.host.up:
                continue
            for (site_id, fileid) in list(self.pending):
                zone = self.zones.get(site_id)
                if zone is not None:
                    yield from self._flush_file(zone, fileid)

    # -- control service ---------------------------------------------------

    def _ctrl_service(self, procnum: int, dec: Decoder, body, src):
        yield from self.host.cpu_work(self.params.cpu_per_op)
        if procnum == ctrlproto.CTRL_PING:
            return ctrlproto.encode_status_res(0), EMPTY
        if procnum == ctrlproto.CTRL_OBJ_REMOVE:
            fh = FHandle.unpack(ctrlproto.decode_obj_args(dec))
            zone = self._site_of(fh)
            if zone is None:
                return ctrlproto.encode_status_res(1), EMPTY
            self.pending.pop((zone.site_id, fh.fileid), None)
            rec = zone.maps.pop(fh.fileid, None)
            if rec is not None:
                for extent in rec.extents.values():
                    zone.alloc.free(*extent)
                log = self.backing.site("sf", zone.site_id).log
                log.append({"op": "del", "fileid": fh.fileid})
                yield from log.sync()
            return ctrlproto.encode_status_res(0 if rec else 1), EMPTY
        if procnum == ctrlproto.CTRL_OBJ_TRUNCATE:
            args = ctrlproto.decode_truncate_args(dec)
            fh = FHandle.unpack(args.fh)
            zone = self._site_of(fh)
            if zone is None:
                return ctrlproto.encode_status_res(1), EMPTY
            overlay = self.pending.get((zone.site_id, fh.fileid))
            if overlay is not None:
                overlay.truncate(min(overlay.size, args.size))
            rec = zone.maps.get(fh.fileid)
            if rec is not None and args.size < rec.size:
                cutoff = (args.size + BLOCK - 1) // BLOCK
                for block in [b for b in rec.extents if b >= cutoff]:
                    zone.alloc.free(*rec.extents.pop(block))
                rec.size = args.size
                log = self.backing.site("sf", zone.site_id).log
                log.append(rec.to_journal(fh.fileid))
                yield from log.sync()
            return ctrlproto.encode_status_res(0), EMPTY
        if procnum == ctrlproto.CTRL_OBJ_STAT:
            fh = FHandle.unpack(ctrlproto.decode_obj_args(dec))
            zone = self._site_of(fh)
            rec = zone.maps.get(fh.fileid) if zone else None
            overlay = self.pending.get((zone.site_id, fh.fileid)) if zone else None
            exists = rec is not None or overlay is not None
            size = self._file_size(zone, fh.fileid, rec) if zone else 0
            unstable = overlay.stored_bytes() if overlay else 0
            return ctrlproto.encode_stat_res(
                ctrlproto.ObjStat(exists, size, unstable)
            ), EMPTY
        from repro.rpc.endpoint import RpcAcceptError
        from repro.rpc.messages import PROC_UNAVAIL

        raise RpcAcceptError(PROC_UNAVAIL)
