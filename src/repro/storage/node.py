"""Network storage node: object-based block storage served over NFS.

Serves READ/WRITE/COMMIT (plus GETATTR) on storage objects named by file
handle, with the behaviours the paper describes in §4.2:

- an external hash maps NFS file handles to storage objects;
- sequential streams are prefetched up to 256 KB beyond the current access
  (near-sequential strides also trigger prefetch, so a mirrored reader that
  alternates between replicas leaves prefetched-but-unused data behind —
  the effect that halves mirrored read bandwidth in Table 2);
- unstable writes live in memory until committed, flushed, or lost to a
  crash; a reboot changes the write verifier so clients re-send.

Under online reconfiguration (§6, ``repro.reconfig``) a node additionally
knows which *logical storage sites* it hosts: READ/WRITE for slice files
whose stripe block belongs to a site the node does not host are answered
``SLICEERR_MISDIRECTED`` (the µproxy's cue to refetch its tables), and a
per-site *migration barrier* stalls freshly rebound traffic until the
rebalancer has landed that site's data here.  Pseudo-volume backing
objects (small-file zones/logs/maps) are pinned at birth and exempt.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.net import Host
from repro.nfs import proto
from repro.nfs.errors import (
    NFS3ERR_NOENT,
    NFS3ERR_NOTSUPP,
    NFS3_OK,
    SLICEERR_MISDIRECTED,
)
from repro.nfs.fhandle import FHandle
from repro.nfs.types import DATA_SYNC, FILE_SYNC, Fattr3, NF3REG
from repro.rpc import RpcAcceptError, RpcServer
from repro.rpc.messages import PROC_UNAVAIL
from repro.rpc.xdr import Decoder
from repro.util.bytesim import EMPTY, ZeroData
from . import ctrlproto
from .cache import BufferCache
from .disk import DiskArray, DiskParams
from .objects import BLOCK_SIZE, ObjectStore

__all__ = ["StorageNode", "StorageNodeParams", "object_id_for_fh", "STORE_PORT"]

STORE_PORT = 3049

# Volumes at or above this value are server-private backing objects
# (small-file zones, logs, maps): their placement is the owning server's
# policy, never the cluster routing table's, so site checks exempt them.
PSEUDO_VOLUME_BASE = 0xFF00


def object_id_for_fh(fh: bytes) -> bytes:
    """Map an NFS file handle to a storage object identifier.

    Slice handles hash to (volume, fileid) so per-file policy flag changes
    do not change the object; foreign handles hash as raw bytes.
    """
    try:
        decoded = FHandle.unpack(fh)
    except ValueError:
        return hashlib.md5(fh).digest()[:10]
    return decoded.volume.to_bytes(2, "big") + decoded.fileid.to_bytes(8, "big")


@dataclass
class StorageNodeParams:
    """Capacity/cost knobs (defaults approximate a Dell 4400 of the paper)."""

    num_disks: int = 8
    disk: DiskParams = field(default_factory=DiskParams)
    channel_bandwidth: float = 72e6
    cache_bytes: int = 200 << 20  # of the node's 256 MB RAM
    cpu_per_op: float = 25e-6
    # Read path (buffer copy + transmit) costs more CPU than the receive
    # path; these bound a node at roughly the paper's 55 MB/s source /
    # 60 MB/s sink.
    cpu_read_per_byte: float = 20e-9
    cpu_write_per_byte: float = 10e-9
    prefetch_bytes: int = 256 << 10
    near_seq_window: int = 128 << 10
    sync_interval: float = 1.0
    # FFS write clustering: once this many dirty blocks accumulate for one
    # object, the node starts writing them back without waiting for commit.
    write_behind_blocks: int = 16


class StorageNode:
    """One network-attached storage node."""

    def __init__(
        self,
        sim,
        host: Host,
        params: Optional[StorageNodeParams] = None,
        port: int = STORE_PORT,
        tracer=None,
    ):
        self.sim = sim
        self.host = host
        self.params = params or StorageNodeParams()
        self.tracer = tracer
        self.array = DiskArray(
            sim,
            num_disks=self.params.num_disks,
            params=self.params.disk,
            channel_bandwidth=self.params.channel_bandwidth,
        )
        self.cache = BufferCache(self.params.cache_bytes)
        self.store = ObjectStore(allocate_phys=self.array.allocate)
        self.server = RpcServer(host, port)
        self.server.tracer = tracer
        self.server.trace_component = f"storage:{host.name}"
        self.server.register(proto.NFS_PROGRAM, self._nfs_service)
        self.server.register(ctrlproto.SLICE_CTRL_PROGRAM, self._ctrl_service)
        self._boot_count = 0
        self.verf = self._new_verf()
        self._dirty: Dict[bytes, Set[int]] = {}
        self._inflight: Dict = {}
        # Sequentiality is tracked in *local block order* (the position of a
        # block in this node's own layout sequence): a striped sequential
        # reader looks strictly sequential here, and a mirrored reader that
        # alternates replicas looks stride-2 — near-sequential, so prefetch
        # still fires and reads the skipped blocks (the paper's wasted
        # prefetch that halves mirrored read bandwidth).
        self._last_local: Dict[bytes, int] = {}
        self._prefetched_local: Dict[bytes, int] = {}
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # -- online reconfiguration (repro.reconfig) ------------------------
        # hosted_sites None => site checks disabled (standalone node).
        self.hosted_sites: Optional[Set[int]] = None
        self.relinquished_sites: Set[int] = set()
        self._site_placement = None  # StaticPlacement sized to the table
        self._site_policy = None  # IoPolicy (stripe_unit for block_of)
        self._barriers: Dict[int, object] = {}
        # Last file handle seen per object: the rebalancer needs real fhs
        # to re-derive placement (the mirrored flag) and to address the
        # ctrl-plane migration procs.  Persistent across crashes — the fh
        # is derivable from the durable object id plus directory state.
        self.fh_of: Dict[bytes, bytes] = {}
        self.misdirects = 0
        self.migrate_reads = 0
        self.migrate_writes = 0
        sim.process(self._syncer(), name=f"syncer:{host.name}")

    @property
    def address(self):
        return self.server.address

    # -- telemetry ---------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """Current load readings (levels, not cumulative counts).

        Read only when sampled, so the data path pays nothing for them."""
        arms = [d.arm for d in self.array.disks]
        channel = self.array.channel
        return {
            "cpu_queue": self.host.cpu.queue_length,
            "cpu_util": self.host.cpu.utilization(),
            "disk_queue": sum(arm.queue_length + arm.in_use for arm in arms),
            "disk_util": sum(arm.utilization() for arm in arms) / len(arms),
            "channel_queue": channel.queue_length + channel.in_use,
            "channel_util": channel.utilization(),
            "cache_used_frac": self.cache.used / self.cache.capacity,
            "cache_hit_rate": self.cache.hit_ratio(),
            "dirty_blocks": sum(len(b) for b in self._dirty.values()),
        }

    def counters(self) -> Dict[str, int]:
        """Cumulative counts since construction."""
        return {
            **self.server.counters(),
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "misdirects": self.misdirects,
            "migrate_reads": self.migrate_reads,
            "migrate_writes": self.migrate_writes,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "disk_seeks": sum(d.seeks for d in self.array.disks),
        }

    def _new_verf(self) -> int:
        digest = hashlib.md5(
            f"{self.host.name}:boot:{self._boot_count}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    # -- failure injection ---------------------------------------------------

    def crash(self) -> None:
        """Power loss: unstable data and cache contents are gone."""
        self.host.crash()
        self.store.crash()
        self.cache.clear()
        self._dirty.clear()
        self._inflight.clear()
        self._last_local.clear()
        self._prefetched_local.clear()
        self.server.clear_duplicate_cache()

    def restart(self) -> None:
        self._boot_count += 1
        self.verf = self._new_verf()
        self.host.restart()

    # -- logical-site awareness (online reconfiguration) --------------------

    def configure_sites(self, hosted_sites, placement, policy) -> None:
        """Arm site checking: this node serves only ``hosted_sites``.

        ``placement`` is a :class:`~repro.core.placement.StaticPlacement`
        sized to the cluster's storage routing table (so the node computes
        the same (file, block) -> sites mapping as every µproxy) and
        ``policy`` the shared :class:`~repro.core.placement.IoPolicy`.
        """
        self.hosted_sites = set(hosted_sites)
        self._site_placement = placement
        self._site_policy = policy

    def adopt_site(self, site: int) -> None:
        """A rebind made this node the home of a logical site."""
        if self.hosted_sites is None:
            self.hosted_sites = set()
        self.hosted_sites.add(site)
        self.relinquished_sites.discard(site)

    def relinquish_site(self, site: int) -> None:
        """A rebind moved a logical site away: stop serving it *now*.

        Any in-flight client write for the site is answered MISDIRECTED
        from this instant, so no new data can land on the old binding
        while the rebalancer drains it."""
        if self.hosted_sites is not None:
            self.hosted_sites.discard(site)
        self.relinquished_sites.add(site)

    def set_migration_barrier(self, site: int) -> None:
        """Stall freshly rebound traffic for ``site`` until its data lands."""
        if site not in self._barriers:
            self._barriers[site] = self.sim.event()

    def clear_migration_barrier(self, site: int) -> None:
        event = self._barriers.pop(site, None)
        if event is not None:
            event.succeed(None)

    @property
    def barrier_sites(self) -> Set[int]:
        return set(self._barriers)

    def _route_sites(self, fh_raw: bytes, offset: int) -> Optional[Set[int]]:
        """Logical sites a slice-routed request may legitimately target,
        or None when the request is exempt from site checks."""
        if self._site_placement is None:
            return None
        if self._site_policy.use_block_maps:
            # Dynamic placement: the authoritative map lives at the
            # coordinator, so the node cannot re-derive routing locally.
            return None
        try:
            fh = FHandle.unpack(fh_raw)
        except ValueError:
            return None  # foreign handle: not routed by the slice tables
        if fh.volume >= PSEUDO_VOLUME_BASE:
            return None  # pinned backing object (small-file zone/log/map)
        block = self._site_policy.block_of(offset)
        return set(self._site_placement.sites_for_block(fh, block))

    def _hosted_check(self, fh_raw: bytes, offset: int):
        """(misdirected, my_sites): site check for one READ/WRITE."""
        sites = self._route_sites(fh_raw, offset)
        if sites is None:
            return False, ()
        mine = sites & self.hosted_sites
        if not mine:
            self.misdirects += 1
            return True, ()
        return False, mine

    def _await_barriers(self, sites):
        """Generator: wait while any targeted site is still migrating in."""
        while True:
            pending = [
                self._barriers[s] for s in sites if s in self._barriers
            ]
            if not pending:
                return
            for event in pending:
                if not event.processed:
                    yield event

    # -- block/cache machinery -------------------------------------------

    def _blocks_of(self, offset: int, count: int):
        first = offset // BLOCK_SIZE
        last = (offset + count - 1) // BLOCK_SIZE if count else first
        return range(first, last + 1)

    def _fill_block(self, oid: bytes, obj, block: int):
        """Generator: bring one block into the cache (disk read if mapped)."""
        key = (oid, block)
        if self.cache.lookup(key):
            return
        pending = self._inflight.get(key)
        if pending is not None:
            yield pending
            return
        done = self.sim.event()
        self._inflight[key] = done
        try:
            phys = obj.block_phys.get(block) if obj else None
            if phys is not None:
                yield from self.array.access(phys, BLOCK_SIZE, write=False)
            self._insert_clean(key)
        finally:
            del self._inflight[key]
            done.succeed(None)

    def _insert_clean(self, key) -> None:
        for victim_key, _size in self.cache.insert(key, BLOCK_SIZE):
            self._writeback_async(victim_key)

    def _insert_dirty(self, oid: bytes, block: int) -> None:
        key = (oid, block)
        self._dirty.setdefault(oid, set()).add(block)
        for victim_key, _size in self.cache.insert(key, BLOCK_SIZE, dirty=True):
            self._writeback_async(victim_key)

    def _writeback_async(self, key) -> None:
        self.sim.process(self._writeback(key), name=f"wb:{self.host.name}")

    def _writeback(self, key):
        oid, block = key
        obj = self.store.get(oid)
        dirty = self._dirty.get(oid)
        if dirty is not None:
            dirty.discard(block)
            if not dirty:
                del self._dirty[oid]
        if obj is None:
            return
        phys = self.store.phys_for_block(obj, block)
        yield from self.array.access(phys, BLOCK_SIZE, write=True)
        # Once on disk the data is stable (the server may commit any time).
        obj.commit(block * BLOCK_SIZE, BLOCK_SIZE)
        self.cache.mark_clean(key)

    def _flush_object(self, oid: bytes, offset: int = 0, count: Optional[int] = None):
        """Generator: write back dirty blocks of an object (coalesced)."""
        dirty = self._dirty.get(oid)
        if not dirty:
            return
        if count is None:
            blocks = sorted(dirty)
        else:
            wanted = set(self._blocks_of(offset, count))
            blocks = sorted(dirty & wanted)
        obj = self.store.get(oid)
        if obj is None:
            for block in blocks:
                dirty.discard(block)
            return
        procs = []
        for block in blocks:
            if block in dirty:
                dirty.discard(block)
                key = (oid, block)
                procs.append(self.sim.process(self._flush_one(obj, key)))
        if not dirty:
            self._dirty.pop(oid, None)
        if procs:
            yield self.sim.all_of(procs)

    def _flush_one(self, obj, key):
        oid, block = key
        phys = self.store.phys_for_block(obj, block)
        yield from self.array.access(phys, BLOCK_SIZE, write=True)
        obj.commit(block * BLOCK_SIZE, BLOCK_SIZE)
        self.cache.mark_clean(key)

    def _syncer(self):
        """Periodic flusher, like the BSD update daemon."""
        while True:
            yield self.sim.timeout(self.params.sync_interval)
            if not self.host.up:
                continue
            for oid in list(self._dirty):
                yield from self._flush_object(oid)

    # -- attribute synthesis -----------------------------------------------

    def _attrs(self, fh: bytes, obj) -> Fattr3:
        try:
            fileid = FHandle.unpack(fh).fileid
        except ValueError:
            fileid = int.from_bytes(object_id_for_fh(fh)[:8], "big")
        size = obj.size if obj else 0
        now = self.host.clock()
        return Fattr3(
            ftype=NF3REG, size=size, used=obj.stored_bytes() if obj else 0,
            fileid=fileid, atime=now, mtime=now, ctime=now,
        )

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
        result = yield from handler(self, proc.args.decode(dec), body)
        return result

    def _do_getattr(self, args, body):
        obj = self.store.get(object_id_for_fh(args.fh))
        yield from self.host.cpu_work(self.params.cpu_per_op)
        if obj is None:
            return proto.GetattrRes(NFS3ERR_NOENT).encode(), EMPTY
        return proto.GetattrRes(NFS3_OK, self._attrs(args.fh, obj)).encode(), EMPTY

    def _do_read(self, args, body):
        oid = object_id_for_fh(args.fh)
        misdirected, my_sites = self._hosted_check(args.fh, args.offset)
        if misdirected:
            yield from self.host.cpu_work(self.params.cpu_per_op)
            return proto.ReadRes(SLICEERR_MISDIRECTED).encode(), EMPTY
        yield from self._await_barriers(my_sites)
        yield from self.host.cpu_work(
            self.params.cpu_per_op + self.params.cpu_read_per_byte * args.count
        )
        obj = self.store.get(oid)
        request_end = args.offset + args.count
        # Sequential / near-sequential detection in local block order.
        if obj is not None and args.count and obj.block_order:
            index_of = {b: i for i, b in enumerate(obj.block_order)}
            wanted = [
                index_of[b]
                for b in self._blocks_of(args.offset, args.count)
                if b in index_of
            ]
            if wanted:
                first_local, last_local = min(wanted), max(wanted)
                previous = self._last_local.get(oid)
                if previous is None and first_local <= 1:
                    previous = first_local - 1  # stream starting at the head
                self._last_local[oid] = last_local
                window = max(1, self.params.near_seq_window // BLOCK_SIZE)
                if previous is not None and 0 <= first_local - previous <= window:
                    self._start_prefetch(oid, obj, previous + 1, last_local)
        # Bring the requested blocks in (holes cost nothing).
        if obj is not None and args.count:
            fills = [
                self.sim.process(self._fill_block(oid, obj, block))
                for block in self._blocks_of(args.offset, args.count)
            ]
            yield self.sim.all_of(fills)
        if obj is None:
            data = ZeroData(0)
            eof = True
            attr = self._attrs(args.fh, None)
        else:
            data = obj.read(args.offset, args.count)
            eof = request_end >= obj.size
            attr = self._attrs(args.fh, obj)
        self.reads += 1
        self.bytes_read += data.length
        res = proto.ReadRes(NFS3_OK, attr, count=data.length, eof=eof)
        return res.encode(), data

    def _start_prefetch(self, oid: bytes, obj, window_start: int,
                        last_local: int):
        """Prefetch ahead (and across small gaps) in local block order.

        Extensions are issued in at-least-half-window quanta so the arm
        amortizes its seek over a long run instead of chasing the reader
        four blocks at a time.
        """
        depth = max(1, self.params.prefetch_bytes // BLOCK_SIZE)
        prefetched = self._prefetched_local.get(oid, -1)
        ahead = prefetched - last_local
        if ahead >= depth // 2:
            return  # still comfortably ahead of the reader
        target = min(last_local + depth, len(obj.block_order) - 1)
        start = max(window_start, prefetched + 1)
        if target < start:
            return
        self._prefetched_local[oid] = target
        self.sim.process(
            self._prefetch(oid, obj, start, target),
            name=f"prefetch:{self.host.name}",
        )

    def _prefetch(self, oid: bytes, obj, start_local: int, stop_local: int):
        """Read the whole prefetch window at once: the fills land on several
        drives (chunk interleave), so they overlap (FFS read clustering)."""
        upper = min(stop_local + 1, len(obj.block_order))
        if upper <= start_local:
            return
        fills = [
            self.sim.process(self._fill_block(oid, obj, obj.block_order[i]))
            for i in range(start_local, upper)
        ]
        yield self.sim.all_of(fills)

    def _do_write(self, args, body):
        oid = object_id_for_fh(args.fh)
        misdirected, my_sites = self._hosted_check(args.fh, args.offset)
        if misdirected:
            yield from self.host.cpu_work(self.params.cpu_per_op)
            return proto.WriteRes(SLICEERR_MISDIRECTED).encode(), EMPTY
        yield from self._await_barriers(my_sites)
        yield from self.host.cpu_work(
            self.params.cpu_per_op + self.params.cpu_write_per_byte * args.count
        )
        # Re-check after the yields above: a reconfiguration may have
        # relinquished the target site while this request was waiting on a
        # barrier or the CPU.  Applying the write now would strand the data
        # on the old binding after the rebalancer enumerated it.
        misdirected, my_sites = self._hosted_check(args.fh, args.offset)
        if misdirected:
            return proto.WriteRes(SLICEERR_MISDIRECTED).encode(), EMPTY
        # Independent lost-write oracle: re-derive the routing sites at
        # serve time and flag any write landing on a site this node does
        # not host (only a broken/bypassed site check can get here).
        if self._site_placement is not None and self.tracer is not None:
            sites = self._route_sites(args.fh, args.offset)
            if sites is not None and not (sites & self.hosted_sites):
                self.tracer.stale_write_accepted(
                    f"storage:{self.host.name}", oid, min(sites), self.sim.now
                )
        obj = self.store.get(oid, create=True)
        self.fh_of[oid] = args.fh
        data = body.slice(0, args.count)
        obj.write(args.offset, data, stable=False)
        for block in self._blocks_of(args.offset, args.count):
            self._insert_dirty(oid, block)
        # Write clustering: start flushing early so a later commit only
        # waits for the tail of the stream.
        dirty = self._dirty.get(oid)
        if dirty is not None and len(dirty) >= self.params.write_behind_blocks:
            self.sim.process(
                self._flush_object(oid), name=f"wb-cluster:{self.host.name}"
            )
        committed = args.stable
        if args.stable in (DATA_SYNC, FILE_SYNC):
            yield from self._flush_object(oid, args.offset, args.count)
            obj.commit(args.offset, args.count)
            committed = FILE_SYNC
        self.writes += 1
        self.bytes_written += args.count
        res = proto.WriteRes(
            NFS3_OK,
            self._attrs(args.fh, obj),
            count=args.count,
            committed=committed,
            verf=self.verf,
        )
        return res.encode(), EMPTY

    def _do_commit(self, args, body):
        oid = object_id_for_fh(args.fh)
        yield from self.host.cpu_work(self.params.cpu_per_op)
        obj = self.store.get(oid)
        if obj is not None:
            count = None if args.count == 0 else args.count
            yield from self._flush_object(oid, args.offset, count)
            if count is None:
                obj.commit()
            else:
                obj.commit(args.offset, count)
            attr = self._attrs(args.fh, obj)
        else:
            attr = self._attrs(args.fh, None)
        res = proto.CommitRes(NFS3_OK, attr, verf=self.verf)
        return res.encode(), EMPTY

    _HANDLERS = {
        proto.PROC_GETATTR: _do_getattr,
        proto.PROC_READ: _do_read,
        proto.PROC_WRITE: _do_write,
        proto.PROC_COMMIT: _do_commit,
    }

    # -- control service ---------------------------------------------------

    def _ctrl_service(self, proc: int, dec: Decoder, body, src):
        yield from self.host.cpu_work(self.params.cpu_per_op)
        if proc == ctrlproto.CTRL_PING:
            return ctrlproto.StatusRes(0).encode(), EMPTY
        if proc == ctrlproto.CTRL_OBJ_REMOVE:
            fh = ctrlproto.ObjArgs.decode(dec).fh
            oid = object_id_for_fh(fh)
            removed = self.store.remove(oid)
            self.fh_of.pop(oid, None)
            dirty = self._dirty.pop(oid, set())
            for block in dirty:
                self.cache.discard((oid, block))
            self._last_local.pop(oid, None)
            self._prefetched_local.pop(oid, None)
            return ctrlproto.StatusRes(0 if removed else 1).encode(), EMPTY
        if proc == ctrlproto.CTRL_OBJ_TRUNCATE:
            args = ctrlproto.TruncateArgs.decode(dec)
            oid = object_id_for_fh(args.fh)
            obj = self.store.get(oid)
            if obj is not None:
                obj.truncate(args.size)
                dirty = self._dirty.get(oid)
                if dirty:
                    cutoff = (args.size + BLOCK_SIZE - 1) // BLOCK_SIZE
                    for block in [b for b in dirty if b >= cutoff]:
                        dirty.discard(block)
                        self.cache.discard((oid, block))
                self._prefetched_local.pop(oid, None)
            return ctrlproto.StatusRes(0).encode(), EMPTY
        if proc == ctrlproto.CTRL_OBJ_STAT:
            fh = ctrlproto.ObjArgs.decode(dec).fh
            obj = self.store.get(object_id_for_fh(fh))
            if obj is None:
                stat = ctrlproto.ObjStat(False, 0, 0)
            else:
                unstable = sum(hi - lo for lo, hi in obj.unstable_ranges)
                stat = ctrlproto.ObjStat(True, obj.size, unstable)
            return stat.encode(), EMPTY
        if proc == ctrlproto.CTRL_OBJ_READ:
            # Migration data plane: read a byte range as the *source* of a
            # rebalance copy.  Deliberately bypasses the hosted-site check
            # and migration barriers — by the time the rebalancer reads, the
            # source has already relinquished the site, yet it is the only
            # holder of the bytes.  Merges the unstable overlay so writes
            # not yet committed still travel with the object.
            args = ctrlproto.RangeArgs.decode(dec)
            oid = object_id_for_fh(args.fh)
            yield from self.host.cpu_work(
                self.params.cpu_read_per_byte * args.count
            )
            obj = self.store.get(oid)
            if obj is None:
                return ctrlproto.ReadRes(False, 0).encode(), EMPTY
            if args.count:
                fills = [
                    self.sim.process(self._fill_block(oid, obj, block))
                    for block in self._blocks_of(args.offset, args.count)
                ]
                yield self.sim.all_of(fills)
            data = obj.read(args.offset, args.count)
            self.migrate_reads += 1
            self.bytes_read += data.length
            return ctrlproto.ReadRes(True, data.length).encode(), data
        if proc == ctrlproto.CTRL_MIGRATE_WRITE:
            # Migration ingest: a stable write issued by the rebalancer (or
            # a coordinator recovering a torn migration) into the *target*
            # node.  Bypasses site checks and barriers by construction —
            # the barrier exists precisely to hold client traffic while
            # these writes land.  FILE_SYNC semantics: durable on reply.
            args = ctrlproto.RangeArgs.decode(dec)
            oid = object_id_for_fh(args.fh)
            yield from self.host.cpu_work(
                self.params.cpu_write_per_byte * args.count
            )
            obj = self.store.get(oid, create=True)
            self.fh_of[oid] = args.fh
            data = body.slice(0, args.count)
            obj.write(args.offset, data, stable=False)
            for block in self._blocks_of(args.offset, args.count):
                self._insert_dirty(oid, block)
            yield from self._flush_object(oid, args.offset, args.count)
            obj.commit(args.offset, args.count)
            self.migrate_writes += 1
            self.bytes_written += args.count
            return ctrlproto.StatusRes(0).encode(), EMPTY
        raise RpcAcceptError(PROC_UNAVAIL)
