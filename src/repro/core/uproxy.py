"""The Slice µproxy: an interposed request-routing packet filter (§2.1, §3, §4.1).

The µproxy sits on the client's network path to a *virtual* NFS server.  It
intercepts request packets, decodes the RPC/NFS headers, selects a physical
server by request type and content, and rewrites addresses (adjusting
checksums differentially).  On the return path it masquerades replies as
the virtual server, patches file attributes from its cache, virtualizes
write verifiers, chains multi-site readdirs, and absorbs/synthesizes
packets where the architecture calls for it (commit fan-out, misdirected
request retry, block-map fetches).

Everything it keeps is bounded soft state: pending-request records, the
attribute cache, dirty-site sets, block-map fragments, and routing-table
hints.  ``discard_state()`` throws all of it away; end-to-end NFS
retransmission recovers (§2.1).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.dirsvc.config import NameConfig
from repro.net import Address, Host, Packet, PacketFilter
from repro.nfs import proto
from repro.nfs.errors import NFS3_OK, SLICEERR_MISDIRECTED
from repro.nfs.fhandle import FHandle
from repro.rpc import RpcClient, RpcTimeout
from repro.rpc.messages import CALL, CallHeader, ReplyHeader
from repro.rpc.xdr import Decoder, XdrError
from repro.smallfile.server import sf_site_for
from repro.storage import coordproto as cp
from repro.util.bytesim import EMPTY, Data, ZeroData, concat
from repro.util.hashing import md5_u64
from .attrcache import AttrCache
from .cost import CostModel
from .placement import BlockMapCache, IoPolicy, StaticPlacement
from .rewrite import patch_attrs_from, patch_u64
from .routing import RoutingTable

__all__ = ["UProxy", "ProxyParams"]

COOKIE_SITE_SHIFT = 48


@dataclass
class ProxyParams:
    proxy_port: int = 901
    attr_cache_capacity: int = 8192
    pending_capacity: int = 8192
    dirty_sites_capacity: int = 4096
    attr_writeback_interval: float = 3.0  # the NFS "three second window"
    intent_sync: bool = True  # force the intent log before commit fan-out


class _Pending:
    """Soft-state record pairing a request with its reply(ies)."""

    __slots__ = (
        "proc", "fh", "offset", "count", "dst", "expected", "got",
        "site", "plus", "stable",
    )

    def __init__(self, proc, fh=None, offset=0, count=0, dst=None,
                 expected=1, site=0, plus=False, stable=0):
        self.proc = proc
        self.fh = fh
        self.offset = offset
        self.count = count
        self.dst = dst
        self.expected = expected
        self.got = 0
        self.site = site
        self.plus = plus
        self.stable = stable


class UProxy(PacketFilter):
    """One client's interposed request router."""

    def __init__(
        self,
        sim,
        host: Host,
        virtual: Address,
        name_config: NameConfig,
        io_policy: IoPolicy,
        dir_table: RoutingTable,
        sf_table: Optional[RoutingTable],
        storage_nodes: List[Address],
        *,
        storage_table: Optional[RoutingTable] = None,
        coordinators: Optional[List[Address]] = None,
        configsvc: Optional[Address] = None,
        num_sf_sites: Optional[int] = None,
        cost: Optional[CostModel] = None,
        params: Optional[ProxyParams] = None,
        proxy_id: int = 0,
        tracer=None,
    ):
        self.sim = sim
        self.tracer = tracer
        self.host = host
        self.virtual = virtual
        self.name_config = name_config
        self.io = io_policy
        self.dir_table = dir_table
        self.sf_table = sf_table
        #: optional logical-site -> node-address table for bulk storage.
        #: When present it is the authoritative hint: ``storage_nodes`` is
        #: derived from it and refreshed on every conditional refetch, and
        #: placement is sized to the table's logical-site count so only
        #: ~1/Nth of blocks move when a node joins or leaves.
        self.storage_table = storage_table
        if storage_table is not None:
            self.storage_nodes = storage_table.servers()
            num_storage_sites = storage_table.num_sites
        else:
            self.storage_nodes = list(storage_nodes)
            num_storage_sites = max(1, len(self.storage_nodes))
        self.coordinators = list(coordinators or [])
        self.configsvc = configsvc
        self.num_sf_sites = num_sf_sites or (
            sf_table.num_sites if sf_table else 1
        )
        self.cost = cost or CostModel(enabled=False)
        self.params = params or ProxyParams()
        self.proxy_id = proxy_id
        # Per-instance: op_ids are already namespaced by ``proxy_id`` (see
        # coordinator intents), and a process-global counter would make
        # otherwise-identical runs diverge in the trace digest.
        self._op_counter = itertools.count(1)
        self.placement = StaticPlacement(num_storage_sites, io_policy)
        #: cluster reconfiguration epoch of the last table generation this
        #: µproxy installed; conditional refetches quote it so a fresh
        #: proxy gets NOT_MODIFIED instead of the whole table dump.
        self.config_epoch = max(
            dir_table.epoch,
            sf_table.epoch if sf_table is not None else 0,
            storage_table.epoch if storage_table is not None else 0,
        )
        self.block_maps = BlockMapCache()
        self.attr_cache = AttrCache(self.params.attr_cache_capacity)
        self.pending: "OrderedDict[Tuple[int, int], _Pending]" = OrderedDict()
        self.dirty_sites: "OrderedDict[int, Set[Address]]" = OrderedDict()
        self._mirror_toggle: Dict[int, int] = {}
        self._node_verfs: Dict[Address, int] = {}
        self._epoch_salt = 0
        self.verf_epoch = self._new_epoch()
        self._refreshing = False
        self.client = RpcClient(
            host, self.params.proxy_port,
            retrans_timeout=0.5, max_tries=4,
        )
        self.requests_routed = 0
        self.replies_returned = 0
        self.commits_absorbed = 0
        self.misdirects_seen = 0
        self.synthesized = 0
        host.egress_filters.append(self)
        host.ingress_filters.append(self)
        sim.process(self._attr_flusher(), name=f"uproxy-attrflush:{host.name}")

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """Current load readings (levels, not cumulative counts)."""
        cache = self.attr_cache
        lookups = cache.hits + cache.misses
        return {
            "attr_cache_hit_rate": cache.hits / lookups if lookups else 0.0,
            "attr_cache_entries": len(cache),
            "pending_ops": len(self.pending),
            "dirty_files": len(self.dirty_sites),
            "cpu_queue": self.host.cpu.queue_length,
            "cpu_util": self.host.cpu.utilization(),
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _new_epoch(self) -> int:
        self._epoch_salt += 1
        return md5_u64(
            f"epoch:{self.host.name}:{self.proxy_id}:{self._epoch_salt}".encode()
        )

    def _bump_epoch(self) -> None:
        self.verf_epoch = self._new_epoch()

    def discard_state(self) -> None:
        """Lose all soft state (the µproxy is free to do this, §2.1)."""
        self.pending.clear()
        self.attr_cache.clear()
        self.dirty_sites.clear()
        self.block_maps.clear()
        self._mirror_toggle.clear()
        self._node_verfs.clear()
        self._bump_epoch()

    def _known_servers(self) -> Set[Address]:
        known = set(self.dir_table.entries)
        if self.sf_table is not None:
            known.update(self.sf_table.entries)
        if self.storage_table is not None:
            known.update(self.storage_table.entries)
        known.update(self.storage_nodes)
        known.update(self.coordinators)
        return known

    def _storage_addr(self, site: int) -> Address:
        """Physical node currently bound to a logical storage site."""
        if self.storage_table is not None:
            return self.storage_table.lookup(site)
        return self.storage_nodes[site % len(self.storage_nodes)]

    def _storage_targets(self, sites) -> List[Address]:
        """Distinct node addresses for a replica site list, in order.

        With more logical sites than nodes, two replica sites can bind to
        the same physical node; sending the same write twice would be
        wasteful (and would double-count replies)."""
        targets: List[Address] = []
        for site in sites:
            addr = self._storage_addr(site)
            if addr not in targets:
                targets.append(addr)
        return targets

    def _coordinator_for(self, fileid: int) -> Optional[Address]:
        if not self.coordinators:
            return None
        return self.coordinators[
            md5_u64(b"coord:" + fileid.to_bytes(8, "big"))
            % len(self.coordinators)
        ]

    def _sf_addr(self, fileid: int) -> Address:
        site = sf_site_for(fileid, self.num_sf_sites)
        return self.sf_table.lookup(site)

    def _note_dirty(self, fileid: int, addr: Address) -> None:
        sites = self.dirty_sites.get(fileid)
        if sites is None:
            sites = set()
            self.dirty_sites[fileid] = sites
        self.dirty_sites.move_to_end(fileid)
        sites.add(addr)
        self.cost.softstate()
        while len(self.dirty_sites) > self.params.dirty_sites_capacity:
            self.dirty_sites.popitem(last=False)

    def _remember(self, key, rec: _Pending) -> None:
        self.pending[key] = rec
        self.cost.softstate()
        while len(self.pending) > self.params.pending_capacity:
            self.pending.popitem(last=False)

    @staticmethod
    def _unpack_fh(raw: bytes) -> Optional[FHandle]:
        try:
            return FHandle.unpack(raw)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # outbound: requests from the client
    # ------------------------------------------------------------------

    def outbound(self, pkt: Packet):
        """Egress hook: intercept requests to the virtual server, decode,
        and route/rewrite/absorb them (§3)."""
        if pkt.dst != self.virtual:
            return (pkt,)
        self.cost.intercept()
        dec = Decoder(pkt.header)
        try:
            call = CallHeader.decode(dec)
        except XdrError:
            return ()
        if call.prog != proto.NFS_PROGRAM:
            return ()
        try:
            routed = self._route_call(pkt, call, dec)
        except XdrError:
            return ()
        self.cost.decode(dec.offset)
        return routed

    def _route_call(self, pkt: Packet, call: CallHeader, dec: Decoder):
        proc = call.proc
        key = (pkt.src.port, call.xid)
        now = self.host.clock()
        tracer = self.tracer
        if tracer is not None:
            pkt.trace_id = tracer.call_intercepted(
                pkt.src, call.xid, proc, now, size=pkt.size
            )

        def redirect(dst: Address, rec: _Pending, reason: str = "dir-site"):
            rec.dst = dst
            self._remember(key, rec)
            pkt.rewrite_dst(dst)
            self.cost.rewrite(6)
            self.requests_routed += 1
            if tracer is not None:
                tracer.route(pkt.src, call.xid, now, dst, reason,
                             site=rec.site)
                tracer.rewrite_check(pkt, "redirect")
            return (pkt,)

        if proc == proto.PROC_NULL:
            return redirect(self.dir_table.lookup(0), _Pending(proc), "null")

        if proc in (proto.PROC_GETATTR, proto.PROC_ACCESS, proto.PROC_READLINK,
                    proto.PROC_FSSTAT, proto.PROC_FSINFO, proto.PROC_PATHCONF):
            fh = self._unpack_fh(proto.FhArgs.decode(dec).fh)
            if proc == proto.PROC_GETATTR and fh is not None:
                entry = self.attr_cache.peek(fh.fileid)
                if entry is not None and entry.dirty:
                    # For files with in-flight I/O the µproxy's attributes
                    # are *more* current than the directory server's (§4.1);
                    # answer from the cache without a server hop.
                    self.cost.softstate()
                    if tracer is not None:
                        tracer.absorb(pkt.src, call.xid, now, "getattr-cache")
                    res = proto.GetattrRes(NFS3_OK, entry.attrs.copy())
                    self._synthesize_reply(pkt.src, call.xid, res)
                    return ()
            site = fh.home_site if fh else 0
            return redirect(
                self.dir_table.lookup(site), _Pending(proc, fh=fh, site=site),
                "attr-site",
            )

        if proc == proto.PROC_SETATTR:
            args = proto.SetattrArgs.decode(dec)
            fh = self._unpack_fh(args.fh)
            if fh is not None and args.sattr.size is not None:
                self.attr_cache.note_truncate(fh, args.sattr.size, now)
                self.cost.softstate()
            site = fh.home_site if fh else 0
            return redirect(
                self.dir_table.lookup(site), _Pending(proc, fh=fh, site=site),
                "attr-site",
            )

        if proc in (proto.PROC_LOOKUP, proto.PROC_REMOVE, proto.PROC_RMDIR):
            args = proto.DirOpArgs.decode(dec)
            fh = self._unpack_fh(args.dir_fh)
            site = self.name_config.entry_site(fh, args.name) if fh else 0
            return redirect(
                self.dir_table.lookup(site), _Pending(proc, fh=fh, site=site),
                "name-entry",
            )

        if proc in (proto.PROC_CREATE, proto.PROC_SYMLINK, proto.PROC_MKNOD):
            # First two fields are (dir fh, name) for this family.
            dir_fh_raw = proto.FH.get(dec)
            name = proto.NAME.get(dec)
            fh = self._unpack_fh(dir_fh_raw)
            site = self.name_config.entry_site(fh, name) if fh else 0
            return redirect(
                self.dir_table.lookup(site), _Pending(proc, fh=fh, site=site),
                "name-entry",
            )

        if proc == proto.PROC_MKDIR:
            dir_fh_raw = proto.FH.get(dec)
            name = proto.NAME.get(dec)
            fh = self._unpack_fh(dir_fh_raw)
            site = self.name_config.mkdir_site(fh, name) if fh else 0
            return redirect(
                self.dir_table.lookup(site), _Pending(proc, fh=fh, site=site),
                "mkdir-switch",
            )

        if proc == proto.PROC_RENAME:
            args = proto.RenameArgs.decode(dec)
            to_fh = self._unpack_fh(args.to_dir)
            site = (
                self.name_config.entry_site(to_fh, args.to_name) if to_fh else 0
            )
            return redirect(
                self.dir_table.lookup(site),
                _Pending(proc, fh=to_fh, site=site),
                "rename-target",
            )

        if proc == proto.PROC_LINK:
            args = proto.LinkArgs.decode(dec)
            dir_fh = self._unpack_fh(args.dir_fh)
            site = (
                self.name_config.entry_site(dir_fh, args.name) if dir_fh else 0
            )
            return redirect(
                self.dir_table.lookup(site),
                _Pending(proc, fh=dir_fh, site=site),
                "name-entry",
            )

        if proc in (proto.PROC_READDIR, proto.PROC_READDIRPLUS):
            plus = proc == proto.PROC_READDIRPLUS
            if plus:
                args = proto.ReaddirplusArgs.decode(dec)
            else:
                args = proto.ReaddirArgs.decode(dec)
            fh = self._unpack_fh(args.dir_fh)
            if fh is None:
                return ()
            site = (
                (args.cookie >> COOKIE_SITE_SHIFT)
                if args.cookie else fh.home_site
            )
            return redirect(
                self.dir_table.lookup(site),
                _Pending(proc, fh=fh, site=site, plus=plus),
                "readdir-cookie",
            )

        if proc == proto.PROC_READ:
            args = proto.ReadArgs.decode(dec)
            fh = self._unpack_fh(args.fh)
            if fh is None:
                return ()
            bad = self._io_ftype_error(fh)
            if bad is not None:
                self._synthesize_reply(pkt.src, call.xid, proto.ReadRes(bad))
                return ()
            segments = self._io_segments(args.offset, args.count)
            if len(segments) > 1:
                # Straddles the threshold or a stripe boundary: scatter
                # the read and gather one reply (§2.1: the µproxy may
                # initiate and absorb packets).
                if tracer is not None:
                    tracer.split(pkt.src, call.xid, now, "read",
                                 args.offset, args.count, segments)
                self.sim.process(
                    self._split_read(pkt.src, call.xid, fh, segments),
                    name=f"uproxy-split-read:{self.host.name}",
                )
                return ()
            rec = _Pending(proc, fh=fh, offset=args.offset, count=args.count)
            if self.sf_table is not None and args.offset < self.io.threshold:
                return redirect(self._sf_addr(fh.fileid), rec, "small-file")
            return self._route_bulk_read(pkt, key, args, fh, rec)

        if proc == proto.PROC_WRITE:
            args = proto.WriteArgs.decode(dec)
            fh = self._unpack_fh(args.fh)
            if fh is None:
                return ()
            bad = self._io_ftype_error(fh)
            if bad is not None:
                self._synthesize_reply(pkt.src, call.xid, proto.WriteRes(bad))
                return ()
            self.attr_cache.note_write(fh, args.offset, args.count, now)
            self.cost.softstate()
            segments = self._io_segments(args.offset, args.count)
            if len(segments) > 1:
                if tracer is not None:
                    tracer.split(pkt.src, call.xid, now, "write",
                                 args.offset, args.count, segments)
                self.sim.process(
                    self._split_write(
                        pkt.src, call.xid, fh, segments, args, pkt.body
                    ),
                    name=f"uproxy-split-write:{self.host.name}",
                )
                return ()
            rec = _Pending(
                proc, fh=fh, offset=args.offset, count=args.count,
                stable=args.stable,
            )
            if self.sf_table is not None and args.offset < self.io.threshold:
                addr = self._sf_addr(fh.fileid)
                self._note_dirty(fh.fileid, addr)
                return redirect(addr, rec, "small-file")
            return self._route_bulk_write(pkt, key, args, fh, rec)

        if proc == proto.PROC_COMMIT:
            args = proto.CommitArgs.decode(dec)
            fh = self._unpack_fh(args.fh)
            if fh is None:
                return ()
            self.commits_absorbed += 1
            if tracer is not None:
                tracer.absorb(pkt.src, call.xid, now, "commit",
                              fileid=fh.fileid)
            self.sim.process(
                self._do_commit(pkt.src, call.xid, fh),
                name=f"uproxy-commit:{self.host.name}",
            )
            return ()

        return ()

    def _io_ftype_error(self, fh: FHandle) -> Optional[int]:
        """NFS forbids READ/WRITE on non-regular files; the µproxy knows
        the type from the fhandle and answers without a server hop."""
        from repro.nfs.errors import NFS3ERR_INVAL, NFS3ERR_ISDIR
        from repro.nfs.types import NF3DIR, NF3REG

        if fh.ftype == NF3REG:
            return None
        return NFS3ERR_ISDIR if fh.ftype == NF3DIR else NFS3ERR_INVAL

    def _reply_packet(self, src: Address, dst: Address, xid: int, res,
                      body: Data = EMPTY, trace_id: int = 0) -> Packet:
        """A reply to ``xid`` carrying ``res``, checksummed when the network
        verifies checksums."""
        header = ReplyHeader(xid).encode().to_bytes() + res.encode()
        reply = Packet(src, dst, header, body, trace_id=trace_id)
        if self.host.network.params.verify_checksums:
            reply.fill_checksum()
        return reply

    def _synthesize_reply(self, client_addr: Address, xid: int, res,
                          body: Data = EMPTY, **trace_attrs) -> None:
        """Answer the client directly with a µproxy-built reply packet."""
        reply = self._reply_packet(self.virtual, client_addr, xid, res, body)
        self.synthesized += 1
        self.replies_returned += 1
        if self.tracer is not None:
            reply.trace_id = self.tracer.trace_id_of(client_addr, xid)
            self.tracer.reply_sent(client_addr, xid, self.host.clock(),
                                   synthesized=True, **trace_attrs)
        self.host.loopback(reply)

    # -- request splitting (unaligned I/O) ---------------------------------

    def _io_segments(self, offset: int, count: int):
        """Split [offset, offset+count) at the threshold and at stripe-unit
        boundaries above it, so every segment has exactly one owner.

        Kernel NFS clients send block-aligned transfers that never straddle
        these boundaries (single-segment fast path); user-level generators
        can produce arbitrary ranges.
        """
        segments = []
        threshold = self.io.threshold if self.sf_table is not None else 0
        pos = offset
        end = offset + count
        while pos < end:
            if pos < threshold:
                stop = min(end, threshold)
            else:
                unit = self.io.stripe_unit
                stop = min(end, ((pos // unit) + 1) * unit)
            segments.append((pos, stop - pos))
            pos = stop
        return segments or [(offset, count)]

    def _segment_targets(self, fh: FHandle, seg_offset: int) -> List[Address]:
        if self.sf_table is not None and seg_offset < self.io.threshold:
            return [self._sf_addr(fh.fileid)]
        block = self.io.block_of(seg_offset)
        sites = self.placement.sites_for_block(fh, block)
        return self._storage_targets(sites)

    def _split_read(self, client_addr: Address, xid: int, fh: FHandle,
                    segments):
        """Scatter a straddling READ, gather the pieces, answer the client."""
        pieces: Dict[int, object] = {}
        tracer = self.tracer
        tid = tracer.trace_id_of(client_addr, xid) if tracer is not None else 0

        def fetch(seg_off, seg_len):
            targets = self._segment_targets(fh, seg_off)
            if fh.mirrored and len(targets) > 1:
                toggle = self._mirror_toggle.get(fh.fileid, 0)
                self._mirror_toggle[fh.fileid] = toggle + 1
                targets = [targets[toggle % len(targets)]]
            status = -1
            try:
                dec, body = yield from self.client.call(
                    targets[0], proto.NFS_PROGRAM, proto.NFS_V3,
                    proto.PROC_READ,
                    proto.ReadArgs(fh.pack(), seg_off, seg_len).encode(),
                    trace_id=tid,
                )
                res = proto.ReadRes.decode(dec)
                status = res.status
                if res.status == NFS3_OK:
                    pieces[seg_off] = body
            except RpcTimeout:
                pass
            if tracer is not None:
                tracer.segment(client_addr, xid, self.host.clock(),
                               seg_off, seg_len, targets[0], status)

        procs = [
            self.sim.process(fetch(off, length)) for off, length in segments
        ]
        yield self.sim.all_of(procs)
        entry = self.attr_cache.get(fh.fileid)
        if entry is None:
            size = max(
                (off + piece.length for off, piece in pieces.items()),
                default=0,
            )
            attrs = None
        else:
            size = entry.attrs.size
            attrs = entry.attrs.copy()
            self.attr_cache.note_read(fh, self.host.clock())
        start = segments[0][0]
        want = min(sum(length for _o, length in segments),
                   max(0, size - start))
        parts = []
        pos = start
        for seg_off, seg_len in segments:
            piece = pieces.get(seg_off, ZeroData(0))
            take = min(seg_len, max(0, start + want - pos))
            if piece.length < take:
                piece = concat([piece, ZeroData(take - piece.length)])
            parts.append(piece.slice(0, take))
            pos += take
        body = concat(parts)
        res = proto.ReadRes(
            NFS3_OK, attrs, count=body.length,
            eof=start + body.length >= size,
        )
        self._synthesize_reply(client_addr, xid, res, body, kind="split-read")

    def _split_write(self, client_addr: Address, xid: int, fh: FHandle,
                     segments, args, body):
        """Scatter a straddling WRITE; reply once everything is placed."""
        start = args.offset
        statuses = []
        tracer = self.tracer
        tid = tracer.trace_id_of(client_addr, xid) if tracer is not None else 0

        def put(seg_off, seg_len):
            data = body.slice(seg_off - start, seg_off - start + seg_len)
            for addr in self._segment_targets(fh, seg_off):
                self._note_dirty(fh.fileid, addr)
                status = -1
                try:
                    dec, _ = yield from self.client.call(
                        addr, proto.NFS_PROGRAM, proto.NFS_V3,
                        proto.PROC_WRITE,
                        proto.WriteArgs(
                            fh.pack(), seg_off, seg_len, args.stable
                        ).encode(),
                        data,
                        trace_id=tid,
                    )
                    res = proto.WriteRes.decode(dec)
                    status = res.status
                    statuses.append(res.status)
                    if res.status == NFS3_OK:
                        self._track_node_verf(addr, res.verf)
                except RpcTimeout:
                    statuses.append(NFS3_OK + 5)  # NFS3ERR_IO equivalent
                if tracer is not None:
                    tracer.segment(client_addr, xid, self.host.clock(),
                                   seg_off, seg_len, addr, status)

        procs = [
            self.sim.process(put(off, length)) for off, length in segments
        ]
        yield self.sim.all_of(procs)
        status = next((s for s in statuses if s != NFS3_OK), NFS3_OK)
        entry = self.attr_cache.peek(fh.fileid)
        attrs = entry.attrs.copy() if entry is not None else None
        res = proto.WriteRes(
            status, attrs, count=args.count if status == NFS3_OK else 0,
            committed=args.stable, verf=self.verf_epoch,
        )
        self._synthesize_reply(client_addr, xid, res, kind="split-write")

    # -- bulk I/O routing ---------------------------------------------------

    def _route_bulk_read(self, pkt, key, args, fh: FHandle, rec: _Pending):
        block = self.io.block_of(args.offset)
        if self.io.use_block_maps:
            site = self.block_maps.get(fh.fileid, block)
            if site is None:
                self._fetch_map_and_resend(pkt, fh, block)
                return ()
            sites = [site]
            if fh.mirrored:
                sites = self.placement.sites_for_block(fh, block)
        else:
            sites = self.placement.sites_for_block(fh, block)
        prev = self.pending.get(key)
        if fh.mirrored and len(sites) > 1:
            addrs = [self._storage_addr(s) for s in sites]
            if prev is not None and prev.dst in addrs:
                # Retransmission: the last replica we tried never answered
                # (or the reply was lost) — deterministically rotate to the
                # next one so a dead node cannot capture every retry.
                site = sites[(addrs.index(prev.dst) + 1) % len(sites)]
            else:
                # Fresh read: alternate replicas to balance load (§3.1).
                toggle = self._mirror_toggle.get(fh.fileid, 0)
                self._mirror_toggle[fh.fileid] = toggle + 1
                site = sites[toggle % len(sites)]
        else:
            site = sites[0]
        dst = self._storage_addr(site)
        rec.dst = dst
        self._remember(key, rec)
        pkt.rewrite_dst(dst)
        self.cost.rewrite(6)
        self.requests_routed += 1
        if self.tracer is not None:
            self.tracer.route(
                pkt.src, key[1], self.host.clock(), dst, "bulk-read",
                site=site, block=block, mirrored=fh.mirrored,
                replicas=len(sites),
            )
            self.tracer.rewrite_check(pkt, "bulk-read")
        return (pkt,)

    def _route_bulk_write(self, pkt, key, args, fh: FHandle, rec: _Pending):
        block = self.io.block_of(args.offset)
        if self.io.use_block_maps and not fh.mirrored:
            site = self.block_maps.get(fh.fileid, block)
            if site is None:
                self._fetch_map_and_resend(pkt, fh, block)
                return ()
            sites = [site]
        else:
            sites = self.placement.sites_for_block(fh, block)
        targets = self._storage_targets(sites)
        rec.dst = targets[0]
        rec.expected = len(targets)
        self._remember(key, rec)
        for addr in targets:
            self._note_dirty(fh.fileid, addr)
        out = []
        pkt.rewrite_dst(targets[0])
        self.cost.rewrite(6)
        out.append(pkt)
        for addr in targets[1:]:
            clone = Packet(
                pkt.src, pkt.dst, pkt.header, pkt.body, pkt.cksum,
                trace_id=pkt.trace_id,
            )
            clone.rewrite_dst(addr)
            self.cost.rewrite(6)
            out.append(clone)
        self.requests_routed += 1
        if self.tracer is not None:
            self.tracer.route(
                pkt.src, key[1], self.host.clock(), targets[0], "bulk-write",
                site=sites[0], block=block, mirrored=fh.mirrored,
                replicas=len(targets),
            )
            for rewritten in out:
                self.tracer.rewrite_check(rewritten, "bulk-write")
        return tuple(out)

    def _fetch_map_and_resend(self, pkt: Packet, fh: FHandle, block: int):
        """Block map miss: fetch a fragment from the coordinator, then
        re-inject the original packet (it will now hit the cache)."""
        coord = self._coordinator_for(fh.fileid)

        def fetch():
            if coord is not None:
                try:
                    dec, _ = yield from self.client.call(
                        coord, cp.SLICE_COORD_PROGRAM, cp.COORD_V1,
                        cp.COORD_GET_MAP,
                        cp.GetMapArgs(fh.pack(), block, 16, True).encode(),
                    )
                    sites = cp.MapRes.decode(dec).sites
                    self.block_maps.put_range(fh.fileid, block, sites)
                    self.cost.softstate()
                except (RpcTimeout, XdrError):
                    pass
            else:
                # No coordinator: fall back to static placement for good.
                self.block_maps.put_range(
                    fh.fileid, block,
                    [self.placement.primary_site(fh, block)],
                )
            self.host.send(pkt)
            yield from ()

        self.sim.process(fetch(), name=f"uproxy-mapfetch:{self.host.name}")

    # -- commit fan-out -------------------------------------------------------

    def _do_commit(self, client_addr: Address, xid: int, fh: FHandle):
        """Absorbed COMMIT: fan out to dirty sites under an intention."""
        fileid = fh.fileid
        tracer = self.tracer
        tid = tracer.trace_id_of(client_addr, xid) if tracer is not None else 0
        sites = self.dirty_sites.pop(fileid, None)
        if sites is None:
            # Soft state lost: conservatively commit everywhere this file
            # could have dirty data.
            sites = set(self.storage_nodes)
            if self.sf_table is not None:
                sites.add(self._sf_addr(fileid))
        targets = sorted(sites)
        coord = self._coordinator_for(fileid)
        op_id = (self.proxy_id << 32) | next(self._op_counter)
        if tracer is not None:
            tracer.route(client_addr, xid, self.host.clock(),
                         targets[0] if targets else "-", "commit-fanout",
                         fanout=len(targets), op_id=op_id)
        if coord is not None and len(targets) > 1:
            intent = cp.Intent(
                op_id, cp.K_COMMIT, fh.pack(), 0, 0,
                [(a.host, a.port) for a in targets],
            )
            if self.params.intent_sync:
                try:
                    yield from self.client.call(
                        coord, cp.SLICE_COORD_PROGRAM, cp.COORD_V1,
                        cp.COORD_INTENT, intent.encode(),
                        trace_id=tid,
                    )
                except RpcTimeout:
                    pass
            else:
                self.sim.process(self._send_intent(coord, intent))
        procs = [
            self.sim.process(self._commit_site(addr, fh, trace_id=tid))
            for addr in targets
        ]
        if procs:
            yield self.sim.all_of(procs)
        if coord is not None and len(targets) > 1:
            self.sim.process(self._send_complete(coord, op_id))
        # Push modified attributes back to the directory server (§4.1:
        # "when it intercepts an NFS V3 write commit request").
        entry = self.attr_cache.peek(fileid)
        if entry is not None and entry.dirty:
            yield from self._writeback_entry(entry)
        attrs = entry.attrs if entry is not None else None
        res = proto.CommitRes(NFS3_OK, attrs, verf=self.verf_epoch)
        self._synthesize_reply(client_addr, xid, res, kind="commit")

    def _send_intent(self, coord: Address, intent: cp.Intent):
        try:
            yield from self.client.call(
                coord, cp.SLICE_COORD_PROGRAM, cp.COORD_V1,
                cp.COORD_INTENT, intent.encode(),
            )
        except RpcTimeout:
            pass

    def _send_complete(self, coord: Address, op_id: int):
        try:
            yield from self.client.call(
                coord, cp.SLICE_COORD_PROGRAM, cp.COORD_V1,
                cp.COORD_COMPLETE, cp.CompleteArgs(op_id).encode(),
            )
        except RpcTimeout:
            pass

    def _commit_site(self, addr: Address, fh: FHandle, trace_id: int = 0):
        try:
            # Commits flush disk queues; give them a generous timer.
            dec, _ = yield from self.client.call(
                addr, proto.NFS_PROGRAM, proto.NFS_V3, proto.PROC_COMMIT,
                proto.CommitArgs(fh.pack(), 0, 0).encode(),
                retrans_timeout=3.0, max_tries=5, trace_id=trace_id,
            )
            res = proto.CommitRes.decode(dec)
            self._track_node_verf(addr, res.verf)
        except RpcTimeout:
            # Unreachable site: bump the epoch so the client re-sends its
            # uncommitted writes once the site returns.
            self._bump_epoch()

    def _track_node_verf(self, addr: Address, verf: int) -> None:
        previous = self._node_verfs.get(addr)
        if previous is not None and previous != verf:
            self._bump_epoch()  # that server rebooted: invalidate everything
        self._node_verfs[addr] = verf

    # ------------------------------------------------------------------
    # inbound: replies toward the client
    # ------------------------------------------------------------------

    def inbound(self, pkt: Packet):
        """Ingress hook: pair replies with pending records, patch
        attributes and verifiers, masquerade sources, chain readdirs."""
        if pkt.dst.port == self.client.port:
            return (pkt,)  # the µproxy's own control traffic
        if len(pkt.header) < 8:
            return (pkt,)
        xid = int.from_bytes(pkt.header[:4], "big")
        msg_type = int.from_bytes(pkt.header[4:8], "big")
        if msg_type == CALL:
            return (pkt,)
        key = (pkt.dst.port, xid)
        rec = self.pending.get(key)
        if rec is None:
            if pkt.src in self._known_servers():
                self.cost.intercept()
                pkt.rewrite_src(self.virtual)
                self.cost.rewrite(6)
                return (pkt,)
            return (pkt,)
        self.cost.intercept()
        dec = Decoder(pkt.header)
        try:
            ReplyHeader.decode(dec)
        except XdrError:
            return (pkt,)
        status = int.from_bytes(
            pkt.header[dec.offset:dec.offset + 4], "big"
        ) if dec.remaining >= 4 else NFS3_OK
        if status == SLICEERR_MISDIRECTED:
            # Stale routing hint: drop the reply, refresh tables; the
            # client's retransmission re-routes via the new table.
            self.misdirects_seen += 1
            if self.tracer is not None:
                self.tracer.misdirected(pkt.dst, xid, self.host.clock())
            del self.pending[key]
            self._refresh_tables()
            return ()
        result = self._postprocess(pkt, key, rec, dec)
        self.cost.decode(dec.offset)
        return result

    def _finish(self, pkt: Packet, key) -> Tuple[Packet, ...]:
        self.pending.pop(key, None)
        pkt.rewrite_src(self.virtual)
        self.cost.rewrite(6)
        self.replies_returned += 1
        if self.tracer is not None:
            self.tracer.reply_sent(pkt.dst, key[1], self.host.clock())
            self.tracer.rewrite_check(pkt, "finish")
        return (pkt,)

    def _postprocess(self, pkt: Packet, key, rec: _Pending, dec: Decoder):
        now = self.host.clock()
        proc = rec.proc
        if proc == proto.PROC_READ:
            return self._post_read(pkt, key, rec, dec, now)
        if proc == proto.PROC_WRITE:
            return self._post_write(pkt, key, rec, dec, now)
        if proc in (proto.PROC_READDIR, proto.PROC_READDIRPLUS):
            return self._post_readdir(pkt, key, rec, dec)
        if proc == proto.PROC_GETATTR:
            res = proto.GetattrRes.decode(dec)
            if res.status == NFS3_OK and rec.fh is not None:
                for evicted in self.attr_cache.update_from_server(rec.fh, res.attr):
                    self._spawn_writeback(evicted)
                entry = self.attr_cache.peek(rec.fh.fileid)
                if entry is not None and entry.dirty:
                    self.cost.rewrite(
                        patch_attrs_from(pkt, res.attr_offset, entry.attrs)
                    )
            return self._finish(pkt, key)
        if proc in (proto.PROC_LOOKUP, proto.PROC_CREATE, proto.PROC_MKDIR,
                    proto.PROC_SYMLINK):
            if proc == proto.PROC_LOOKUP:
                res = proto.LookupRes.decode(dec)
            else:
                res = proto.CreateRes.decode(dec)
            if res.status == NFS3_OK and res.fh is not None and res.attr is not None:
                fh = self._unpack_fh(res.fh)
                if fh is not None:
                    for evicted in self.attr_cache.update_from_server(fh, res.attr):
                        self._spawn_writeback(evicted)
                    entry = self.attr_cache.peek(fh.fileid)
                    if (
                        entry is not None and entry.dirty
                        and proc == proto.PROC_LOOKUP
                        and res.attr_offset >= 0
                    ):
                        self.cost.rewrite(
                            patch_attrs_from(pkt, res.attr_offset, entry.attrs)
                        )
            return self._finish(pkt, key)
        if proc == proto.PROC_SETATTR:
            res = proto.SetattrRes.decode(dec)
            if res.status == NFS3_OK and rec.fh is not None and res.attr is not None:
                for evicted in self.attr_cache.update_from_server(rec.fh, res.attr):
                    self._spawn_writeback(evicted)
            return self._finish(pkt, key)
        return self._finish(pkt, key)

    # -- READ reply: clamp to the true file size, fix EOF, patch attrs -------

    def _post_read(self, pkt: Packet, key, rec: _Pending, dec: Decoder, now):
        res = proto.ReadRes.decode(dec)
        if res.status != NFS3_OK:
            return self._finish(pkt, key)
        fh = rec.fh
        entry = self.attr_cache.get(fh.fileid)
        if entry is None:
            # State loss: recover the authoritative size, then respond.
            del self.pending[key]
            self.sim.process(
                self._read_fixup(pkt, rec, res),
                name=f"uproxy-readfix:{self.host.name}",
            )
            return ()
        self.attr_cache.note_read(fh, now)
        self.cost.softstate()
        size = entry.attrs.size
        expected = min(rec.count, max(0, size - rec.offset))
        eof = rec.offset + expected >= size
        if res.count == expected and res.eof == eof:
            # Fast path: attributes patched in place.
            self.cost.rewrite(
                patch_attrs_from(pkt, res.attr_offset, entry.attrs)
            )
            return self._finish(pkt, key)
        # Slow path: striped holes or stale EOF — rebuild the reply.
        body = pkt.body.slice(0, min(res.count, expected))
        if body.length < expected:
            body = concat([body, ZeroData(expected - body.length)])
        new_res = proto.ReadRes(
            NFS3_OK, entry.attrs.copy(), count=expected, eof=eof
        )
        xid = int.from_bytes(pkt.header[:4], "big")
        rebuilt = self._reply_packet(pkt.src, pkt.dst, xid, new_res, body,
                                     pkt.trace_id)
        self.cost.rewrite(len(rebuilt.header))
        self.synthesized += 1
        return self._finish(rebuilt, key)

    def _read_fixup(self, pkt: Packet, rec: _Pending, res: proto.ReadRes):
        """Fetch attributes from the directory server, then deliver a
        corrected READ reply (used only after µproxy state loss)."""
        fh = rec.fh
        try:
            dec, _ = yield from self.client.call(
                self.dir_table.lookup(fh.home_site), proto.NFS_PROGRAM,
                proto.NFS_V3, proto.PROC_GETATTR,
                proto.FhArgs(fh.pack()).encode(),
            )
            gres = proto.GetattrRes.decode(dec)
        except RpcTimeout:
            gres = None
        if gres is not None and gres.status == NFS3_OK:
            self.attr_cache.update_from_server(fh, gres.attr)
            size = gres.attr.size
        else:
            size = rec.offset + res.count  # best effort
        expected = min(rec.count, max(0, size - rec.offset))
        body = pkt.body.slice(0, min(res.count, expected))
        if body.length < expected:
            body = concat([body, ZeroData(expected - body.length)])
        attrs = (
            gres.attr if gres is not None and gres.status == NFS3_OK else res.attr
        )
        new_res = proto.ReadRes(
            NFS3_OK, attrs, count=expected,
            eof=rec.offset + expected >= size,
        )
        xid = int.from_bytes(pkt.header[:4], "big")
        reply = self._reply_packet(self.virtual, pkt.dst, xid, new_res, body,
                                   pkt.trace_id)
        self.synthesized += 1
        self.replies_returned += 1
        if self.tracer is not None:
            self.tracer.reply_sent(pkt.dst, xid, self.host.clock(),
                                   synthesized=True, kind="read-fixup")
        self.host.loopback(reply)

    # -- WRITE reply: virtualize the verifier, patch attrs, pair mirrors -----

    def _post_write(self, pkt: Packet, key, rec: _Pending, dec: Decoder, now):
        res = proto.WriteRes.decode(dec)
        if res.status == NFS3_OK:
            self._track_node_verf(pkt.src, res.verf)
        rec.got += 1
        if rec.got < rec.expected:
            return ()  # absorb all but the final mirror reply
        if res.status != NFS3_OK:
            return self._finish(pkt, key)
        entry = self.attr_cache.peek(rec.fh.fileid)
        if entry is not None and res.attr_offset >= 0:
            self.cost.rewrite(
                patch_attrs_from(pkt, res.attr_offset, entry.attrs)
            )
        if res.attr_offset >= 0:
            # verf lies 16 bytes past the 84-byte fattr3 (count, committed).
            verf_offset = res.attr_offset + 84 + 8
            self.cost.rewrite(patch_u64(pkt, verf_offset, self.verf_epoch))
        return self._finish(pkt, key)

    # -- READDIR reply: chain across logical sites ---------------------------

    def _readdir_site_order(self, fh: FHandle) -> List[int]:
        order = [fh.home_site]
        order.extend(
            s for s in range(self.name_config.num_logical_sites)
            if s != fh.home_site
        )
        return order

    def _post_readdir(self, pkt: Packet, key, rec: _Pending, dec: Decoder):
        res = proto.ReaddirRes.decode(dec, plus=rec.plus)
        if res.status != NFS3_OK or not res.eof:
            return self._finish(pkt, key)
        if not self.name_config.readdir_spans_sites():
            return self._finish(pkt, key)
        order = self._readdir_site_order(rec.fh)
        idx = order.index(rec.site) if rec.site in order else len(order) - 1
        if idx + 1 >= len(order):
            return self._finish(pkt, key)  # truly the last site
        next_site = order[idx + 1]
        # The low bit keeps the cookie nonzero (cookie 0 means "start over
        # at the home site"); per-entry cookies start at 3, so 1 is safe.
        next_cookie = (next_site << COOKIE_SITE_SHIFT) | 1
        if res.entries:
            # Rewrite so the client's next request enters the next site.
            res.entries[-1].cookie = next_cookie
            res.eof = False
            xid = int.from_bytes(pkt.header[:4], "big")
            rebuilt = self._reply_packet(pkt.src, pkt.dst, xid, res,
                                         trace_id=pkt.trace_id)
            self.cost.rewrite(len(rebuilt.header))
            self.synthesized += 1
            return self._finish(rebuilt, key)
        # Empty page at this site: chase the remaining sites ourselves.
        del self.pending[key]
        xid = int.from_bytes(pkt.header[:4], "big")
        self.sim.process(
            self._readdir_chain(pkt.dst, xid, rec, order[idx + 1:]),
            name=f"uproxy-readdir:{self.host.name}",
        )
        return ()

    def _readdir_chain(self, client_addr: Address, xid: int, rec: _Pending,
                       remaining_sites: List[int]):
        """Query further sites for a name-hashed directory until one returns
        entries (or all are exhausted), then answer the client."""
        final = proto.ReaddirRes(NFS3_OK, None, cookieverf=1, entries=[],
                                 eof=True, plus=rec.plus)
        for position, site in enumerate(remaining_sites):
            cookie = (site << COOKIE_SITE_SHIFT) | 1
            procnum = (
                proto.PROC_READDIRPLUS if rec.plus else proto.PROC_READDIR
            )
            if rec.plus:
                args = proto.ReaddirplusArgs(
                    rec.fh.pack(), cookie, 1, 4096, 32768
                ).encode()
            else:
                args = proto.ReaddirArgs(rec.fh.pack(), cookie, 1, 4096).encode()
            try:
                dec, _ = yield from self.client.call(
                    self.dir_table.lookup(site), proto.NFS_PROGRAM,
                    proto.NFS_V3, procnum, args,
                )
            except RpcTimeout:
                continue
            res = proto.ReaddirRes.decode(dec, plus=rec.plus)
            if res.status != NFS3_OK:
                continue
            if res.entries:
                final = res
                is_last = position == len(remaining_sites) - 1
                if res.eof and not is_last:
                    final.entries[-1].cookie = (
                        remaining_sites[position + 1] << COOKIE_SITE_SHIFT
                    ) | 1
                    final.eof = False
                break
        self._synthesize_reply(client_addr, xid, final, kind="readdir-chain")

    # ------------------------------------------------------------------
    # attribute write-back & table refresh
    # ------------------------------------------------------------------

    def _spawn_writeback(self, entry) -> None:
        self.sim.process(
            self._writeback_entry(entry),
            name=f"uproxy-attrwb:{self.host.name}",
        )

    def _writeback_entry(self, entry):
        """Push cached size/times to the directory server with SETATTR."""
        from repro.nfs.types import Sattr3

        fh = entry.fh
        size = max(entry.attrs.size, entry.server_size)
        sattr = Sattr3(
            size=size, atime=entry.attrs.atime, mtime=entry.attrs.mtime
        )
        try:
            dec, _ = yield from self.client.call(
                self.dir_table.lookup(fh.home_site), proto.NFS_PROGRAM,
                proto.NFS_V3, proto.PROC_SETATTR,
                proto.SetattrArgs(fh.pack(), sattr).encode(),
            )
            res = proto.SetattrRes.decode(dec)
        except RpcTimeout:
            return
        if res.status == NFS3_OK:
            self.attr_cache.mark_clean(fh.fileid, self.host.clock())
        else:
            self.attr_cache.drop(fh.fileid)  # stale handle etc.

    def _attr_flusher(self):
        """Bound attribute drift with periodic write-backs (§4.1)."""
        interval = self.params.attr_writeback_interval
        while True:
            yield self.sim.timeout(interval)
            cutoff = self.sim.now - interval
            for entry in self.attr_cache.dirty_entries(cutoff):
                yield from self._writeback_entry(entry)

    def _refresh_tables(self) -> None:
        """Conditional table reload after a MISDIRECTED reply.

        One refetch is in flight at a time per µproxy; the request quotes
        ``config_epoch`` so the configuration service answers NOT_MODIFIED
        when the proxy is already fresh (a burst of misdirects costs one
        table dump per epoch bump, not one per misdirect)."""
        if self.configsvc is None or self._refreshing:
            return
        self._refreshing = True

        def refresh():
            from repro.ensemble.configsvc import (
                CONFIG_GET,
                CONFIG_V1,
                SLICE_CONFIG_PROGRAM,
                ConfigGetArgs,
                decode_tables,
            )

            try:
                dec, _ = yield from self.client.call(
                    self.configsvc, SLICE_CONFIG_PROGRAM, CONFIG_V1,
                    CONFIG_GET, ConfigGetArgs("*", self.config_epoch).encode(),
                )
                fetch = decode_tables(dec)
                if fetch.modified:
                    self._install_tables(fetch.tables)
                self.config_epoch = max(self.config_epoch, fetch.epoch)
            except RpcTimeout:
                pass
            finally:
                self._refreshing = False

        self.sim.process(refresh(), name=f"uproxy-refresh:{self.host.name}")

    @staticmethod
    def _moved_sites(old_entries: List[Address],
                     new_entries: List[Address]) -> List[int]:
        """Logical sites whose binding differs between two generations."""
        moved = [
            site for site, addr in enumerate(new_entries)
            if site >= len(old_entries) or old_entries[site] != addr
        ]
        moved.extend(range(len(new_entries), len(old_entries)))
        return moved

    def _install_tables(self, tables: Dict[str, RoutingTable]) -> None:
        """Adopt a freshly fetched table generation and drop stale hints.

        Every cached hint tied to a *moved* site is discarded: attribute
        cache entries homed on a rebound directory site (dirty ones are
        written back to the new server first), and block-map fragments
        naming a rebound storage site.  Hints for unmoved sites survive —
        reconfiguration invalidates ~1/Nth of the soft state, not all of
        it."""
        fresh = tables.get("dir")
        if fresh is not None:
            old = list(self.dir_table.entries)
            if self.dir_table.replace(fresh.entries, fresh.version,
                                      epoch=fresh.epoch):
                moved = self._moved_sites(old, self.dir_table.entries)
                for entry in self.attr_cache.drop_sites(moved):
                    self._spawn_writeback(entry)
                self.cost.softstate()
        fresh = tables.get("sf")
        if fresh is not None and self.sf_table is not None:
            self.sf_table.replace(fresh.entries, fresh.version,
                                  epoch=fresh.epoch)
        fresh = tables.get("storage")
        if fresh is not None and self.storage_table is not None:
            old = list(self.storage_table.entries)
            if self.storage_table.replace(fresh.entries, fresh.version,
                                          epoch=fresh.epoch):
                moved = self._moved_sites(old, self.storage_table.entries)
                self.block_maps.drop_sites(moved)
                self.storage_nodes = self.storage_table.servers()
                if self.storage_table.num_sites != self.placement.num_nodes:
                    self.placement = StaticPlacement(
                        self.storage_table.num_sites, self.io
                    )
                self.cost.softstate()
