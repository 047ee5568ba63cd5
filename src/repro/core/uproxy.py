"""The Slice µproxy: an interposed request-routing packet filter (§2.1, §3, §4.1).

The µproxy sits on the client's network path to a *virtual* NFS server.  It
intercepts request packets, decodes the RPC/NFS headers, selects a physical
server by request type and content, and rewrites addresses (adjusting
checksums differentially).  On the return path it masquerades replies as
the virtual server, patches file attributes from its cache, virtualizes
write verifiers, chains multi-site readdirs, and absorbs/synthesizes
packets where the architecture calls for it (commit fan-out, misdirected
request retry, block-map fetches).

Each routing decision is written once, as a table or one method:

- ``_FH_ROUTES``: procedures sent to their file handle's home directory
  site, and the argument prefix read to find the handle;
- ``_NAME_ROUTES``: procedures sent to the site of the (directory, name)
  pair they name, by name hashing or mkdir switching (§3.2);
- READDIR goes to the site its cookie names, READ and WRITE by the I/O
  threshold and stripe unit (§3.1), and every redirect is ``_redirect``;
- ``_ATTR_REPLIES``: replies whose attributes the µproxy learns, and
  whether it patches a dirty cached copy into them (§4.1).

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
from repro.nfs.errors import (
    NFS3_OK,
    NFS3ERR_INVAL,
    NFS3ERR_IO,
    NFS3ERR_ISDIR,
    SLICEERR_MISDIRECTED,
)
from repro.nfs.fhandle import FHandle
from repro.nfs.types import NF3DIR, NF3REG, Sattr3
from repro.rpc import RpcClient, RpcTimeout
from repro.rpc.messages import CALL, CallHeader, ReplyHeader
from repro.rpc.xdr import Decoder, XdrError
from repro.smallfile.server import sf_site_for
from repro.storage import coordproto as cp
from repro.storage.coordinator import coordinator_for
from repro.util.bytesim import EMPTY, Data, ZeroData, concat
from repro.util.hashing import md5_u64
from .attrcache import AttrCache
from .cost import CostModel
from .placement import BlockMapCache, IoPolicy, StaticPlacement
from .rewrite import patch_attrs_from, patch_u64
from .routing import RoutingTable

__all__ = ["UProxy", "ProxyParams"]

COOKIE_SITE_SHIFT = 48

# Bounds of the µproxy's soft state (the oldest entries go first), and
# how often dirty cached attributes are written back.
ATTR_CACHE_CAPACITY = 8192
PENDING_CAPACITY = 8192
DIRTY_SITES_CAPACITY = 4096
ATTR_WRITEBACK_INTERVAL = 3.0  # the NFS "three second window"

#: An XDR bool that is true, such as the eof word ending a READDIR reply.
_XDR_TRUE = (1).to_bytes(4, "big")

#: Procedures routed to the home site of the file handle they start with
#: -> the argument prefix decoded to find it (ACCESS's mask is not read).
_FH_ROUTES = {
    proto.PROC_GETATTR: proto.FhArgs,
    proto.PROC_SETATTR: proto.SetattrArgs,
    proto.PROC_ACCESS: proto.FhArgs,
    proto.PROC_READLINK: proto.FhArgs,
    proto.PROC_FSSTAT: proto.FhArgs,
    proto.PROC_FSINFO: proto.FhArgs,
    proto.PROC_PATHCONF: proto.FhArgs,
}

_ENTRY, _MKDIR = NameConfig.entry_site, NameConfig.mkdir_site

#: Procedures routed by the (directory handle, name) pair they name ->
#: (argument fields decoded before the pair, how the pair picks a site,
#: trace reason).  RENAME goes to its target entry's site.
_NAME_ROUTES = {
    proto.PROC_LOOKUP: ((), _ENTRY, "name-entry"),
    proto.PROC_CREATE: ((), _ENTRY, "name-entry"),
    proto.PROC_MKDIR: ((), _MKDIR, "mkdir-switch"),
    proto.PROC_SYMLINK: ((), _ENTRY, "name-entry"),
    proto.PROC_MKNOD: ((), _ENTRY, "name-entry"),
    proto.PROC_REMOVE: ((), _ENTRY, "name-entry"),
    proto.PROC_RMDIR: ((), _ENTRY, "name-entry"),
    proto.PROC_RENAME: ((proto.FH, proto.NAME), _ENTRY, "rename-target"),
    proto.PROC_LINK: ((proto.FH,), _ENTRY, "name-entry"),
}

#: Replies whose attributes the µproxy learns -> (the attributes are those
#: of the handle the reply returns, not the request's; a dirty cached copy
#: is patched into the reply, §4.1).  READ, WRITE and READDIR replies have
#: their own fixups.
_ATTR_REPLIES = {
    proto.PROC_GETATTR: (False, True),
    proto.PROC_SETATTR: (False, False),
    proto.PROC_LOOKUP: (True, True),
    proto.PROC_CREATE: (True, False),
    proto.PROC_MKDIR: (True, False),
    proto.PROC_SYMLINK: (True, False),
}


def _fit(data: Data, length: int) -> Data:
    """``data`` cut, or zero-padded past its end, to ``length`` bytes."""
    if data.length < length:
        return concat([data, ZeroData(length - data.length)])
    return data.slice(0, length)


def _site_cookie(site: int) -> int:
    """The READDIR cookie that starts a listing at a logical site.

    The low bit keeps the cookie nonzero (cookie 0 means "start over at the
    home site"); per-entry cookies start at 3, so 1 is safe."""
    return (site << COOKIE_SITE_SHIFT) | 1


@dataclass
class ProxyParams:
    proxy_port: int = 901
    intent_sync: bool = True  # force the intent log before commit fan-out


class _Pending:
    """Soft-state record pairing a request with its reply(ies)."""

    __slots__ = (
        "proc", "fh", "offset", "count", "dst", "expected", "got", "site",
    )

    def __init__(self, proc, fh=None, offset=0, count=0, site=0):
        self.proc = proc
        self.fh = fh
        self.offset = offset
        self.count = count
        self.dst = None
        self.expected = 1
        self.got = 0
        self.site = site


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
        storage_table: RoutingTable,
        configsvc: Address,
        *,
        coordinators: Optional[List[Address]] = None,
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
        #: logical-site -> node-address table for bulk storage; placement
        #: is sized to its logical-site count, so only ~1/Nth of blocks
        #: move when a node joins or leaves.
        self.storage_table = storage_table
        self.coordinators = list(coordinators or [])
        self.configsvc = configsvc
        self.cost = cost or CostModel(enabled=False)
        self.params = params or ProxyParams()
        self.proxy_id = proxy_id
        # Per-instance: op_ids are already namespaced by ``proxy_id`` (see
        # coordinator intents), and a process-global counter would make
        # otherwise-identical runs diverge in the trace digest.
        self._op_counter = itertools.count(1)
        self.placement = StaticPlacement(storage_table.num_sites, io_policy)
        #: cluster reconfiguration epoch of the last table generation this
        #: µproxy installed; conditional refetches quote it so a fresh
        #: proxy gets NOT_MODIFIED instead of the whole table dump.
        self.config_epoch = max(
            dir_table.epoch,
            sf_table.epoch if sf_table is not None else 0,
            storage_table.epoch,
        )
        self.block_maps = BlockMapCache()
        self.attr_cache = AttrCache(ATTR_CACHE_CAPACITY)
        self.pending: "OrderedDict[Tuple[int, int], _Pending]" = OrderedDict()
        #: (client port, xid) of each split READ or WRITE whose scatter is
        #: running; a retransmission of one is dropped, not split again.
        self._splitting: Set[Tuple[int, int]] = set()
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
        #: replies to a pending request that did not decode; each is
        #: dropped and the client's retransmission recovers.
        self.replies_dropped = 0
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

    def counters(self) -> Dict[str, int]:
        """Cumulative counts since construction."""
        return {
            "requests_routed": self.requests_routed,
            "replies_returned": self.replies_returned,
            "synthesized": self.synthesized,
            "commits_absorbed": self.commits_absorbed,
            "misdirects_seen": self.misdirects_seen,
            "replies_dropped": self.replies_dropped,
            "retransmissions": self.client.retransmissions,
            "attr_cache_hits": self.attr_cache.hits,
            "attr_cache_misses": self.attr_cache.misses,
            "block_map_hits": self.block_maps.hits,
            "block_map_misses": self.block_maps.misses,
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
        known.update(self.storage_table.entries)
        known.update(self.coordinators)
        return known

    def _storage_targets(self, sites) -> List[Address]:
        """Distinct node addresses for a replica site list, in order.

        With more logical sites than nodes, two replica sites can bind to
        the same physical node; sending the same write twice would be
        wasteful (and would double-count replies)."""
        targets: List[Address] = []
        for site in sites:
            addr = self.storage_table.lookup(site)
            if addr not in targets:
                targets.append(addr)
        return targets

    def _sf_addr(self, fileid: int) -> Address:
        site = sf_site_for(fileid, self.sf_table.num_sites)
        return self.sf_table.lookup(site)

    def _note_dirty(self, fileid: int, addr: Address) -> None:
        sites = self.dirty_sites.get(fileid)
        if sites is None:
            sites = set()
            self.dirty_sites[fileid] = sites
        self.dirty_sites.move_to_end(fileid)
        sites.add(addr)
        self.cost.softstate()
        while len(self.dirty_sites) > DIRTY_SITES_CAPACITY:
            self.dirty_sites.popitem(last=False)

    def _remember(self, key, rec: _Pending) -> None:
        self.pending[key] = rec
        self.cost.softstate()
        while len(self.pending) > PENDING_CAPACITY:
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
        now = self.sim.now
        tracer = self.tracer
        if tracer is not None:
            pkt.trace_id = tracer.call_intercepted(
                pkt.src, call.xid, proc, now, size=pkt.size
            )
        if proc in (proto.PROC_READ, proto.PROC_WRITE):
            return self._route_io(pkt, key, proc, dec, now)
        if proc == proto.PROC_COMMIT:
            fh = self._unpack_fh(proto.CommitArgs.decode(dec).fh)
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

        # Everything else goes to one directory site.
        layout = _FH_ROUTES.get(proc)
        route = _NAME_ROUTES.get(proc)
        if layout is not None:
            args = layout.decode(dec)
            fh = self._unpack_fh(args.fh)
            if fh is not None and proc == proto.PROC_GETATTR:
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
            if (fh is not None and proc == proto.PROC_SETATTR
                    and args.sattr.size is not None):
                self.attr_cache.note_truncate(fh, args.sattr.size, now)
                self.cost.softstate()
            site = fh.home_site if fh else 0
            reason = "attr-site"
        elif route is not None:
            skipped, site_of, reason = route
            for kind in skipped:
                kind.get(dec)
            fh = self._unpack_fh(proto.FH.get(dec))
            name = proto.NAME.get(dec)
            site = site_of(self.name_config, fh, name) if fh else 0
        elif proc in (proto.PROC_READDIR, proto.PROC_READDIRPLUS):
            args = proto.PROCS[proc].args.decode(dec)
            fh = self._unpack_fh(args.dir_fh)
            if fh is None:
                return ()
            site = (
                (args.cookie >> COOKIE_SITE_SHIFT)
                if args.cookie else fh.home_site
            )
            reason = "readdir-cookie"
        elif proc == proto.PROC_NULL:
            fh, site, reason = None, 0, "null"
        else:
            return ()
        return self._redirect(pkt, key, _Pending(proc, fh=fh, site=site),
                              self.dir_table.lookup(site), reason)

    def _route_io(self, pkt: Packet, key, proc: int, dec: Decoder, now):
        """READ and WRITE: by the I/O threshold and stripe unit (§3.1)."""
        xid = key[1]
        write = proc == proto.PROC_WRITE
        args = proto.PROCS[proc].args.decode(dec)
        fh = self._unpack_fh(args.fh)
        if fh is None:
            return ()
        if fh.ftype != NF3REG:
            # NFS forbids READ/WRITE on non-regular files; the µproxy knows
            # the type from the fhandle and answers without a server hop.
            status = NFS3ERR_ISDIR if fh.ftype == NF3DIR else NFS3ERR_INVAL
            res = proto.PROCS[proc].result(status)
            self._synthesize_reply(pkt.src, xid, res)
            return ()
        if write:
            self.attr_cache.note_write(fh, args.offset, args.count, now)
            self.cost.softstate()
        segments = self._io_segments(args.offset, args.count)
        if len(segments) > 1:
            # Straddles the threshold or a stripe boundary: scatter the
            # request and gather one reply (§2.1: the µproxy may initiate
            # and absorb packets).
            if key in self._splitting:
                return ()  # a retransmission: the running scatter answers
            self._splitting.add(key)
            kind = proto.PROCS[proc].name
            if self.tracer is not None:
                self.tracer.split(pkt.src, xid, now, kind, args.offset,
                                  args.count, segments)
            split = (
                self._split_write(pkt.src, xid, fh, segments, args, pkt.body)
                if write else self._split_read(pkt.src, xid, fh, segments)
            )
            self.sim.process(split,
                             name=f"uproxy-split-{kind}:{self.host.name}")
            return ()
        rec = _Pending(proc, fh=fh, offset=args.offset, count=args.count)
        if self.sf_table is not None and args.offset < self.io.threshold:
            addr = self._sf_addr(fh.fileid)
            if write:
                self._note_dirty(fh.fileid, addr)
            return self._redirect(pkt, key, rec, addr, "small-file")
        if write:
            return self._route_bulk_write(pkt, key, args, fh, rec)
        return self._route_bulk_read(pkt, key, args, fh, rec)

    def _redirect(self, pkt: Packet, key, rec: _Pending, dst: Address,
                  reason: str, check: str = "redirect", **attrs):
        """Send a request on to ``dst`` and remember it for its reply."""
        rec.dst = dst
        self._remember(key, rec)
        pkt.rewrite_dst(dst)
        self.cost.rewrite(6)
        self.requests_routed += 1
        if self.tracer is not None:
            self.tracer.route(pkt.src, key[1], self.sim.now, dst, reason,
                              site=rec.site, **attrs)
            self.tracer.rewrite_check(pkt, check)
        return (pkt,)

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
            self.tracer.reply_sent(client_addr, xid, self.sim.now,
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

    def _scatter(self, client_addr: Address, xid: int, proc: int, segments,
                 send):
        """Run ``send(seg_off, seg_len, call)`` for every segment of a split
        READ or WRITE at once and wait for all of them.  ``send`` makes its
        calls with ``call(seg_off, seg_len, addr, args, data)``, which
        returns the decoded result (None on a timeout) and the reply body.

        Returns the status of the reply to the client: NFS3_OK, the first
        failure (NFS3ERR_IO for a timeout), or None after a MISDIRECTED
        segment, which refreshes the tables and answers nothing, so the
        client's retransmission splits again on the fresh tables.  Until
        the segments are done, the request stays in ``_splitting`` and
        its retransmissions are dropped."""
        tracer = self.tracer
        tid = tracer.trace_id_of(client_addr, xid) if tracer is not None else 0
        statuses: List[int] = []

        def call(seg_off, seg_len, addr, args, data=EMPTY):
            res = body = None
            try:
                dec, body = yield from self.client.call(
                    addr, proto.NFS_PROGRAM, proto.NFS_V3, proc,
                    args.encode(), data, trace_id=tid,
                )
                res = proto.PROCS[proc].result.decode(dec)
            except RpcTimeout:
                pass
            statuses.append(NFS3ERR_IO if res is None else res.status)
            if tracer is not None:
                tracer.segment(client_addr, xid, self.sim.now,
                               seg_off, seg_len, addr,
                               -1 if res is None else res.status)
            return res, body

        yield self.sim.all_of([
            self.sim.process(send(off, length, call))
            for off, length in segments
        ])
        self._splitting.discard((client_addr.port, xid))
        if SLICEERR_MISDIRECTED in statuses:
            self._misdirected(client_addr, xid)
            return None
        return next((s for s in statuses if s != NFS3_OK), NFS3_OK)

    def _split_read(self, client_addr: Address, xid: int, fh: FHandle,
                    segments):
        """Scatter a straddling READ, gather the pieces, answer the client."""
        pieces: Dict[int, Data] = {}

        def fetch(seg_off, seg_len, call):
            targets = self._segment_targets(fh, seg_off)
            addr = targets[0]
            if fh.mirrored and len(targets) > 1:
                addr = self._alternate(fh, targets)
            _res, pieces[seg_off] = yield from call(
                seg_off, seg_len, addr,
                proto.ReadArgs(fh.pack(), seg_off, seg_len),
            )

        status = yield from self._scatter(client_addr, xid, proto.PROC_READ,
                                          segments, fetch)
        if status is None:
            return
        if status != NFS3_OK:
            self._synthesize_reply(client_addr, xid, proto.ReadRes(status),
                                   kind="split-read")
            return
        entry = self.attr_cache.get(fh.fileid)
        if entry is None:
            size = max(off + piece.length for off, piece in pieces.items())
            attrs = None
        else:
            size = entry.attrs.size
            attrs = entry.attrs.copy()
            self.attr_cache.note_read(fh, self.sim.now)
        start = segments[0][0]
        want = min(sum(length for _o, length in segments),
                   max(0, size - start))
        parts = []
        pos = start
        for seg_off, seg_len in segments:
            take = min(seg_len, max(0, start + want - pos))
            parts.append(_fit(pieces[seg_off], take))
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

        def put(seg_off, seg_len, call):
            data = body.slice(seg_off - start, seg_off - start + seg_len)
            for addr in self._segment_targets(fh, seg_off):
                self._note_dirty(fh.fileid, addr)
                res, _ = yield from call(
                    seg_off, seg_len, addr,
                    proto.WriteArgs(fh.pack(), seg_off, seg_len, args.stable),
                    data,
                )
                if res is not None and res.status == NFS3_OK:
                    self._track_node_verf(addr, res.verf)

        status = yield from self._scatter(client_addr, xid, proto.PROC_WRITE,
                                          segments, put)
        if status is None:
            return
        entry = self.attr_cache.peek(fh.fileid)
        attrs = entry.attrs.copy() if entry is not None else None
        res = proto.WriteRes(
            status, attrs, count=args.count if status == NFS3_OK else 0,
            committed=args.stable, verf=self.verf_epoch,
        )
        self._synthesize_reply(client_addr, xid, res, kind="split-write")

    # -- bulk I/O routing ---------------------------------------------------

    def _alternate(self, fh: FHandle, replicas: list):
        """The next of a mirrored file's replicas for a fresh read: reads
        alternate between them to balance load (§3.1)."""
        toggle = self._mirror_toggle.get(fh.fileid, 0)
        self._mirror_toggle[fh.fileid] = toggle + 1
        return replicas[toggle % len(replicas)]

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
            addrs = [self.storage_table.lookup(s) for s in sites]
            if prev is not None and prev.dst in addrs:
                # Retransmission: the last replica we tried never answered
                # (or the reply was lost) — deterministically rotate to the
                # next one so a dead node cannot capture every retry.
                site = sites[(addrs.index(prev.dst) + 1) % len(sites)]
            else:
                site = self._alternate(fh, sites)
        else:
            site = sites[0]
        rec.site = site
        return self._redirect(
            pkt, key, rec, self.storage_table.lookup(site), "bulk-read",
            "bulk-read", block=block, mirrored=fh.mirrored,
            replicas=len(sites),
        )

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
        rec.expected = len(targets)
        rec.site = sites[0]
        for addr in targets:
            self._note_dirty(fh.fileid, addr)
        out = list(self._redirect(
            pkt, key, rec, targets[0], "bulk-write", "bulk-write",
            block=block, mirrored=fh.mirrored, replicas=len(targets),
        ))
        for addr in targets[1:]:
            clone = Packet(
                pkt.src, pkt.dst, pkt.header, pkt.body, pkt.cksum,
                trace_id=pkt.trace_id,
            )
            clone.rewrite_dst(addr)
            self.cost.rewrite(6)
            out.append(clone)
            if self.tracer is not None:
                self.tracer.rewrite_check(clone, "bulk-write")
        return tuple(out)

    def _fetch_map_and_resend(self, pkt: Packet, fh: FHandle, block: int):
        """Block map miss: fetch a fragment from the coordinator, then
        re-inject the original packet (it will now hit the cache)."""
        coord = coordinator_for(fh.fileid, self.coordinators)

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
            sites = set(self.storage_table.entries)
            if self.sf_table is not None:
                sites.add(self._sf_addr(fileid))
        targets = sorted(sites)
        coord = coordinator_for(fileid, self.coordinators)
        op_id = (self.proxy_id << 32) | next(self._op_counter)
        if tracer is not None:
            tracer.route(client_addr, xid, self.sim.now,
                         targets[0] if targets else "-", "commit-fanout",
                         fanout=len(targets), op_id=op_id)
        if coord is not None and len(targets) > 1:
            intent = cp.Intent(
                op_id, cp.K_COMMIT, fh.pack(), 0, 0,
                [(a.host, a.port) for a in targets],
            )
            if self.params.intent_sync:
                yield from self._tell_coord(coord, cp.COORD_INTENT, intent,
                                            tid)
            else:
                self.sim.process(
                    self._tell_coord(coord, cp.COORD_INTENT, intent)
                )
        procs = [
            self.sim.process(self._commit_site(addr, fh, trace_id=tid))
            for addr in targets
        ]
        if procs:
            yield self.sim.all_of(procs)
        if coord is not None and len(targets) > 1:
            self.sim.process(self._tell_coord(coord, cp.COORD_COMPLETE,
                                              cp.CompleteArgs(op_id)))
        # Push modified attributes back to the directory server (§4.1:
        # "when it intercepts an NFS V3 write commit request").
        entry = self.attr_cache.peek(fileid)
        if entry is not None and entry.dirty:
            yield from self._writeback_entry(entry)
        attrs = entry.attrs if entry is not None else None
        res = proto.CommitRes(NFS3_OK, attrs, verf=self.verf_epoch)
        self._synthesize_reply(client_addr, xid, res, kind="commit")

    def _tell_coord(self, coord: Address, proc: int, args,
                    trace_id: int = 0):
        """Best-effort call to a coordinator; a timeout is ignored."""
        try:
            yield from self.client.call(
                coord, cp.SLICE_COORD_PROGRAM, cp.COORD_V1, proc,
                args.encode(), trace_id=trace_id,
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
            del self.pending[key]
            self._misdirected(pkt.dst, xid)
            return ()
        try:
            result = self._postprocess(pkt, key, rec, dec)
        except XdrError:
            self.replies_dropped += 1
            return ()
        self.cost.decode(dec.offset)
        return result

    def _misdirected(self, client_addr: Address, xid: int) -> None:
        """A server refused a request routed on a stale hint: drop the
        reply and refresh the tables; the client's retransmission
        re-routes via the new tables."""
        self.misdirects_seen += 1
        if self.tracer is not None:
            self.tracer.misdirected(client_addr, xid, self.sim.now)
        self._refresh_tables()

    def _finish(self, pkt: Packet, key) -> Tuple[Packet, ...]:
        self.pending.pop(key, None)
        pkt.rewrite_src(self.virtual)
        self.cost.rewrite(6)
        self.replies_returned += 1
        if self.tracer is not None:
            self.tracer.reply_sent(pkt.dst, key[1], self.sim.now)
            self.tracer.rewrite_check(pkt, "finish")
        return (pkt,)

    def _rebuild(self, pkt: Packet, key, res, body: Data = EMPTY):
        """Replace a server's reply by one carrying ``res``, and finish it."""
        rebuilt = self._reply_packet(pkt.src, pkt.dst, key[1], res, body,
                                     pkt.trace_id)
        self.cost.rewrite(len(rebuilt.header))
        self.synthesized += 1
        return self._finish(rebuilt, key)

    def _postprocess(self, pkt: Packet, key, rec: _Pending, dec: Decoder):
        proc = rec.proc
        if proc == proto.PROC_READ:
            return self._post_read(pkt, key, rec, dec)
        if proc == proto.PROC_WRITE:
            return self._post_write(pkt, key, rec, dec)
        if proc in (proto.PROC_READDIR, proto.PROC_READDIRPLUS):
            return self._post_readdir(pkt, key, rec, dec)
        learns = _ATTR_REPLIES.get(proc)
        if learns is not None:
            new_handle, patch = learns
            res = proto.PROCS[proc].result.decode(dec)
            if res.status == NFS3_OK and res.attr is not None:
                fh = rec.fh
                if new_handle:
                    fh = self._unpack_fh(res.fh) if res.fh is not None else None
                if fh is not None:
                    self._learn(fh, res.attr)
                    entry = self.attr_cache.peek(fh.fileid) if patch else None
                    if (entry is not None and entry.dirty
                            and res.attr_offset >= 0):
                        self.cost.rewrite(
                            patch_attrs_from(pkt, res.attr_offset, entry.attrs)
                        )
        return self._finish(pkt, key)

    # -- READ reply: clamp to the true file size, fix EOF, patch attrs -------

    def _post_read(self, pkt: Packet, key, rec: _Pending, dec: Decoder):
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
        self.attr_cache.note_read(fh, self.sim.now)
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
        new_res = proto.ReadRes(
            NFS3_OK, entry.attrs.copy(), count=expected, eof=eof
        )
        return self._rebuild(pkt, key, new_res, _fit(pkt.body, expected))

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
            self._learn(fh, gres.attr)
            attrs, size = gres.attr, gres.attr.size
        else:
            attrs, size = res.attr, rec.offset + res.count  # best effort
        expected = min(rec.count, max(0, size - rec.offset))
        new_res = proto.ReadRes(
            NFS3_OK, attrs, count=expected,
            eof=rec.offset + expected >= size,
        )
        xid = int.from_bytes(pkt.header[:4], "big")
        self._synthesize_reply(pkt.dst, xid, new_res, _fit(pkt.body, expected),
                               kind="read-fixup")

    # -- WRITE reply: virtualize the verifier, patch attrs, pair mirrors -----

    def _post_write(self, pkt: Packet, key, rec: _Pending, dec: Decoder):
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

    def _next_readdir_site(self, fh: FHandle, site: int) -> Optional[int]:
        """The logical site a name-hashed listing of ``fh`` moves on to
        after ``site``: the home site first, then the others in order;
        None after the last."""
        nxt = 0 if site == fh.home_site else site + 1
        if nxt == fh.home_site:
            nxt += 1
        return nxt if nxt < self.name_config.num_logical_sites else None

    @staticmethod
    def _chain_to(res: proto.ReaddirRes, site: int) -> None:
        """Rewrite a site's last page so the client's next request enters
        ``site``."""
        res.entries[-1].cookie = _site_cookie(site)
        res.eof = False

    def _post_readdir(self, pkt: Packet, key, rec: _Pending, dec: Decoder):
        """Pass a site's page on, or chain the listing to the next site.

        Under mkdir switching a directory lives at one site, so the reply
        goes back untouched and unread.  Under name hashing the µproxy
        reads the status and the eof word (the last word of a reply with
        no body) and finishes every page but a successful last page of a
        site that another site follows; only that page is decoded, to
        chain the client on (``_chain_to``) or, when it is empty, to ask
        the following sites itself (``_readdir_chain``)."""
        if not self.name_config.readdir_spans_sites():
            return self._finish(pkt, key)
        start = dec.offset
        if (dec.u32() != NFS3_OK or pkt.body.length
                or pkt.header[-4:] != _XDR_TRUE):
            return self._finish(pkt, key)
        site = self._next_readdir_site(rec.fh, rec.site)
        if site is None:
            return self._finish(pkt, key)  # truly the last site
        dec.offset = start
        res = proto.ReaddirRes.decode(
            dec, plus=rec.proc == proto.PROC_READDIRPLUS
        )
        if res.entries:
            self._chain_to(res, site)
            return self._rebuild(pkt, key, res)
        # Empty page at this site: chase the remaining sites ourselves.
        del self.pending[key]
        self.sim.process(
            self._readdir_chain(pkt.dst, key[1], rec, site),
            name=f"uproxy-readdir:{self.host.name}",
        )
        return ()

    def _readdir_chain(self, client_addr: Address, xid: int, rec: _Pending,
                       site: Optional[int]):
        """Query further sites for a name-hashed directory, from ``site``
        on, until one returns entries (or all are exhausted), then answer
        the client."""
        plus = rec.proc == proto.PROC_READDIRPLUS
        final = proto.ReaddirRes(NFS3_OK, None, cookieverf=1, entries=[],
                                 eof=True, plus=plus)
        while site is not None:
            raw, cookie = rec.fh.pack(), _site_cookie(site)
            if plus:
                args = proto.ReaddirplusArgs(raw, cookie, 1, 4096, 32768)
            else:
                args = proto.ReaddirArgs(raw, cookie, 1, 4096)
            following = self._next_readdir_site(rec.fh, site)
            try:
                dec, _ = yield from self.client.call(
                    self.dir_table.lookup(site), proto.NFS_PROGRAM,
                    proto.NFS_V3, rec.proc, args.encode(),
                )
            except RpcTimeout:
                site = following
                continue
            res = proto.ReaddirRes.decode(dec, plus=plus)
            if res.status == NFS3_OK and res.entries:
                final = res
                if res.eof and following is not None:
                    self._chain_to(final, following)
                break
            site = following
        self._synthesize_reply(client_addr, xid, final, kind="readdir-chain")

    # ------------------------------------------------------------------
    # attribute write-back & table refresh
    # ------------------------------------------------------------------

    def _learn(self, fh: FHandle, attrs) -> None:
        """Merge a server's attributes into the cache, writing back the
        dirty entries that this evicts."""
        for evicted in self.attr_cache.update_from_server(fh, attrs):
            self._spawn_writeback(evicted)

    def _spawn_writeback(self, entry) -> None:
        self.sim.process(
            self._writeback_entry(entry),
            name=f"uproxy-attrwb:{self.host.name}",
        )

    def _writeback_entry(self, entry):
        """Push cached size/times to the directory server with SETATTR."""
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
            self.attr_cache.mark_clean(fh.fileid, self.sim.now)
        else:
            self.attr_cache.drop(fh.fileid)  # stale handle etc.

    def _attr_flusher(self):
        """Bound attribute drift with periodic write-backs (§4.1)."""
        while True:
            yield self.sim.timeout(ATTR_WRITEBACK_INTERVAL)
            cutoff = self.sim.now - ATTR_WRITEBACK_INTERVAL
            for entry in self.attr_cache.dirty_entries(cutoff):
                yield from self._writeback_entry(entry)

    def _refresh_tables(self) -> None:
        """Conditional table reload after a MISDIRECTED reply.

        One refetch is in flight at a time per µproxy; the request quotes
        ``config_epoch`` so the configuration service answers NOT_MODIFIED
        when the proxy is already fresh (a burst of misdirects costs one
        table dump per epoch bump, not one per misdirect)."""
        if self._refreshing:
            return
        self._refreshing = True

        def refresh():
            from repro.ensemble.configsvc import (
                CONFIG_GET,
                CONFIG_V1,
                SLICE_CONFIG_PROGRAM,
                ConfigFetch,
                ConfigGetArgs,
            )

            try:
                dec, _ = yield from self.client.call(
                    self.configsvc, SLICE_CONFIG_PROGRAM, CONFIG_V1,
                    CONFIG_GET, ConfigGetArgs("*", self.config_epoch).encode(),
                )
                fetch = ConfigFetch.decode(dec)
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
        if fresh is not None:
            old = list(self.storage_table.entries)
            if self.storage_table.replace(fresh.entries, fresh.version,
                                          epoch=fresh.epoch):
                moved = self._moved_sites(old, self.storage_table.entries)
                self.block_maps.drop_sites(moved)
                if self.storage_table.num_sites != self.placement.num_nodes:
                    self.placement = StaticPlacement(
                        self.storage_table.num_sites, self.io
                    )
                self.cost.softstate()
