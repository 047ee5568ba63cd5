"""Online rebalancer: drain ~1/Nth of the objects onto new bindings.

The rebalancer executes the storage moves of a
:class:`~repro.reconfig.plan.RebindPlan` while the cluster keeps serving:

1. **Barriers** go up on each destination node for every inbound site, so
   freshly re-routed client traffic stalls (instead of failing or reading
   holes) until that site's data has landed.
2. The plan is **installed atomically** at the configuration service (one
   epoch bump) and, in the same simulated instant, every source node
   relinquishes its moved sites — from that point stale writes are turned
   away with MISDIRECTED and no new data can land on an old binding.
3. **Migration units** — one per (object, moved site) — are enumerated
   from the source nodes' extent maps: only the byte ranges that actually
   live in a moved site's stripe blocks are copied, over the ctrl-plane
   ``CTRL_OBJ_READ`` / ``CTRL_MIGRATE_WRITE`` procs (which merge the
   unstable overlay and bypass site checks and barriers by construction).
   Each unit is guarded by a ``K_MIGRATE`` intention at a coordinator, so
   a crashed rebalancer or node leaves a recoverable record instead of a
   stranded placement.
4. As each site finishes, its **barrier drops** and queued client requests
   proceed against the fully-populated new binding.

The whole procedure is a simulation generator; run it with
``cluster.run(...)`` or ``yield from`` it inside a driver process that is
concurrently hammering the ensemble with client I/O.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net import Address
from repro.nfs.fhandle import FHandle
from repro.rpc import RpcClient, RpcTimeout
from repro.storage import coordproto as cp
from repro.storage import ctrlproto
from repro.storage.node import PSEUDO_VOLUME_BASE

from .plan import RebindPlan, SiteMove

__all__ = ["MigrationUnit", "RebalanceReport", "Rebalancer"]


@dataclass
class MigrationUnit:
    """One (object, moved site) placement to copy from src to dst."""

    fh: bytes  # packed file handle (addresses the ctrl-plane procs)
    object_id: bytes
    site: int
    src: Address
    dst: Address
    ranges: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def span(self) -> Tuple[int, int]:
        """Covering range logged in the K_MIGRATE intention."""
        if not self.ranges:
            return (0, 0)
        return (self.ranges[0][0], self.ranges[-1][1])


@dataclass
class RebalanceReport:
    """What one plan execution did."""

    epoch: int
    units_moved: int = 0
    bytes_moved: int = 0
    objects_scanned: int = 0
    sites_moved: int = 0

    def __str__(self) -> str:
        return (
            f"epoch {self.epoch}: moved {self.units_moved} placement(s), "
            f"{self.bytes_moved} byte(s) across {self.sites_moved} site(s) "
            f"({self.objects_scanned} object(s) scanned)"
        )


class Rebalancer:
    """Executes the storage moves of a RebindPlan against a live cluster."""

    #: copy granularity — one ctrl-plane read/write pair per chunk
    CHUNK = 256 << 10
    #: pause between retries when a source or destination is unreachable
    RETRY_DELAY = 1.0
    #: give up on a unit after this many consecutive dead-node retries
    #: (the open K_MIGRATE intention and the open-migration trace record
    #: then document the stranded placement instead of hanging the run)
    MAX_RETRIES = 120

    def __init__(self, cluster, port: int = 990):
        self.cluster = cluster
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        host = cluster.net.add_host("rebalancer")
        self.client = RpcClient(
            host, port, retrans_timeout=0.5, max_tries=4
        )
        self.units_moved = 0
        self.bytes_moved = 0
        # Per-instance so identical runs draw identical intent op_ids
        # (the chaos digest oracle hashes the intent ledger).
        self._op_counter = itertools.count(1)

    # -- plan execution ---------------------------------------------------

    def apply(self, plan: RebindPlan):
        """Generator: install the plan and migrate affected storage data."""
        cluster = self.cluster
        storage_moves = plan.moves_for("storage")
        dst_nodes = {
            move.site: cluster.storage_node_at(move.dst)
            for move in storage_moves
        }
        # 1. barriers up before any binding changes become visible.
        for move in storage_moves:
            dst_nodes[move.site].set_migration_barrier(move.site)
        # 2. atomic install + server-side relinquish/adopt, one instant.
        epoch = cluster.configsvc.install(plan.tables)
        for move in storage_moves:
            cluster.storage_node_at(move.src).relinquish_site(move.site)
            dst_nodes[move.site].adopt_site(move.site)
        report = RebalanceReport(epoch=epoch, sites_moved=len(storage_moves))
        # 3. enumerate migration units in the same instant (no yields since
        # relinquish: every write applied later is re-checked server-side).
        units = self._enumerate_units(storage_moves, report)
        by_site: Dict[int, List[MigrationUnit]] = {}
        for unit in units:
            by_site.setdefault(unit.site, []).append(unit)
        # 4. drain each site independently; its barrier drops the moment
        # its last unit lands, not when the whole plan finishes.
        site_procs = []
        for move in storage_moves:
            site_units = by_site.get(move.site, [])
            site_procs.append(self.sim.process(
                self._drain_site(move, site_units, report),
                name=f"rebalance-site:{move.site}",
            ))
        if site_procs:
            yield self.sim.all_of(site_procs)
        self.units_moved += report.units_moved
        self.bytes_moved += report.bytes_moved
        return report

    # -- unit enumeration -------------------------------------------------

    def _enumerate_units(self, storage_moves: List[SiteMove],
                         report: RebalanceReport) -> List[MigrationUnit]:
        """Scan each source node's store for data living in moved sites.

        Placement is re-derived exactly as the µproxies derive it (same
        placement hash, same stripe unit, real mirrored flag from the
        recorded file handle), so a unit exists if and only if some client
        could be routed to the new binding for those bytes."""
        cluster = self.cluster
        policy = cluster.params.io
        unit_size = policy.stripe_unit
        moved_by_src: Dict[Address, Dict[int, SiteMove]] = {}
        for move in storage_moves:
            moved_by_src.setdefault(move.src, {})[move.site] = move
        units: List[MigrationUnit] = []
        for src_addr, site_moves in moved_by_src.items():
            node = cluster.storage_node_at(src_addr)
            placement = node._site_placement
            for oid in sorted(node.store.object_ids()):
                fh_raw = node.fh_of.get(oid)
                if fh_raw is None:
                    continue  # never written through the data path
                fh = FHandle.unpack(fh_raw)
                if fh.volume >= PSEUDO_VOLUME_BASE:
                    continue  # pinned small-file backing object
                obj = node.store.get(oid)
                report.objects_scanned += 1
                stored = [
                    (off, off + data.length)
                    for off, data in obj.stable.extents()
                ]
                stored.extend(obj.unstable_ranges)
                per_site: Dict[int, List[Tuple[int, int]]] = {}
                for lo, hi in stored:
                    pos = lo
                    while pos < hi:
                        stop = min(hi, (pos // unit_size + 1) * unit_size)
                        block = pos // unit_size
                        for site in placement.sites_for_block(fh, block):
                            if site in site_moves:
                                per_site.setdefault(site, []).append(
                                    (pos, stop)
                                )
                        pos = stop
                for site, ranges in sorted(per_site.items()):
                    move = site_moves[site]
                    units.append(MigrationUnit(
                        fh_raw, oid, site, move.src, move.dst,
                        _merge_ranges(ranges),
                    ))
        return units

    # -- copy engine ------------------------------------------------------

    def _drain_site(self, move: SiteMove, units: List[MigrationUnit],
                    report: RebalanceReport):
        dst_node = self.cluster.storage_node_at(move.dst)
        for unit in units:
            yield from self._migrate_unit(unit, report)
        dst_node.clear_migration_barrier(move.site)

    def _migrate_unit(self, unit: MigrationUnit, report: RebalanceReport):
        tracer = self.tracer
        if tracer is not None:
            tracer.migration_started(
                unit.object_id, unit.site, unit.src, unit.dst, self.sim.now
            )
        op_id = (0xEB << 40) | next(self._op_counter)
        yield from self._log_intent(unit, op_id)
        moved = yield from self._copy_ranges(unit)
        if moved is None:
            return  # gave up: leave the intention (and the trace) open
        yield from self._complete_intent(op_id)
        report.units_moved += 1
        report.bytes_moved += moved
        if tracer is not None:
            tracer.migration_finished(unit.object_id, unit.site, self.sim.now)

    def _coordinator(self) -> Optional[Address]:
        addrs = getattr(self.cluster, "coordinator_addrs", None)
        return addrs[0] if addrs else None

    def _log_intent(self, unit: MigrationUnit, op_id: int):
        coord = self._coordinator()
        if coord is None:
            return
        lo, hi = unit.span
        intent = cp.Intent(
            op_id, cp.K_MIGRATE, unit.fh, lo, hi - lo,
            [(unit.src.host, unit.src.port), (unit.dst.host, unit.dst.port)],
        )
        for _ in range(self.MAX_RETRIES):
            try:
                yield from self.client.call(
                    coord, cp.SLICE_COORD_PROGRAM, cp.COORD_V1,
                    cp.COORD_INTENT, intent.encode(),
                )
                return
            except RpcTimeout:
                yield self.sim.timeout(self.RETRY_DELAY)

    def _complete_intent(self, op_id: int):
        coord = self._coordinator()
        if coord is None:
            return
        for _ in range(self.MAX_RETRIES):
            try:
                yield from self.client.call(
                    coord, cp.SLICE_COORD_PROGRAM, cp.COORD_V1,
                    cp.COORD_COMPLETE, cp.CompleteArgs(op_id).encode(),
                )
                return
            except RpcTimeout:
                yield self.sim.timeout(self.RETRY_DELAY)

    def _copy_ranges(self, unit: MigrationUnit):
        """Copy every chunk; returns bytes moved, or None on give-up."""
        moved = 0
        for lo, hi in unit.ranges:
            pos = lo
            while pos < hi:
                stop = min(hi, pos + self.CHUNK)
                copied = yield from self._copy_chunk(unit, pos, stop - pos)
                if copied is None:
                    return None
                moved += copied
                pos = stop
        return moved

    def _copy_chunk(self, unit: MigrationUnit, offset: int, count: int):
        """One ctrl-plane read/write round trip, retried across crashes."""
        for _ in range(self.MAX_RETRIES):
            try:
                dec, data = yield from self.client.call(
                    unit.src, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
                    ctrlproto.CTRL_OBJ_READ,
                    ctrlproto.RangeArgs(unit.fh, offset, count).encode(),
                )
            except RpcTimeout:
                yield self.sim.timeout(self.RETRY_DELAY)
                continue
            res = ctrlproto.ReadRes.decode(dec)
            if not res.exists or data.length == 0:
                return 0  # hole (or the object vanished): nothing to copy
            try:
                yield from self.client.call(
                    unit.dst, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
                    ctrlproto.CTRL_MIGRATE_WRITE,
                    ctrlproto.RangeArgs(unit.fh, offset, data.length).encode(),
                    data,
                )
                return data.length
            except RpcTimeout:
                yield self.sim.timeout(self.RETRY_DELAY)
        return None


def _merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort and coalesce adjacent/overlapping (lo, hi) ranges."""
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged
