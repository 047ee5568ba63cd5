"""Block-service coordinator (§2.2, §3.3.2, §4.2).

The coordinator guards the atomicity of file operations that span multiple
storage sites.  The basic protocol, as in the paper: the requester sends an
*intention* before starting the operation; the coordinator logs it to stable
storage; on completion the requester sends a *completion*, asynchronously
clearing the intention.  A watchdog probes overdue intentions and finishes
or repairs the operation; a crashed coordinator recovers by scanning its
intention log.

It also manages optional per-file block maps used by dynamic I/O routing
policies: the µproxies fetch and cache map fragments as they route bulk I/O.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net import Address, Host
from repro.nfs import proto
from repro.rpc import RpcClient, RpcServer, RpcTimeout
from repro.rpc.xdr import Decoder
from repro.util.bytesim import EMPTY
from repro.wal import WriteAheadLog
from . import coordproto as cp
from . import ctrlproto
from .node import object_id_for_fh

__all__ = ["Coordinator", "CoordinatorParams", "COORD_PORT"]

COORD_PORT = 4049


@dataclass
class CoordinatorParams:
    cpu_per_op: float = 20e-6
    probe_interval: float = 5.0
    intent_timeout: float = 10.0


def _file_key(fh: bytes) -> bytes:
    return object_id_for_fh(fh)


class Coordinator:
    """One coordinator instance; a configuration may run several, each
    managing the files that hash to it."""

    def __init__(
        self,
        sim,
        host: Host,
        data_sites: List[Address],
        num_storage_sites: int,
        params: Optional[CoordinatorParams] = None,
        log_write_cost=None,
        port: int = COORD_PORT,
        tracer=None,
    ):
        """``data_sites``: every address holding file data (storage nodes
        first, then small-file servers) — the reclaim fan-out set.
        ``num_storage_sites``: how many of those are storage nodes (block
        map site ids index into this prefix)."""
        self.sim = sim
        self.host = host
        self.params = params or CoordinatorParams()
        self.data_sites = list(data_sites)
        self.num_storage_sites = num_storage_sites
        self.tracer = tracer
        self.log = WriteAheadLog(sim, write_cost=log_write_cost)
        self.server = RpcServer(host, port)
        self.server.tracer = tracer
        self.server.trace_component = f"coord:{host.name}"
        self.server.register(cp.SLICE_COORD_PROGRAM, self._service)
        self.client = RpcClient(host, port + 1)
        self.pending: Dict[int, cp.Intent] = {}
        self.block_maps: Dict[bytes, Dict[int, int]] = {}
        self.recoveries = 0
        self.intents_logged = 0
        sim.process(self._watchdog(), name=f"coord-watchdog:{host.name}")

    @property
    def address(self) -> Address:
        return self.server.address

    # -- telemetry ----------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """Current load readings (levels, not cumulative counts)."""
        return {
            "pending_intents": len(self.pending),
            "wal_depth": self.log.depth,
            "wal_unsynced": self.log.unsynced,
            "block_maps": len(self.block_maps),
            "cpu_queue": self.host.cpu.queue_length,
            "cpu_util": self.host.cpu.utilization(),
        }

    def counters(self) -> Dict[str, int]:
        """Cumulative counts since construction."""
        return {
            **self.server.counters(),
            "intents_logged": self.intents_logged,
            "recoveries": self.recoveries,
        }

    # -- placement policy ---------------------------------------------------

    def place_block(self, fh: bytes, block: int) -> int:
        """Default dynamic placement: hash the file onto a starting site and
        stripe blocks round-robin from there."""
        base = int.from_bytes(hashlib.md5(_file_key(fh)).digest()[:4], "big")
        return (base + block) % self.num_storage_sites

    # -- RPC service -----------------------------------------------------

    def _service(self, proc: int, dec: Decoder, body, src):
        yield from self.host.cpu_work(self.params.cpu_per_op)
        if proc == cp.COORD_PING:
            return ctrlproto.StatusRes(0).encode(), EMPTY
        if proc == cp.COORD_INTENT:
            intent = cp.Intent.decode(dec)
            self.pending[intent.op_id] = intent
            self.intents_logged += 1
            if self.tracer is not None:
                self.tracer.intent_logged(intent.op_id, intent.kind,
                                          self.sim.now)
            yield from self.log.append_sync(
                {"type": "intent", **intent._asdict(), "at": self.sim.now}
            )
            return ctrlproto.StatusRes(0).encode(), EMPTY
        if proc == cp.COORD_COMPLETE:
            op_id = cp.CompleteArgs.decode(dec).op_id
            self.pending.pop(op_id, None)
            # Completions clear intentions asynchronously (no sync stall).
            self.log.append({"type": "complete", "op_id": op_id})
            if self.tracer is not None:
                self.tracer.intent_completed(op_id, self.sim.now)
            return ctrlproto.StatusRes(0).encode(), EMPTY
        if proc == cp.COORD_GET_MAP:
            args = cp.GetMapArgs.decode(dec)
            sites, newly_allocated = self._map_lookup(args)
            if newly_allocated:
                yield from self.log.sync()  # placements must be durable
            return cp.MapRes(sites).encode(), EMPTY
        if proc == cp.COORD_RECLAIM:
            args = cp.ReclaimArgs.decode(dec)
            op_id = self._internal_op_id(args.fh, args.truncate_to)
            intent = cp.Intent(
                op_id,
                cp.K_REMOVE if args.remove else cp.K_TRUNCATE,
                args.fh,
                args.truncate_to,
                0,
                [(a.host, a.port) for a in self.data_sites],
            )
            self.pending[intent.op_id] = intent
            self.intents_logged += 1
            if self.tracer is not None:
                self.tracer.intent_logged(intent.op_id, intent.kind,
                                          self.sim.now)
            yield from self.log.append_sync(
                {"type": "intent", **intent._asdict(), "at": self.sim.now}
            )
            yield from self._execute_reclaim(intent)
            self.pending.pop(intent.op_id, None)
            self.log.append({"type": "complete", "op_id": intent.op_id})
            if self.tracer is not None:
                self.tracer.intent_completed(intent.op_id, self.sim.now)
            if args.remove:
                self.block_maps.pop(_file_key(args.fh), None)
            return ctrlproto.StatusRes(0).encode(), EMPTY
        from repro.rpc.endpoint import RpcAcceptError
        from repro.rpc.messages import PROC_UNAVAIL

        raise RpcAcceptError(PROC_UNAVAIL)

    def _internal_op_id(self, fh: bytes, salt: int) -> int:
        digest = hashlib.md5(
            _file_key(fh) + salt.to_bytes(8, "big") + str(self.sim.now).encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def _map_lookup(self, args: cp.GetMapArgs) -> Tuple[List[int], bool]:
        key = _file_key(args.fh)
        fmap = self.block_maps.setdefault(key, {})
        sites: List[int] = []
        allocated = False
        for block in range(args.first_block, args.first_block + args.count):
            site = fmap.get(block)
            if site is None:
                if not args.allocate:
                    sites.append(-1)
                    continue
                site = self.place_block(args.fh, block)
                fmap[block] = site
                self.log.append(
                    {"type": "map", "key": key, "block": block, "site": site}
                )
                allocated = True
            sites.append(site)
        return sites, allocated

    # -- reclaim / recovery execution ------------------------------------

    def _execute_reclaim(self, intent: cp.Intent):
        """Fan the remove/truncate out to every data site (idempotent)."""
        procs = []
        for host, port in intent.sites:
            procs.append(
                self.sim.process(self._reclaim_one(Address(host, port), intent))
            )
        if procs:
            yield self.sim.all_of(procs)

    def _reclaim_one(self, site: Address, intent: cp.Intent):
        try:
            if intent.kind == cp.K_REMOVE:
                yield from self.client.call(
                    site, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
                    ctrlproto.CTRL_OBJ_REMOVE, ctrlproto.ObjArgs(intent.fh).encode(),
                )
            else:
                yield from self.client.call(
                    site, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
                    ctrlproto.CTRL_OBJ_TRUNCATE,
                    ctrlproto.TruncateArgs(intent.fh, intent.offset).encode(),
                )
        except RpcTimeout:
            pass  # site down: the watchdog retries on the next pass

    def _recover_intent(self, intent: cp.Intent):
        """Finish or repair an overdue/orphaned multi-site operation."""
        self.recoveries += 1
        if self.tracer is not None:
            self.tracer.intent_recovered(intent.op_id, self.sim.now)
        if intent.kind in (cp.K_REMOVE, cp.K_TRUNCATE):
            yield from self._execute_reclaim(intent)
        elif intent.kind == cp.K_COMMIT:
            yield from self._recover_commit(intent)
        elif intent.kind == cp.K_MIRROR_WRITE:
            yield from self._recover_mirror_write(intent)
        elif intent.kind == cp.K_MIGRATE:
            yield from self._recover_migrate(intent)
        self.pending.pop(intent.op_id, None)
        self.log.append({"type": "complete", "op_id": intent.op_id})

    def _recover_commit(self, intent: cp.Intent):
        for host, port in intent.sites:
            try:
                yield from self.client.call(
                    Address(host, port), proto.NFS_PROGRAM, proto.NFS_V3,
                    proto.PROC_COMMIT,
                    proto.CommitArgs(intent.fh, 0, 0).encode(),
                )
            except RpcTimeout:
                pass

    def _recover_mirror_write(self, intent: cp.Intent):
        """Make mirrors agree on [offset, offset+count): copy from the first
        replica that holds the range to any replica that does not."""
        end = intent.offset + intent.count
        stats = []
        for host, port in intent.sites:
            addr = Address(host, port)
            try:
                dec, _ = yield from self.client.call(
                    addr, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
                    ctrlproto.CTRL_OBJ_STAT, ctrlproto.ObjArgs(intent.fh).encode(),
                )
                stats.append((addr, ctrlproto.ObjStat.decode(dec)))
            except RpcTimeout:
                stats.append((addr, None))
        donors = [a for a, s in stats if s is not None and s.exists and s.size >= end]
        if not donors:
            return  # no replica completed: the client will retransmit
        donor = donors[0]
        # Repair traffic travels the ctrl plane (CTRL_OBJ_READ /
        # CTRL_MIGRATE_WRITE): it must reach the replica that physically
        # holds the bytes even while a reconfiguration is redrawing the
        # hosted-site map, so it bypasses site checks and barriers.
        dec, data = yield from self.client.call(
            donor, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
            ctrlproto.CTRL_OBJ_READ,
            ctrlproto.RangeArgs(intent.fh, intent.offset, intent.count).encode(),
        )
        read = ctrlproto.ReadRes.decode(dec)
        if not read.exists:
            return
        for addr, stat in stats:
            if addr == donor:
                continue
            if stat is not None and stat.exists and stat.size >= end:
                continue
            try:
                yield from self.client.call(
                    addr, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
                    ctrlproto.CTRL_MIGRATE_WRITE,
                    ctrlproto.RangeArgs(
                        intent.fh, intent.offset, data.length
                    ).encode(),
                    data,
                )
            except RpcTimeout:
                pass

    def _recover_migrate(self, intent: cp.Intent):
        """Finish a torn object migration: re-copy [offset, offset+count)
        from the old binding (``sites[0]``) to the new one (``sites[1]``).

        Idempotent — re-writing identical stable bytes is harmless, and if
        the source has since discarded the object the destination copy
        already landed (the rebalancer removes only after completion)."""
        if len(intent.sites) < 2:
            return
        src = Address(*intent.sites[0])
        dst = Address(*intent.sites[1])
        try:
            dec, data = yield from self.client.call(
                src, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
                ctrlproto.CTRL_OBJ_READ,
                ctrlproto.RangeArgs(
                    intent.fh, intent.offset, intent.count
                ).encode(),
            )
        except RpcTimeout:
            return  # source down: the watchdog retries on the next pass
        read = ctrlproto.ReadRes.decode(dec)
        if not read.exists or data.length == 0:
            return  # source already dropped it: copy must have completed
        try:
            yield from self.client.call(
                dst, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
                ctrlproto.CTRL_MIGRATE_WRITE,
                ctrlproto.RangeArgs(
                    intent.fh, intent.offset, data.length
                ).encode(),
                data,
            )
        except RpcTimeout:
            pass

    def _watchdog(self):
        while True:
            yield self.sim.timeout(self.params.probe_interval)
            if not self.host.up:
                continue
            now = self.sim.now
            overdue = [
                intent
                for intent in self.pending.values()
                if now - self._intent_time(intent) > self.params.intent_timeout
            ]
            for intent in overdue:
                if intent.op_id in self.pending:
                    yield from self._recover_intent(intent)

    def _intent_time(self, intent: cp.Intent) -> float:
        for rec in reversed(self.log.records):
            if rec.get("type") == "intent" and rec.get("op_id") == intent.op_id:
                return rec.get("at", 0.0)
        return 0.0

    # -- crash / restart -----------------------------------------------------

    def crash(self) -> None:
        self.host.crash()
        self.log.crash()
        self.pending.clear()
        self.block_maps.clear()
        self.server.clear_duplicate_cache()

    def restart(self) -> None:
        """Recover state from the stable log, then resume service."""
        completed = set()
        intents: Dict[int, cp.Intent] = {}
        for rec in self.log.stable_records():
            kind = rec.get("type")
            if kind == "intent":
                intents[rec["op_id"]] = cp.Intent(
                    rec["op_id"], rec["kind"], rec["fh"], rec["offset"],
                    rec["count"], [tuple(s) for s in rec["sites"]],
                )
            elif kind == "complete":
                completed.add(rec["op_id"])
            elif kind == "map":
                self.block_maps.setdefault(rec["key"], {})[rec["block"]] = rec["site"]
        self.pending = {
            op_id: intent
            for op_id, intent in intents.items()
            if op_id not in completed
        }
        self.host.restart()
        self.sim.process(self._recover_all(), name=f"coord-recover:{self.host.name}")

    def _recover_all(self):
        for intent in list(self.pending.values()):
            if intent.op_id in self.pending:
                yield from self._recover_intent(intent)
