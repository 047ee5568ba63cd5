"""Block-service coordinator (§2.2, §3.3.2, §4.2).

The coordinator guards the atomicity of file operations that span multiple
storage sites.  The basic protocol, as in the paper: the requester sends an
*intention* before starting the operation; the coordinator logs it to stable
storage; on completion the requester sends a *completion*, asynchronously
clearing the intention.  A watchdog probes overdue intentions and finishes
or repairs the operation; a crashed coordinator recovers by playing its
stable log through the same ``_play`` the live paths use, then running
what the log left open.  Every intention runs one way (``_run_intent``),
whether a reclaim runs it live, the watchdog, or recovery, and closes only
once its run finished.

It also manages optional per-file block maps used by dynamic I/O routing
policies: the µproxies fetch and cache map fragments as they route bulk I/O.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net import Address, Host
from repro.nfs import proto
from repro.rpc import RpcClient, RpcServer, RpcTimeout
from repro.rpc.xdr import Decoder
from repro.util.bytesim import EMPTY
from repro.util.hashing import md5_u64
from repro.wal import WriteAheadLog
from . import coordproto as cp
from . import ctrlproto
from .node import object_id_for_fh

__all__ = [
    "Coordinator", "CoordinatorParams", "COORD_PORT", "call_or_none",
    "coordinator_for", "copy_range",
]

COORD_PORT = 4049
CPU_PER_OP = 20e-6


@dataclass
class CoordinatorParams:
    probe_interval: float = 5.0
    intent_timeout: float = 10.0


def coordinator_for(fileid: int,
                    coordinators: Sequence[Address]) -> Optional[Address]:
    """The coordinator that holds ``fileid``'s block map and reclaims its
    data (None when the ensemble runs none)."""
    if not coordinators:
        return None
    return coordinators[
        md5_u64(b"coord:" + fileid.to_bytes(8, "big")) % len(coordinators)
    ]


def call_or_none(call):
    """Generator: run the RPC generator ``call``; returns its reply, or
    None when the callee never answered (it is down)."""
    try:
        return (yield from call)
    except RpcTimeout:
        return None


def copy_range(client: RpcClient, src: Address, dsts: Sequence[Address],
               fh: bytes, offset: int, count: int):
    """Generator: copy ``fh``'s bytes [offset, offset+count) from ``src``
    to every address in ``dsts``.

    The copy travels the ctrl plane (CTRL_OBJ_READ / CTRL_MIGRATE_WRITE):
    it must reach the node that physically holds the bytes even while a
    reconfiguration is redrawing the hosted-site map, so it bypasses site
    checks and barriers.  Returns the bytes copied (0 when ``src`` holds
    none of them), or None when ``src`` or a destination did not answer;
    every write is stable and idempotent, so the caller may simply retry.
    """
    reply = yield from call_or_none(client.call(
        src, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
        ctrlproto.CTRL_OBJ_READ,
        ctrlproto.RangeArgs(fh, offset, count).encode(),
    ))
    if reply is None:
        return None
    dec, data = reply
    if not ctrlproto.ReadRes.decode(dec).exists or data.length == 0:
        return 0
    copied = data.length
    for dst in dsts:
        written = yield from call_or_none(client.call(
            dst, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
            ctrlproto.CTRL_MIGRATE_WRITE,
            ctrlproto.RangeArgs(fh, offset, data.length).encode(),
            data,
        ))
        if written is None:
            copied = None
    return copied


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
        self.log = WriteAheadLog(sim)
        self.server = RpcServer(host, port)
        self.server.tracer = tracer
        self.server.trace_component = f"coord:{host.name}"
        self.server.register(cp.SLICE_COORD_PROGRAM, self._service)
        self.client = RpcClient(host, port + 1)
        #: op_id -> (intent, when it was logged) of every open intention.
        self.pending: Dict[int, Tuple[cp.Intent, float]] = {}
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
        base = int.from_bytes(hashlib.md5(object_id_for_fh(fh)).digest()[:4], "big")
        return (base + block) % self.num_storage_sites

    # -- RPC service -----------------------------------------------------

    def _service(self, proc: int, dec: Decoder, body, src):
        yield from self.host.cpu_work(CPU_PER_OP)
        if proc == cp.COORD_PING:
            return ctrlproto.StatusRes(0).encode(), EMPTY
        if proc == cp.COORD_INTENT:
            yield from self._log_intent(cp.Intent.decode(dec))
            return ctrlproto.StatusRes(0).encode(), EMPTY
        if proc == cp.COORD_COMPLETE:
            self._complete(cp.CompleteArgs.decode(dec).op_id)
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
            yield from self._log_intent(intent)
            if (yield from self._run_intent(intent)):
                self._complete(intent.op_id)
            # else a site is down: the watchdog retries the intention.
            return ctrlproto.StatusRes(0).encode(), EMPTY
        from repro.rpc.endpoint import RpcAcceptError
        from repro.rpc.messages import PROC_UNAVAIL

        raise RpcAcceptError(PROC_UNAVAIL)

    # -- the intention log ------------------------------------------------

    def _play(self, rec: Dict) -> None:
        """Apply one log record: the only code that changes ``pending`` or
        ``block_maps``, live and at replay.  The completion of a remove
        drops the removed file's block map."""
        kind = rec["type"]
        if kind == "intent":
            intent = rec["intent"]
            self.pending[intent.op_id] = (intent, rec["at"])
        elif kind == "complete":
            entry = self.pending.pop(rec["op_id"], None)
            if entry is not None and entry[0].kind == cp.K_REMOVE:
                self.block_maps.pop(object_id_for_fh(entry[0].fh), None)
        else:  # "map"
            self.block_maps.setdefault(rec["key"], {})[rec["block"]] = rec["site"]

    def _record(self, rec: Dict) -> None:
        """Play ``rec`` and append it to the log (volatile until a sync)."""
        self._play(rec)
        self.log.append(rec)

    def _log_intent(self, intent: cp.Intent):
        """Hold ``intent`` pending and make it durable before answering."""
        now = self.sim.now
        self._record({"type": "intent", "intent": intent, "at": now})
        self.intents_logged += 1
        if self.tracer is not None:
            self.tracer.intent_logged(intent.op_id, intent.kind, now)
        yield from self.log.sync()

    def _complete(self, op_id: int) -> None:
        """Close ``op_id``.  Completions clear intentions asynchronously
        (no sync stall): a completion lost to a crash re-runs the
        intention, which is idempotent."""
        self._record({"type": "complete", "op_id": op_id})
        if self.tracer is not None:
            self.tracer.intent_completed(op_id, self.sim.now)

    def _internal_op_id(self, fh: bytes, salt: int) -> int:
        digest = hashlib.md5(
            object_id_for_fh(fh) + salt.to_bytes(8, "big") + str(self.sim.now).encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def _map_lookup(self, args: cp.GetMapArgs) -> Tuple[List[int], bool]:
        key = object_id_for_fh(args.fh)
        sites: List[int] = []
        allocated = False
        for block in range(args.first_block, args.first_block + args.count):
            site = self.block_maps.get(key, {}).get(block)
            if site is None:
                if not args.allocate:
                    sites.append(-1)
                    continue
                site = self.place_block(args.fh, block)
                self._record(
                    {"type": "map", "key": key, "block": block, "site": site}
                )
                allocated = True
            sites.append(site)
        return sites, allocated

    # -- running intentions -------------------------------------------------

    def _run_intent(self, intent: cp.Intent):
        """Generator: carry out ``intent``'s action (idempotent, so it may
        run again); returns whether it finished.  A site that did not
        answer means it did not, and the intention stays pending."""
        if intent.kind in (cp.K_REMOVE, cp.K_TRUNCATE):
            return (yield from self._reclaim(intent))
        if intent.kind == cp.K_COMMIT:
            return (yield from self._commit(intent))
        if intent.kind == cp.K_MIRROR_WRITE:
            return (yield from self._repair_mirrors(intent))
        if intent.kind == cp.K_MIGRATE:
            return (yield from self._finish_migration(intent))
        return True

    def _reclaim(self, intent: cp.Intent):
        """Fan the remove/truncate out to every data site at once."""
        if intent.kind == cp.K_REMOVE:
            proc = ctrlproto.CTRL_OBJ_REMOVE
            args = ctrlproto.ObjArgs(intent.fh).encode()
        else:
            proc = ctrlproto.CTRL_OBJ_TRUNCATE
            args = ctrlproto.TruncateArgs(intent.fh, intent.offset).encode()
        procs = [
            self.sim.process(call_or_none(self.client.call(
                Address(host, port), ctrlproto.SLICE_CTRL_PROGRAM,
                ctrlproto.CTRL_V1, proc, args,
            )))
            for host, port in intent.sites
        ]
        if procs:
            yield self.sim.all_of(procs)
        return all(proc.value is not None for proc in procs)

    def _commit(self, intent: cp.Intent):
        finished = True
        for host, port in intent.sites:
            reply = yield from call_or_none(self.client.call(
                Address(host, port), proto.NFS_PROGRAM, proto.NFS_V3,
                proto.PROC_COMMIT, proto.CommitArgs(intent.fh, 0, 0).encode(),
            ))
            finished = finished and reply is not None
        return finished

    def _repair_mirrors(self, intent: cp.Intent):
        """Make mirrors agree on [offset, offset+count): copy from the first
        replica that holds the range to every replica that does not."""
        end = intent.offset + intent.count
        stats = []
        for host, port in intent.sites:
            addr = Address(host, port)
            reply = yield from call_or_none(self.client.call(
                addr, ctrlproto.SLICE_CTRL_PROGRAM, ctrlproto.CTRL_V1,
                ctrlproto.CTRL_OBJ_STAT, ctrlproto.ObjArgs(intent.fh).encode(),
            ))
            stats.append((addr, None if reply is None
                          else ctrlproto.ObjStat.decode(reply[0])))
        finished = all(stat is not None for _addr, stat in stats)
        holders = [a for a, s in stats
                   if s is not None and s.exists and s.size >= end]
        if not holders:
            # No replica that answered completed: the client will retransmit.
            return finished
        copied = yield from copy_range(
            self.client, holders[0], [a for a, _s in stats if a not in holders],
            intent.fh, intent.offset, intent.count,
        )
        return finished and copied is not None

    def _finish_migration(self, intent: cp.Intent):
        """Finish a torn object migration: re-copy [offset, offset+count)
        from the old binding (``sites[0]``) to the new one (``sites[1]``).

        If the source has since discarded the object, the destination copy
        already landed (the rebalancer removes only after completion)."""
        if len(intent.sites) < 2:
            return True
        copied = yield from copy_range(
            self.client, Address(*intent.sites[0]), [Address(*intent.sites[1])],
            intent.fh, intent.offset, intent.count,
        )
        return copied is not None

    def _recover_intent(self, intent: cp.Intent):
        """Finish or repair an overdue or orphaned intention; it closes only
        if the run finished, else the next watchdog pass tries again."""
        self.recoveries += 1
        if self.tracer is not None:
            self.tracer.intent_recovered(intent.op_id, self.sim.now)
        if (yield from self._run_intent(intent)):
            self._record({"type": "complete", "op_id": intent.op_id})

    def _watchdog(self):
        while True:
            yield self.sim.timeout(self.params.probe_interval)
            if not self.host.up:
                continue
            now = self.sim.now
            overdue = [
                intent
                for intent, logged_at in self.pending.values()
                if now - logged_at > self.params.intent_timeout
            ]
            for intent in overdue:
                if intent.op_id in self.pending:
                    yield from self._recover_intent(intent)

    # -- crash / restart -----------------------------------------------------

    def crash(self) -> None:
        self.host.crash()
        self.log.crash()
        self.pending.clear()
        self.block_maps.clear()
        self.server.clear_duplicate_cache()

    def restart(self) -> None:
        """Rebuild ``pending`` and ``block_maps`` by playing the stable log,
        resume service, and run every intention the log left open."""
        self.pending.clear()
        self.block_maps.clear()
        for rec in self.log.stable_records():
            self._play(rec)
        self.host.restart()
        self.sim.process(self._recover_all(), name=f"coord-recover:{self.host.name}")

    def _recover_all(self):
        for intent, _logged_at in list(self.pending.values()):
            if intent.op_id in self.pending:
                yield from self._recover_intent(intent)
