"""End-to-end request tracing for the Slice ensemble.

A :class:`Tracer` observes every hop an NFS exchange takes through the
interposed architecture: the µproxy intercepting the client's CALL, the
route decision (mkdir-switch vs name-hash site, small-file vs bulk split,
mirror selection), packet rewrites with their differential checksum
adjustments, fabric delivery, server-side handling, and finally the
reply(ies) returned toward the client — plus the coordinator's intention
log lifecycle for multi-site operations.

Exchanges are keyed by ``(client address, rpc xid)`` — the same soft-state
key the µproxy itself uses — and every packet the µproxy touches is stamped
with a per-exchange ``trace_id`` so downstream components (the network, RPC
servers) can attribute their events without decoding anything.

Traces double as a *correctness oracle*: :class:`repro.obs.TraceChecker`
replays completed traces and asserts cross-site protocol invariants, so any
integration test or benchmark that attaches a tracer becomes a whole-system
correctness check.

Instrumentation is off by default.  Components accept ``tracer=None`` and
guard every call site with a single ``is not None`` test, keeping the
disabled cost well under the 2% budget on the µproxy CPU benchmark.
"""

from __future__ import annotations

import itertools
import weakref
from collections import Counter, OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.metrics.stats import LatencyRecorder

__all__ = ["Span", "ExchangeTrace", "Tracer", "all_tracers"]

# Tracers register themselves here (weakly) so session-level hooks — e.g.
# the benchmark conftest's metrics dump — can find whatever was created.
_ACTIVE: "List[weakref.ref]" = []


def all_tracers() -> List["Tracer"]:
    """Every live tracer created in this process."""
    alive = []
    dead = []
    for ref in _ACTIVE:
        tracer = ref()
        if tracer is None:
            dead.append(ref)
        else:
            alive.append(tracer)
    for ref in dead:
        _ACTIVE.remove(ref)
    return alive


class Span:
    """One node of an exchange's span tree.

    A span may be a point event (``end_ts is None`` never closed) or a
    duration (closed via :meth:`finish`).  ``attrs`` carries the route
    decision / rewrite / segment details the checker consumes.
    """

    __slots__ = ("span_id", "parent_id", "component", "name", "ts", "end_ts",
                 "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int],
                 component: str, name: str, ts: float, attrs: Dict):
        self.span_id = span_id
        self.parent_id = parent_id
        self.component = component
        self.name = name
        self.ts = ts
        self.end_ts: Optional[float] = None
        self.attrs = attrs

    def finish(self, ts: float, **attrs) -> "Span":
        self.end_ts = ts
        if attrs:
            self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        return (self.end_ts - self.ts) if self.end_ts is not None else 0.0

    def __repr__(self):
        extra = f" {self.attrs}" if self.attrs else ""
        return f"Span({self.component}/{self.name} @{self.ts:.6f}{extra})"


class ExchangeTrace:
    """All spans for one (client, xid) NFS exchange."""

    __slots__ = (
        "key", "trace_id", "proc", "spans", "n_calls", "n_replies",
        "splits", "rewrite_checks", "_root", "_current_call", "_span_ids",
    )

    def __init__(self, key, trace_id: int, ts: float):
        self.key = key
        self.trace_id = trace_id
        self.proc: Optional[int] = None
        self._span_ids = itertools.count(1)
        self._root = Span(0, None, "uproxy", "exchange", ts, {})
        self.spans: List[Span] = [self._root]
        self._current_call: Span = self._root
        self.n_calls = 0
        self.n_replies = 0
        # (kind, offset, count, [(seg_offset, seg_len), ...])
        self.splits: List[Tuple[str, int, int, List[Tuple[int, int]]]] = []
        # (where, incremental_cksum, recomputed_cksum)
        self.rewrite_checks: List[Tuple[str, int, int]] = []

    # -- span construction --------------------------------------------------

    def add(self, component: str, name: str, ts: float,
            parent: Optional[Span] = None, **attrs) -> Span:
        parent_span = parent if parent is not None else self._root
        span = Span(next(self._span_ids), parent_span.span_id,
                    component, name, ts, attrs)
        self.spans.append(span)
        return span

    def new_call(self, ts: float, **attrs) -> Span:
        self.n_calls += 1
        span = self.add("uproxy", "call", ts, **attrs)
        self._current_call = span
        return span

    @property
    def current_call(self) -> Span:
        return self._current_call

    @property
    def root(self) -> Span:
        return self._root

    # -- export -------------------------------------------------------------

    def tree(self) -> Dict:
        """Nested dict export of the span tree (children in arrival order)."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans[1:]:
            children.setdefault(span.parent_id, []).append(span)

        def node(span: Span) -> Dict:
            return {
                "component": span.component,
                "name": span.name,
                "ts": span.ts,
                "end_ts": span.end_ts,
                "attrs": dict(span.attrs),
                "children": [node(c) for c in children.get(span.span_id, [])],
            }

        return node(self._root)

    def format(self) -> str:
        """Indented human-readable dump (for failures and debugging)."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans[1:]:
            children.setdefault(span.parent_id, []).append(span)
        lines = [f"exchange key={self.key} tid={self.trace_id} "
                 f"calls={self.n_calls} replies={self.n_replies}"]

        def walk(span: Span, depth: int) -> None:
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            dur = f" dur={span.duration * 1e6:.1f}us" if span.end_ts else ""
            lines.append(
                "  " * depth
                + f"{span.component}/{span.name} @{span.ts:.6f}{dur}"
                + (f"  [{attrs}]" if attrs else "")
            )
            for child in children.get(span.span_id, []):
                walk(child, depth + 1)

        walk(self._root, 1)
        return "\n".join(lines)


# Intent lifecycle states.
INTENT_OPEN = "open"
INTENT_COMPLETED = "completed"
INTENT_RECOVERED = "recovered"


class Tracer:
    """Collects exchange traces, intent lifecycles, and the few counts that
    need trace context.

    Components count their own work (see their ``counters()`` methods);
    the tracer keeps only what a component cannot see: route reasons,
    absorptions and split kinds in :attr:`counts`, and per-component
    server handle times in :attr:`histograms`.

    One tracer per cluster.  All record methods are safe to call from any
    simulated process; nothing here yields or blocks.
    """

    #: Reservoir cap of every handle-time histogram: a tracer rides along
    #: on arbitrarily long chaos runs, so its latency histograms must be
    #: bounded (mean/max stay exact; see
    #: :class:`repro.metrics.stats.LatencyRecorder`).
    HISTOGRAM_RESERVOIR = 4096

    def __init__(self, capacity: int = 1 << 18):
        self.capacity = capacity
        #: ``"uproxy.route.<reason>"``, ``"uproxy.absorb.<what>"`` and
        #: ``"uproxy.split.<kind>"`` -> count.
        self.counts: Counter = Counter()
        #: ``"<component>.handle_s"`` -> server handle-time recorder.
        self.histograms: Dict[str, LatencyRecorder] = {}
        self.exchanges: "OrderedDict[Tuple, ExchangeTrace]" = OrderedDict()
        self._by_tid: Dict[int, Tuple] = {}
        self._tid_counter = itertools.count(1)
        self.evicted = 0
        # op_id -> (state, kind)
        self.intents: Dict[int, Tuple[str, int]] = {}
        # op_id -> [t_logged, t_closed or None] — the coordinator
        # intent-hold durations the latency-anatomy layer reports.
        self.intent_times: Dict[int, List[Optional[float]]] = {}
        # Maintained incrementally so telemetry gauges can read the number
        # of outstanding intents in O(1) on every sampling tick.
        self.open_intent_count = 0
        # Packets whose full-recompute checksum failed at delivery.
        self.checksum_failures: List[str] = []
        self.packets_checked = 0
        # WAL crash ledger: (log_name, stable_before, survivors, appended,
        # ts) per crash — the wal-prefix invariant's input.
        self.wal_crashes: List[Tuple[str, int, int, int, float]] = []
        # (component, key, ts) whenever an RPC server executed the same
        # (client, xid) twice within one boot epoch — the at-most-once
        # invariant's input (should always stay empty).
        self.duplicate_executions: List[Tuple[str, Tuple, float]] = []
        # Injected faults, in order: (ts, name, attrs) — part of the run's
        # deterministic digest, so two runs agree on the adversary too.
        self.faults_injected: List[Tuple[float, str, Tuple]] = []
        # -- reconfiguration ledgers (see repro.reconfig) -------------------
        # Epochs installed at the config service, in install order:
        # (ts, epoch, moves) — the reconfig-epoch-monotonic invariant's
        # input (epochs must be strictly increasing).
        self.epochs_installed: List[Tuple[float, int, Tuple]] = []
        # (object_id_hex, site) -> state — every unit the rebalancer starts
        # must finish (no-lost-write-across-rebind).
        self.migrations: Dict[Tuple[str, int], str] = {}
        # Writes a data server accepted for a site it had already
        # relinquished: must stay empty (no-lost-write-across-rebind).
        self.stale_writes: List[Tuple[str, str, int, float]] = []
        _ACTIVE.append(weakref.ref(self))

    # ------------------------------------------------------------------
    # exchange bookkeeping (µproxy side)
    # ------------------------------------------------------------------

    @staticmethod
    def _key(client, xid: int) -> Tuple:
        return (client, xid)

    def exchange(self, client, xid: int) -> Optional[ExchangeTrace]:
        return self.exchanges.get(self._key(client, xid))

    def trace_id_of(self, client, xid: int) -> int:
        exchange = self.exchanges.get(self._key(client, xid))
        return exchange.trace_id if exchange is not None else 0

    def _get_or_create(self, client, xid: int, ts: float) -> ExchangeTrace:
        key = self._key(client, xid)
        exchange = self.exchanges.get(key)
        if exchange is None:
            exchange = ExchangeTrace(key, next(self._tid_counter), ts)
            self.exchanges[key] = exchange
            self._by_tid[exchange.trace_id] = key
            while len(self.exchanges) > self.capacity:
                _old_key, old = self.exchanges.popitem(last=False)
                self._by_tid.pop(old.trace_id, None)
                self.evicted += 1
        return exchange

    def call_intercepted(self, client, xid: int, proc: int, ts: float,
                         size: int = 0) -> int:
        """The µproxy intercepted a client CALL; returns the trace id to
        stamp onto the packet."""
        exchange = self._get_or_create(client, xid, ts)
        exchange.proc = proc
        exchange.new_call(ts, proc=proc, size=size)
        return exchange.trace_id

    def route(self, client, xid: int, ts: float, dst, reason: str,
              site: Optional[int] = None, **attrs) -> None:
        """Route decision: where this request is being redirected and why."""
        exchange = self.exchanges.get(self._key(client, xid))
        if exchange is None:
            return
        if site is not None:
            attrs["site"] = site
        exchange.add("uproxy", "route", ts, parent=exchange.current_call,
                     dst=str(dst), reason=reason, **attrs)
        self.counts["uproxy.route." + reason] += 1

    def absorb(self, client, xid: int, ts: float, what: str, **attrs) -> None:
        """The µproxy absorbed the request (it will synthesize the reply)."""
        exchange = self.exchanges.get(self._key(client, xid))
        if exchange is None:
            return
        exchange.add("uproxy", "absorb", ts, parent=exchange.current_call,
                     what=what, **attrs)
        self.counts["uproxy.absorb." + what] += 1

    def split(self, client, xid: int, ts: float, kind: str, offset: int,
              count: int, segments: List[Tuple[int, int]]) -> Optional[Span]:
        """A straddling READ/WRITE was split into per-owner segments."""
        exchange = self.exchanges.get(self._key(client, xid))
        if exchange is None:
            return None
        segs = [(int(off), int(length)) for off, length in segments]
        exchange.splits.append((kind, offset, count, segs))
        span = exchange.add(
            "uproxy", "split", ts, parent=exchange.current_call,
            kind=kind, offset=offset, count=count, segments=len(segs),
        )
        self.counts["uproxy.split." + kind] += 1
        return span

    def segment(self, client, xid: int, ts: float, offset: int, length: int,
                target, status: int, parent: Optional[Span] = None) -> None:
        """One scattered segment of a split I/O completed."""
        exchange = self.exchanges.get(self._key(client, xid))
        if exchange is None:
            return
        exchange.add("uproxy", "segment", ts, parent=parent,
                     offset=offset, length=length, target=str(target),
                     status=status)

    def reply_sent(self, client, xid: int, ts: float,
                   synthesized: bool = False, **attrs) -> None:
        """A reply left the µproxy toward the original client."""
        exchange = self.exchanges.get(self._key(client, xid))
        if exchange is None:
            return
        exchange.n_replies += 1
        exchange.add("uproxy", "reply", ts, synthesized=synthesized, **attrs)
        if exchange.root.end_ts is None:
            exchange.root.finish(ts)

    def misdirected(self, client, xid: int, ts: float) -> None:
        exchange = self.exchanges.get(self._key(client, xid))
        if exchange is not None:
            exchange.add("uproxy", "misdirected", ts,
                         parent=exchange.current_call)

    def rewrite_check(self, pkt, where: str) -> None:
        """Record a rewritten packet's incremental checksum next to a full
        recomputation — the checker asserts they agree."""
        if pkt.cksum is None:
            return
        key = self._by_tid.get(pkt.trace_id)
        if key is None:
            return
        exchange = self.exchanges.get(key)
        if exchange is None:
            return
        exchange.rewrite_checks.append(
            (where, pkt.cksum, pkt.compute_checksum())
        )

    # ------------------------------------------------------------------
    # network side
    # ------------------------------------------------------------------

    def packet_delivered(self, pkt, ts: float) -> None:
        self.packets_checked += 1
        if pkt.cksum is not None and not pkt.checksum_ok():
            self.checksum_failures.append(
                f"{pkt!r} cksum={pkt.cksum:#06x} "
                f"recomputed={pkt.compute_checksum():#06x}"
            )
        key = self._by_tid.get(pkt.trace_id)
        if key is not None:
            exchange = self.exchanges.get(key)
            if exchange is not None:
                exchange.add("net", "deliver", ts,
                             src=str(pkt.src), dst=str(pkt.dst),
                             size=pkt.size)

    def packet_dropped(self, pkt, ts: float, reason: str = "fault") -> None:
        key = self._by_tid.get(pkt.trace_id)
        if key is not None:
            exchange = self.exchanges.get(key)
            if exchange is not None:
                exchange.add("net", "drop", ts, dst=str(pkt.dst),
                             reason=reason)

    # ------------------------------------------------------------------
    # RPC server side
    # ------------------------------------------------------------------

    def server_begin(self, component: str, trace_id: int, proc: int,
                     ts: float) -> Optional[Span]:
        key = self._by_tid.get(trace_id)
        if key is None:
            return None
        exchange = self.exchanges.get(key)
        if exchange is None:
            return None
        return exchange.add(component, "handle", ts, proc=proc)

    def server_end(self, span: Optional[Span], ts: float, **attrs) -> None:
        if span is None:
            return
        span.finish(ts, **attrs)
        key = span.component + ".handle_s"
        hist = self.histograms.get(key)
        if hist is None:
            hist = LatencyRecorder(key, reservoir=self.HISTOGRAM_RESERVOIR)
            self.histograms[key] = hist
        hist.record(span.duration)

    # ------------------------------------------------------------------
    # coordinator intention-log lifecycle
    # ------------------------------------------------------------------

    def intent_logged(self, op_id: int, kind: int, ts: float) -> None:
        prev = self.intents.get(op_id)
        if prev is None or prev[0] != INTENT_OPEN:
            self.open_intent_count += 1
        self.intents[op_id] = (INTENT_OPEN, kind)
        times = self.intent_times.get(op_id)
        if times is None:
            self.intent_times[op_id] = [ts, None]
        else:
            times[1] = None  # replay re-opened it: hold extends

    def _close_intent(self, op_id: int, state: str, ts: float) -> None:
        prev = self.intents.get(op_id)
        kind = prev[1] if prev is not None else -1
        if prev is not None and prev[0] == INTENT_OPEN:
            self.open_intent_count -= 1
        self.intents[op_id] = (state, kind)
        times = self.intent_times.get(op_id)
        if times is None:
            self.intent_times[op_id] = [ts, ts]
        elif times[1] is None:
            times[1] = ts

    def intent_completed(self, op_id: int, ts: float) -> None:
        self._close_intent(op_id, INTENT_COMPLETED, ts)

    def intent_recovered(self, op_id: int, ts: float) -> None:
        self._close_intent(op_id, INTENT_RECOVERED, ts)

    def open_intents(self) -> List[int]:
        return [op_id for op_id, (state, _k) in self.intents.items()
                if state == INTENT_OPEN]

    # ------------------------------------------------------------------
    # fault injection & durability (see repro.faults)
    # ------------------------------------------------------------------

    def fault_injected(self, name: str, ts: float, **attrs) -> None:
        """A chaos-engine fault fired (drop/dup/reorder/crash/...)."""
        self.faults_injected.append(
            (ts, name, tuple(sorted(attrs.items())))
        )

    def wal_crash(self, log_name: str, stable_before: int, survivors: int,
                  appended: int, ts: float) -> None:
        """A write-ahead log crashed: record the stable/survivor/appended
        counts so the checker can assert prefix consistency."""
        self.wal_crashes.append(
            (log_name, stable_before, survivors, appended, ts)
        )

    def duplicate_execution(self, component: str, key, ts: float) -> None:
        """An RPC server ran the same (client, xid) twice in one boot epoch
        — a violation of at-most-once execution the checker will flag."""
        self.duplicate_executions.append((component, key, ts))

    # ------------------------------------------------------------------
    # reconfiguration lifecycle (see repro.reconfig)
    # ------------------------------------------------------------------

    def rebind_installed(self, epoch: int, ts: float = 0.0,
                         moves=()) -> None:
        """The config service installed a new binding generation."""
        self.epochs_installed.append((ts, epoch, tuple(moves)))

    def migration_started(self, object_id: bytes, site: int, src, dst,
                          ts: float) -> None:
        """The rebalancer began moving one (object, site) placement."""
        self.migrations[(object_id.hex(), site)] = "open"

    def migration_finished(self, object_id: bytes, site: int,
                           ts: float) -> None:
        """One (object, site) placement finished moving."""
        self.migrations[(object_id.hex(), site)] = "done"

    def stale_write_accepted(self, component: str, object_id: bytes,
                             site: int, ts: float) -> None:
        """A data server served a WRITE for a site it no longer hosts —
        that write is stranded on a server the routing tables no longer
        name, i.e. a lost write.  Must never happen."""
        self.stale_writes.append((component, object_id.hex(), site, ts))

    def open_migrations(self) -> List[Tuple[str, int]]:
        return [unit for unit, state in self.migrations.items()
                if state == "open"]

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def digest(self) -> str:
        """Deterministic hex digest of everything this tracer observed.

        Two runs of the same workload under the same
        :class:`~repro.faults.plan.FaultPlan` seed must produce identical
        digests — the chaos suite's determinism oracle.  The digest covers
        the complete span record (components, names, timestamps,
        attributes), every injected fault, the intent lifecycle, and the
        WAL crash ledger.
        """
        import hashlib

        h = hashlib.sha256()

        def feed(*parts) -> None:
            for part in parts:
                h.update(repr(part).encode())
                h.update(b"\x1f")

        for key, exchange in self.exchanges.items():
            feed("exchange", str(key), exchange.trace_id, exchange.proc,
                 exchange.n_calls, exchange.n_replies)
            for span in exchange.spans:
                feed(span.component, span.name, span.ts, span.end_ts,
                     sorted(span.attrs.items(), key=lambda kv: kv[0]))
            feed(exchange.splits)
            feed(exchange.rewrite_checks)
        for op_id, (state, kind) in self.intents.items():
            feed("intent", op_id, state, kind)
        for entry in self.wal_crashes:
            feed("wal", entry)
        for entry in self.faults_injected:
            feed("fault", entry)
        for entry in self.duplicate_executions:
            feed("dupexec", entry[0], str(entry[1]), entry[2])
        for entry in self.epochs_installed:
            feed("epoch", entry)
        for unit, state in self.migrations.items():
            feed("migration", unit, state)
        for entry in self.stale_writes:
            feed("stalewrite", entry)
        feed("cksum", self.packets_checked, len(self.checksum_failures))
        return h.hexdigest()

    def summary(self) -> Dict[str, int]:
        return {
            "exchanges": len(self.exchanges),
            "calls": sum(e.n_calls for e in self.exchanges.values()),
            "replies": sum(e.n_replies for e in self.exchanges.values()),
            "splits": sum(len(e.splits) for e in self.exchanges.values()),
            "rewrites_checked": sum(
                len(e.rewrite_checks) for e in self.exchanges.values()
            ),
            "intents": len(self.intents),
            "open_intents": len(self.open_intents()),
            "packets_checked": self.packets_checked,
            "checksum_failures": len(self.checksum_failures),
            "evicted": self.evicted,
            "epochs_installed": len(self.epochs_installed),
            "migrations": len(self.migrations),
            "open_migrations": len(self.open_migrations()),
            "stale_writes": len(self.stale_writes),
        }
