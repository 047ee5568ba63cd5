"""Latency anatomy: critical-path decomposition of exchange span trees.

The tracer (:mod:`repro.obs.trace`) records *that* an NFS exchange touched
the µproxy, the fabric, and some set of servers; this module answers *where
the time went*.  :func:`analyze_exchange` sweeps one exchange's span tree
and splits its end-to-end latency into named phases that **tile** the
interval exactly — every simulated nanosecond between the client call's
interception and the reply is attributed to exactly one phase:

``uproxy.route``
    packet interception, RPC/NFS decode, the routing decision, and the
    address rewrite at the µproxy (Table 3's per-packet CPU cost, now per
    exchange);
``uproxy.absorb``
    µproxy-side work after a call was absorbed (synthesized replies,
    commit fan-out orchestration, readdir chaining);
``fabric.request`` / ``fabric.reply``
    the redirected packet's store-and-forward journey across the switched
    LAN, outbound and inbound;
``server.queue`` / ``server.exec`` / ``server.subop``
    the server handle span, split by the RPC endpoint's traced-service
    trampoline into resource queue-wait, modelled execution time, and
    sub-operation time (disk fills, prefetch fans, nested RPCs);
``coord.intent``
    coordinator handle time (intention logging / completion) on the
    exchange's critical path;
``uproxy.reply``
    reply masquerading, attribute patching, and verifier rewriting;
``wait.retry``
    dead air after a drop, a misdirected reply, or an extra reply — the
    client's retransmission windows.

Aggregation lives in :class:`AnatomyReport`: a per-NFS-proc breakdown
table (count, mean latency, per-phase means and fractions), a bounded
top-K slow-request log with rendered span trees, and the coordinator
intent-hold distribution.  Everything exports as plain dicts
(:meth:`AnatomyReport.to_dict`) for the JSON sidecars and renders through
the benchmark table formatter (:meth:`AnatomyReport.format_tables`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.metrics.report import format_table
from repro.nfs.proto import PROCS

__all__ = [
    "PHASES",
    "ExchangeAnatomy",
    "AnatomyReport",
    "analyze_exchange",
    "analyze",
]

# Phase names in presentation order.
PHASES = [
    "uproxy.route",
    "uproxy.absorb",
    "fabric.request",
    "server.queue",
    "server.exec",
    "server.subop",
    "coord.intent",
    "fabric.reply",
    "uproxy.reply",
    "wait.retry",
]

# Point-marker kinds -> the phase that *follows* the marker.
_MARKER_STATE = {
    "call": "uproxy.route",
    "route": "fabric.request",
    "split": "fabric.request",
    "absorb": "uproxy.absorb",
    "misdirected": "wait.retry",
    "drop": "wait.retry",
    "reply": "wait.retry",  # exchange continued past a reply: a retry window
    "handle_end": "fabric.reply",
    "deliver_server": "server.queue",
    "deliver_client": "uproxy.reply",
}


def _host_of(addr) -> Optional[str]:
    """Host name of an address-ish value (Address or "host:port" string)."""
    host = getattr(addr, "host", None)
    if host is not None:
        return host
    if isinstance(addr, str):
        return addr.rsplit(":", 1)[0]
    return None


class ExchangeAnatomy:
    """One exchange's critical-path decomposition."""

    __slots__ = ("key", "trace_id", "proc", "start", "end", "phases",
                 "n_calls", "n_replies")

    def __init__(self, key, trace_id: int, proc: Optional[int],
                 start: float, end: float, phases: Dict[str, float],
                 n_calls: int, n_replies: int):
        self.key = key
        self.trace_id = trace_id
        self.proc = proc
        self.start = start
        self.end = end
        self.phases = phases
        self.n_calls = n_calls
        self.n_replies = n_replies

    @property
    def total(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {
            "trace_id": self.trace_id,
            "proc": self.proc,
            "start": self.start,
            "end": self.end,
            "total_s": self.total,
            "phases": {k: v for k, v in self.phases.items() if v > 0.0},
        }


def analyze_exchange(exchange) -> Optional["ExchangeAnatomy"]:
    """Decompose one :class:`~repro.obs.trace.ExchangeTrace`.

    Returns None for exchanges that never completed (no reply closed the
    root span) — there is no end-to-end latency to decompose.
    """
    root = exchange.root
    if root.end_ts is None:
        return None
    start, end = root.ts, root.end_ts
    if end <= start:
        return None
    client_host = _host_of(exchange.key[0]) if exchange.key else None

    # -- collect interval claims (server handle spans) and point markers ----
    claims: List[Tuple[float, float, bool, object]] = []  # (t0, t1, is_coord, span)
    markers: List[Tuple[float, int, str]] = []  # (ts, tiebreak, kind)
    seq = 0
    for span in exchange.spans[1:]:
        comp, name = span.component, span.name
        if name == "handle" and comp != "uproxy":
            t0 = max(start, span.ts)
            t1 = min(end, span.end_ts if span.end_ts is not None else end)
            if t1 > t0:
                claims.append((t0, t1, comp.startswith("coord"), span))
                markers.append((t1, seq, "handle_end"))
                seq += 1
            continue
        kind = None
        if comp == "uproxy":
            if name in ("call", "route", "split", "absorb", "misdirected",
                        "reply"):
                kind = name
        elif comp == "net":
            if name == "deliver":
                dst_host = _host_of(span.attrs.get("dst"))
                kind = (
                    "deliver_client"
                    if client_host is not None and dst_host == client_host
                    else "deliver_server"
                )
            elif name == "drop":
                kind = "drop"
        if kind is not None and start <= span.ts <= end:
            markers.append((span.ts, seq, kind))
            seq += 1

    # -- sweep ---------------------------------------------------------------
    boundaries = sorted(
        {start, end}
        | {ts for ts, _s, _k in markers}
        | {t for t0, t1, _c, _s in claims for t in (t0, t1)}
    )
    markers.sort()
    phases = {name: 0.0 for name in PHASES}
    state = "uproxy.route"  # before the first marker (== the call itself)
    marker_idx = 0
    server_spans = set()  # claimed non-coord spans on the critical path
    for i in range(len(boundaries) - 1):
        t0, t1 = boundaries[i], boundaries[i + 1]
        # Advance the marker state machine through markers at or before t0.
        while marker_idx < len(markers) and markers[marker_idx][0] <= t0:
            state = _MARKER_STATE[markers[marker_idx][2]]
            marker_idx += 1
        dt = t1 - t0
        if dt <= 0:
            continue
        active_server = [c for c in claims if c[0] <= t0 and c[1] >= t1 and not c[2]]
        active_coord = [c for c in claims if c[0] <= t0 and c[1] >= t1 and c[2]]
        if active_server:
            phases["_server"] = phases.get("_server", 0.0) + dt
            for claim in active_server:
                server_spans.add(id(claim[3]))
        elif active_coord:
            phases["coord.intent"] += dt
        else:
            phases[state] += dt

    # -- split the server interval into queue / exec / subop -----------------
    server_total = phases.pop("_server", 0.0)
    if server_total > 0.0:
        queue = execd = subop = 0.0
        for t0, t1, is_coord, span in claims:
            if is_coord or id(span) not in server_spans:
                continue
            queue += float(span.attrs.get("queue_s", 0.0))
            execd += float(span.attrs.get("exec_s", 0.0))
            subop += float(span.attrs.get("subop_s", 0.0))
        attr_total = queue + execd + subop
        if attr_total > 0.0:
            # Scale to the critical-path interval so the phases still tile
            # exactly even when handle spans overlap (split fan-outs).
            factor = server_total / attr_total
            phases["server.queue"] += queue * factor
            phases["server.exec"] += execd * factor
            phases["server.subop"] += subop * factor
        else:
            phases["server.exec"] += server_total

    return ExchangeAnatomy(
        exchange.key, exchange.trace_id, exchange.proc, start, end, phases,
        exchange.n_calls, exchange.n_replies,
    )


class AnatomyReport:
    """Aggregated critical-path breakdown for a whole traced run."""

    def __init__(self, top_k: int = 8):
        self.top_k = top_k
        self.exchanges_seen = 0
        self.incomplete = 0
        # proc -> [count, total_s, {phase: seconds}]
        self.by_proc: Dict[Optional[int], List] = {}
        # bounded min-heap of (total, trace_id, proc, rendered tree)
        self._slow: List[Tuple[float, int, Optional[int], str]] = []
        self.intent_holds: List[float] = []
        self.open_intents = 0

    # -- accumulation --------------------------------------------------------

    def add(self, exchange, anatomy: Optional[ExchangeAnatomy]) -> None:
        self.exchanges_seen += 1
        if anatomy is None:
            self.incomplete += 1
            return
        bucket = self.by_proc.get(anatomy.proc)
        if bucket is None:
            bucket = [0, 0.0, {name: 0.0 for name in PHASES}]
            self.by_proc[anatomy.proc] = bucket
        bucket[0] += 1
        bucket[1] += anatomy.total
        for name, seconds in anatomy.phases.items():
            bucket[2][name] += seconds
        entry = (anatomy.total, anatomy.trace_id, anatomy.proc, exchange)
        if len(self._slow) < self.top_k:
            heapq.heappush(
                self._slow, entry[:3] + (exchange.format(),)
            )
        elif entry[0] > self._slow[0][0]:
            heapq.heapreplace(
                self._slow, entry[:3] + (exchange.format(),)
            )

    # -- views ---------------------------------------------------------------

    @property
    def slow_requests(self) -> List[Tuple[float, int, Optional[int], str]]:
        """Top-K slowest exchanges, slowest first: (total_s, trace_id,
        proc, rendered span tree)."""
        return sorted(self._slow, reverse=True)

    def phase_totals(self) -> Dict[str, float]:
        totals = {name: 0.0 for name in PHASES}
        for _count, _total, by_phase in self.by_proc.values():
            for name, seconds in by_phase.items():
                totals[name] += seconds
        return totals

    def _proc_name(self, proc: Optional[int]) -> str:
        if proc is None:
            return "?"
        return PROCS[proc].name if proc < len(PROCS) else str(proc)

    def to_dict(self) -> Dict:
        procs = {}
        for proc, (count, total, by_phase) in self.by_proc.items():
            procs[self._proc_name(proc)] = {
                "count": count,
                "mean_s": total / count if count else 0.0,
                "total_s": total,
                "phases": {
                    name: seconds for name, seconds in by_phase.items()
                    if seconds > 0.0
                },
            }
        holds = sorted(self.intent_holds)
        return {
            "exchanges": self.exchanges_seen,
            "incomplete": self.incomplete,
            "phase_totals": {
                name: seconds
                for name, seconds in self.phase_totals().items()
                if seconds > 0.0
            },
            "by_proc": procs,
            "slow_requests": [
                {
                    "total_s": total,
                    "trace_id": trace_id,
                    "proc": self._proc_name(proc),
                    "tree": tree,
                }
                for total, trace_id, proc, tree in self.slow_requests
            ],
            "intent_holds": {
                "n": len(holds),
                "open": self.open_intents,
                "mean_s": sum(holds) / len(holds) if holds else 0.0,
                "max_s": holds[-1] if holds else 0.0,
            },
        }

    def format_tables(self) -> str:
        """Render the per-proc breakdown through the benchmark formatter."""
        parts = []
        totals = self.phase_totals()
        grand = sum(totals.values())
        if grand > 0.0:
            parts.append(format_table(
                ["phase", "seconds", "share"],
                [
                    (name, f"{seconds * 1e3:.3f}ms",
                     f"{seconds / grand * 100:5.1f}%")
                    for name, seconds in totals.items() if seconds > 0.0
                ],
                title=(
                    f"Critical-path anatomy "
                    f"({self.exchanges_seen - self.incomplete} exchanges, "
                    f"{self.incomplete} incomplete)"
                ),
            ))
        rows = []
        for proc in sorted(self.by_proc, key=lambda p: -self.by_proc[p][1]):
            count, total, by_phase = self.by_proc[proc]
            mean = total / count if count else 0.0
            top = sorted(by_phase.items(), key=lambda kv: -kv[1])[:3]
            dominant = " ".join(
                f"{name}={seconds / total * 100:.0f}%"
                for name, seconds in top if seconds > 0.0 and total > 0.0
            )
            rows.append((
                self._proc_name(proc), count, f"{mean * 1e6:.1f}us",
                dominant or "-",
            ))
        if rows:
            parts.append(format_table(
                ["proc", "n", "mean latency", "dominant phases"], rows,
            ))
        if self.intent_holds:
            holds = sorted(self.intent_holds)
            parts.append(format_table(
                ["intents", "open", "mean hold", "max hold"],
                [(
                    len(holds), self.open_intents,
                    f"{sum(holds) / len(holds) * 1e3:.3f}ms",
                    f"{holds[-1] * 1e3:.3f}ms",
                )],
            ))
        if self._slow:
            lines = [f"-- top {len(self._slow)} slowest exchanges --"]
            for total, trace_id, proc, tree in self.slow_requests:
                lines.append(
                    f"[{total * 1e3:.3f} ms] proc={self._proc_name(proc)} "
                    f"tid={trace_id}"
                )
                lines.extend("    " + line for line in tree.splitlines())
            parts.append("\n".join(lines))
        if not parts:
            return "(no completed exchanges)"
        return "\n".join(parts)


def analyze(tracer, top_k: int = 8) -> AnatomyReport:
    """Run the critical-path analyzer over every exchange a tracer holds."""
    report = AnatomyReport(top_k=top_k)
    for exchange in tracer.exchanges.values():
        report.add(exchange, analyze_exchange(exchange))
    for op_id, times in tracer.intent_times.items():
        opened, closed = times[0], times[1]
        if opened is None:
            continue
        if closed is None:
            report.open_intents += 1
        else:
            report.intent_holds.append(max(0.0, closed - opened))
    return report
