"""RPC endpoints: client with retransmission, server with a duplicate-request
cache.

These are the end-to-end protocol actors the µproxy interposes between.  The
client matches replies by xid *and* source address — which is exactly why the
µproxy must rewrite reply sources back to the virtual server address, and the
reason a µproxy can discard its soft state without breaking correctness
(retransmission recovers, §2.1).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.net import Address, Host, Packet
from repro.util.bytesim import EMPTY, Data
from .messages import (
    GARBAGE_ARGS,
    SUCCESS,
    CallHeader,
    Credential,
    ReplyHeader,
)
from .xdr import Decoder, XdrError

__all__ = ["RpcClient", "RpcServer", "RpcTimeout", "RpcAcceptError"]


class RpcTimeout(Exception):
    """The call was retransmitted to exhaustion with no reply."""


class RpcAcceptError(Exception):
    """The server accepted the message but rejected the call."""

    def __init__(self, accept_stat: int):
        super().__init__(f"rpc accept_stat={accept_stat}")
        self.accept_stat = accept_stat


class _Pending:
    """One outstanding call: where its reply must come from, the event its
    current attempt waits on, and the reply once it came: its accept
    status, a decoder positioned at its results, and its body."""

    __slots__ = ("dst", "wake", "reply")

    def __init__(self, dst: Address):
        self.dst = dst
        self.wake = None
        self.reply: Optional[Tuple[int, Decoder, Data]] = None


def _expire(wake) -> None:
    """The retransmit timer: wake the attempt if nothing has yet."""
    if not wake.triggered:
        wake.succeed()


class RpcClient:
    """Originates calls from one (host, port) endpoint."""

    def __init__(
        self,
        host: Host,
        port: int,
        cred: Optional[Credential] = None,
        retrans_timeout: float = 0.7,
        backoff: float = 2.0,
        max_retrans_timeout: float = 8.0,
        jitter: float = 0.1,
        max_tries: int = 8,
        xid_seed: int = 0,
    ):
        """``max_retrans_timeout`` caps the exponential backoff so a
        flapping server cannot stretch retry intervals (and simulated
        time) without bound; ``jitter`` lengthens each wait by up to that
        fraction, drawn from this endpoint's own seeded RNG, so a fleet of
        clients does not retransmit in lockstep after a shared outage."""
        self.host = host
        self.port = port
        self.cred = cred
        self.retrans_timeout = retrans_timeout
        self.backoff = backoff
        self.max_retrans_timeout = max_retrans_timeout
        self.jitter = jitter
        self.max_tries = max_tries
        # Deterministic per-endpoint stream: jitter must not perturb (or be
        # perturbed by) any other randomness in the run.
        self._rng = random.Random(
            (xid_seed * 0x9E3779B1 + port * 31 + 7) & 0xFFFFFFFF
        )
        self._next_xid = (xid_seed * 2654435761 + 1) & 0xFFFFFFFF
        self._pending: Dict[int, _Pending] = {}
        self.retransmissions = 0
        self.calls_completed = 0
        self.replies_dropped = 0
        host.bind(port, self._on_packet)

    @property
    def address(self) -> Address:
        return self.host.address(self.port)

    def _on_packet(self, pkt: Packet) -> None:
        if len(pkt.header) < 4:
            return
        if not pkt.checksum_ok():
            return  # corrupt: treat as loss, retransmission recovers
        xid = int.from_bytes(pkt.header[:4], "big")
        pending = self._pending.get(xid)
        if pending is None:
            return  # late duplicate
        if pkt.src != pending.dst:
            return  # reply from an unexpected server: ignore
        dec = Decoder(pkt.header)
        try:
            accept_stat = ReplyHeader.decode(dec).accept_stat
        except XdrError:
            # Undecodable: a lost reply, the retransmission recovers.
            self.replies_dropped += 1
            return
        del self._pending[xid]
        pending.reply = (accept_stat, dec, pkt.body)
        if not pending.wake.triggered:
            pending.wake.succeed()

    def call(
        self,
        dst: Address,
        prog: int,
        vers: int,
        proc: int,
        args: bytes,
        body: Data = EMPTY,
        retrans_timeout: Optional[float] = None,
        max_tries: Optional[int] = None,
        trace_id: int = 0,
    ):
        """Generator: perform one RPC; returns (results Decoder, reply body).

        ``retrans_timeout``/``max_tries`` override the endpoint defaults for
        this call (e.g. commits legitimately take longer than reads).
        Raises :class:`RpcTimeout` after exhausting the retries and
        :class:`RpcAcceptError` on a non-SUCCESS accept status.
        """
        sim = self.host.sim
        xid = self._next_xid
        self._next_xid = (self._next_xid + 1) & 0xFFFFFFFF
        call_hdr = CallHeader(xid, prog, vers, proc, self.cred).encode()
        header = call_hdr.to_bytes() + args
        tries = max_tries if max_tries is not None else self.max_tries

        def fresh_packet() -> Packet:
            pkt = Packet(self.address, dst, header, body, trace_id=trace_id)
            if self.host.network.params.verify_checksums:
                pkt.fill_checksum()
            return pkt

        pending = self._pending[xid] = _Pending(dst)
        timeout = (
            retrans_timeout if retrans_timeout is not None
            else self.retrans_timeout
        )
        try:
            for attempt in range(tries):
                if attempt:
                    self.retransmissions += 1
                # One event per attempt: the reply or the retransmit timer,
                # whichever comes first, wakes it.
                wake = pending.wake = sim.event()
                self.host.send(fresh_packet())
                wait = min(timeout, self.max_retrans_timeout)
                if self.jitter:
                    wait *= 1.0 + self.jitter * self._rng.random()
                sim.call_at(sim.now + wait, _expire, wake)
                yield wake
                # A reply landing in the timer's instant still counts.
                if pending.reply is not None:
                    break
                timeout = min(timeout * self.backoff,
                              self.max_retrans_timeout)
            else:
                raise RpcTimeout(
                    f"xid={xid} to {dst} after {tries} tries"
                )
        finally:
            self._pending.pop(xid, None)
        accept_stat, dec, body = pending.reply
        if accept_stat != SUCCESS:
            raise RpcAcceptError(accept_stat)
        self.calls_completed += 1
        return dec, body


class RpcServer:
    """Serves one program on one (host, port) endpoint.

    A *service* is a generator function ``service(proc, dec, body, src)``
    that may yield simulation events (CPU, disk, nested RPCs) and returns
    ``(result_bytes, reply_body)``.

    The duplicate-request cache suppresses replays of non-idempotent
    operations under client retransmission: duplicates of in-progress
    requests are dropped; duplicates of completed requests get the cached
    reply.
    """

    DRC_CAPACITY = 2048
    _IN_PROGRESS = object()

    def __init__(self, host: Host, port: int):
        self.host = host
        self.port = port
        self.services: Dict[int, object] = {}
        self._drc: OrderedDict = OrderedDict()
        # (src, xid) keys whose service actually executed this boot epoch.
        # Only maintained while a tracer is attached: feeds the checker's
        # ``at-most-once`` invariant (a key must never execute twice within
        # one epoch — the DRC exists to prevent exactly that).
        self._executed: OrderedDict = OrderedDict()
        self.requests_handled = 0
        self.duplicates_dropped = 0
        self.duplicates_replayed = 0
        # Optional observability hookup (see repro.obs): when a tracer is
        # attached, handled requests are recorded as server-side spans.
        self.tracer = None
        self.trace_component = f"rpc:{host.name}:{port}"
        host.bind(port, self._on_packet)

    @property
    def address(self) -> Address:
        return self.host.address(self.port)

    def register(self, prog: int, service) -> None:
        self.services[prog] = service

    def counters(self) -> Dict[str, int]:
        """Cumulative request counts of this endpoint."""
        return {
            "requests_handled": self.requests_handled,
            "duplicates_dropped": self.duplicates_dropped,
            "duplicates_replayed": self.duplicates_replayed,
        }

    def clear_duplicate_cache(self) -> None:
        """Forget all cached replies (server reboot = new boot epoch)."""
        self._drc.clear()
        self._executed.clear()

    def _on_packet(self, pkt: Packet) -> None:
        if not pkt.checksum_ok():
            return
        self.host.sim.spawn(
            self._handle(pkt), name=f"rpc-srv:{self.host.name}"
        )

    def _handle(self, pkt: Packet):
        try:
            dec = Decoder(pkt.header)
            call = CallHeader.decode(dec)
        except Exception:
            return  # undecodable: drop
        key = (pkt.src, call.xid)
        cached = self._drc.get(key)
        if cached is self._IN_PROGRESS:
            self.duplicates_dropped += 1
            return
        if cached is not None:
            self.duplicates_replayed += 1
            header, body = cached
            self.host.send(
                self._reply_packet(pkt.src, header, body, pkt.trace_id)
            )
            return
        service = self.services.get(call.prog)
        if service is None:
            from .messages import PROG_UNAVAIL

            header = ReplyHeader(call.xid, PROG_UNAVAIL).encode().to_bytes()
            self.host.send(
                self._reply_packet(pkt.src, header, EMPTY, pkt.trace_id)
            )
            return
        self._drc_put(key, self._IN_PROGRESS)
        tracer = self.tracer
        span = None
        if tracer is not None:
            if key in self._executed:
                tracer.duplicate_execution(
                    self.trace_component, key, self.host.sim.now
                )
            else:
                self._executed[key] = True
                while len(self._executed) > 4 * self.DRC_CAPACITY:
                    self._executed.popitem(last=False)
            span = tracer.server_begin(
                self.trace_component, pkt.trace_id, call.proc,
                self.host.sim.now,
            )
        try:
            gen = service(call.proc, dec, pkt.body, pkt.src)
            if span is not None:
                # Latency anatomy: decompose the handle span's duration
                # into queue-wait vs. execution vs. sub-operations.
                result = yield from self._traced_service(gen, span)
            else:
                result = yield from gen
        except RpcAcceptError as exc:
            self._reject(pkt, call.xid, key, span, exc.accept_stat)
            return
        except XdrError:
            # Undecodable arguments (RFC 5531); the cached rejection also
            # answers retransmissions instead of dropping them.
            self._reject(pkt, call.xid, key, span, GARBAGE_ARGS)
            return
        if result is None:
            # Service chose to drop (e.g. simulated failure window): no
            # side effect happened, so a later re-execution is legitimate.
            self._drc.pop(key, None)
            self._executed.pop(key, None)
            if tracer is not None:
                tracer.server_end(span, self.host.sim.now, dropped=True)
            return
        result_bytes, reply_body = result
        header = ReplyHeader(call.xid).encode().to_bytes() + result_bytes
        self._drc_put(key, (header, reply_body))
        self.requests_handled += 1
        if tracer is not None:
            tracer.server_end(span, self.host.sim.now)
        self.host.send(
            self._reply_packet(pkt.src, header, reply_body, pkt.trace_id)
        )

    def _reject(self, pkt: Packet, xid: int, key, span,
                accept_stat: int) -> None:
        """Reply with a non-SUCCESS accept status and cache it."""
        header = ReplyHeader(xid, accept_stat).encode().to_bytes()
        self._drc_put(key, (header, EMPTY))
        if self.tracer is not None:
            self.tracer.server_end(span, self.host.sim.now,
                                   accept_stat=accept_stat)
        self.host.send(
            self._reply_packet(pkt.src, header, EMPTY, pkt.trace_id)
        )

    def _traced_service(self, gen, span):
        """Delegate to a service generator while decomposing its time.

        Generator chains built with ``yield from`` flatten to a single
        yield point, so *every* event the service (and anything it
        delegates to: WAL syncs, disk accesses, nested helpers) waits on
        passes through this trampoline.  The elapsed simulated time of
        each wait is classified by the event's type and accumulated onto
        the server handle span:

        - ``queue_s`` — waits for a :class:`~repro.sim.resources.Resource`
          grant (CPU core, disk arm, SCSI channel): pure queueing delay;
        - ``exec_s``  — :class:`~repro.sim.engine.Timeout` events: the
          modelled service time actually spent working;
        - ``subop_s`` — everything else (child processes, ``all_of``
          fan-outs, nested RPC replies): time inside sub-operations.

        The three always sum to the span's duration, which is what lets
        the critical-path analyzer (:mod:`repro.obs.anatomy`) split the
        server phase into queue-wait vs. service exactly.  Only active
        when a tracer is attached — the untraced path never builds this
        trampoline.
        """
        from repro.sim.engine import Timeout
        from repro.sim.resources import Request

        sim = self.host.sim
        queue_s = exec_s = subop_s = 0.0

        def classify(event, elapsed):
            nonlocal queue_s, exec_s, subop_s
            if isinstance(event, Request):
                queue_s += elapsed
            elif isinstance(event, Timeout):
                exec_s += elapsed
            else:
                subop_s += elapsed

        try:
            try:
                event = next(gen)
            except StopIteration as stop:
                return stop.value
            while True:
                before = sim.now
                try:
                    value = yield event
                except BaseException as exc:  # forwarded (e.g. Interrupt)
                    classify(event, sim.now - before)
                    try:
                        event = gen.throw(exc)
                    except StopIteration as stop:
                        return stop.value
                    continue
                classify(event, sim.now - before)
                try:
                    event = gen.send(value)
                except StopIteration as stop:
                    return stop.value
        finally:
            span.attrs["queue_s"] = queue_s
            span.attrs["exec_s"] = exec_s
            span.attrs["subop_s"] = subop_s

    def _drc_put(self, key, value) -> None:
        self._drc[key] = value
        self._drc.move_to_end(key)
        while len(self._drc) > self.DRC_CAPACITY:
            self._drc.popitem(last=False)

    def _reply_packet(self, dst: Address, header: bytes, body: Data,
                      trace_id: int = 0) -> Packet:
        pkt = Packet(self.address, dst, header, body, trace_id=trace_id)
        if self.host.network.params.verify_checksums:
            pkt.fill_checksum()
        return pkt
