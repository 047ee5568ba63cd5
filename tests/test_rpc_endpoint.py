"""Tests for RPC client/server endpoints: retransmission, duplicate
suppression, checksum validation, loss recovery."""

import pytest

from repro.faults import FaultInjector, FaultPlan, PacketFaultRule
from repro.net import NetParams, Network, Packet
from repro.rpc import Decoder, Encoder, RpcAcceptError, RpcClient, RpcServer, RpcTimeout
from repro.rpc.messages import GARBAGE_ARGS, ReplyHeader
from repro.sim import Simulator
from repro.util.bytesim import EMPTY, RealData

from drops import DropWhen

PROG = 200100


def build():
    sim = Simulator()
    net = Network(sim, NetParams())
    client_host = net.add_host("client")
    server_host = net.add_host("server")
    client = RpcClient(client_host, 700)
    server = RpcServer(server_host, 2049)
    return sim, net, client, server, server_host


def blackout():
    """A fault plan that loses every packet."""
    return FaultInjector(FaultPlan(packet_faults=[PacketFaultRule(loss=1.0)]))


def echo_service(proc, dec, body, src):
    """Echo the u32 argument times two; echoes body too."""
    value = dec.u32()
    yield from ()  # no simulated work
    return Encoder().u32(value * 2).to_bytes(), body


def test_basic_call():
    sim, net, client, server, _h = build()
    server.register(PROG, echo_service)

    def run():
        dec, body = yield from client.call(
            server.address, PROG, 1, 0, Encoder().u32(21).to_bytes()
        )
        return dec.u32(), body.to_bytes()

    value, body = sim.run_process(run())
    assert value == 42
    assert body == b""
    assert client.retransmissions == 0


def test_call_with_body_both_ways():
    sim, net, client, server, _h = build()
    server.register(PROG, echo_service)

    def run():
        dec, body = yield from client.call(
            server.address, PROG, 1, 0,
            Encoder().u32(1).to_bytes(), RealData(b"bulk payload"),
        )
        return body.to_bytes()

    assert sim.run_process(run()) == b"bulk payload"


def test_retransmission_on_loss():
    sim, net, client, server, _h = build()
    server.register(PROG, echo_service)
    dropped = [0]

    def drop_first_two(pkt):
        if dropped[0] < 2:
            dropped[0] += 1
            return True
        return False

    net.fault_injector = DropWhen(drop_first_two)

    def run():
        dec, _ = yield from client.call(
            server.address, PROG, 1, 0, Encoder().u32(5).to_bytes()
        )
        return dec.u32()

    assert sim.run_process(run()) == 10
    assert client.retransmissions == 2


def test_undecodable_arguments_get_garbage_args():
    """An argument decode that raises XdrError is answered GARBAGE_ARGS
    (RFC 5531); the answer is cached, so a retransmission replays it
    instead of being dropped as a duplicate of a call still in progress."""
    sim, net, client, server, _h = build()
    server.register(PROG, echo_service)
    state = {"dropped": 0}

    def drop_first_reply(pkt):
        if pkt.src.host == "server" and state["dropped"] < 1:
            state["dropped"] += 1
            return True
        return False

    net.fault_injector = DropWhen(drop_first_reply)
    client.max_tries = 3

    def run():
        try:
            yield from client.call(server.address, PROG, 1, 0, b"")
        except RpcAcceptError as exc:
            return exc.accept_stat
        return None

    assert sim.run_process(run()) == GARBAGE_ARGS
    assert client.retransmissions == 1
    assert server.duplicates_replayed == 1
    assert server.duplicates_dropped == 0


def test_timeout_after_max_tries():
    sim, net, client, server, _h = build()
    server.register(PROG, echo_service)
    net.fault_injector = blackout()
    client.max_tries = 3

    def run():
        try:
            yield from client.call(
                server.address, PROG, 1, 0, Encoder().u32(5).to_bytes()
            )
        except RpcTimeout:
            return "timed out"
        return "unexpected"

    assert sim.run_process(run()) == "timed out"


def test_duplicate_requests_not_reexecuted():
    """Drop replies so the client retransmits; the side effect must happen
    exactly once (DRC replays the cached reply)."""
    sim, net, client, server, _h = build()
    executions = [0]

    def counting_service(proc, dec, body, src):
        executions[0] += 1
        yield sim.timeout(0.01)
        return Encoder().u32(executions[0]).to_bytes(), EMPTY

    server.register(PROG, counting_service)
    state = {"dropped": 0}

    def drop_first_reply(pkt):
        # Replies come from the server host.
        if pkt.src.host == "server" and state["dropped"] < 1:
            state["dropped"] += 1
            return True
        return False

    net.fault_injector = DropWhen(drop_first_reply)

    def run():
        dec, _ = yield from client.call(
            server.address, PROG, 1, 0, Encoder().u32(0).to_bytes()
        )
        return dec.u32()

    assert sim.run_process(run()) == 1
    assert executions[0] == 1
    assert server.duplicates_replayed == 1


def test_duplicate_while_in_progress_dropped():
    sim, net, client, server, _h = build()
    executions = [0]

    def slow_service(proc, dec, body, src):
        executions[0] += 1
        yield sim.timeout(2.0)  # longer than retransmit timer
        return Encoder().u32(7).to_bytes(), EMPTY

    server.register(PROG, slow_service)

    def run():
        dec, _ = yield from client.call(
            server.address, PROG, 1, 0, b""
        )
        return dec.u32()

    assert sim.run_process(run()) == 7
    assert executions[0] == 1
    assert server.duplicates_dropped >= 1


def test_unknown_program_raises_accept_error():
    sim, net, client, server, _h = build()

    def run():
        try:
            yield from client.call(server.address, 999, 1, 0, b"")
        except RpcAcceptError as exc:
            return exc.accept_stat
        return None

    assert sim.run_process(run()) == 1  # PROG_UNAVAIL


def test_reply_from_wrong_source_ignored():
    """A rogue reply with the right xid but wrong source must not satisfy
    the call (this is what makes µproxy src rewriting load-bearing)."""
    sim, net, client, server, server_host = build()
    server.register(PROG, echo_service)
    rogue = net.hosts["client"].network.add_host("rogue")

    def meddle():
        # Forge a reply with xid matching the client's first call.
        from repro.rpc.messages import ReplyHeader

        yield sim.timeout(0.001)
        xid = (client._next_xid - 1) & 0xFFFFFFFF
        forged = Packet(
            rogue.address(1),
            client.address,
            ReplyHeader(xid).encode().to_bytes() + Encoder().u32(666).to_bytes(),
        ).fill_checksum()
        rogue.send(forged)

    def run():
        call = sim.process(run_call())
        sim.process(meddle())
        result = yield call
        return result

    def run_call():
        dec, _ = yield from client.call(
            server.address, PROG, 1, 0, Encoder().u32(10).to_bytes()
        )
        return dec.u32()

    assert sim.run_process(run()) == 20  # not 666


def test_corrupt_checksum_dropped():
    sim, net, client, server, _h = build()
    server.register(PROG, echo_service)

    class Corruptor:
        def __init__(self):
            self.count = 0

        def outbound(self, pkt):
            if self.count == 0 and pkt.dst.port == 2049:
                self.count += 1
                pkt.header = pkt.header[:-1] + bytes([pkt.header[-1] ^ 0xFF])
            return (pkt,)

        def inbound(self, pkt):
            return (pkt,)

    net.hosts["client"].egress_filters.append(Corruptor())

    def run():
        dec, _ = yield from client.call(
            server.address, PROG, 1, 0, Encoder().u32(4).to_bytes()
        )
        return dec.u32()

    assert sim.run_process(run()) == 8
    assert client.retransmissions >= 1


def test_concurrent_calls_matched_by_xid():
    sim, net, client, server, _h = build()

    def delay_service(proc, dec, body, src):
        value = dec.u32()
        # Earlier values wait longer: replies return out of order.
        yield sim.timeout(0.1 * (5 - value))
        return Encoder().u32(value * 10).to_bytes(), EMPTY

    server.register(PROG, delay_service)
    results = {}

    def one_call(v):
        dec, _ = yield from client.call(
            server.address, PROG, 1, 0, Encoder().u32(v).to_bytes()
        )
        results[v] = dec.u32()

    def run():
        procs = [sim.process(one_call(v)) for v in range(5)]
        yield sim.all_of(procs)

    sim.run_process(run())
    assert results == {v: v * 10 for v in range(5)}


def test_server_crash_and_restart_recovers_via_retransmit():
    sim, net, client, server, server_host = build()
    server.register(PROG, echo_service)

    def lifecycle():
        server_host.crash()
        yield sim.timeout(1.5)
        server_host.restart()

    def run():
        sim.process(lifecycle())
        dec, _ = yield from client.call(
            server.address, PROG, 1, 0, Encoder().u32(3).to_bytes()
        )
        return dec.u32()

    assert sim.run_process(run()) == 6
    assert client.retransmissions >= 1


def test_retransmit_backoff_is_capped():
    """Exponential backoff must not grow without bound: once the interval
    reaches ``max_retrans_timeout`` every further wait uses the cap."""
    sim, net, client, server, _h = build()
    server.register(PROG, echo_service)
    net.fault_injector = blackout()
    client.retrans_timeout = 1.0
    client.backoff = 2.0
    client.max_retrans_timeout = 4.0
    client.jitter = 0.0  # exact arithmetic below
    client.max_tries = 6

    def run():
        start = sim.now
        try:
            yield from client.call(
                server.address, PROG, 1, 0, Encoder().u32(5).to_bytes()
            )
        except RpcTimeout:
            return sim.now - start
        return None

    elapsed = sim.run_process(run())
    # Waits: 1 + 2 + 4 + 4 + 4 + 4 (capped), not 1 + 2 + 4 + 8 + 16 + 32.
    assert elapsed == pytest.approx(19.0)
    assert client.retransmissions == 5


def test_retransmit_jitter_bounded_and_from_private_stream():
    """Jitter lengthens each wait by at most ``jitter`` (desynchronizing a
    client herd after a shared outage) and must come from the endpoint's
    own RNG, never the global ``random`` stream."""
    import random as _random

    sim, net, client, server, _h = build()
    server.register(PROG, echo_service)
    net.fault_injector = blackout()
    client.retrans_timeout = 1.0
    client.max_retrans_timeout = 1.0
    client.jitter = 0.1
    client.max_tries = 4

    _random.seed(99)
    expected_global = _random.random()
    _random.seed(99)

    def run():
        start = sim.now
        try:
            yield from client.call(
                server.address, PROG, 1, 0, Encoder().u32(5).to_bytes()
            )
        except RpcTimeout:
            return sim.now - start
        return None

    elapsed = sim.run_process(run())
    # Four waits, each in [1.0, 1.1).
    assert 4.0 < elapsed < 4.4
    assert _random.random() == expected_global  # global stream untouched


# -- one wait per attempt: the reply or the retransmit timer --------------------


def answer_at(sim, client_host, server_host, xid, when, value=42):
    """Deliver a reply to ``xid`` at the client at exactly ``when``,
    bypassing the wire."""
    header = (ReplyHeader(xid).encode().to_bytes()
              + Encoder().u32(value).to_bytes())
    reply = Packet(server_host.address(2049), client_host.address(700), header)
    sim.call_at(when, client_host.deliver, reply)


def raw_server(net, server_host, on_call):
    """Bind the server port to ``on_call(xid)`` instead of an RpcServer."""
    server_host.bind(
        2049, lambda pkt: on_call(int.from_bytes(pkt.header[:4], "big")))


@pytest.mark.parametrize("first", ["reply", "timer"])
def test_reply_in_the_timer_instant_completes_the_call(first):
    """The reply lands in the same simulated instant as the retransmit
    timer, scheduled before it or after it: either way the call completes
    with that reply and without a retransmission."""
    sim = Simulator()
    net = Network(sim, NetParams())
    client_host, server_host = net.add_host("client"), net.add_host("server")
    client = RpcClient(client_host, 700, retrans_timeout=0.7, jitter=0.0)
    deadline = 0.0 + 0.7
    if first == "reply":
        answer_at(sim, client_host, server_host, client._next_xid, deadline)
        raw_server(net, server_host, lambda xid: None)
    else:
        raw_server(net, server_host, lambda xid: answer_at(
            sim, client_host, server_host, xid, deadline))

    def run():
        dec, _ = yield from client.call(server_host.address(2049), PROG, 1, 0,
                                        Encoder().u32(21).to_bytes())
        return dec.u32(), sim.now

    assert sim.run_process(run()) == (42, deadline)
    assert client.retransmissions == 0
    assert client.calls_completed == 1


def test_reply_to_an_earlier_attempt_after_a_retransmission_completes():
    sim = Simulator()
    net = Network(sim, NetParams())
    client_host, server_host = net.add_host("client"), net.add_host("server")
    client = RpcClient(client_host, 700, retrans_timeout=0.7, jitter=0.0)
    heard = []

    def on_call(xid):
        # Answer only the first attempt, late: after the timer at 0.7 has
        # sent the retransmission, before the second timer at 2.1.
        if not heard:
            answer_at(sim, client_host, server_host, xid, 1.0)
        heard.append(sim.now)

    raw_server(net, server_host, on_call)

    def run():
        dec, _ = yield from client.call(server_host.address(2049), PROG, 1, 0,
                                        Encoder().u32(21).to_bytes())
        return dec.u32(), sim.now

    assert sim.run_process(run()) == (42, 1.0)
    assert client.retransmissions == 1
    assert len(heard) == 2 and heard[1] > 0.7
    assert client._pending == {}


def test_call_whose_every_reply_is_lost_times_out():
    sim, net, client, server, _h = build()
    server.register(PROG, echo_service)
    net.fault_injector = DropWhen(lambda pkt: pkt.src.host == "server")
    client.max_tries = 3

    def run():
        with pytest.raises(RpcTimeout):
            yield from client.call(server.address, PROG, 1, 0,
                                   Encoder().u32(5).to_bytes())

    sim.run_process(run())
    assert client.retransmissions == 2
    assert server.requests_handled == 1
    assert server.duplicates_replayed == 2
    assert client.calls_completed == 0
    assert client._pending == {}


@pytest.mark.parametrize("real_reply_at", [0.02, None])
def test_undecodable_reply_is_dropped_as_a_lost_reply(real_reply_at):
    """An 8-byte reply from the called server cannot hold a reply header:
    the client drops it and keeps waiting, for the real reply 10 ms later,
    or else for its retransmit timer, whose retry gets answered."""
    sim = Simulator()
    net = Network(sim, NetParams())
    client_host, server_host = net.add_host("client"), net.add_host("server")
    client = RpcClient(client_host, 700, retrans_timeout=0.7, jitter=0.0)
    attempts = []

    def on_call(xid):
        attempts.append(sim.now)
        if len(attempts) == 1:
            cut = Packet(server_host.address(2049), client_host.address(700),
                         ReplyHeader(xid).encode().to_bytes()[:8])
            sim.call_at(0.01, client_host.deliver, cut)
            if real_reply_at is not None:
                answer_at(sim, client_host, server_host, xid, real_reply_at)
        else:
            answer_at(sim, client_host, server_host, xid, sim.now + 0.01)

    raw_server(net, server_host, on_call)

    def run():
        dec, _ = yield from client.call(server_host.address(2049), PROG, 1, 0,
                                        Encoder().u32(21).to_bytes())
        return dec.u32(), sim.now

    value, done_at = sim.run_process(run())
    assert value == 42
    assert client.replies_dropped == 1
    assert client.calls_completed == 1
    assert client._pending == {}
    if real_reply_at is not None:
        assert (done_at, client.retransmissions) == (real_reply_at, 0)
    else:
        assert client.retransmissions == 1 and done_at > 0.7
