"""Tests for hosts, filters, and the switched network."""

import pytest

from repro.net import Address, NetParams, Network, Packet, PacketFilter
from repro.sim import Simulator
from repro.util.bytesim import RealData, ZeroData

from drops import DropWhen


def build(params=None):
    sim = Simulator()
    net = Network(sim, params)
    a = net.add_host("alpha")
    b = net.add_host("beta")
    return sim, net, a, b


def test_basic_delivery():
    sim, net, a, b = build()
    got = []
    b.bind(2049, got.append)
    pkt = Packet(a.address(700), b.address(2049), b"hello")
    a.send(pkt)
    sim.run()
    assert len(got) == 1
    assert got[0].header == b"hello"
    assert net.packets_delivered == 1


def test_delivery_takes_wire_time():
    params = NetParams(bandwidth=1e6, mtu=1500, frame_overhead=0,
                       fabric_latency=0.0, propagation=0.0)
    sim, net, a, b = build(params)
    times = []
    b.bind(2049, lambda p: times.append(sim.now))
    body = ZeroData(10**6 - 28 - 5)  # 1 MB datagram total
    a.send(Packet(a.address(1), b.address(2049), b"hdr!!", body))
    sim.run()
    # Two serializations at 1 MB/s each = 2 seconds.
    assert times[0] == pytest.approx(2.0, rel=1e-6)


def test_output_port_queueing_serializes():
    params = NetParams(bandwidth=1e6, mtu=10**9, frame_overhead=0,
                       fabric_latency=0.0, propagation=0.0)
    sim = Simulator()
    net = Network(sim, params)
    a = net.add_host("a")
    c = net.add_host("c")
    dst = net.add_host("dst")
    times = []
    dst.bind(1, lambda p: times.append((p.src.host, sim.now)))
    size = 10**5  # 0.1s serialization each
    body = ZeroData(size - 28)
    a.send(Packet(a.address(9), dst.address(1), b"", body))
    c.send(Packet(c.address(9), dst.address(1), b"", body))
    sim.run()
    # Both serialize out of their own NICs in parallel (arrive at switch at
    # 0.1s) but must take turns on dst's output port: 0.2s then 0.3s.
    assert times[0][1] == pytest.approx(0.2, rel=1e-6)
    assert times[1][1] == pytest.approx(0.3, rel=1e-6)


def test_sender_nic_serializes_own_packets():
    params = NetParams(bandwidth=1e6, mtu=10**9, frame_overhead=0,
                       fabric_latency=0.0, propagation=0.0)
    sim = Simulator()
    net = Network(sim, params)
    a = net.add_host("a")
    b = net.add_host("b")
    c = net.add_host("c")
    times = []
    b.bind(1, lambda p: times.append(sim.now))
    c.bind(1, lambda p: times.append(sim.now))
    size = 10**5
    body = ZeroData(size - 28)
    a.send(Packet(a.address(9), b.address(1), b"", body))
    a.send(Packet(a.address(9), c.address(1), b"", body))
    sim.run()
    # Second packet waits for the first to clear a's NIC.
    assert times == [pytest.approx(0.2), pytest.approx(0.3)]


def test_frame_overhead_charged_per_mtu():
    params = NetParams(bandwidth=1e6, mtu=1000, frame_overhead=100,
                       fabric_latency=0.0, propagation=0.0)
    sim = Simulator()
    net = Network(sim, params)
    net.add_host("x")
    # 2500 bytes => 3 frames => 2500 + 300 overhead.
    assert net.wire_time(2500, 1e6) == pytest.approx(0.0028)


def test_unknown_host_drops():
    sim, net, a, _b = build()
    a.send(Packet(a.address(1), Address("ghost", 1), b""))
    sim.run()
    assert net.packets_dropped == 1
    # Routing failures and injected faults are counted separately.
    assert net.packets_dropped_noroute == 1
    assert net.packets_dropped_fault == 0


def test_unknown_port_drops_at_host():
    sim, net, a, b = build()
    a.send(Packet(a.address(1), b.address(9999), b""))
    sim.run()
    assert b.packets_dropped == 1


def test_crashed_host_drops_packets():
    sim, net, a, b = build()
    got = []
    b.bind(1, got.append)
    b.crash()
    a.send(Packet(a.address(1), b.address(1), b""))
    sim.run()
    assert got == []
    b.restart()
    a.send(Packet(a.address(1), b.address(1), b""))
    sim.run()
    assert len(got) == 1


def test_drop_fn_injects_loss():
    sim, net, a, b = build()
    got = []
    b.bind(1, got.append)
    count = [0]

    def drop_every_other(_pkt):
        count[0] += 1
        return count[0] % 2 == 1

    net.fault_injector = DropWhen(drop_every_other)
    for _ in range(4):
        a.send(Packet(a.address(1), b.address(1), b""))
    sim.run()
    assert len(got) == 2
    assert net.packets_dropped == 2
    # Injected losses are *fault* drops, distinct from routing failures.
    assert net.packets_dropped_fault == 2
    assert net.packets_dropped_noroute == 0


def test_egress_filter_rewrites():
    sim, net, a, b = build()
    virtual = Address("virtual", 2049)
    got = []
    b.bind(2049, got.append)

    class Redirect(PacketFilter):
        def outbound(self, pkt):
            if pkt.dst == virtual:
                pkt.rewrite_dst(Address("beta", 2049))
            return (pkt,)

    a.egress_filters.append(Redirect())
    pkt = Packet(a.address(1), virtual, b"x").fill_checksum()
    a.send(pkt)
    sim.run()
    assert len(got) == 1
    assert got[0].dst.host == "beta"
    assert got[0].checksum_ok()


def test_egress_filter_can_absorb_and_multiply():
    sim, net, a, b = build()
    got = []
    b.bind(1, got.append)

    class FanOut(PacketFilter):
        def outbound(self, pkt):
            if pkt.header == b"drop":
                return ()
            if pkt.header == b"dup":
                clone = Packet(pkt.src, pkt.dst, pkt.header, pkt.body)
                return (pkt, clone)
            return (pkt,)

    a.egress_filters.append(FanOut())
    a.send(Packet(a.address(1), b.address(1), b"drop"))
    a.send(Packet(a.address(1), b.address(1), b"dup"))
    sim.run()
    assert len(got) == 2


def test_ingress_filter_sees_arrivals():
    sim, net, a, b = build()
    got = []
    b.bind(1, got.append)
    seen = []

    class Spy(PacketFilter):
        def inbound(self, pkt):
            seen.append(pkt.header)
            return (pkt,)

    b.ingress_filters.append(Spy())
    a.send(Packet(a.address(1), b.address(1), b"payload"))
    sim.run()
    assert seen == [b"payload"]
    assert len(got) == 1


def test_loopback_bypasses_network():
    sim, net, a, _b = build()
    got = []
    a.bind(5, got.append)
    a.loopback(Packet(Address("anywhere", 1), a.address(5), b"local"))
    sim.run()
    assert len(got) == 1
    assert net.packets_delivered == 0
    # A start and a zero timeout; nobody waits on its end, which costs none.
    assert sim._eid == 2


def test_loopback_delay_is_exact():
    sim, net, a, _b = build()
    got = []
    a.bind(5, lambda pkt: got.append(sim.now))
    sim.run(until=0.1)
    a.loopback(Packet(Address("anywhere", 1), a.address(5), b"x"), delay=0.2)
    sim.run()
    assert got == [0.1 + 0.2]


def test_same_host_traffic_short_circuits():
    sim, net, a, _b = build()
    got = []
    a.bind(7, got.append)
    a.send(Packet(a.address(6), a.address(7), b"self"))
    sim.run()
    assert len(got) == 1


def test_cpu_speedup_scales_work():
    sim = Simulator()
    net = Network(sim)
    fast = net.add_host("fast", cpu_speedup=2.0)

    def job():
        yield from fast.cpu_work(1.0)
        return sim.now

    assert sim.run_process(job()) == pytest.approx(0.5)


def test_duplicate_host_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host("x")
    with pytest.raises(ValueError):
        net.add_host("x")


def test_duplicate_bind_rejected():
    sim, net, a, _b = build()
    a.bind(1, lambda p: None)
    with pytest.raises(ValueError):
        a.bind(1, lambda p: None)
