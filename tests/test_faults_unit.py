"""Unit tests for the deterministic chaos engine (repro.faults).

Plan validation and (de)serialization, packet-fault rule matching,
partition semantics, injector determinism and statistics, network
integration (duplicate clones, delayed copies, split drop counters).
"""

import random

import pytest

from repro.faults import (
    COMPONENT_KINDS,
    CrashWindow,
    FaultInjector,
    FaultPlan,
    PacketFaultRule,
    Partition,
    SlowDiskWindow,
)
from repro.net import Address, Network, Packet
from repro.rpc.messages import CallHeader
from repro.sim import Simulator


def packet(src="client0", dst="dir0", header=b"\x00\x00\x00\x07hdr",
           sport=700, dport=3049):
    return Packet(Address(src, sport), Address(dst, dport), header)


def call_packet(prog, src="client0", dst="dir0"):
    header = CallHeader(xid=7, prog=prog, vers=3, proc=1).encode().to_bytes()
    return packet(src=src, dst=dst, header=header)


# -- plan validation --------------------------------------------------------


def test_rates_must_be_probabilities():
    with pytest.raises(ValueError):
        PacketFaultRule(loss=1.5)
    with pytest.raises(ValueError):
        PacketFaultRule(dup=-0.1)
    with pytest.raises(ValueError):
        PacketFaultRule(reorder=2.0)


def test_windows_must_be_ordered():
    with pytest.raises(ValueError):
        PacketFaultRule(start=2.0, end=1.0)
    with pytest.raises(ValueError):
        SlowDiskWindow("dir", start=-1.0)
    with pytest.raises(ValueError):
        CrashWindow("dir", at=0.5, restart_at=0.5)


def test_crash_component_kinds_are_checked():
    for kind in COMPONENT_KINDS:
        CrashWindow(kind, at=0.1)  # all legal
    with pytest.raises(ValueError):
        CrashWindow("toaster", at=0.1)
    with pytest.raises(ValueError):
        SlowDiskWindow("toaster")


def test_partition_groups_must_be_non_empty():
    with pytest.raises(ValueError):
        Partition(a=(), b=("dir",))


def test_slow_factor_must_not_speed_up():
    with pytest.raises(ValueError):
        SlowDiskWindow("dir", factor=0.5)


def test_plan_round_trips_through_dict():
    plan = FaultPlan(
        seed=42,
        packet_faults=[PacketFaultRule(src="client", loss=0.1, dup=0.05)],
        partitions=[Partition(a=("client",), b=("dir",), start=1.0, end=2.0)],
        crashes=[CrashWindow("sf", index=1, at=0.3, restart_at=0.9,
                             torn_tail=True)],
        slow_disks=[SlowDiskWindow("storage", factor=4.0, end=5.0)],
    )
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone == plan
    assert clone.with_seed(7).seed == 7
    assert clone.with_seed(7).packet_faults == plan.packet_faults
    # describe() mentions every fault source.
    text = plan.describe()
    assert "seed=42" in text
    assert "loss=0.1" in text and "partition" in text
    assert "crash sf[1]" in text and "torn WAL tail" in text
    assert "slow-disk storage[0]" in text


# -- rule matching ----------------------------------------------------------


def test_rule_matches_by_prefix_window_and_prog():
    rule = PacketFaultRule(src="client", dst="dir", prog=100003,
                          start=1.0, end=2.0, loss=1.0)
    assert rule.matches("client3", "dir0", 1.5, 100003)
    assert not rule.matches("client3", "dir0", 0.5, 100003)  # before window
    assert not rule.matches("client3", "dir0", 2.0, 100003)  # end-exclusive
    assert not rule.matches("sf0", "dir0", 1.5, 100003)  # src mismatch
    assert not rule.matches("client3", "store0", 1.5, 100003)  # dst mismatch
    assert not rule.matches("client3", "dir0", 1.5, None)  # not a call


def test_prog_restricted_rule_ignores_non_call_packets():
    plan = FaultPlan(seed=1, packet_faults=[
        PacketFaultRule(prog=100003, loss=1.0),
    ])
    injector = FaultInjector(plan)
    # A reply (not decodable as a call) never matches a prog rule.
    assert not injector.on_transmit(packet(header=b"\x00\x00\x00\x07\x00\x00\x00\x01"), 0.0).drop
    assert injector.on_transmit(call_packet(100003), 0.0).drop
    assert not injector.on_transmit(call_packet(200004), 0.0).drop


def test_partition_severs_both_directions_only_in_window():
    part = Partition(a=("client",), b=("dir", "sf"), start=1.0, end=2.0)
    assert part.severs("client0", "dir1")
    assert part.severs("sf1", "client9")
    assert not part.severs("client0", "store0")
    assert not part.severs("store0", "coord0")
    plan = FaultPlan(partitions=[part])
    injector = FaultInjector(plan)
    assert not injector.on_transmit(packet(), 0.5).drop
    decision = injector.on_transmit(packet(), 1.5)
    assert decision.drop and decision.reason == "partition"
    assert not injector.on_transmit(packet(), 2.5).drop
    assert injector.drops_partition == 1


# -- injector sampling -------------------------------------------------------


def test_injector_decisions_are_deterministic_per_seed():
    plan = FaultPlan(seed=5, packet_faults=[
        PacketFaultRule(loss=0.2, dup=0.2, reorder=0.2, delay=0.001),
    ])

    def decisions():
        injector = FaultInjector(plan)
        out = []
        for i in range(300):
            d = injector.on_transmit(packet(), now=i * 0.001)
            out.append((d.drop, d.delays))
        return out, injector.counters()

    first, counters1 = decisions()
    second, counters2 = decisions()
    assert first == second
    assert counters1 == counters2
    third, _ = (lambda p: ((lambda inj: [
        (d.drop, d.delays) for d in (
            inj.on_transmit(packet(), now=i * 0.001) for i in range(300)
        )
    ])(FaultInjector(p)), None))(plan.with_seed(6))
    assert third != first  # a different seed draws a different stream


def test_loss_rate_is_honoured_statistically():
    plan = FaultPlan(seed=11, packet_faults=[PacketFaultRule(loss=0.3)])
    injector = FaultInjector(plan)
    drops = sum(
        injector.on_transmit(packet(), 0.0).drop for _ in range(2000)
    )
    assert 480 <= drops <= 720  # 0.3 +/- ~0.06
    assert injector.drops_loss == drops


def test_duplicates_and_reorders_produce_delay_tuples():
    plan = FaultPlan(seed=3, packet_faults=[
        PacketFaultRule(dup=1.0, dup_delay=0.001),
    ])
    injector = FaultInjector(plan)
    decision = injector.on_transmit(packet(), 0.0)
    assert not decision.drop
    assert len(decision.delays) == 2  # original + duplicate
    assert decision.delays[0] == 0.0
    assert decision.delays[1] > 0.0
    assert injector.duplicates == 1

    reorder_plan = FaultPlan(seed=3, packet_faults=[
        PacketFaultRule(reorder=1.0, reorder_delay=0.002),
    ])
    injector = FaultInjector(reorder_plan)
    decision = injector.on_transmit(packet(), 0.0)
    assert len(decision.delays) == 1
    assert decision.delays[0] > 0.0
    assert injector.reorders == 1


def test_rule_windows_are_relative_to_epoch():
    plan = FaultPlan(seed=1, packet_faults=[
        PacketFaultRule(loss=1.0, start=0.0, end=1.0),
    ])
    injector = FaultInjector(plan, epoch=100.0)
    assert injector.on_transmit(packet(), 100.5).drop
    assert not injector.on_transmit(packet(), 101.5).drop


def test_injector_uses_private_rng_stream():
    """Fault sampling must not consume from (or be perturbed by) the global
    random module."""
    plan = FaultPlan(seed=5, packet_faults=[PacketFaultRule(loss=0.5)])
    random.seed(1234)
    expected_global = random.random()
    random.seed(1234)
    injector = FaultInjector(plan)
    for _ in range(100):
        injector.on_transmit(packet(), 0.0)
    assert random.random() == expected_global


# -- network integration ----------------------------------------------------


def build_net():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("alpha")
    b = net.add_host("beta")
    return sim, net, a, b


def test_network_splits_drop_counters():
    sim, net, a, b = build_net()
    got = []
    b.bind(1, got.append)
    net.fault_injector = FaultInjector(
        FaultPlan(packet_faults=[PacketFaultRule(loss=1.0)])
    )
    a.send(Packet(a.address(9), b.address(1), b"x"))
    sim.run()
    net.fault_injector = None
    # No route: destination host does not exist.
    a.send(Packet(a.address(9), Address("ghost", 1), b"y"))
    sim.run()
    assert net.packets_dropped_fault == 1
    assert net.packets_dropped_noroute == 1
    assert net.packets_dropped == 2  # legacy aggregate view
    assert got == []


def test_duplicated_packets_are_clones():
    """The second copy must be a distinct object: µproxies rewrite packets
    in place, so sharing one instance would corrupt the duplicate."""
    sim, net, a, b = build_net()
    got = []
    b.bind(1, got.append)
    plan = FaultPlan(seed=4, packet_faults=[
        PacketFaultRule(dup=1.0, dup_delay=0.0005),
    ])
    net.fault_injector = FaultInjector(plan)
    original = Packet(a.address(9), b.address(1), b"h", trace_id=77)
    a.send(original)
    sim.run()
    assert len(got) == 2
    assert got[0] is not got[1]
    assert got[0].header == got[1].header == b"h"
    assert {p.trace_id for p in got} == {77}
    assert net.packets_duplicated == 1


def test_reordered_packet_is_overtaken():
    sim, net, a, b = build_net()
    got = []
    b.bind(1, lambda p: got.append(p.header))
    plan = FaultPlan(seed=4, packet_faults=[
        PacketFaultRule(reorder=1.0, reorder_delay=0.01,
                        start=0.0, end=1e-9),  # only the first packet
    ])
    net.fault_injector = FaultInjector(plan)
    a.send(Packet(a.address(9), b.address(1), b"first"))
    sim.run(until=1e-10)  # past the rule window, second packet unaffected
    a.send(Packet(a.address(9), b.address(1), b"second"))
    sim.run()
    assert got == [b"second", b"first"]
    assert net.packets_delayed >= 1
