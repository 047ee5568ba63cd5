"""The analytic links against the process-driven journey they replaced.

:class:`ProcessJourneyNetwork` is the network as it was modelled with one
simulated process per packet: the packet claims the sender's NIC and then
the destination's switch port through :meth:`Resource.use`, with a timeout
for each propagation leg.  It is kept here as the reference.  A seeded test
sends the same random packets (sizes, send times, fault-injected launch
delays and duplicates) from three NICs into one or two ports through both
networks and requires the same delivery times, the same delivery order and
the same link readings.
"""

import random

import pytest

from repro.faults import FaultDecision
from repro.net import NetParams, Network, Packet
from repro.sim import Resource, Simulator
from repro.util.bytesim import ZeroData

_PASS = FaultDecision()


class ProcessJourneyNetwork(Network):
    """Reference: every NIC and port a :class:`Resource`, every packet a
    process."""

    def add_host(self, name, **kwargs):
        host = super().add_host(name, **kwargs)
        host.nic_tx = Resource(self.sim, 1)
        self._output_ports[name] = Resource(self.sim, 1)
        return host

    def transmit(self, src_host, packet):
        delays = None
        injector = self.fault_injector
        if injector is not None:
            decision = injector.on_transmit(packet, self.sim.now)
            if decision.drop:
                self.packets_dropped_fault += 1
                return
            delays = decision.delays
        dst_host = self.hosts.get(packet.dst.host)
        if dst_host is None:
            self.packets_dropped_noroute += 1
            return
        if delays is None:
            self.sim.spawn(self._journey(src_host, dst_host, packet))
            return
        self.packets_duplicated += len(delays) - 1
        for i, delay in enumerate(delays):
            copy = packet if i == 0 else packet.clone()
            if delay > 0:
                self.packets_delayed += 1
            self.sim.spawn(self._journey(src_host, dst_host, copy,
                                        launch_delay=delay))

    def _journey(self, src_host, dst_host, packet, launch_delay=0.0):
        params = self.params
        size = packet.size
        if launch_delay > 0:
            yield self.sim.timeout(launch_delay)
        yield from src_host.nic_tx.use(
            self.wire_time(size, params.bandwidth))
        yield self.sim.timeout(params.propagation + params.fabric_latency)
        if src_host is dst_host:
            self._arrive(dst_host, packet)
            return
        port = self._output_ports[dst_host.name]
        yield from port.use(self.wire_time(size, params.bandwidth))
        yield self.sim.timeout(params.propagation)
        self._arrive(dst_host, packet)


class LaunchDelays:
    """A fault injector that gives each packet the launch delays drawn for
    it in advance (keyed by its header), so both networks see the same."""

    def __init__(self, delays):
        self.delays = delays

    def on_transmit(self, pkt, now):
        delays = self.delays.get(pkt.header)
        return _PASS if delays is None else FaultDecision(delays=delays)


def draw(seed):
    """Random sources, destinations, sizes, send times, launch delays and
    reading times for one run."""
    rng = random.Random(seed)
    dsts = [f"d{i}" for i in range(rng.choice((1, 2)))]
    sends, delays = [], {}
    for i in range(rng.randrange(60, 160)):
        header = i.to_bytes(4, "big")
        when = rng.uniform(0.0, 2e-3)
        src = f"s{rng.randrange(3)}"
        # Mostly to a switch port, now and then to the sender itself.
        dst = src if rng.random() < 0.05 else rng.choice(dsts)
        size = rng.choice((rng.randrange(0, 400), rng.randrange(0, 30000)))
        sends.append((when, src, dst, header, size))
        if rng.random() < 0.2:
            delays[header] = tuple(
                rng.choice((0.0, rng.uniform(0.0, 5e-4)))
                for _ in range(rng.choice((1, 1, 2, 3)))
            )
    reads = sorted(rng.uniform(0.0, 3e-3) for _ in range(40))
    return dsts, sends, delays, reads


def run(network_class, seed):
    """Deliveries as (time, destination, header) and the readings of every
    NIC and port, at the drawn instants and at the end."""
    dsts, sends, delays, reads = draw(seed)
    sim = Simulator()
    net = network_class(sim, NetParams(mtu=9000))
    net.fault_injector = LaunchDelays(delays)
    hosts = {name: net.add_host(name)
             for name in ("s0", "s1", "s2", *dsts)}
    delivered = []
    for name, host in hosts.items():
        host.bind(9, lambda pkt, name=name: delivered.append(
            (sim.now, name, pkt.header)))
    links = [(f"nic {name}", host.nic_tx) for name, host in hosts.items()]
    links += [(f"port {name}", net.output_port(name)) for name in hosts]
    readings = []

    def read():
        readings.append((sim.now, [(name, link.stats())
                                   for name, link in links]))

    for when, src, dst, header, size in sorted(sends):
        packet = Packet(hosts[src].address(9), hosts[dst].address(9),
                        header, ZeroData(size))
        sim.call_at(when, hosts[src].send, packet)
    for when in reads:
        sim.call_at(when, read)
    sim.run()
    read()
    return delivered, readings


@pytest.mark.parametrize("seed", range(16))
def test_links_match_the_process_journey(seed):
    delivered, readings = run(Network, seed)
    expected, expected_readings = run(ProcessJourneyNetwork, seed)
    assert len(delivered) == len(expected) > 0
    assert delivered == expected
    assert readings == expected_readings
    # The draw makes some packets wait at a NIC and at a port.
    final = dict(readings[-1][1])
    assert max(s["peak_queue"] for n, s in final.items() if "nic" in n) > 0
    assert max(s["peak_queue"] for n, s in final.items() if "port" in n) > 0
    assert sum(s["wait_time"] for s in final.values()) > 0
