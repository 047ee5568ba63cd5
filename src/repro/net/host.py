"""Hosts: named machines with a CPU, a NIC, port handlers, and filter hooks.

The filter hooks are the architectural seam this paper is about: a
:class:`PacketFilter` attached to a host's egress/ingress path sees every
datagram and may rewrite, redirect, absorb, or synthesize packets — exactly
the powers the Slice µproxy is granted (§2.1 of the paper).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.sim import Link, Resource, Simulator
from .address import Address
from .packet import Packet

__all__ = ["Host", "PacketFilter"]


class PacketFilter:
    """Interposition point on a host's network path.

    ``outbound``/``inbound`` receive one packet and return the packets that
    continue along the path (possibly rewritten, possibly several, possibly
    none).  Filters may also call :meth:`Host.send` or :meth:`Host.loopback`
    to originate packets of their own.
    """

    def outbound(self, packet: Packet) -> Iterable[Packet]:
        return (packet,)

    def inbound(self, packet: Packet) -> Iterable[Packet]:
        return (packet,)


class Host:
    """A machine attached to the network."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: "Network",
        cpu_cores: int = 1,
        cpu_speedup: float = 1.0,
        link_bandwidth: Optional[float] = None,
        clock_skew: float = 0.0,
    ):
        self.sim = sim
        self.name = name
        self.network = network
        self.cpu = Resource(sim, cpu_cores)
        self.cpu_speedup = cpu_speedup
        self.link_bandwidth = link_bandwidth  # None: network default
        self.clock_skew = clock_skew
        self.up = True
        self.handlers: Dict[int, Callable[[Packet], None]] = {}
        self.egress_filters: List[PacketFilter] = []
        self.ingress_filters: List[PacketFilter] = []
        # NIC transmit queue: one packet serializes onto the wire at a time.
        self.nic_tx = Link(sim)
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_dropped = 0

    # -- time ------------------------------------------------------------

    def clock(self) -> float:
        """Local wall-clock (NTP-synchronized up to a bounded skew)."""
        return self.sim.now + self.clock_skew

    def cpu_work(self, seconds: float):
        """Generator: occupy one CPU core for ``seconds`` of reference work.

        ``seconds`` is expressed for the reference CPU; faster hosts finish
        proportionally sooner.
        """
        return self.cpu.use(seconds / self.cpu_speedup)

    # -- lifecycle ---------------------------------------------------------

    def crash(self) -> None:
        """Stop accepting packets (state retention is the server's concern)."""
        self.up = False

    def restart(self) -> None:
        self.up = True

    # -- data path -----------------------------------------------------------

    def address(self, port: int) -> Address:
        return Address(self.name, port)

    def bind(self, port: int, handler: Callable[[Packet], None]) -> None:
        if port in self.handlers:
            raise ValueError(f"{self.name}: port {port} already bound")
        self.handlers[port] = handler

    def send(self, packet: Packet) -> None:
        """Transmit via the egress filter chain and the network."""
        if not self.up:
            return
        packets: Iterable[Packet] = (packet,)
        for filt in self.egress_filters:
            next_packets: List[Packet] = []
            for pkt in packets:
                next_packets.extend(filt.outbound(pkt))
            packets = next_packets
        for pkt in packets:
            self.packets_sent += 1
            self.network.transmit(self, pkt)

    def loopback(self, packet: Packet, delay: float = 0.0) -> None:
        """Deliver a packet up this host's own stack (no wire traversal).

        Used by interposed filters that synthesize responses locally.  The
        ingress filter chain is *not* re-applied: the synthesizing filter is
        the endpoint of the virtual connection.
        """
        sim = self.sim

        def arrive():
            if delay > 0:
                yield sim.timeout(delay)
            else:
                yield sim.timeout(0)
            self._dispatch(packet)

        sim.spawn(arrive(), name=f"{self.name}-loopback")

    def deliver(self, packet: Packet) -> None:
        """Called by the network when a packet arrives at this host."""
        if not self.up:
            self.packets_dropped += 1
            return
        packets: Iterable[Packet] = (packet,)
        for filt in self.ingress_filters:
            next_packets: List[Packet] = []
            for pkt in packets:
                next_packets.extend(filt.inbound(pkt))
            packets = next_packets
        for pkt in packets:
            self._dispatch(pkt)

    def _dispatch(self, packet: Packet) -> None:
        handler = self.handlers.get(packet.dst.port)
        if handler is None:
            self.packets_dropped += 1
            return
        self.packets_received += 1
        handler(packet)

    def __repr__(self):
        return f"Host({self.name})"
