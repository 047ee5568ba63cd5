"""The switched LAN: hosts joined by a store-and-forward switch.

Models the paper's testbed fabric (Gigabit Ethernet, jumbo frames, one
32-port switch): a packet serializes out of the sender's NIC, crosses the
switch fabric, queues for the destination's output port, serializes again,
and is delivered after propagation.  Per-frame overhead and MTU framing are
charged so bandwidth numbers reflect goodput, not raw line rate.

Each NIC and each switch output port is a :class:`~repro.sim.Link`: a FIFO
serializer whose departure time follows from the packet's size the moment
the packet reaches it, ``max(now, free_at) + wire_time``.  So a journey is
two scheduled calls, not a process: :meth:`Network.transmit` books the
sender's NIC and schedules the switch arrival; the arrival books the
destination's port and schedules the delivery.  Same-host traffic skips the
port and takes one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim import Link, Simulator
from .host import Host
from .packet import Packet

__all__ = ["NetParams", "Network"]


@dataclass
class NetParams:
    """Fabric parameters (defaults approximate the paper's Gigabit LAN)."""

    bandwidth: float = 125e6  # bytes/s per link (1 Gb/s)
    mtu: int = 9000  # jumbo frames
    frame_overhead: int = 42  # Ethernet + preamble + IFG per frame
    fabric_latency: float = 10e-6  # switch cut-through / forwarding decision
    propagation: float = 2e-6  # per link
    #: The one checksum switch: endpoints and the µproxy fill packet
    #: checksums only when set.  Bandwidth runs turn it off to model the
    #: paper's NICs offloading the checksum.
    verify_checksums: bool = True


class Network:
    """Hosts plus the switch connecting them."""

    def __init__(self, sim: Simulator, params: Optional[NetParams] = None,
                 tracer=None):
        self.sim = sim
        self.params = params or NetParams()
        self.tracer = tracer
        self.hosts: Dict[str, Host] = {}
        self._output_ports: Dict[str, Link] = {}
        # Fault hook (see repro.faults): anything with
        # ``on_transmit(packet, now) -> FaultDecision``, consulted per transmit.
        self.fault_injector = None
        self.packets_delivered = 0
        self.packets_dropped_fault = 0
        self.packets_dropped_noroute = 0
        self.packets_duplicated = 0
        self.packets_delayed = 0
        self.bytes_delivered = 0

    # -- fault hooks -------------------------------------------------------

    @property
    def packets_dropped(self) -> int:
        """Total drops (legacy aggregate of fault + no-route)."""
        return self.packets_dropped_fault + self.packets_dropped_noroute

    def counters(self) -> Dict[str, int]:
        """Cumulative fabric totals (telemetry view)."""
        return {
            "packets_delivered": self.packets_delivered,
            "bytes_delivered": self.bytes_delivered,
            "packets_dropped_fault": self.packets_dropped_fault,
            "packets_dropped_noroute": self.packets_dropped_noroute,
            "packets_duplicated": self.packets_duplicated,
            "packets_delayed": self.packets_delayed,
        }

    # -- topology --------------------------------------------------------

    def add_host(
        self,
        name: str,
        cpu_speedup: float = 1.0,
    ) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name: {name}")
        host = Host(self.sim, name, self, cpu_speedup=cpu_speedup)
        self.hosts[name] = host
        self._output_ports[name] = Link(self.sim)
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def link_stats(self) -> Dict[str, dict]:
        """Per-destination switch-port occupancy (telemetry view).

        Each entry covers the output port feeding one host's downlink:
        instantaneous queue depth, in-flight frames, peak backlog,
        cumulative utilisation of the port's serializer, and the summed
        time frames queued for it (``wait_time``).
        """
        return {
            name: port.stats() for name, port in self._output_ports.items()
        }

    def output_port(self, name: str) -> Link:
        """The switch output-port link feeding host ``name``."""
        return self._output_ports[name]

    # -- timing ----------------------------------------------------------

    def wire_time(self, size: int, bandwidth: float) -> float:
        """Serialization time for ``size`` payload bytes incl. framing."""
        frames = max(1, math.ceil(size / self.params.mtu))
        return (size + frames * self.params.frame_overhead) / bandwidth

    # -- data path ---------------------------------------------------------

    def transmit(self, src_host: Host, packet: Packet) -> None:
        """Launch the store-and-forward journey of one packet."""
        delays = None
        injector = self.fault_injector
        if injector is not None:
            decision = injector.on_transmit(packet, self.sim.now)
            if decision.drop:
                self.packets_dropped_fault += 1
                if self.tracer is not None:
                    self.tracer.packet_dropped(
                        packet, self.sim.now, decision.reason
                    )
                return
            delays = decision.delays
        dst_host = self.hosts.get(packet.dst.host)
        if dst_host is None:
            self.packets_dropped_noroute += 1
            if self.tracer is not None:
                self.tracer.packet_dropped(packet, self.sim.now, "no-route")
            return
        if delays is None:
            self._launch(src_host, dst_host, packet)
            return
        # Fault-mangled path: one journey per surviving copy.  Copies after
        # the first are clones so an in-place µproxy rewrite on one arrival
        # cannot corrupt the other.
        self.packets_duplicated += len(delays) - 1
        sim = self.sim
        for i, delay in enumerate(delays):
            copy = packet if i == 0 else packet.clone()
            if delay > 0:
                # Fault-injected extra latency (reorder / duplicate spacing).
                self.packets_delayed += 1
                sim.call_at(sim.now + delay, self._launch, src_host,
                            dst_host, copy, sim.now)
            else:
                self._launch(src_host, dst_host, copy)

    def _launch(self, src_host: Host, dst_host: Host, packet: Packet,
                sent: Optional[float] = None) -> None:
        """Serialize out of the sender's NIC (``sent``: when a delayed
        launch was scheduled); reach the switch, or for same-host traffic
        the receiver, after propagation and fabric latency."""
        params = self.params
        depart = src_host.nic_tx.reserve(
            self.wire_time(packet.size, params.bandwidth), sent)
        when = depart + (params.propagation + params.fabric_latency)
        if src_host is dst_host:
            # Same-host traffic short-circuits the switch output port.
            self.sim.call_at(when, self._arrive, dst_host, packet)
        else:
            self.sim.call_at(when, self._forward, dst_host, packet, depart)

    def _forward(self, dst_host: Host, packet: Packet, sent: float) -> None:
        """At the switch: queue for, then serialize onto, the destination's
        output port (``sent``: when the packet left its NIC); deliver after
        propagation.  The port is booked here, not at send time, so packets
        from different NICs take it in the order they reach it."""
        depart = self._output_ports[dst_host.name].reserve(
            self.wire_time(packet.size, self.params.bandwidth), sent)
        self.sim.call_at(depart + self.params.propagation, self._arrive,
                         dst_host, packet)

    def _arrive(self, dst_host: Host, packet: Packet) -> None:
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        if self.tracer is not None:
            self.tracer.packet_delivered(packet, self.sim.now)
        dst_host.deliver(packet)
