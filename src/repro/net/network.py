"""The switched LAN: hosts joined by a store-and-forward switch.

Models the paper's testbed fabric (Gigabit Ethernet, jumbo frames, one
32-port switch): a packet serializes out of the sender's NIC, crosses the
switch fabric, queues for the destination's output port, serializes again,
and is delivered after propagation.  Per-frame overhead and MTU framing are
charged so bandwidth numbers reflect goodput, not raw line rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim import Resource, Simulator
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
        self._output_ports: Dict[str, Resource] = {}
        # Structured fault hook (see repro.faults): consulted per transmit.
        # The legacy ``drop_fn`` callable is a view onto it (property below).
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

    @property
    def drop_fn(self) -> Optional[Callable[[Packet], bool]]:
        """Legacy fault hook: a callable returning True to drop a packet.

        Kept for back-compatibility with hand-rolled fault tests; stored
        on the structured :class:`~repro.faults.injector.FaultInjector`.
        """
        injector = self.fault_injector
        return injector.legacy_drop_fn if injector is not None else None

    @drop_fn.setter
    def drop_fn(self, fn: Optional[Callable[[Packet], bool]]) -> None:
        if fn is None:
            injector = self.fault_injector
            if injector is not None:
                injector.legacy_drop_fn = None
                if injector.is_pure_legacy:
                    self.fault_injector = None
            return
        if self.fault_injector is None:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(legacy_drop_fn=fn)
        else:
            self.fault_injector.legacy_drop_fn = fn

    # -- topology --------------------------------------------------------

    def add_host(
        self,
        name: str,
        cpu_cores: int = 1,
        cpu_speedup: float = 1.0,
        link_bandwidth: Optional[float] = None,
        clock_skew: float = 0.0,
    ) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name: {name}")
        host = Host(
            self.sim,
            name,
            self,
            cpu_cores=cpu_cores,
            cpu_speedup=cpu_speedup,
            link_bandwidth=link_bandwidth,
            clock_skew=clock_skew,
        )
        self.hosts[name] = host
        self._output_ports[name] = Resource(self.sim, 1)
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def link_stats(self) -> Dict[str, dict]:
        """Per-destination switch-port occupancy (telemetry view).

        Each entry covers the output port feeding one host's downlink:
        instantaneous queue depth, in-flight frames, peak backlog, and
        cumulative utilisation of the port's serializer.
        """
        return {
            name: port.stats() for name, port in self._output_ports.items()
        }

    def output_port(self, name: str) -> Resource:
        """The switch output-port resource feeding host ``name``."""
        return self._output_ports[name]

    # -- timing ----------------------------------------------------------

    def wire_time(self, size: int, bandwidth: float) -> float:
        """Serialization time for ``size`` payload bytes incl. framing."""
        frames = max(1, math.ceil(size / self.params.mtu))
        return (size + frames * self.params.frame_overhead) / bandwidth

    def _link_bw(self, host: Host) -> float:
        return host.link_bandwidth or self.params.bandwidth

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
            self.sim.process(
                self._journey(src_host, dst_host, packet),
                name=f"pkt:{packet.src}->{packet.dst}",
            )
            return
        # Fault-mangled path: one journey per surviving copy.  Copies after
        # the first are clones so an in-place µproxy rewrite on one arrival
        # cannot corrupt the other.
        self.packets_duplicated += len(delays) - 1
        for i, delay in enumerate(delays):
            copy = packet if i == 0 else packet.clone()
            if delay > 0:
                self.packets_delayed += 1
            self.sim.process(
                self._journey(src_host, dst_host, copy, launch_delay=delay),
                name=f"pkt:{packet.src}->{packet.dst}",
            )

    def _journey(self, src_host: Host, dst_host: Host, packet: Packet,
                 launch_delay: float = 0.0):
        params = self.params
        size = packet.size
        if launch_delay > 0:
            # Fault-injected extra latency (reorder / duplicate spacing).
            yield self.sim.timeout(launch_delay)
        # 1. Serialize out of the sender's NIC.
        yield from src_host.nic_tx.use(self.wire_time(size, self._link_bw(src_host)))
        yield self.sim.timeout(params.propagation + params.fabric_latency)
        if src_host is dst_host:
            # Same-host traffic short-circuits the switch output port.
            self._arrive(dst_host, packet)
            return
        # 2. Queue for, then serialize onto, the destination's switch port.
        port = self._output_ports[dst_host.name]
        yield from port.use(self.wire_time(size, self._link_bw(dst_host)))
        yield self.sim.timeout(params.propagation)
        self._arrive(dst_host, packet)

    def _arrive(self, dst_host: Host, packet: Packet) -> None:
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        if self.tracer is not None:
            self.tracer.packet_delivered(packet, self.sim.now)
        dst_host.deliver(packet)
