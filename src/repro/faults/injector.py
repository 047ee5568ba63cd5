"""The structured packet-fault hook installed on a :class:`~repro.net.
network.Network`.

The network consults ``network.fault_injector`` on every transmit.  The
injector evaluates the armed :class:`~repro.faults.plan.FaultPlan`'s
partitions and packet-fault rules against the packet and the simulated
clock, draws from its own dedicated seeded RNG, and returns a
:class:`FaultDecision` telling the network to drop the packet or to launch
one or more (possibly delayed) copies.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from .plan import FaultPlan

__all__ = ["FaultDecision", "FaultInjector"]


class FaultDecision:
    """What the network should do with one packet."""

    __slots__ = ("drop", "reason", "delays")

    def __init__(self, drop: bool = False, reason: str = "fault",
                 delays: Optional[Tuple[float, ...]] = None):
        self.drop = drop
        self.reason = reason
        # Launch delays, one per delivered copy; None means one immediate
        # copy (the unfaulted fast path avoids allocating a tuple).
        self.delays = delays


_PASS = FaultDecision()
_DROP_FAULT = FaultDecision(drop=True, reason="fault")
_DROP_PARTITION = FaultDecision(drop=True, reason="partition")


class FaultInjector:
    """Evaluates a fault plan per packet.

    One injector per network.  All sampling uses ``self.rng`` — a stream
    dedicated to packet faults, derived from the plan seed — so runs are
    reproducible.  ``epoch`` is the simulated time the plan was armed;
    rule windows are relative to it.
    """

    def __init__(
        self,
        plan: FaultPlan,
        rng: Optional[random.Random] = None,
        epoch: float = 0.0,
        tracer=None,
    ):
        self.plan = plan
        # Dedicated stream: never touch the global RNG.
        self.rng = rng or random.Random(
            (plan.seed * 2654435761 + 97) & 0xFFFFFFFF
        )
        self.epoch = epoch
        self.tracer = tracer
        # -- statistics -----------------------------------------------------
        self.drops_loss = 0
        self.drops_partition = 0
        self.duplicates = 0
        self.reorders = 0
        self.delays_added = 0

    # -- introspection ------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "drops_loss": self.drops_loss,
            "drops_partition": self.drops_partition,
            "duplicates": self.duplicates,
            "reorders": self.reorders,
            "delays_added": self.delays_added,
        }

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _prog_of(pkt) -> Optional[int]:
        """The RPC program of a CALL packet, or None (lazy, best-effort)."""
        try:
            from repro.rpc.messages import CallHeader
            from repro.rpc.xdr import Decoder

            return CallHeader.decode(Decoder(pkt.header)).prog
        except Exception:
            return None

    def _trace(self, name: str, pkt, now: float, **attrs) -> None:
        if self.tracer is not None:
            self.tracer.fault_injected(
                name, now, src=str(pkt.src), dst=str(pkt.dst), **attrs
            )

    # -- the per-packet hook -------------------------------------------------

    def on_transmit(self, pkt, now: float) -> FaultDecision:
        """Decide the fate of one packet at simulated time ``now``."""
        plan = self.plan
        rel = now - self.epoch
        src_host = pkt.src.host
        dst_host = pkt.dst.host

        for part in plan.partitions:
            if part.active(rel) and part.severs(src_host, dst_host):
                self.drops_partition += 1
                self._trace("partition_drop", pkt, now)
                return _DROP_PARTITION

        if not plan.packet_faults:
            return _PASS

        # prog decoded at most once per packet, and only if some rule asks.
        prog: Optional[int] = None
        prog_known = False
        rng = self.rng
        primary_delay = 0.0
        extra_copies: Tuple[float, ...] = ()
        for rule in plan.packet_faults:
            if rule.prog is not None and not prog_known:
                prog = self._prog_of(pkt)
                prog_known = True
            if not rule.matches(src_host, dst_host, rel, prog):
                continue
            if rule.loss and rng.random() < rule.loss:
                self.drops_loss += 1
                self._trace("loss", pkt, now)
                return _DROP_FAULT
            if rule.dup and rng.random() < rule.dup:
                self.duplicates += 1
                dup_delay = (
                    rng.expovariate(1.0 / rule.dup_delay)
                    if rule.dup_delay > 0 else 0.0
                )
                extra_copies = extra_copies + (dup_delay,)
                self._trace("duplicate", pkt, now)
            if rule.reorder and rng.random() < rule.reorder:
                self.reorders += 1
                primary_delay += (
                    rng.expovariate(1.0 / rule.reorder_delay)
                    if rule.reorder_delay > 0 else 0.0
                )
                self._trace("reorder", pkt, now)
            if rule.delay:
                self.delays_added += 1
                primary_delay += rng.expovariate(1.0 / rule.delay)
        if primary_delay == 0.0 and not extra_copies:
            return _PASS
        return FaultDecision(
            drop=False, delays=(primary_delay,) + extra_copies
        )
