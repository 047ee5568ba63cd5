"""A test-side fault injector that drops exactly the packets a predicate
picks, for drop sequences no :class:`~repro.faults.FaultPlan` rule can
express (the first N packets, one RPC procedure, a test's own RNG)."""

from repro.faults import FaultDecision

_PASS = FaultDecision()
_DROP = FaultDecision(drop=True)


class DropWhen:
    """Install as ``net.fault_injector``: drops every packet for which
    ``predicate(packet)`` is true; the network counts them as fault drops."""

    def __init__(self, predicate):
        self.predicate = predicate

    def on_transmit(self, pkt, now: float) -> FaultDecision:
        return _DROP if self.predicate(pkt) else _PASS
