"""µproxy cycle accounting (Table 3).

The paper profiles the µproxy on a 500 MHz client and reports the CPU share
of four phases: packet interception, packet decode, redirection/rewriting,
and soft-state management.  The µproxy charges each phase in cycles here as
it works; the Table 3 benchmark divides by cpu_hz × elapsed to reproduce
the percentage breakdown.

Constants are calibrated to the paper's observations: decode dominates
(variable-length RPC/NFS headers must be walked to find the request type
and arguments), incremental checksum rewriting costs in proportion to the
bytes replaced, and soft state is a couple of hash-table operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CostParams", "CostModel", "PHASES"]

PHASES = ("intercept", "decode", "rewrite", "softstate")

# Per-phase cycle costs (reference: 500 MHz Alpha 21264).
INTERCEPT_CYCLES = 560.0  # filter hook + virtual-address match
DECODE_FIXED = 760.0  # RPC header setup
DECODE_PER_BYTE = 18.0  # XDR walking (variable-length fields)
REWRITE_FIXED = 260.0  # address swap bookkeeping
REWRITE_PER_BYTE = 32.0  # differential checksum per byte changed
SOFTSTATE_OP = 1250.0  # pending-record / attr-cache operation


@dataclass
class CostParams:
    """The reference CPU the cycles are a share of."""

    cpu_hz: float = 500e6


class CostModel:
    """Accumulates per-phase cycles; zero-cost to disable."""

    def __init__(self, params: CostParams | None = None, enabled: bool = True):
        self.params = params or CostParams()
        self.enabled = enabled
        self.cycles: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.packets = 0

    def intercept(self) -> None:
        """Charge one packet interception (filter hook + address match)."""
        if self.enabled:
            self.packets += 1
            self.cycles["intercept"] += INTERCEPT_CYCLES

    def decode(self, nbytes: int) -> None:
        """Charge decoding ``nbytes`` of RPC/NFS header."""
        if self.enabled:
            self.cycles["decode"] += DECODE_FIXED + DECODE_PER_BYTE * nbytes

    def rewrite(self, nbytes: int) -> None:
        """Charge rewriting ``nbytes`` with differential checksumming."""
        if self.enabled:
            self.cycles["rewrite"] += REWRITE_FIXED + REWRITE_PER_BYTE * nbytes

    def softstate(self, ops: int = 1) -> None:
        """Charge soft-state bookkeeping (pending records, caches)."""
        if self.enabled:
            self.cycles["softstate"] += SOFTSTATE_OP * ops

    # -- reporting -----------------------------------------------------------

    def total_cycles(self) -> float:
        """All cycles charged so far, across phases."""
        return sum(self.cycles.values())

    def cpu_fractions(self, elapsed_seconds: float) -> Dict[str, float]:
        """Fraction of the reference CPU consumed per phase."""
        budget = self.params.cpu_hz * elapsed_seconds
        if budget <= 0:
            return {phase: 0.0 for phase in PHASES}
        return {
            phase: cycles / budget for phase, cycles in self.cycles.items()
        }

    def reset(self) -> None:
        """Zero all counters (start of a measurement window)."""
        self.cycles = {phase: 0.0 for phase in PHASES}
        self.packets = 0
