"""Declarative, replayable fault schedules.

A :class:`FaultPlan` is the single document that describes *everything* an
adversarial run does to a Slice cluster: packet loss / duplication /
reordering / extra delay (per link and per RPC program), link partitions
between host groups, timed crash/restart windows for any component, slow
disks, and torn-tail WAL writes at crash.  Plans are plain data — they can
be printed, compared, and (most importantly) replayed: the same
plan with the same seed produces the *identical* simulated run, byte for
byte (see ``tests/test_chaos.py::test_chaos_runs_are_deterministic``).

Time semantics: every ``start``/``end``/``at`` field is expressed in
simulated seconds **relative to the moment the plan is armed** (the
:class:`~repro.faults.injector.FaultInjector` being installed, or
:meth:`~repro.faults.harness.FaultController.start` being called), so a
plan composed for "crash the dir server 150 ms into the run" works no
matter what absolute simulation time the run begins at.

Randomness policy: a plan carries one integer ``seed``.  Everything
derived from it (the packet-fault stream, crash-time torn-tail lengths)
uses dedicated ``random.Random`` streams split off that seed, never the
global RNG, so unrelated randomness in a workload cannot perturb the fault
schedule and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

__all__ = [
    "PacketFaultRule",
    "Partition",
    "CrashWindow",
    "SlowDiskWindow",
    "FaultPlan",
    "COMPONENT_KINDS",
]

# Component kinds a CrashWindow / SlowDiskWindow may target.  These map onto
# SliceCluster collections (see repro.faults.harness._resolve_component).
COMPONENT_KINDS = ("storage", "dir", "sf", "coord", "config")

_INF = math.inf


def _check_rate(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


def _check_window(label: str, start: float, end: float) -> None:
    if start < 0:
        raise ValueError(f"{label}: start must be >= 0, got {start}")
    if end < start:
        raise ValueError(f"{label}: end {end} precedes start {start}")


@dataclass
class PacketFaultRule:
    """One stochastic packet-fault source.

    Matching: a rule applies to a packet when every *specified* criterion
    matches — ``src``/``dst`` are host-name prefixes (``"client"`` matches
    ``client0``, ``client1``, ...; ``None`` matches everything), ``prog``
    is an ONC RPC program number matched against the packet's call header
    (non-call packets never match a ``prog``-restricted rule), and the
    simulated clock must lie in ``[start, end)``.

    Effects (independently sampled per matching packet, in this order):

    ``loss``
        Drop the packet outright with this probability.
    ``dup``
        Deliver a second copy, launched ``dup_delay``-mean seconds later
        (exponentially distributed) — exercises duplicate-request caches.
    ``reorder``
        Hold the packet back an extra exponential delay of mean
        ``reorder_delay`` so packets sent after it overtake it.
    ``delay``
        Add an exponential extra latency of this mean to every match
        (congestion / slow-link emulation).
    """

    src: Optional[str] = None
    dst: Optional[str] = None
    prog: Optional[int] = None
    start: float = 0.0
    end: float = _INF
    loss: float = 0.0
    dup: float = 0.0
    dup_delay: float = 0.0005
    reorder: float = 0.0
    reorder_delay: float = 0.002
    delay: float = 0.0

    def __post_init__(self):
        _check_rate("loss", self.loss)
        _check_rate("dup", self.dup)
        _check_rate("reorder", self.reorder)
        _check_window("PacketFaultRule", self.start, self.end)
        if self.delay < 0 or self.dup_delay < 0 or self.reorder_delay < 0:
            raise ValueError("delays must be non-negative")

    def matches(self, src_host: str, dst_host: str, now: float,
                prog: Optional[int]) -> bool:
        if not (self.start <= now < self.end):
            return False
        if self.src is not None and not src_host.startswith(self.src):
            return False
        if self.dst is not None and not dst_host.startswith(self.dst):
            return False
        if self.prog is not None and prog != self.prog:
            return False
        return True


@dataclass
class Partition:
    """Sever the links between two host groups during ``[start, end)``.

    Groups are tuples of host-name prefixes; a packet is dropped when its
    source matches one side and its destination the other (both
    directions).  Hosts matching neither side are unaffected — this is a
    *link* partition, not a host failure: the partitioned servers keep
    running and serve any peer they can still reach.
    """

    a: Tuple[str, ...]
    b: Tuple[str, ...]
    start: float = 0.0
    end: float = _INF

    def __post_init__(self):
        self.a = tuple(self.a)
        self.b = tuple(self.b)
        if not self.a or not self.b:
            raise ValueError("partition groups must be non-empty")
        _check_window("Partition", self.start, self.end)

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    @staticmethod
    def _in_group(host: str, group: Tuple[str, ...]) -> bool:
        return any(host.startswith(prefix) for prefix in group)

    def severs(self, src_host: str, dst_host: str) -> bool:
        return (
            self._in_group(src_host, self.a)
            and self._in_group(dst_host, self.b)
        ) or (
            self._in_group(src_host, self.b)
            and self._in_group(dst_host, self.a)
        )


@dataclass
class CrashWindow:
    """Crash one component at ``at``; restart it at ``restart_at``.

    ``component`` is one of :data:`COMPONENT_KINDS`; ``index`` selects the
    instance.  ``restart_at=None`` leaves the component down for the rest
    of the run (the harness revives it during quiesce so invariants can
    settle).  ``torn_tail=True`` simulates a torn final journal write: a
    seeded-random *prefix* of the records that were appended but never
    acknowledged stable survives on the platter — recovery must treat them
    as durable (they are prefix-consistent) without ever losing a record
    that *was* acknowledged.
    """

    component: str
    index: int = 0
    at: float = 0.0
    restart_at: Optional[float] = None
    torn_tail: bool = False

    def __post_init__(self):
        if self.component not in COMPONENT_KINDS:
            raise ValueError(
                f"unknown component {self.component!r}; "
                f"expected one of {COMPONENT_KINDS}"
            )
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ValueError(
                f"restart_at {self.restart_at} must follow crash at {self.at}"
            )


@dataclass
class SlowDiskWindow:
    """Multiply a component's disk service times by ``factor`` during
    ``[start, end)`` — grey failure: the disk answers, just slowly."""

    component: str
    index: int = 0
    factor: float = 10.0
    start: float = 0.0
    end: float = _INF

    def __post_init__(self):
        if self.component not in COMPONENT_KINDS:
            raise ValueError(
                f"unknown component {self.component!r}; "
                f"expected one of {COMPONENT_KINDS}"
            )
        if self.factor < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {self.factor}")
        _check_window("SlowDiskWindow", self.start, self.end)


@dataclass
class FaultPlan:
    """The full declarative fault schedule for one run."""

    seed: int = 0
    packet_faults: List[PacketFaultRule] = field(default_factory=list)
    partitions: List[Partition] = field(default_factory=list)
    crashes: List[CrashWindow] = field(default_factory=list)
    slow_disks: List[SlowDiskWindow] = field(default_factory=list)

    # -- composition --------------------------------------------------------

    def with_seed(self, seed: int) -> "FaultPlan":
        """A copy of this plan under a different seed (seed-matrix runs)."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """One line per fault source — goes into failure reports."""
        lines = [f"FaultPlan(seed={self.seed})"]
        for rule in self.packet_faults:
            effects = []
            if rule.loss:
                effects.append(f"loss={rule.loss:g}")
            if rule.dup:
                effects.append(f"dup={rule.dup:g}")
            if rule.reorder:
                effects.append(f"reorder={rule.reorder:g}")
            if rule.delay:
                effects.append(f"delay~{rule.delay:g}s")
            scope = []
            if rule.src is not None:
                scope.append(f"src={rule.src}*")
            if rule.dst is not None:
                scope.append(f"dst={rule.dst}*")
            if rule.prog is not None:
                scope.append(f"prog={rule.prog}")
            window = (
                "" if rule.end == _INF and rule.start == 0.0
                else f" during [{rule.start:g}, {rule.end:g})"
            )
            lines.append(
                "  packets "
                + (" ".join(scope) or "any")
                + ": " + (" ".join(effects) or "no-op")
                + window
            )
        for part in self.partitions:
            lines.append(
                f"  partition {'|'.join(part.a)} <-/-> {'|'.join(part.b)} "
                f"during [{part.start:g}, {part.end:g})"
            )
        for crash in self.crashes:
            restart = (
                f", restart at {crash.restart_at:g}"
                if crash.restart_at is not None else ", no restart"
            )
            torn = ", torn WAL tail" if crash.torn_tail else ""
            lines.append(
                f"  crash {crash.component}[{crash.index}] at "
                f"{crash.at:g}{restart}{torn}"
            )
        for slow in self.slow_disks:
            lines.append(
                f"  slow-disk {slow.component}[{slow.index}] x{slow.factor:g} "
                f"during [{slow.start:g}, {slow.end:g})"
            )
        return "\n".join(lines)
