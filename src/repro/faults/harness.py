"""Orchestration: execute a :class:`~repro.faults.plan.FaultPlan` against a
live :class:`~repro.ensemble.cluster.SliceCluster`, then prove the run out.

Two layers:

:class:`FaultController`
    Schedules the plan's timed faults (crash/restart windows, slow-disk
    windows, torn-tail journal writes) as simulation processes against a
    cluster.  It knows how each :data:`~repro.faults.plan.COMPONENT_KINDS`
    entry maps onto cluster state — which object to ``crash()``, which
    logical sites to hand back to ``restart()``, which
    :class:`~repro.wal.log.WriteAheadLog` instances die with a component —
    so a plan stays declarative.

:class:`ChaosHarness`
    The whole loop: build a traced cluster, arm the packet-fault injector
    and the controller, drive a scenario (see :mod:`repro.faults.scenarios`)
    to completion, quiesce (revive anything still down, heal slow disks),
    let retransmissions drain, run the scenario's own end-state
    verification, and finally replay the PR-1 trace invariants — including
    the chaos-specific ``wal-prefix`` and ``at-most-once`` rules — via
    :class:`~repro.obs.checker.TraceChecker`.  Returns a
    :class:`ChaosReport` whose ``digest`` is a deterministic fingerprint of
    the entire run: identical plans and seeds must produce identical
    digests (the determinism oracle in ``tests/test_chaos.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .injector import FaultInjector
from .plan import CrashWindow, FaultPlan, SlowDiskWindow

__all__ = [
    "FaultController",
    "ChaosHarness",
    "ChaosReport",
    "instrument_wals",
]

_INF = float("inf")


def instrument_wals(cluster, tracer) -> int:
    """Name every write-ahead log in the cluster and report its crashes.

    Each :class:`~repro.wal.log.WriteAheadLog` gets an ``on_crash`` observer
    feeding the tracer's ``wal-prefix`` invariant ledger (stable-before /
    survivors / ever-appended counts per crash).  Returns the number of
    logs instrumented.
    """
    sim = cluster.sim

    def hook(log, name: str) -> None:
        if not log.name:
            log.name = name

        def on_crash(the_log, stable_before, survivors, appended):
            tracer.wal_crash(
                the_log.name, stable_before, survivors, appended, sim.now
            )

        log.on_crash = on_crash

    count = 0
    for (kind, site), backing in sorted(cluster.backing._sites.items()):
        hook(backing.log, f"{kind}:{site}")
        count += 1
    for index, coord in enumerate(cluster.coordinators):
        hook(coord.log, f"coord:{index}")
        count += 1
    return count


class FaultController:
    """Executes a plan's timed faults against one cluster.

    All torn-tail lengths are drawn from a dedicated stream split off the
    plan seed (never the global RNG), so the same plan replays the same
    torn tails.  ``start()`` arms the schedule relative to the current
    simulated time; ``quiesce()`` revives every component still down and
    heals every slow disk so invariants can settle.
    """

    def __init__(self, cluster, plan: FaultPlan,
                 rng: Optional[random.Random] = None, tracer=None):
        self.cluster = cluster
        self.plan = plan
        # Distinct stream from the packet injector's (different salt).
        self.rng = rng or random.Random(
            (plan.seed * 0x9E3779B1 + 41) & 0xFFFFFFFF
        )
        self.tracer = tracer
        self.epoch = 0.0
        self._active = False
        # (component, index) -> revive thunk for everything currently down.
        self._down: Dict[Tuple[str, int], object] = {}
        self._slowed: List[object] = []  # disks with slow_factor != 1
        self.crashes_executed = 0
        self.restarts_executed = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FaultController":
        """Arm the schedule: plan times are relative to *now*."""
        sim = self.cluster.sim
        self.epoch = sim.now
        self._active = True
        for window in self.plan.crashes:
            sim.process(
                self._run_crash(window),
                name=f"chaos-crash:{window.component}{window.index}",
            )
        for slow in self.plan.slow_disks:
            sim.process(
                self._run_slow(slow),
                name=f"chaos-slow:{slow.component}{slow.index}",
            )
        return self

    def quiesce(self) -> None:
        """Stop injecting, revive the dead, heal the sick."""
        self._active = False
        for key in sorted(self._down):
            self._restart(key)
        for disk in self._slowed:
            disk.slow_factor = 1.0
        del self._slowed[:]

    # -- immediate (event-driven) faults --------------------------------------

    def crash_now(self, component: str, index: int = 0,
                  torn_tail: bool = False) -> Tuple[str, int]:
        """Crash a component *right now* (event-driven tests that trigger on
        workload progress rather than on the clock).  The component stays
        down until :meth:`restart_now` or :meth:`quiesce`."""
        return self._crash(
            CrashWindow(component, index=index, at=0.0, torn_tail=torn_tail)
        )

    def restart_now(self, component: str, index: int = 0) -> None:
        """Revive a component crashed by this controller."""
        self._restart((component, index))

    # -- component resolution -------------------------------------------------

    def _manager(self, component: str, index: int):
        """The directory or small-file server named, else None."""
        servers = {"dir": self.cluster.dir_servers,
                   "sf": self.cluster.sf_servers}.get(component)
        return servers[index] if servers is not None else None

    def _wals_of(self, component: str, index: int) -> List[object]:
        """The write-ahead logs that crash with this component."""
        server = self._manager(component, index)
        if server is not None:
            return [server.core.log(s) for s in sorted(server.core.states)]
        if component == "coord":
            return [self.cluster.coordinators[index].log]
        return []  # storage nodes and the config service keep no journal

    def _disks_of(self, component: str, index: int) -> List[object]:
        server = self._manager(component, index)
        if server is not None:
            return [server.core.log_device.disk]
        if component == "storage":
            return list(self.cluster.storage_nodes[index].array.disks)
        raise ValueError(
            f"component {component!r} has no disk to slow "
            "(only storage/dir/sf do)"
        )

    # -- crash / restart execution ------------------------------------------

    def _crash(self, window: CrashWindow) -> Tuple[str, int]:
        c = self.cluster
        kind, index = window.component, window.index
        key = (kind, index)
        if key in self._down:
            return key  # overlapping windows: already down
        logs = self._wals_of(kind, index)
        if window.torn_tail:
            # A seeded prefix of the never-acknowledged tail survives on
            # the platter (the strongest corruption a sequential journal
            # device exhibits without violating write ordering).
            rng = self.rng
            for log in logs:
                log.torn_tail = lambda unsynced: rng.randint(0, unsynced)
        try:
            server = self._manager(kind, index)
            if server is not None:
                core = server.core
                sites = sorted(core.states)
                core.crash()
                revive = lambda: core.restart(site_ids=sites)  # noqa: E731
            elif kind == "storage":
                node = c.storage_nodes[index]
                node.crash()
                revive = node.restart
            elif kind == "coord":
                coord = c.coordinators[index]
                coord.crash()
                revive = coord.restart
            else:  # "config": the host dies; tables live in memory and survive
                host = c.configsvc.host
                host.crash()
                revive = host.restart
        finally:
            for log in logs:
                log.torn_tail = None
        self._down[key] = revive
        self.crashes_executed += 1
        if self.tracer is not None:
            self.tracer.fault_injected(
                "crash", self.cluster.sim.now,
                component=kind, index=index, torn_tail=window.torn_tail,
            )
        return key

    def _restart(self, key: Tuple[str, int]) -> None:
        revive = self._down.pop(key, None)
        if revive is None:
            return
        revive()
        self.restarts_executed += 1
        if self.tracer is not None:
            self.tracer.fault_injected(
                "restart", self.cluster.sim.now,
                component=key[0], index=key[1],
            )

    # -- scheduled processes ---------------------------------------------------

    def _run_crash(self, window: CrashWindow):
        sim = self.cluster.sim
        yield sim.timeout(window.at)
        if not self._active:
            return
        key = self._crash(window)
        if window.restart_at is None:
            return  # stays down until quiesce()
        yield sim.timeout(window.restart_at - window.at)
        if not self._active:
            return  # quiesce already revived it
        self._restart(key)

    def _run_slow(self, slow: SlowDiskWindow):
        sim = self.cluster.sim
        disks = self._disks_of(slow.component, slow.index)
        if slow.start > 0:
            yield sim.timeout(slow.start)
        if not self._active:
            return
        for disk in disks:
            disk.slow_factor = slow.factor
            self._slowed.append(disk)
        if self.tracer is not None:
            self.tracer.fault_injected(
                "slow_disk", sim.now, component=slow.component,
                index=slow.index, factor=slow.factor,
            )
        if slow.end == _INF:
            return  # healed at quiesce()
        yield sim.timeout(slow.end - slow.start)
        if not self._active:
            return
        for disk in disks:
            disk.slow_factor = 1.0
            if disk in self._slowed:
                self._slowed.remove(disk)
        if self.tracer is not None:
            self.tracer.fault_injected(
                "slow_disk_healed", sim.now, component=slow.component,
                index=slow.index,
            )


@dataclass
class ChaosReport:
    """Everything a chaos run produced, for assertions and repro reports."""

    plan: FaultPlan
    result: object  # whatever the scenario's drive() returned
    summary: Dict[str, int]  # tracer summary (invariants held)
    digest: str  # deterministic fingerprint of the whole run
    fault_counters: Dict[str, int] = field(default_factory=dict)
    crashes_executed: int = 0
    restarts_executed: int = 0

    def describe(self) -> str:
        lines = [self.plan.describe()]
        lines.append(
            f"  executed: {self.crashes_executed} crash(es), "
            f"{self.restarts_executed} restart(s), faults={self.fault_counters}"
        )
        lines.append(f"  digest: {self.digest}")
        return "\n".join(lines)


class ChaosHarness:
    """Run scenarios under a fault plan and check every invariant we have.

    The harness owns the cluster and its tracer so that a plan + scenario +
    seed fully determine the run — nothing else may inject randomness.
    Reproducing a failure is therefore::

        report = ChaosHarness(plan).run(scenario)

    with the failing plan printed by ``plan.describe()`` (see
    ``docs/FAULTS.md``).
    """

    #: Small-but-distributed default shape: every component kind is present
    #: and replicated where the plan may crash one of them.
    DEFAULT_SHAPE = dict(
        num_storage_nodes=3, num_dir_servers=2, num_sf_servers=2,
        dir_logical_sites=8, sf_logical_sites=4,
    )

    def __init__(self, plan: FaultPlan, params=None, num_clients: int = 1):
        from repro.ensemble.cluster import SliceCluster
        from repro.ensemble.params import ClusterParams
        from repro.obs import Tracer

        self.plan = plan
        self.tracer = Tracer()
        self.cluster = SliceCluster(
            params=params or ClusterParams(**self.DEFAULT_SHAPE),
            tracer=self.tracer,
        )
        self.wals_instrumented = instrument_wals(self.cluster, self.tracer)
        self.clients = [
            self.cluster.add_client() for _ in range(num_clients)
        ]
        self.injector: Optional[FaultInjector] = None
        self.controller: Optional[FaultController] = None

    def client(self, index: int = 0):
        """The NfsClient of client ``index`` (its µproxy is ``proxy(i)``)."""
        return self.clients[index][0]

    def proxy(self, index: int = 0):
        return self.clients[index][1]

    def run(self, scenario, settle: float = 45.0,
            require_replies: bool = False,
            allow_open_intents: bool = False) -> ChaosReport:
        """Drive ``scenario`` under the plan; returns the checked report.

        ``settle`` simulated seconds of fault-free time separate quiesce
        from verification so retransmissions drain and watchdog recovery
        fires.  ``require_replies`` defaults off: a plan that keeps a
        component down for the whole run legitimately abandons calls.
        Raises :class:`~repro.obs.checker.InvariantViolation` if any trace
        invariant fails.
        """
        from repro.obs.checker import TraceChecker

        cluster, sim = self.cluster, self.cluster.sim
        self.injector = FaultInjector(
            self.plan, epoch=sim.now, tracer=self.tracer
        )
        cluster.net.fault_injector = self.injector
        self.controller = FaultController(
            cluster, self.plan, tracer=self.tracer
        )
        self.controller.start()
        try:
            result = cluster.run(scenario.drive(self), name="chaos-drive")
        finally:
            self.controller.quiesce()
            cluster.net.fault_injector = None  # stop injecting
        if settle > 0:
            sim.run(until=sim.now + settle)
        cluster.run(scenario.verify(self), name="chaos-verify")
        checker = TraceChecker(self.tracer)
        summary = checker.check(
            require_replies=require_replies,
            allow_open_intents=allow_open_intents,
        )
        return ChaosReport(
            plan=self.plan,
            result=result,
            summary=summary,
            digest=self.tracer.digest(),
            fault_counters=self.injector.counters(),
            crashes_executed=self.controller.crashes_executed,
            restarts_executed=self.controller.restarts_executed,
        )
