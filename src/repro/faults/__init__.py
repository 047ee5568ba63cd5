"""Deterministic fault orchestration (chaos engine).

The paper's central claim — a µproxy may "discard its soft state without
compromising correctness" and the ensemble recovers behind NFS
retransmission and write-ahead logs — is only believable if the failure
modes are actually exercised.  This package turns adversity into data:

- :mod:`repro.faults.plan` — :class:`FaultPlan`, the declarative schedule
  (packet loss/dup/reorder/delay, partitions, crash/restart windows, slow
  disks, torn journal tails) that fully determines a chaos run.
- :mod:`repro.faults.injector` — :class:`FaultInjector`, the per-packet
  hook a :class:`~repro.net.network.Network` consults.
- :mod:`repro.faults.harness` — :class:`FaultController` executes timed
  faults against a cluster; :class:`ChaosHarness` runs a scenario under a
  plan and replays every trace invariant.
- :mod:`repro.faults.scenarios` — chaos-tolerant workloads with built-in
  end-state verification.

Seed policy: one integer on the plan; every random draw anywhere in the
chaos path comes from private streams split off it.  Identical plans yield
byte-identical trace digests (see ``docs/FAULTS.md``).
"""

from .plan import (
    COMPONENT_KINDS,
    CrashWindow,
    FaultPlan,
    PacketFaultRule,
    Partition,
    SlowDiskWindow,
)
from .injector import FaultDecision, FaultInjector
from .harness import ChaosHarness, ChaosReport, FaultController, instrument_wals
from .scenarios import (
    BulkIOChaosScenario,
    MixedOpsChaosScenario,
    NamespaceChaosScenario,
    RebalanceChaosScenario,
    UntarChaosScenario,
    check_namespace,
)

__all__ = [
    "COMPONENT_KINDS",
    "CrashWindow",
    "FaultPlan",
    "PacketFaultRule",
    "Partition",
    "SlowDiskWindow",
    "FaultDecision",
    "FaultInjector",
    "ChaosHarness",
    "ChaosReport",
    "FaultController",
    "instrument_wals",
    "BulkIOChaosScenario",
    "MixedOpsChaosScenario",
    "NamespaceChaosScenario",
    "RebalanceChaosScenario",
    "UntarChaosScenario",
    "check_namespace",
]
