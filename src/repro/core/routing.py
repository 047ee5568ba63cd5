"""µproxy routing tables (§3, §3.3.1).

A routing table maps *logical server sites* to physical server addresses.
The µproxy's copy is a hint: it may go stale during reconfiguration, in
which case servers answer MISDIRECTED and the µproxy lazily reloads the
table from the configuration service.  Keeping many logical sites per
physical server makes the tables compact and sets the rebalancing
granularity (~1/Nth of the data moves when a server joins or leaves).

Tables are versioned per-table, and the configuration service stamps a
cluster-wide *epoch* across all of them (§6): every reconfiguration —
a site rebind, a server joining or leaving — bumps the epoch, and stale
µproxies detect the change on their next conditional fetch.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.net import Address

__all__ = ["RoutingTable"]


class RoutingTable:
    """Versioned logical-site -> physical-address map."""

    def __init__(self, entries: Sequence[Address], version: int = 1,
                 epoch: int = 0):
        if not entries:
            raise ValueError("routing table needs at least one entry")
        self.entries: List[Address] = list(entries)
        self.version = version
        #: cluster epoch at which this binding generation was installed
        #: (0 = never reconfigured / not stamped by a config service).
        self.epoch = epoch

    @property
    def num_sites(self) -> int:
        """Number of logical sites (table granularity)."""
        return len(self.entries)

    def lookup(self, site: int) -> Address:
        """Physical server currently bound to a logical site."""
        return self.entries[site % len(self.entries)]

    def rebind(self, site: int, address: Address, version: int) -> None:
        """Point one logical site at a new physical server.

        ``version`` is the explicit target version for the new binding
        generation and must be strictly newer than the current one: two
        same-generation rebinds computed from the same base can no
        longer collide silently — the second raises and the caller must
        re-read the table and retry against the newer version.
        """
        if version <= self.version:
            raise ValueError(
                f"rebind target version {version} is not newer than "
                f"current version {self.version}"
            )
        self.entries[site % len(self.entries)] = address
        self.version = version

    def replace(self, entries: Sequence[Address], version: int,
                epoch: int = None) -> bool:
        """Install a freshly fetched table (e.g. after MISDIRECTED).

        Only strictly newer versions are accepted; re-offering the
        *same* version is a no-op unless the entries differ, in which
        case the offer is a fork of the binding history and is refused
        loudly instead of silently replacing the hints.  Returns True
        if the table changed.
        """
        entries = list(entries)
        if version < self.version:
            return False
        if version == self.version:
            if entries != self.entries:
                raise ValueError(
                    f"routing table fork: version {version} offered with "
                    f"different entries than the installed generation"
                )
            return False
        self.entries = entries
        self.version = version
        if epoch is not None:
            self.epoch = epoch
        return True

    def servers(self) -> List[Address]:
        """Distinct physical servers, in first-appearance order."""
        seen: Dict[Address, None] = {}
        for addr in self.entries:
            seen.setdefault(addr)
        return list(seen)

    def sites_of(self, address: Address) -> List[int]:
        """Logical sites bound to one physical server."""
        return [s for s, a in enumerate(self.entries) if a == address]

    def copy(self) -> "RoutingTable":
        """Independent copy (each µproxy holds its own hint table)."""
        return RoutingTable(list(self.entries), self.version, self.epoch)
