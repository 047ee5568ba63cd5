"""Shared backing storage for dataless file managers.

Every logical server site keeps a checkpoint snapshot and a write-ahead log
in the shared network storage array (§2.3).  Because the data is reachable
from any server, a surviving server can assume a failed server's role, and
reconfiguration can rebind logical sites to physical servers without
copying data.

This module is the in-simulation stand-in for those backing objects: the
*contents* live here (shared, survive server crashes); the *cost* of log
and checkpoint writes is charged through each log's ``write_cost`` hook,
which the hosting server points at its path to the storage array.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim import Simulator
from repro.wal import WriteAheadLog

__all__ = ["SiteBacking", "BackingRegistry"]


class SiteBacking:
    """Checkpoint + journal for one logical site."""

    def __init__(self, sim: Simulator):
        self.snapshot: Optional[Dict] = None
        self.log = WriteAheadLog(sim)
        self.generation = 0  # bumped on every checkpoint

    def checkpoint(self, snapshot: Dict) -> None:
        """Install a new checkpoint, which holds the effects of every
        record journaled so far, synced or not: replay skips them all."""
        self.snapshot = snapshot
        self.generation += 1
        self.log.checkpoint(self.log.end_lsn)


class BackingRegistry:
    """All backing objects in the storage array, keyed by (kind, site id)."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._sites: Dict[Tuple[str, int], SiteBacking] = {}

    def site(self, kind: str, site_id: int) -> SiteBacking:
        """Backing state for one logical site, created on first touch."""
        key = (kind, site_id)
        backing = self._sites.get(key)
        if backing is None:
            backing = SiteBacking(self.sim)
            self._sites[key] = backing
        return backing

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return key in self._sites
