"""Shared backing storage for dataless file managers, and their one core.

Every logical server site keeps a checkpoint snapshot and a write-ahead log
in the shared network storage array (§2.3).  Because the data is reachable
from any server, a surviving server can assume a failed server's role, and
reconfiguration can rebind logical sites to physical servers without
copying data.

This module is the in-simulation stand-in for those backing objects: the
*contents* live here (shared, survive server crashes); the *cost* of log
writes is charged to the log device of the manager hosting the site.
Directory and small-file servers both run on :class:`ManagerCore`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim import Simulator
from repro.storage.disk import LogDevice
from repro.wal import WriteAheadLog

__all__ = ["SiteBacking", "BackingRegistry", "ManagerCore",
           "CHECKPOINT_INTERVAL"]

#: Simulated seconds between a manager's periodic checkpoints of its sites.
CHECKPOINT_INTERVAL = 120.0


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


class ManagerCore:
    """What every dataless manager, served by the RpcServer ``server``,
    does with the logical sites of one ``kind`` it hosts: recover,
    checkpoint, crash and journal.

    A site's state is built by ``state_class.recover(snapshot, records,
    site_id)``, changed only by its ``play(record)`` (live and at replay
    alike) and saved by its ``snapshot()``.  Hooks: ``on_load(site_id,
    state)`` after a load, ``on_play(result)`` with what each played record
    returned, ``on_unload(site_id)`` after an unload and ``on_crash()``
    after a crash.
    """

    def __init__(self, sim: Simulator, server, backing: BackingRegistry,
                 kind: str, state_class, site_ids: List[int], *,
                 checkpoint_interval: float = CHECKPOINT_INTERVAL,
                 on_load=None, on_play=None, on_unload=None, on_crash=None):
        self.sim = sim
        self.server = server  # the manager's RpcServer
        self.host = host = server.host
        self.backing = backing
        self.kind = kind
        self.state_class = state_class
        self.on_load = on_load
        self.on_play = on_play
        self.on_unload = on_unload
        self.on_crash = on_crash
        # The manager's own log spindle: every hosted site's log appends
        # to its one sequential stream.
        self.log_device = LogDevice(sim)
        self.states: Dict[int, object] = {}
        # Bumped by every crash: work begun before it must not go on.  (A
        # small-file server also bumps it when an unload drops unstable
        # writes: its write verifier is derived from it.)
        self.boots = 0
        for site_id in site_ids:
            self.load(site_id)
        sim.process(self._checkpointer(checkpoint_interval),
                    name=f"{kind}-ckpt:{host.name}")

    def log(self, site_id: int) -> WriteAheadLog:
        return self.backing.site(self.kind, site_id).log

    def load(self, site_id: int) -> None:
        """Start hosting a site: checkpoint plus replay of the stable
        records after it."""
        if site_id in self.states:
            return
        site_backing = self.backing.site(self.kind, site_id)
        site_backing.log.write_cost = self.log_device.cost_fn()
        state = self.state_class.recover(
            site_backing.snapshot, site_backing.log.stable_records(), site_id)
        self.states[site_id] = state
        if self.on_load is not None:
            self.on_load(site_id, state)

    def unload(self, site_id: int):
        """Checkpoint a site and stop hosting it; returns its state (None
        if it was not hosted)."""
        state = self.states.pop(site_id, None)
        if state is not None:
            self.backing.site(self.kind, site_id).checkpoint(state.snapshot())
            if self.on_unload is not None:
                self.on_unload(site_id)
        return state

    def crash(self) -> None:
        """Lose every hosted state and each log's unsynced tail (it lived
        in this manager's memory); backing storage survives."""
        for site_id in self.states:
            self.log(site_id).crash()
        self.host.crash()
        self.server.clear_duplicate_cache()
        self.states.clear()
        self.boots += 1
        if self.on_crash is not None:
            self.on_crash()

    def restart(self, site_ids: Optional[List[int]] = None) -> None:
        self.host.restart()
        for site_id in site_ids or []:
            self.load(site_id)

    def _checkpointer(self, interval: float):
        while True:
            yield self.sim.timeout(interval)
            if not self.host.up:
                continue
            for site_id, state in list(self.states.items()):
                site_backing = self.backing.site(self.kind, site_id)
                yield from site_backing.log.sync()
                if self.states.get(site_id) is state:  # not lost or moved
                    site_backing.checkpoint(state.snapshot())

    def play(self, site_id: int, record: Dict) -> None:
        result = self.states[site_id].play(record)
        if self.on_play is not None:
            self.on_play(result)

    def journal(self, pairs: List[Tuple[int, Dict]]):
        """Generator: play (site, record) pairs, append each to its own
        site's log, then sync every touched log (group commit)."""
        logs = []
        for site_id, record in pairs:
            self.play(site_id, record)
            log = self.log(site_id)
            log.append(record)
            if log not in logs:
                logs.append(log)
        for log in logs:
            yield from log.sync()

    def gauges(self) -> Dict[str, float]:
        logs = [self.log(site_id) for site_id in self.states]
        return {
            "loaded_sites": len(self.states),
            "wal_depth": sum(log.depth for log in logs),
            "wal_unsynced": sum(log.unsynced for log in logs),
        }
