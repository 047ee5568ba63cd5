"""Per-key locks used to serialize conflicting name-space operations.

Conflicting operations on one name entry serialize "on the shared hash
chain" (§3.2); here that is an explicit lock per cell key.  Local
mutations and transaction prepares lock the same keys.  Each lock records
its owner, so a prepare can tell a prepared transaction from a mutation
still in progress at this server (see ``DirectoryServer._peer_prepare``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable

from repro.sim import Simulator

__all__ = ["KeyLocks"]


class KeyLocks:
    def __init__(self, sim: Simulator):
        self.sim = sim
        self._held: Dict[Hashable, deque] = {}
        self._owner: Dict[Hashable, object] = {}

    def try_acquire(self, key: Hashable, owner: object = None) -> bool:
        """Non-blocking; True if the lock was taken."""
        if key in self._held:
            return False
        self._held[key] = deque()
        self._owner[key] = owner
        return True

    def acquire(self, key: Hashable, owner: object = None):
        """Generator: block until the lock is taken."""
        waiters = self._held.get(key)
        if waiters is None:
            self._held[key] = deque()
            self._owner[key] = owner
            yield self.sim.timeout(0)
            return
        event = self.sim.event()
        waiters.append((event, owner))
        yield event

    def release(self, key: Hashable) -> None:
        """Release; ownership passes to the oldest waiter, if any."""
        waiters = self._held.get(key)
        if waiters is None:
            return
        if waiters:
            event, self._owner[key] = waiters.popleft()
            event.succeed(None)
        else:
            del self._held[key]
            del self._owner[key]

    def owner(self, key: Hashable) -> object:
        """Who holds the lock (None when free or held anonymously)."""
        return self._owner.get(key)

    def release_all(self, keys) -> None:
        """Release several locks (abort paths)."""
        for key in keys:
            self.release(key)
