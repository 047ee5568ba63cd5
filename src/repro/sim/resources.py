"""Queueing primitives built on the event kernel.

:class:`Resource` models a server with fixed capacity and a FIFO queue
(e.g. a CPU or a disk arm).  :class:`Store` is an unbounded producer/consumer
queue used for message passing between processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from .engine import Event, Simulator

__all__ = ["Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource


class Resource:
    """A FIFO-served pool of ``capacity`` identical slots.

    Usage from a process::

        req = cpu.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            cpu.release(req)

    or the one-liner ``yield from cpu.use(service_time)``.

    The resource tracks cumulative busy time (slot-seconds) so callers can
    report utilisation.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiting: deque = deque()
        self._busy_time = 0.0
        self._busy_since: Optional[float] = None
        self.total_served = 0
        self.peak_queue = 0

    def request(self) -> Request:
        req = Request(self)
        if self.in_use < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)
            if len(self._waiting) > self.peak_queue:
                self.peak_queue = len(self._waiting)
        return req

    def _grant(self, req: Request) -> None:
        self.in_use += 1
        self.total_served += 1
        if self._busy_since is None:
            self._busy_since = self.sim.now
        req.succeed(self)

    def release(self, req: Request) -> None:
        if not req.triggered:
            # Cancelled before being granted: drop from the queue.
            try:
                self._waiting.remove(req)
            except ValueError:
                pass
            return
        self.in_use -= 1
        if self.in_use == 0 and self._busy_since is not None:
            self._busy_time += (self.sim.now - self._busy_since) * self.capacity
            self._busy_since = None
        while self._waiting and self.in_use < self.capacity:
            self._grant(self._waiting.popleft())

    def use(self, duration: float) -> Generator:
        """Claim a slot, hold it for ``duration``, then release it."""
        req = self.request()
        yield req
        try:
            if duration > 0:
                yield self.sim.timeout(duration)
        finally:
            self.release(req)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def busy_time(self) -> float:
        """Cumulative slot-seconds of service delivered so far."""
        total = self._busy_time
        if self._busy_since is not None:
            # Approximate: charge all current slots as busy since _busy_since.
            total += (self.sim.now - self._busy_since) * self.in_use
        return total

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of capacity busy over ``elapsed`` (default: since t=0)."""
        if elapsed is None:
            elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / (elapsed * self.capacity)

    def stats(self) -> dict:
        """One snapshot of the queueing state (for telemetry samplers)."""
        return {
            "capacity": self.capacity,
            "in_use": self.in_use,
            "queue_length": len(self._waiting),
            "peak_queue": self.peak_queue,
            "total_served": self.total_served,
            "busy_time": self.busy_time(),
            "utilization": self.utilization(),
        }


class Store:
    """An unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that triggers with the next
    item (immediately, if one is buffered).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque = deque()

    def put(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
