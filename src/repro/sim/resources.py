"""Queueing primitives built on the event kernel.

:class:`Resource` models a server with fixed capacity and a FIFO queue
(e.g. a CPU or a disk arm).  :class:`Link` is a one-slot FIFO server whose
service time is known on arrival (a NIC or a switch port); it computes each
departure without events.  :class:`Store` is an unbounded producer/consumer
queue used for message passing between processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from .engine import Event, Simulator

__all__ = ["Link", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot, asked for at ``asked``."""

    __slots__ = ("resource", "asked")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        self.asked = resource.sim.now


class _Readings:
    """The read API :class:`Resource` and :class:`Link` share."""

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
            "queue_length": self.queue_length,
            "peak_queue": self.peak_queue,
            "total_served": self.total_served,
            "busy_time": self.busy_time(),
            "utilization": self.utilization(),
            "wait_time": self.wait_time,
        }


class Resource(_Readings):
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
    report utilisation, and the cumulative time granted requests waited
    (``wait_time``).
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
        #: seconds granted requests spent queued, summed at each grant
        self.wait_time = 0.0

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
        self.wait_time += self.sim.now - req.asked
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


class Link(_Readings):
    """A FIFO server with one slot whose service time is known on arrival.

    ``reserve(duration)`` books the slot and returns the departure time by
    Lindley's recursion, ``max(now, free_at) + duration``, without events:
    the caller schedules what happens at departure itself.  Every read
    (``in_use``, ``queue_length``, ``total_served``, ``busy_time()``,
    ``wait_time``, ``stats()``) answers what a :class:`Resource` of
    capacity 1 serving the same claims through ``use`` reads at the same
    instant: a claim is queued before its start, in service from its start
    and released at its departure, and each release closes a busy period
    that the next grant reopens.
    """

    capacity = 1

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._free_at = 0.0
        self._last_start = 0.0
        #: (start, departure, wait) of claims not yet departed when last
        #: settled, in FIFO order
        self._claims: deque = deque()
        self._busy_time = 0.0
        self._wait_time = 0.0
        self._released = 0
        self.peak_queue = 0

    def reserve(self, duration: float, asked: Optional[float] = None) -> float:
        """Book the slot for ``duration`` from when it frees; returns the
        departure time.

        ``asked`` is when the claim's arrival was scheduled, if before now.
        It settles one tie the way a process-driven :class:`Resource` sees
        it: a claim arriving in the very instant the slot frees counts as
        queued (for no time) if it was scheduled before the departing claim
        started, because its request then runs before that release.
        """
        now = self.sim.now
        claims = self._claims
        self._settle(now)
        start = self._free_at
        if start > now:
            # The claim at the front is in service; every later one waits.
            if len(claims) > self.peak_queue:
                self.peak_queue = len(claims)
        else:
            if (start == now and asked is not None
                    and asked < self._last_start and not self.peak_queue):
                self.peak_queue = 1
            start = now
        self._last_start = start
        depart = self._free_at = start + duration
        claims.append((start, depart, start - now))
        return depart

    def _settle(self, now: float) -> None:
        """Release the claims departed by ``now``, in departure order."""
        claims = self._claims
        while claims and claims[0][1] <= now:
            start, depart, wait = claims.popleft()
            self._busy_time += depart - start
            self._wait_time += wait
            self._released += 1

    def _serving(self):
        """The claim in service now, or None."""
        now = self.sim.now
        self._settle(now)
        claims = self._claims
        if claims and claims[0][0] <= now:
            return claims[0]
        return None

    @property
    def in_use(self) -> int:
        return 0 if self._serving() is None else 1

    @property
    def queue_length(self) -> int:
        return len(self._claims) - self.in_use

    @property
    def total_served(self) -> int:
        return self._released + self.in_use

    @property
    def wait_time(self) -> float:
        """Seconds granted claims spent queued."""
        serving = self._serving()
        if serving is None:
            return self._wait_time
        return self._wait_time + serving[2]

    def busy_time(self) -> float:
        """Cumulative seconds of service delivered so far."""
        serving = self._serving()
        if serving is None:
            return self._busy_time
        return self._busy_time + (self.sim.now - serving[0])


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
