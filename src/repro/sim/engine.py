"""Discrete-event simulation kernel.

The kernel provides simulated time, one-shot :class:`Event` objects, and
generator-based :class:`Process` coroutines, in the style of SimPy but
self-contained and tuned for this project's workloads (tens of millions of
events per benchmark run).

A process is an ordinary generator that yields events; the kernel resumes it
with the event's value when the event triggers, or throws the event's
exception into it when the event fails.  Processes are themselves events that
trigger when the generator returns, so processes can wait on each other;
:meth:`Simulator.spawn` starts one whose end nobody waits for, which then
costs no kernel step.  :meth:`Simulator.call_at` runs a plain function at a
given time, for timed work that needs no coroutine at all.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Simulator",
    "AnyOf",
    "AllOf",
]

_UNSET = object()


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts untriggered.  Calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once; triggering schedules its callbacks to run at the
    current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _UNSET
        self._ok = True
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise RuntimeError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _UNSET:
            raise RuntimeError("event already triggered")
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _UNSET:
            raise RuntimeError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self.sim._schedule(self)
        return self


class Timeout(Event):
    """An event that triggers after a fixed delay.

    The value is held in ``_pvalue`` and only becomes the event value when
    the delay elapses, so ``triggered`` stays False until the timeout fires.
    """

    __slots__ = ("delay", "_pvalue")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._pvalue = value
        sim._schedule(self, delay)


class Process(Event):
    """Wraps a generator; drives it by resuming on yielded events.

    The process triggers (as an event) with the generator's return value when
    the generator finishes, or fails with its exception if it raises.
    """

    __slots__ = ("_gen", "_waiting_on", "name", "_detached")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {type(gen)!r}")
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        #: set by :meth:`Simulator.spawn`: a normal return with no waiter
        #: marks the process processed without scheduling its end.
        self._detached = False
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off at the current time via an already-triggered event.
        start = Event(sim)
        start._value = None
        start.callbacks.append(self._resume)
        sim._schedule(start)

    @property
    def is_alive(self) -> bool:
        return self._value is _UNSET

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        target = self._waiting_on
        if target is not None and self._resume in (target.callbacks or ()):
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        kick = Event(self.sim)
        kick._ok = False
        kick._value = Interrupt(cause)
        kick.callbacks.append(self._resume)
        # Mark the interrupt as "handled" so an uncaught kernel error does not
        # fire for the defused event; the process sees the exception instead.
        self.sim._schedule(kick)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        gen = self._gen
        while True:
            try:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    target = gen.throw(event._value)
            except StopIteration as stop:
                self._value = stop.value
                if self._detached and not self.callbacks:
                    self.callbacks = None
                else:
                    self.sim._schedule(self)
                return
            except Interrupt as exc:
                # An unhandled interrupt terminates the process with failure.
                self._ok = False
                self._value = exc
                self.sim._schedule(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.sim._schedule(self)
                self.sim._record_crash(self, exc)
                return
            if not isinstance(target, Event):
                gen.throw(
                    TypeError(f"process yielded non-event {target!r}")
                )
                continue
            if target.callbacks is None:
                # Already processed: resume immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._waiting_on = target
            return


class AnyOf(Event):
    """Triggers when the first of several events triggers.

    Value is a dict mapping the triggered event(s) to their values at the
    moment of triggering.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None or ev.triggered:
                self._collect(ev)
                return
        for ev in self.events:
            ev.callbacks.append(self._collect)

    def _collect(self, _event: Event) -> None:
        if self.triggered:
            return
        done = {ev: ev._value for ev in self.events if ev.triggered and ev._ok}
        failed = [ev for ev in self.events if ev.triggered and not ev._ok]
        if failed:
            self.fail(failed[0]._value)
        else:
            self.succeed(done)


class AllOf(Event):
    """Triggers when all of several events have triggered."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = 0
        for ev in self.events:
            if not ev.triggered:
                self._remaining += 1
                ev.callbacks.append(self._collect)
            elif not ev._ok:
                self.fail(ev._value)
                return
        if self._remaining == 0 and not self.triggered:
            self.succeed({ev: ev._value for ev in self.events})

    def _collect(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({ev: ev._value for ev in self.events})


class _Call:
    """A function call scheduled by :meth:`Simulator.call_at`.

    It sits in the heap like an already-triggered event; :meth:`Simulator.step`
    runs ``fn(*args)`` in place of event callbacks.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn, args: tuple):
        self.fn = fn
        self.args = args


class Simulator:
    """The event loop: a clock plus a priority queue of triggered events."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._eid = 0
        self._crashes: list = []
        #: dead once the garbage collector reclaims this simulation (see
        #: :meth:`_schedule`)
        self._alive = weakref.ref(self)

    # -- construction helpers ------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """:meth:`process` for a coroutine whose end nobody waits for.

        If it returns while no callback waits on it, the process is marked
        processed at once and its end costs no kernel step.  The end takes
        no event id either, so the order of all other events is unchanged.
        A process that raises still fails as an event and is recorded as a
        crash.
        """
        proc = self.process(gen, name)
        proc._detached = True
        return proc

    def call_at(self, when: float, fn, *args) -> None:
        """Run ``fn(*args)`` from :meth:`step` at the absolute time ``when``.

        It costs one event id and one step, like a timeout, but no event
        object, callback list or process.  The time is absolute because
        ``now + (when - now)`` is not always ``when`` in floating point.
        """
        if when < self.now:
            raise ValueError(f"call_at({when!r}) is in the past "
                             f"(now={self.now!r})")
        self._eid += 1
        heapq.heappush(self._heap, (when, self._eid, _Call(fn, args)))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        if self._alive() is None:
            # The garbage collector is finalizing this unreachable
            # simulation's suspended processes, and a ``finally`` clause is
            # waking a waiter.  A new heap entry would make the whole dead
            # simulation reachable again until the next collection.
            return
        event._scheduled = True
        self._eid += 1
        heapq.heappush(self._heap, (self.now + delay, self._eid, event))

    def _record_crash(self, process: Process, exc: BaseException) -> None:
        self._crashes.append((self.now, process, exc))

    @property
    def crashed_processes(self) -> list:
        """(time, process, exception) for processes that died uncaught."""
        return list(self._crashes)

    # -- execution -----------------------------------------------------------

    def step(self) -> None:
        when, _eid, event = heapq.heappop(self._heap)
        self.now = when
        if event.__class__ is _Call:
            event.fn(*event.args)
            return
        if event._value is _UNSET:
            # Only Timeouts are scheduled before triggering; they fire now.
            event._value = event._pvalue
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``."""
        heap = self._heap
        if until is None:
            while heap:
                self.step()
            return
        if until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        while heap and heap[0][0] <= until:
            self.step()
        if self.now < until:
            self.now = until

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: spawn ``gen`` and run until it finishes; return value."""
        proc = self.process(gen, name)
        while proc._value is _UNSET:
            if not self._heap:
                raise RuntimeError(
                    f"deadlock: process {proc.name!r} never finished"
                )
            self.step()
        if not proc._ok:
            raise proc._value
        return proc._value
