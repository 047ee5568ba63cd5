"""Write-ahead logging with group commit.

Every Slice file manager is *dataless*: its state is backed by storage
objects plus this journal, and "the system can recover the state of any
manager from its backing objects together with its log" (§2.3).  Records
are plain dicts; the log guarantees that a record reported stable survives
a crash, and that records never reported stable vanish with one.  Positions
are absolute LSNs.  A checkpoint tells the log which records the caller's
snapshot holds, synced or not, and replay skips them, so a record whose
effect is a delta is replayed exactly once.

Group commit (Hagmann-style, [10] in the paper): concurrent sync() callers
share one sequential disk write, amortizing log I/O — the reason each
directory server generates only ~0.5 MB/s of log traffic at 6000 ops/s.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim import Simulator

__all__ = ["WriteAheadLog"]


class WriteAheadLog:
    """An append-only journal with explicit sync points."""

    def __init__(
        self,
        sim: Simulator,
        write_cost: Optional[Callable[[int], object]] = None,
        record_bytes: int = 96,
        name: str = "",
    ):
        """``write_cost(nbytes)`` returns a generator charging the time of a
        sequential log write (e.g. ``lambda n: array.access(ptr, n, True)``);
        None makes syncs free (pure unit tests)."""
        self.sim = sim
        self.write_cost = write_cost
        self.record_bytes = record_bytes
        self.name = name  # observability label (set by the chaos harness)
        self.records: List[Dict] = []
        self.bytes_logged = 0
        self.syncs = 0
        self.crashes = 0
        self._flush_done = None  # event while a flush is in progress
        # -- fault hooks (see repro.faults) -------------------------------
        # ``torn_tail(n_unsynced) -> keep`` models a torn final device
        # write at crash: a prefix of the never-acknowledged tail survives
        # on the platter.  ``on_crash(log, stable_before, survivors,
        # appended)`` reports every crash to an observer (the tracer's
        # wal-prefix invariant input).
        self.torn_tail: Optional[Callable[[int], int]] = None
        self.on_crash: Optional[Callable[["WriteAheadLog", int, int, int], None]] = None
        # Positions are absolute LSNs, which checkpoint truncation does not
        # shift: records[0] has ``base_lsn``, every record below
        # ``stable_lsn`` is stable, and the caller's checkpoint holds the
        # effects of every record below ``checkpoint_lsn``.
        self.base_lsn = 0
        self.stable_lsn = 0
        self.checkpoint_lsn = 0

    @property
    def end_lsn(self) -> int:
        """The LSN the next appended record gets."""
        return self.base_lsn + len(self.records)

    # -- appending ---------------------------------------------------------

    def append(self, record: Dict) -> int:
        """Append a record (volatile until synced); returns its LSN."""
        if not isinstance(record, dict):
            raise TypeError(f"log records are dicts, got {type(record)!r}")
        self.records.append(dict(record))
        return self.end_lsn - 1

    def sync(self):
        """Generator: return once every record appended so far is stable,
        or lost to a crash.

        Concurrent callers piggyback on the in-flight flush when it covers
        their records (group commit).
        """
        target, crashes = self.end_lsn, self.crashes
        while self.stable_lsn < target and self.crashes == crashes:
            if self._flush_done is not None:
                yield self._flush_done
            else:
                yield from self._flush()

    def append_sync(self, record: Dict):
        """Generator: append and make stable; returns the LSN."""
        lsn = self.append(record)
        yield from self.sync()
        return lsn

    def _flush(self):
        self._flush_done = self.sim.event()
        try:
            pending_upto, crashes = self.end_lsn, self.crashes
            nbytes = (pending_upto - self.stable_lsn) * self.record_bytes
            if self.write_cost is not None and nbytes > 0:
                yield from self.write_cost(nbytes)
            else:
                yield self.sim.timeout(0)
            if self.crashes == crashes:  # else the buffer died mid-write
                self.stable_lsn = max(self.stable_lsn, pending_upto)
                self._discard()
            self.bytes_logged += nbytes
            self.syncs += 1
        finally:
            done = self._flush_done
            self._flush_done = None
            done.succeed(None)

    # -- recovery ------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: drop everything never acknowledged stable.

        With a ``torn_tail`` hook armed (chaos runs), the final in-flight
        device write may have partially landed: a *prefix* of the unsynced
        tail survives and becomes stable — the strongest corruption a
        sequential journal device can exhibit without violating its write
        ordering.  Records acknowledged stable always survive.
        """
        self.crashes += 1
        appended = len(self.records)
        stable_before = self.stable_count
        keep = 0
        unsynced = appended - stable_before
        if self.torn_tail is not None and unsynced > 0:
            keep = max(0, min(unsynced, int(self.torn_tail(unsynced))))
        del self.records[stable_before + keep:]
        # Torn-tail survivors were physically written: they are stable now.
        self.stable_lsn = self.end_lsn
        if self.on_crash is not None:
            self.on_crash(self, stable_before, self.stable_count, appended)
        # Records the checkpoint holds may be lost; their LSNs stay used.
        self.stable_lsn = max(self.stable_lsn, self.checkpoint_lsn)
        self._discard()

    def stable_records(self) -> List[Dict]:
        """The records guaranteed to survive a crash right now that the
        caller's checkpoint does not hold (what recovery replays)."""
        first = max(0, self.checkpoint_lsn - self.base_lsn)
        return [dict(r) for r in self.records[first:self.stable_count]]

    def checkpoint(self, upto_lsn: int) -> None:
        """The caller checkpointed the effects of every record below
        ``upto_lsn``: replay skips them from now on.  Each is discarded
        once it is stable; one not yet synced stays held until its write
        lands."""
        self.checkpoint_lsn = max(self.checkpoint_lsn, upto_lsn)
        self._discard()

    def _discard(self) -> None:
        upto = min(self.checkpoint_lsn, self.stable_lsn)
        if upto > self.base_lsn:
            del self.records[:upto - self.base_lsn]
            self.base_lsn = upto

    # -- telemetry ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Records currently held (stable + volatile tail)."""
        return len(self.records)

    @property
    def stable_count(self) -> int:
        """Records held that are stable."""
        return self.stable_lsn - self.base_lsn

    @property
    def unsynced(self) -> int:
        """Appended records not yet acknowledged stable."""
        return self.end_lsn - self.stable_lsn

    def __len__(self) -> int:
        return len(self.records)
