"""Tests for the write-ahead log: durability, group commit, checkpointing."""

import pytest

from repro.sim import Simulator
from repro.wal import WriteAheadLog


def test_append_returns_lsn():
    sim = Simulator()
    log = WriteAheadLog(sim)
    assert log.append({"op": "a"}) == 0
    assert log.append({"op": "b"}) == 1


def test_unsynced_records_lost_on_crash():
    sim = Simulator()
    log = WriteAheadLog(sim)
    log.append({"op": "a"})
    log.crash()
    assert len(log) == 0
    assert log.stable_records() == []


def test_synced_records_survive_crash():
    sim = Simulator()
    log = WriteAheadLog(sim)
    log.append({"op": "a"})

    def run():
        yield from log.sync()

    sim.run_process(run())
    log.append({"op": "b"})  # never synced
    log.crash()
    assert [r["op"] for r in log.stable_records()] == ["a"]


def test_append_sync_roundtrip():
    sim = Simulator()
    log = WriteAheadLog(sim)

    def run():
        lsn = yield from log.append_sync({"op": "x"})
        return lsn

    assert sim.run_process(run()) == 0
    assert log.stable_count == 1


def test_sync_is_idempotent_when_stable():
    sim = Simulator()
    log = WriteAheadLog(sim)

    def run():
        yield from log.append_sync({"op": "a"})
        syncs_before = log.syncs
        yield from log.sync()  # nothing new: no flush
        return log.syncs - syncs_before

    assert sim.run_process(run()) == 0


def test_group_commit_shares_one_flush():
    """Concurrent syncers with a slow log device share a single write."""
    sim = Simulator()
    flushes = []

    def slow_write(nbytes):
        flushes.append(nbytes)
        yield sim.timeout(0.01)

    log = WriteAheadLog(sim, write_cost=slow_write, record_bytes=100)
    done = []

    def writer(tag):
        log.append({"op": tag})
        yield from log.sync()
        done.append((tag, sim.now))

    def run():
        procs = [sim.process(writer(i)) for i in range(5)]
        yield sim.all_of(procs)

    sim.run_process(run())
    assert len(done) == 5
    # First flush covers writer 0; the second groups the remaining four
    # (they all appended while flush #1 was in flight).
    assert len(flushes) <= 3
    assert log.stable_count == 5


def test_log_bytes_accounting():
    sim = Simulator()
    log = WriteAheadLog(sim, record_bytes=100)

    def run():
        log.append({"a": 1})
        log.append({"b": 2})
        yield from log.sync()

    sim.run_process(run())
    assert log.bytes_logged == 200


def test_checkpoint_discards_prefix():
    sim = Simulator()
    log = WriteAheadLog(sim)

    def run():
        for i in range(5):
            yield from log.append_sync({"i": i})

    sim.run_process(run())
    log.checkpoint(3)
    assert [r["i"] for r in log.stable_records()] == [3, 4]
    assert log.stable_count == 2


def test_checkpoint_never_exceeds_stable():
    sim = Simulator()
    log = WriteAheadLog(sim)
    log.append({"i": 0})  # unsynced
    log.checkpoint(1)  # must not drop the unsynced record silently
    assert len(log) == 1


def test_records_are_copied():
    sim = Simulator()
    log = WriteAheadLog(sim)
    rec = {"op": "a"}
    log.append(rec)
    rec["op"] = "mutated"

    def run():
        yield from log.sync()

    sim.run_process(run())
    assert log.stable_records()[0]["op"] == "a"


def test_rejects_non_dict_records():
    sim = Simulator()
    log = WriteAheadLog(sim)
    with pytest.raises(TypeError):
        log.append(["not", "a", "dict"])


def _slow_log(write_s=0.01):
    sim = Simulator()

    def write(nbytes):
        yield sim.timeout(write_s)

    return sim, WriteAheadLog(sim, write_cost=write)


def test_checkpoint_during_an_in_flight_flush():
    """r1 synced, r2's flush in flight, then a checkpoint that holds both:
    the flush lands without shifting any position, and r3 gets a write of
    its own."""
    sim, log = _slow_log()
    sim.run_process(log.append_sync({"op": "r1"}))
    log.append({"op": "r2"})
    sim.process(log.sync())
    sim.run(until=sim.now + 0.005)
    assert log._flush_done is not None
    log.checkpoint(log.end_lsn)
    sim.run(until=sim.now + 0.01)
    assert (log.stable_count, log.unsynced, len(log)) == (0, 0, 0)
    assert log.base_lsn == 2
    start = sim.now
    assert sim.run_process(log.append_sync({"op": "r3"})) == 2
    assert sim.now - start == pytest.approx(0.01)
    assert (log.syncs, log.bytes_logged) == (3, 288)
    assert [r["op"] for r in log.stable_records()] == ["r3"]


@pytest.mark.parametrize("torn", [False, True])
def test_checkpointed_records_are_not_replayed_after_a_crash(torn):
    """A record the checkpoint holds is skipped by replay even when it was
    never synced, and its LSN is not handed out again."""
    sim = Simulator()
    log = WriteAheadLog(sim)
    sim.run_process(log.append_sync({"op": "a"}))
    log.append({"op": "b"})
    log.checkpoint(log.end_lsn)
    assert len(log) == 1  # b waits for its write
    if torn:
        log.torn_tail = lambda unsynced: unsynced
    log.crash()
    assert log.stable_records() == []
    assert log.append({"op": "c"}) == 2
    sim.run_process(log.sync())
    assert [r["op"] for r in log.stable_records()] == ["c"]


def test_a_flush_cut_by_a_crash_makes_nothing_stable():
    """A write in flight at a crash lands afterwards: it must not make the
    records appended after the crash stable."""
    sim, log = _slow_log()
    log.append({"op": "a"})
    sim.process(log.sync())
    sim.run(until=0.005)
    log.crash()
    log.append({"op": "b"})
    sim.run(until=0.02)
    assert (log.stable_count, log.unsynced) == (0, 1)
    sim.run_process(log.sync())
    assert [r["op"] for r in log.stable_records()] == ["b"]
