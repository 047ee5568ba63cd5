"""Typed ops, journal records and snapshots of directory-server cells.

``SiteState.apply`` is the only code that changes cells, live and at
replay, and ``SiteState.play`` runs one journal record through it.  A put
installs a copy of its op's cell, so the journaled op does not follow the
in-place updates that ``AdjLink``, ``TouchDir`` and ``SetParent`` make to
the cell afterwards.  Links and directory link counts are deltas, so a
checkpoint plus the log after it must replay every record exactly once.
"""

import copy
import random
from dataclasses import asdict

import pytest

from repro.dirsvc.backing import SiteBacking
from repro.dirsvc.state import (
    AdjLink,
    AttrCell,
    DelName,
    NameCell,
    PutAttr,
    PutName,
    SetParent,
    SiteState,
    TouchDir,
    attr_key_for,
    group_record,
    outcome_record,
    prepare_record,
)
from repro.nfs.types import NF3DIR, NF3REG
from repro.sim import Simulator


def attr_cell():
    return AttrCell(fileid=(3 << 40) | 9, ftype=NF3DIR, mode=0o750, nlink=3,
                    uid=7, gid=8, size=4096, used=4096, atime=1.25,
                    mtime=2.5, ctime=3.75, flags=1, home_site=3,
                    symlink_target="", parent_fileid=1, parent_site=0)


def name_cell():
    return NameCell(parent_fileid=1, name="dir-é", target_fileid=(3 << 40) | 9,
                    target_ftype=NF3DIR, target_flags=1, target_site=3)


def cells(state):
    return (state.attr_cells, state.name_cells, state.dir_index,
            state.prepared, state.decided)


def test_put_ops_install_a_copy_equal_to_the_cell():
    state = SiteState(3)
    attr, name = attr_cell(), name_cell()
    state.apply([PutAttr(attr), PutName(name)])
    installed_attr = state.get_attr_cell(attr_key_for(attr.fileid))
    installed_name = state.get_name_cell(name.parent_fileid, name.name)
    assert installed_attr == attr and installed_attr is not attr
    assert installed_name == name and installed_name is not name
    snapshot = state.snapshot()
    assert snapshot["attrs"] == [asdict(attr)]
    assert list(snapshot["attrs"][0]) == list(asdict(attr))
    assert snapshot["names"] == [asdict(name)]


def test_journaled_ops_do_not_follow_later_cell_updates():
    state = SiteState(3)
    record = group_record([PutAttr(attr_cell()), PutName(name_cell())])
    state.play(record)
    snapshot = state.snapshot()
    key = attr_key_for(attr_cell().fileid)
    # What rename, rmdir and link do to a journaled cell.
    state.apply([AdjLink(key, 1, 9.0), TouchDir(key, 9.0, 1),
                 SetParent(key, 77, 5)])
    state.get_name_cell(1, "dir-é").target_site = 4
    cell = state.get_attr_cell(key)
    assert (cell.nlink, cell.mtime, cell.parent_fileid) == (5, 9.0, 77)
    assert record == group_record([PutAttr(attr_cell()), PutName(name_cell())])
    assert snapshot["attrs"] == [asdict(attr_cell())]
    assert snapshot["names"] == [asdict(name_cell())]


def test_snapshot_and_replay_rebuild_equal_cells():
    state = SiteState(3)
    records = [group_record([PutAttr(attr_cell())]),
               group_record([PutAttr(AttrCell(fileid=(3 << 40) | 4,
                                              ftype=NF3REG, home_site=3))]),
               group_record([PutName(name_cell())])]
    for record in records:
        state.play(record)
    snap = state.snapshot()
    assert snap["attrs"] == [asdict(c) for c in state.attr_cells.values()]
    restored = SiteState.recover(snap, [], 3)
    replayed = SiteState.recover(None, records, 3)
    for other in (restored, replayed):
        assert other.attr_cells == state.attr_cells
        assert other.name_cells == state.name_cells
        assert other.next_local_id == 10


def test_play_holds_prepared_groups_until_their_outcome():
    state = SiteState(3)
    key = attr_key_for(attr_cell().fileid)
    state.play(group_record([PutAttr(attr_cell())]))
    state.play(group_record([AdjLink(key, 1, 5.0)], "dir1:7"))
    state.play(prepare_record("dir0:1", 2, [TouchDir(key, 6.0, 1)]))
    state.play(prepare_record("dir0:2", 2, [TouchDir(key, 7.0, 1)]))
    assert state.get_attr_cell(key).nlink == 4
    snap = state.snapshot()
    assert [txid for txid, _site, _ops in snap["prepared"]] == ["dir0:1",
                                                                 "dir0:2"]
    assert snap["decided"] == ["dir1:7"]
    tail = [outcome_record("dir0:1", True), outcome_record("dir0:2", False)]
    for record in tail:
        state.play(record)
    assert state.get_attr_cell(key).nlink == 5
    assert state.get_attr_cell(key).mtime == 6.0
    assert not state.prepared
    assert cells(SiteState.recover(snap, tail, 3)) == cells(state)


def test_adjlink_frees_a_cell_left_with_no_links():
    state = SiteState(3)
    cell = AttrCell(fileid=(3 << 40) | 4, ftype=NF3REG, home_site=3)
    key = attr_key_for(cell.fileid)
    state.apply([PutAttr(cell)])
    freed = state.apply([AdjLink(key, -1, 2.0), AdjLink(key, -1, 3.0)])
    assert [c.fileid for c in freed] == [cell.fileid]
    assert state.get_attr_cell(key) is None


# -- property: checkpoint + replay equals the live cells -----------------------


class _Workload:
    """Random journal records over a live ``SiteState``, journaled to a
    ``SiteBacking`` whose flushes take time, checkpointed at random points
    (some while a flush is in flight)."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sim = Simulator()
        self.backing = SiteBacking(self.sim)
        self.backing.log.write_cost = self._write
        self.live = SiteState(3)
        self.journaled = []  # (record, a deep copy taken when journaled)
        self.txids = 0
        self.in_flight_checkpoints = 0

    def _write(self, nbytes):
        yield self.sim.timeout(self.rng.choice((0.001, 0.004)))

    def _ops(self):
        rng, live = self.rng, self.live
        attrs = list(live.attr_cells.values())
        dirs = [c for c in attrs if c.ftype == NF3DIR]
        ops = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(6)
            when = rng.random() * 100.0
            if kind == 0 or not attrs:
                ops.append(PutAttr(AttrCell(
                    fileid=live.alloc_fileid(),
                    ftype=rng.choice((NF3DIR, NF3REG)),
                    nlink=rng.randint(1, 3), home_site=3,
                    mtime=when, ctime=when)))
                continue
            target = rng.choice(attrs)
            key = attr_key_for(target.fileid)
            parent = rng.choice(dirs).fileid if dirs else 1
            if kind == 1:
                ops.append(PutName(NameCell(
                    parent, f"n{rng.randrange(8)}", target.fileid,
                    target.ftype, 0, 3)))
            elif kind == 2 and live.name_cells:
                entry = rng.choice(list(live.name_cells.values()))
                ops.append(DelName(entry.parent_fileid, entry.name))
            elif kind == 3:
                ops.append(AdjLink(key, rng.choice((-1, 1)), when))
            elif kind == 4:
                ops.append(TouchDir(key, when, rng.choice((-1, 0, 1))))
            else:
                ops.append(SetParent(key, parent, 3))
        return ops

    def _record(self):
        rng, live = self.rng, self.live
        if live.prepared and rng.random() < 0.3:
            txid = rng.choice(sorted(live.prepared))
            return outcome_record(txid, rng.random() < 0.5)
        self.txids += 1
        txid = f"dir0:{self.txids}"
        if rng.random() < 0.2:
            return prepare_record(txid, 1, self._ops())
        return group_record(self._ops(), txid if rng.random() < 0.3 else None)

    def _journal(self):
        record = self._record()
        self.live.play(record)
        self.backing.log.append(record)
        self.journaled.append((record, copy.deepcopy(record)))

    def _checkpoint(self):
        if self.backing.log._flush_done is not None:
            self.in_flight_checkpoints += 1
        self.backing.checkpoint(self.live.snapshot())

    def _recovered(self):
        log = self.backing.log
        return SiteState.recover(self.backing.snapshot, log.stable_records(),
                                 self.live.site_id)

    def run(self, steps: int = 300):
        rng, sim, log = self.rng, self.sim, self.backing.log
        for step in range(steps):
            self._journal()
            roll = rng.random()
            if roll < 0.4:
                sim.process(log.sync())  # a committer waiting for its sync
            elif roll < 0.55:
                # A flush is under way: checkpoint in the middle of it.
                sim.process(log.sync())
                yield sim.timeout(0.0005)
                self._checkpoint()
            elif roll < 0.65:
                self._checkpoint()
            if rng.random() < 0.3:
                yield sim.timeout(rng.choice((0.0, 0.002, 0.005)))
            if step % 50 == 49:
                yield from log.sync()
                assert cells(self._recovered()) == cells(self.live)
        yield from log.sync()


@pytest.mark.parametrize("seed", range(12))
def test_checkpoint_and_replay_apply_every_record_once(seed):
    work = _Workload(seed)
    work.sim.run_process(work.run())
    assert work.in_flight_checkpoints > 0
    assert work.backing.log.unsynced == 0
    assert cells(work._recovered()) == cells(work.live)
    # The journal holds each op as it was when journaled.
    assert all(record == copy_ for record, copy_ in work.journaled)
