"""Journal records and snapshots of directory-server cells.

``SiteState`` journals a cell as a shallow copy of its fields.  Every cell
field is a scalar, so the copy must equal ``dataclasses.asdict`` of the
cell and must not follow the in-place updates that rename, ``touch_dir``
and ``set_parent`` make to a cell after journaling it.
"""

from dataclasses import asdict

from repro.dirsvc.state import AttrCell, NameCell, SiteState
from repro.nfs.types import NF3DIR, NF3REG


def attr_cell():
    return AttrCell(fileid=(3 << 40) | 9, ftype=NF3DIR, mode=0o750, nlink=3,
                    uid=7, gid=8, size=4096, used=4096, atime=1.25,
                    mtime=2.5, ctime=3.75, flags=1, home_site=3,
                    symlink_target="", parent_fileid=1, parent_site=0)


def name_cell():
    return NameCell(parent_fileid=1, name="dir-é", target_fileid=(3 << 40) | 9,
                    target_ftype=NF3DIR, target_flags=1, target_site=3)


def test_put_records_equal_asdict():
    state = SiteState(3)
    attr, name = attr_cell(), name_cell()
    assert state.put_attr_cell(attr) == {"op": "put_attr",
                                         "cell": asdict(attr)}
    assert state.put_name_cell(name) == {"op": "put_name",
                                         "cell": asdict(name)}
    assert list(state.put_attr_cell(attr)["cell"]) == list(asdict(attr))


def test_put_records_do_not_follow_later_cell_updates():
    state = SiteState(3)
    attr, name = attr_cell(), name_cell()
    attr_record = state.put_attr_cell(attr)
    name_record = state.put_name_cell(name)
    snapshot = state.snapshot()
    before = asdict(attr)
    # What rename, touch_dir and set_parent do to a journaled cell.
    attr.nlink += 1
    attr.mtime = attr.ctime = 9.0
    attr.parent_fileid, attr.parent_site = 77, 5
    name.target_site = 4
    assert attr_record["cell"] == before
    assert name_record["cell"] == asdict(name_cell())
    assert snapshot["attrs"] == [before]
    assert snapshot["names"] == [asdict(name_cell())]


def test_snapshot_and_replay_rebuild_equal_cells():
    state = SiteState(3)
    records = [state.put_attr_cell(attr_cell()),
               state.put_attr_cell(AttrCell(fileid=(3 << 40) | 4,
                                            ftype=NF3REG, home_site=3)),
               state.put_name_cell(name_cell())]
    snap = state.snapshot()
    assert snap["attrs"] == [asdict(c) for c in state.attr_cells.values()]
    restored = SiteState.from_snapshot(snap, 3)
    replayed = SiteState(3)
    for record in records:
        replayed.apply_record(record)
    for other in (restored, replayed):
        assert other.attr_cells == state.attr_cells
        assert other.name_cells == state.name_cells
    assert restored.next_local_id == 10
