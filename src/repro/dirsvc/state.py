"""Directory-server cell state (§4.3).

Directory information is stored as webs of fixed-size cells: *name cells*
(one per directory entry) and *attribute cells* (one per file/directory),
indexed by MD5 keys.  Attribute cells may be referenced from name cells on
other servers ("remote keys"), which is what lets both mkdir switching and
name hashing share one code base.  Both cell classes are also declared
XDR records: the dir-peer protocol carries them whole between servers.

Each logical site's cells live in a :class:`SiteState`, journaled to a
write-ahead log and periodically checkpointed to its backing object; a
crashed or migrated site is rebuilt from checkpoint + log replay (the paper
described but did not implement this recovery path; we complete it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.nfs.fhandle import FHandle
from repro.nfs.types import Fattr3, NF3DIR
from repro.rpc import xdr

__all__ = [
    "attr_key_for",
    "name_key_for",
    "AttrCell",
    "NameCell",
    "SiteState",
    "ROOT_FILEID",
    "make_root_cell",
]

ROOT_FILEID = 1


def make_root_cell() -> "AttrCell":
    """The volume root: fileid 1, home site 0, its own parent."""
    return AttrCell(
        fileid=ROOT_FILEID, ftype=NF3DIR, mode=0o755, nlink=2,
        home_site=0, parent_fileid=ROOT_FILEID, parent_site=0,
    )


def attr_key_for(fileid: int) -> bytes:
    """The 16-byte key of a file's attribute cell (minted into its fh)."""
    return hashlib.md5(b"attr:" + fileid.to_bytes(8, "big")).digest()


def name_key_for(parent_fileid: int, name: str) -> bytes:
    """The 16-byte key of a name entry cell."""
    return hashlib.md5(
        b"name:" + parent_fileid.to_bytes(8, "big") + name.encode("utf-8")
    ).digest()


@xdr.record(xdr.U64, xdr.U32, xdr.U32, xdr.U32, xdr.U32, xdr.U32,
            xdr.U64, xdr.U64, xdr.F64, xdr.F64, xdr.F64, xdr.U32, xdr.U32,
            xdr.string(1024), xdr.U64, xdr.U32)
@dataclass
class AttrCell:
    """Attributes (and for symlinks, the target path) of one object."""

    fileid: int
    ftype: int
    mode: int = 0o644
    nlink: int = 1
    uid: int = 0
    gid: int = 0
    size: int = 0
    used: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    flags: int = 0  # per-file policy flags minted into the fhandle
    home_site: int = 0
    symlink_target: str = ""
    # Directories know their parent so lookup("..") works and renames can
    # rewrite the linkage.
    parent_fileid: int = 0
    parent_site: int = 0

    def to_fattr(self) -> Fattr3:
        return Fattr3(
            ftype=self.ftype, mode=self.mode, nlink=self.nlink,
            uid=self.uid, gid=self.gid, size=self.size, used=self.used,
            fsid=1, fileid=self.fileid,
            atime=self.atime, mtime=self.mtime, ctime=self.ctime,
        )

    def to_fh(self, volume: int = 1) -> FHandle:
        return FHandle(
            volume, self.ftype, self.flags, self.fileid,
            self.home_site, attr_key_for(self.fileid),
        )


@xdr.record(xdr.U64, xdr.string(255), xdr.U64, xdr.U32, xdr.U32, xdr.U32)
@dataclass
class NameCell:
    """One directory entry: (parent, name) -> target object reference."""

    parent_fileid: int
    name: str
    target_fileid: int
    target_ftype: int
    target_flags: int
    target_site: int  # logical site of the target's attribute cell

    def target_fh(self, volume: int = 1) -> FHandle:
        return FHandle(
            volume, self.target_ftype, self.target_flags, self.target_fileid,
            self.target_site, attr_key_for(self.target_fileid),
        )

    @property
    def cookie(self) -> int:
        """Stable readdir cookie derived from the cell key (3.. upward;
        0-2 are reserved for start/'.'/'..')."""
        key = name_key_for(self.parent_fileid, self.name)
        return max(3, int.from_bytes(key[:8], "big") >> 16)


class SiteState:
    """All cells hosted by one logical directory-server site."""

    def __init__(self, site_id: int):
        self.site_id = site_id
        self.attr_cells: Dict[bytes, AttrCell] = {}
        self.name_cells: Dict[bytes, NameCell] = {}
        # dir fileid -> name-cell keys hosted here (site-local index)
        self.dir_index: Dict[int, Set[bytes]] = {}
        self.next_local_id = 1

    # -- mutation (each returns a journal record) ---------------------------
    # Every cell field is a scalar, so a shallow copy of a cell's fields is
    # a snapshot that later in-place updates of the cell do not reach.

    def put_attr_cell(self, cell: AttrCell) -> Dict:
        self.attr_cells[attr_key_for(cell.fileid)] = cell
        return {"op": "put_attr", "cell": dict(vars(cell))}

    def del_attr_cell(self, key: bytes) -> Dict:
        self.attr_cells.pop(key, None)
        return {"op": "del_attr", "key": key}

    def put_name_cell(self, cell: NameCell) -> Dict:
        key = name_key_for(cell.parent_fileid, cell.name)
        self.name_cells[key] = cell
        self.dir_index.setdefault(cell.parent_fileid, set()).add(key)
        return {"op": "put_name", "cell": dict(vars(cell))}

    def del_name_cell(self, parent_fileid: int, name: str) -> Dict:
        key = name_key_for(parent_fileid, name)
        self.name_cells.pop(key, None)
        index = self.dir_index.get(parent_fileid)
        if index is not None:
            index.discard(key)
            if not index:
                del self.dir_index[parent_fileid]
        return {"op": "del_name", "parent": parent_fileid, "name": name}

    # -- lookup ----------------------------------------------------------

    def get_attr_cell(self, key: bytes) -> Optional[AttrCell]:
        return self.attr_cells.get(key)

    def get_name_cell(self, parent_fileid: int, name: str) -> Optional[NameCell]:
        return self.name_cells.get(name_key_for(parent_fileid, name))

    def entries_of(self, dir_fileid: int):
        """Name cells of a directory hosted at this site, cookie order."""
        keys = self.dir_index.get(dir_fileid, ())
        cells = [self.name_cells[k] for k in keys]
        cells.sort(key=lambda c: (c.cookie, c.name))
        return cells

    def count_entries(self, dir_fileid: int) -> int:
        return len(self.dir_index.get(dir_fileid, ()))

    def alloc_fileid(self) -> int:
        """Globally unique fileid: (site id << 40) | local counter."""
        fileid = (self.site_id << 40) | self.next_local_id
        self.next_local_id += 1
        return fileid

    # -- checkpoint & recovery -----------------------------------------------

    def snapshot(self) -> Dict:
        return {
            "site_id": self.site_id,
            "attrs": [dict(vars(c)) for c in self.attr_cells.values()],
            "names": [dict(vars(c)) for c in self.name_cells.values()],
        }

    @classmethod
    def from_snapshot(cls, snap: Optional[Dict], site_id: int) -> "SiteState":
        state = cls(site_id)
        if snap:
            for raw in snap["attrs"]:
                state.put_attr_cell(AttrCell(**raw))
            for raw in snap["names"]:
                state.put_name_cell(NameCell(**raw))
        state._restore_counter()
        return state

    def apply_record(self, record: Dict) -> None:
        """Replay one journal record (idempotent)."""
        op = record["op"]
        if op == "put_attr":
            self.put_attr_cell(AttrCell(**record["cell"]))
        elif op == "del_attr":
            self.attr_cells.pop(record["key"], None)
        elif op == "put_name":
            self.put_name_cell(NameCell(**record["cell"]))
        elif op == "del_name":
            self.del_name_cell(record["parent"], record["name"])
        else:
            raise ValueError(f"unknown journal record: {op!r}")

    def _restore_counter(self) -> None:
        high = 0
        for cell in self.attr_cells.values():
            if cell.fileid >> 40 == self.site_id:
                high = max(high, cell.fileid & ((1 << 40) - 1))
        self.next_local_id = high + 1

    def finish_recovery(self) -> None:
        """Call after snapshot + full log replay."""
        self._restore_counter()

    def cell_count(self) -> int:
        return len(self.attr_cells) + len(self.name_cells)
