"""Directory-server cell state (§4.3).

Directory information is stored as webs of fixed-size cells: *name cells*
(one per directory entry) and *attribute cells* (one per file/directory),
indexed by MD5 keys.  Attribute cells may be referenced from name cells on
other servers ("remote keys"), which is what lets both mkdir switching and
name hashing share one code base.  Both cell classes are also declared
XDR records: the dir-peer protocol carries them whole between servers.

Cells change only through typed ops (:data:`OPS`), which
:meth:`SiteState.apply` applies.  Each logical site's state lives in a
:class:`SiteState`, journaled to a write-ahead log one record per
transaction and periodically checkpointed to its backing object; a crashed
or migrated site is rebuilt from checkpoint + log replay, which plays each
record through the same :meth:`SiteState.play` the live path ran (the paper
described but did not implement this recovery path; we complete it).

Journal records are dicts of three kinds, built by :func:`group_record`,
:func:`prepare_record` and :func:`outcome_record`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.nfs.fhandle import FHandle
from repro.nfs.types import Fattr3, NF3DIR
from repro.rpc import xdr

__all__ = [
    "attr_key_for",
    "name_key_for",
    "cookie_of",
    "AttrCell",
    "NameCell",
    "PutName",
    "DelName",
    "AdjLink",
    "TouchDir",
    "SetParent",
    "PutAttr",
    "OPS",
    "group_record",
    "prepare_record",
    "outcome_record",
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


def cookie_of(key: bytes) -> int:
    """The stable readdir cookie of a name cell, from its key (3 upward;
    0-2 are reserved for start, '.' and '..')."""
    return max(3, int.from_bytes(key[:8], "big") >> 16)


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


#: An attribute-cell key.
KEY = xdr.fixed(16)


# -- typed ops: the only way a cell changes -----------------------------------


@xdr.record(xdr.nested(NameCell), xdr.BOOL)
class PutName(NamedTuple):
    """Install a name entry; with ``must_not_exist`` an existing entry
    rejects the transaction with EXIST."""

    cell: NameCell
    must_not_exist: bool = False


@xdr.record(xdr.U64, xdr.string(255))
class DelName(NamedTuple):
    parent_fileid: int
    name: str


@xdr.record(KEY, xdr.I32, xdr.F64)
class AdjLink(NamedTuple):
    """Add ``delta`` to an object's link count and set its ctime; a cell
    left with no links is deleted (and a regular file's data reclaimed)."""

    key: bytes
    delta: int
    ctime: float


@xdr.record(KEY, xdr.F64, xdr.I32)
class TouchDir(NamedTuple):
    """Advance a directory's mtime and ctime (never back) and add
    ``nlink_delta`` to its link count.  The count is not clamped: a
    decrement may commit before the increment it pairs with, and only
    exact deltas commute."""

    key: bytes
    mtime: float
    nlink_delta: int


@xdr.record(KEY, xdr.U64, xdr.U32)
class SetParent(NamedTuple):
    """Repoint a moved directory at its new parent."""

    key: bytes
    parent_fileid: int
    parent_site: int


@xdr.record(xdr.nested(AttrCell))
class PutAttr(NamedTuple):
    """Install a new object's attribute cell."""

    cell: AttrCell


#: Every op kind, in the order of its arm in the dir-peer ``OP`` union.
OPS = (PutName, DelName, AdjLink, TouchDir, SetParent, PutAttr)


# -- journal records -----------------------------------------------------------


def group_record(ops: List[NamedTuple], txid: Optional[str] = None) -> Dict:
    """A group of ops committed at a site.  On the serving site's record of
    a transaction with remote groups, ``txid`` is the commit decision."""
    return {"kind": "group", "txid": txid, "ops": ops}


def prepare_record(txid: str, coord_site: int, ops: List[NamedTuple]) -> Dict:
    """A group held prepared for a remote coordinator."""
    return {"kind": "tx_prepare", "txid": txid, "coord_site": coord_site,
            "ops": ops}


def outcome_record(txid: str, commit: bool) -> Dict:
    """How a prepared group ended; a commit applies the prepared ops."""
    return {"kind": "tx_commit" if commit else "tx_abort", "txid": txid}


class SiteState:
    """All cells hosted by one logical directory-server site, with the
    groups held prepared here and the transactions decided here."""

    def __init__(self, site_id: int):
        self.site_id = site_id
        self.attr_cells: Dict[bytes, AttrCell] = {}
        self.name_cells: Dict[bytes, NameCell] = {}
        # dir fileid -> its entries hosted here as (cookie, name, key),
        # in readdir order
        self.dir_index: Dict[int, List[Tuple[int, str, bytes]]] = {}
        self.next_local_id = 1
        # txid -> (coordinator site, ops): groups prepared for a remote
        # coordinator and not ended yet.
        self.prepared: Dict[str, Tuple[int, List[NamedTuple]]] = {}
        # Transactions this site coordinated and decided commit.
        self.decided: Set[str] = set()

    # -- cell index -----------------------------------------------------------

    def put_attr_cell(self, cell: AttrCell) -> None:
        self.attr_cells[attr_key_for(cell.fileid)] = cell

    def put_name_cell(self, cell: NameCell) -> None:
        key = name_key_for(cell.parent_fileid, cell.name)
        if key not in self.name_cells:
            insort(self.dir_index.setdefault(cell.parent_fileid, []),
                   (cookie_of(key), cell.name, key))
        self.name_cells[key] = cell

    def del_name_cell(self, parent_fileid: int, name: str) -> None:
        key = name_key_for(parent_fileid, name)
        if self.name_cells.pop(key, None) is None:
            return
        index = self.dir_index[parent_fileid]
        del index[bisect_left(index, (cookie_of(key), name, key))]
        if not index:
            del self.dir_index[parent_fileid]

    # -- mutation -------------------------------------------------------------

    def apply(self, ops: List[NamedTuple]) -> List[AttrCell]:
        """Apply a group of ops; returns the attribute cells left with no
        links (the caller reclaims their data, replay does not).

        Live and at replay, this is the only code that changes a cell.  A
        put installs a copy of its op's cell, so a later in-place update
        never reaches the op (which the journal holds).
        """
        freed = []
        for op in ops:
            kind = type(op)
            if kind is PutName:
                self.put_name_cell(NameCell(**vars(op.cell)))
            elif kind is DelName:
                self.del_name_cell(op.parent_fileid, op.name)
            elif kind is PutAttr:
                self.put_attr_cell(AttrCell(**vars(op.cell)))
            else:
                cell = self.attr_cells.get(op.key)
                if cell is None:
                    continue
                if kind is AdjLink:
                    cell.nlink += op.delta
                    cell.ctime = op.ctime
                    if cell.nlink <= 0:
                        # No links left: the cell goes, a file's data too.
                        del self.attr_cells[op.key]
                        freed.append(cell)
                elif kind is TouchDir:
                    cell.mtime = max(cell.mtime, op.mtime)
                    cell.ctime = max(cell.ctime, op.mtime)
                    cell.nlink += op.nlink_delta
                else:  # SetParent
                    cell.parent_fileid = op.parent_fileid
                    cell.parent_site = op.parent_site
        return freed

    def play(self, record: Dict) -> List[AttrCell]:
        """Apply one journal record; returns what :meth:`apply` freed.

        The live path plays every record it journals, and recovery plays
        the log, so a record does the same thing both times.
        """
        kind, txid = record["kind"], record["txid"]
        if kind == "group":
            if txid is not None:
                self.decided.add(txid)
            return self.apply(record["ops"])
        if kind == "tx_prepare":
            self.prepared[txid] = record["coord_site"], record["ops"]
            return []
        ops = self.prepared.pop(txid)[1]  # tx_commit or tx_abort
        return self.apply(ops) if kind == "tx_commit" else []

    # -- lookup ----------------------------------------------------------

    def get_attr_cell(self, key: bytes) -> Optional[AttrCell]:
        return self.attr_cells.get(key)

    def get_name_cell(self, parent_fileid: int, name: str) -> Optional[NameCell]:
        return self.name_cells.get(name_key_for(parent_fileid, name))

    def entries_after(self, dir_fileid: int, cookie: int, limit: int):
        """Up to ``limit`` entries of a directory hosted at this site whose
        cookies follow ``cookie``, in readdir order, as (cookie, cell)."""
        index = self.dir_index.get(dir_fileid, ())
        start = bisect_left(index, (cookie + 1,))
        cells = self.name_cells
        return [(c, cells[key]) for c, _name, key in index[start:start + limit]]

    def count_entries(self, dir_fileid: int) -> int:
        return len(self.dir_index.get(dir_fileid, ()))

    def alloc_fileid(self) -> int:
        """Globally unique fileid: (site id << 40) | local counter."""
        fileid = (self.site_id << 40) | self.next_local_id
        self.next_local_id += 1
        return fileid

    # -- checkpoint & recovery -----------------------------------------------

    def snapshot(self) -> Dict:
        """Every cell as a dict of its fields, the prepared groups and the
        decided txids.  Ops are immutable and no applied cell is an op's,
        so the snapshot may share them."""
        return {
            "site_id": self.site_id,
            "attrs": [dict(vars(c)) for c in self.attr_cells.values()],
            "names": [dict(vars(c)) for c in self.name_cells.values()],
            "prepared": [(txid, coord_site, ops) for txid, (coord_site, ops)
                         in self.prepared.items()],
            "decided": sorted(self.decided),
        }

    @classmethod
    def recover(cls, snap: Optional[Dict], records: List[Dict],
                site_id: int) -> "SiteState":
        """Rebuild a site from its checkpoint and the journal records
        after it."""
        state = cls(site_id)
        if snap:
            for raw in snap["attrs"]:
                state.put_attr_cell(AttrCell(**raw))
            for raw in snap["names"]:
                state.put_name_cell(NameCell(**raw))
            for txid, coord_site, ops in snap["prepared"]:
                state.prepared[txid] = coord_site, ops
            state.decided.update(snap["decided"])
        for record in records:
            state.play(record)
        high = 0
        for cell in state.attr_cells.values():
            if cell.fileid >> 40 == site_id:
                high = max(high, cell.fileid & ((1 << 40) - 1))
        state.next_local_id = high + 1
        return state

    def cell_count(self) -> int:
        return len(self.attr_cells) + len(self.name_cells)
