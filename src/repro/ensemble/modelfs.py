"""An in-memory reference NFS V3 filesystem.

Two roles:

1. The engine of the monolithic baseline servers (FreeBSD NFS / MFS in the
   paper's comparisons) — semantics without distribution.
2. The oracle for property-based testing: random operation sequences run
   against both a Slice ensemble and this model must agree.

It speaks the same result dataclasses as the wire codec, so callers can
compare responses field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Optional, Tuple

from repro.nfs import proto
from repro.nfs.errors import (
    NFS3ERR_EXIST,
    NFS3ERR_INVAL,
    NFS3ERR_ISDIR,
    NFS3ERR_NOENT,
    NFS3ERR_NOTDIR,
    NFS3ERR_NOTEMPTY,
    NFS3ERR_NOT_SYNC,
    NFS3ERR_STALE,
    NFS3_OK,
)
from repro.nfs.fhandle import FHandle
from repro.nfs.types import (
    DirEntry,
    Fattr3,
    NF3DIR,
    NF3LNK,
    NF3REG,
    Sattr3,
)
from repro.util.bytesim import Data, RealData
from repro.util.extents import ExtentMap

__all__ = ["ModelFS", "MODEL_VOLUME"]

MODEL_VOLUME = 1


@dataclass
class _Node:
    fileid: int
    ftype: int
    mode: int = 0o644
    nlink: int = 1
    uid: int = 0
    gid: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    symlink_target: str = ""
    data: ExtentMap = dataclass_field(default_factory=ExtentMap)
    children: Optional[Dict[str, int]] = None  # name -> fileid (dirs only)
    parent: int = 0

    def to_fattr(self) -> Fattr3:
        size = (
            len(self.symlink_target) if self.ftype == NF3LNK else self.data.size
        )
        return Fattr3(
            ftype=self.ftype, mode=self.mode, nlink=self.nlink,
            uid=self.uid, gid=self.gid, size=size,
            used=self.data.stored_bytes(), fsid=1, fileid=self.fileid,
            atime=self.atime, mtime=self.mtime, ctime=self.ctime,
        )


class ModelFS:
    """The reference filesystem.  All methods are plain (non-generator)."""

    def __init__(self):
        self._nodes: Dict[int, _Node] = {}
        self._next_id = 2
        root = _Node(1, NF3DIR, mode=0o755, nlink=2, children={}, parent=1)
        self._nodes[1] = root

    # -- handles -----------------------------------------------------------

    def root_fh(self) -> bytes:
        return self._fh(self._nodes[1])

    def _fh(self, node: _Node) -> bytes:
        return FHandle(
            MODEL_VOLUME, node.ftype, 0, node.fileid, 0, bytes(16)
        ).pack()

    def _node(self, raw_fh: bytes) -> Optional[_Node]:
        try:
            fh = FHandle.unpack(raw_fh)
        except ValueError:
            return None
        return self._nodes.get(fh.fileid)

    def _alloc(self, ftype: int, now: float, **kw) -> _Node:
        node = _Node(
            self._next_id, ftype, atime=now, mtime=now, ctime=now, **kw
        )
        self._next_id += 1
        self._nodes[node.fileid] = node
        return node

    # -- operations ---------------------------------------------------------

    def getattr(self, fh: bytes) -> proto.GetattrRes:
        node = self._node(fh)
        if node is None:
            return proto.GetattrRes(NFS3ERR_STALE)
        return proto.GetattrRes(NFS3_OK, node.to_fattr())

    def setattr(self, fh: bytes, sattr: Sattr3, guard: Optional[float],
                now: float) -> proto.SetattrRes:
        node = self._node(fh)
        if node is None:
            return proto.SetattrRes(NFS3ERR_STALE)
        if guard is not None and abs(node.ctime - guard) > 1e-6:
            return proto.SetattrRes(NFS3ERR_NOT_SYNC)
        if sattr.mode is not None:
            node.mode = sattr.mode
        if sattr.uid is not None:
            node.uid = sattr.uid
        if sattr.gid is not None:
            node.gid = sattr.gid
        if sattr.size is not None and node.ftype == NF3REG:
            node.data.truncate(sattr.size)
        if sattr.atime is not None:
            node.atime = now if sattr.atime == "server" else sattr.atime
        if sattr.mtime is not None:
            node.mtime = now if sattr.mtime == "server" else sattr.mtime
        node.ctime = now
        return proto.SetattrRes(NFS3_OK, node.to_fattr())

    def lookup(self, dir_fh: bytes, name: str) -> proto.LookupRes:
        parent = self._node(dir_fh)
        if parent is None:
            return proto.LookupRes(NFS3ERR_STALE)
        if parent.children is None:
            return proto.LookupRes(NFS3ERR_NOTDIR)
        if name == ".":
            return proto.LookupRes(
                NFS3_OK, dir_fh, parent.to_fattr(), parent.to_fattr()
            )
        if name == "..":
            grand = self._nodes[parent.parent]
            return proto.LookupRes(
                NFS3_OK, self._fh(grand), grand.to_fattr(), parent.to_fattr()
            )
        child_id = parent.children.get(name)
        if child_id is None:
            return proto.LookupRes(NFS3ERR_NOENT, dir_attr=parent.to_fattr())
        child = self._nodes[child_id]
        return proto.LookupRes(
            NFS3_OK, self._fh(child), child.to_fattr(), parent.to_fattr()
        )

    def access(self, fh: bytes, bits: int) -> proto.AccessRes:
        node = self._node(fh)
        if node is None:
            return proto.AccessRes(NFS3ERR_STALE)
        return proto.AccessRes(NFS3_OK, node.to_fattr(), bits)

    def readlink(self, fh: bytes) -> proto.ReadlinkRes:
        node = self._node(fh)
        if node is None:
            return proto.ReadlinkRes(NFS3ERR_STALE)
        if node.ftype != NF3LNK:
            return proto.ReadlinkRes(NFS3ERR_INVAL)
        return proto.ReadlinkRes(NFS3_OK, node.to_fattr(), node.symlink_target)

    def create(self, dir_fh: bytes, name: str, mode: int, sattr: Sattr3,
               now: float) -> proto.CreateRes:
        parent = self._node(dir_fh)
        if parent is None:
            return proto.CreateRes(NFS3ERR_STALE)
        if parent.children is None:
            return proto.CreateRes(NFS3ERR_NOTDIR)
        existing = parent.children.get(name)
        if existing is not None:
            if mode != 0:
                return proto.CreateRes(NFS3ERR_EXIST)
            node = self._nodes[existing]
            return proto.CreateRes(
                NFS3_OK, self._fh(node), node.to_fattr(), parent.to_fattr()
            )
        node = self._alloc(
            NF3REG, now,
            mode=sattr.mode if sattr.mode is not None else 0o644,
            uid=sattr.uid or 0, gid=sattr.gid or 0,
        )
        parent.children[name] = node.fileid
        parent.mtime = parent.ctime = now
        return proto.CreateRes(
            NFS3_OK, self._fh(node), node.to_fattr(), parent.to_fattr()
        )

    def mkdir(self, dir_fh: bytes, name: str, sattr: Sattr3,
              now: float) -> proto.MkdirRes:
        parent = self._node(dir_fh)
        if parent is None:
            return proto.MkdirRes(NFS3ERR_STALE)
        if parent.children is None:
            return proto.MkdirRes(NFS3ERR_NOTDIR)
        if name in parent.children:
            return proto.MkdirRes(NFS3ERR_EXIST)
        node = self._alloc(
            NF3DIR, now,
            mode=sattr.mode if sattr.mode is not None else 0o755,
            nlink=2, children={}, parent=parent.fileid,
        )
        parent.children[name] = node.fileid
        parent.nlink += 1
        parent.mtime = parent.ctime = now
        return proto.MkdirRes(
            NFS3_OK, self._fh(node), node.to_fattr(), parent.to_fattr()
        )

    def symlink(self, dir_fh: bytes, name: str, path: str,
                now: float) -> proto.SymlinkRes:
        parent = self._node(dir_fh)
        if parent is None:
            return proto.SymlinkRes(NFS3ERR_STALE)
        if parent.children is None:
            return proto.SymlinkRes(NFS3ERR_NOTDIR)
        if name in parent.children:
            return proto.SymlinkRes(NFS3ERR_EXIST)
        node = self._alloc(NF3LNK, now, symlink_target=path)
        parent.children[name] = node.fileid
        parent.mtime = parent.ctime = now
        return proto.SymlinkRes(
            NFS3_OK, self._fh(node), node.to_fattr(), parent.to_fattr()
        )

    def remove(self, dir_fh: bytes, name: str, now: float) -> proto.RemoveRes:
        parent = self._node(dir_fh)
        if parent is None:
            return proto.RemoveRes(NFS3ERR_STALE)
        if parent.children is None:
            return proto.RemoveRes(NFS3ERR_NOTDIR)
        child_id = parent.children.get(name)
        if child_id is None:
            return proto.RemoveRes(NFS3ERR_NOENT)
        child = self._nodes[child_id]
        if child.ftype == NF3DIR:
            return proto.RemoveRes(NFS3ERR_ISDIR)
        del parent.children[name]
        child.nlink -= 1
        child.ctime = now
        if child.nlink <= 0:
            del self._nodes[child_id]
        parent.mtime = parent.ctime = now
        return proto.RemoveRes(NFS3_OK, parent.to_fattr())

    def rmdir(self, dir_fh: bytes, name: str, now: float) -> proto.RemoveRes:
        parent = self._node(dir_fh)
        if parent is None:
            return proto.RemoveRes(NFS3ERR_STALE)
        if parent.children is None:
            return proto.RemoveRes(NFS3ERR_NOTDIR)
        child_id = parent.children.get(name)
        if child_id is None:
            return proto.RemoveRes(NFS3ERR_NOENT)
        child = self._nodes[child_id]
        if child.ftype != NF3DIR:
            return proto.RemoveRes(NFS3ERR_NOTDIR)
        if child.children:
            return proto.RemoveRes(NFS3ERR_NOTEMPTY)
        del parent.children[name]
        del self._nodes[child_id]
        parent.nlink = max(2, parent.nlink - 1)
        parent.mtime = parent.ctime = now
        return proto.RemoveRes(NFS3_OK, parent.to_fattr())

    def rename(self, from_dir: bytes, from_name: str, to_dir: bytes,
               to_name: str, now: float) -> proto.RenameRes:
        src_parent = self._node(from_dir)
        dst_parent = self._node(to_dir)
        if src_parent is None or dst_parent is None:
            return proto.RenameRes(NFS3ERR_STALE)
        if src_parent.children is None or dst_parent.children is None:
            return proto.RenameRes(NFS3ERR_NOTDIR)
        child_id = src_parent.children.get(from_name)
        if child_id is None:
            return proto.RenameRes(NFS3ERR_NOENT)
        if src_parent.fileid == dst_parent.fileid and from_name == to_name:
            return proto.RenameRes(
                NFS3_OK, src_parent.to_fattr(), dst_parent.to_fattr()
            )
        existing_id = dst_parent.children.get(to_name)
        if existing_id is not None:
            existing = self._nodes[existing_id]
            if existing.ftype == NF3DIR:
                if existing.children:
                    return proto.RenameRes(NFS3ERR_NOTEMPTY)
                del self._nodes[existing_id]
                dst_parent.nlink = max(2, dst_parent.nlink - 1)
            else:
                existing.nlink -= 1
                if existing.nlink <= 0:
                    del self._nodes[existing_id]
        child = self._nodes[child_id]
        del src_parent.children[from_name]
        dst_parent.children[to_name] = child_id
        if child.ftype == NF3DIR and src_parent.fileid != dst_parent.fileid:
            src_parent.nlink = max(2, src_parent.nlink - 1)
            dst_parent.nlink += 1
            child.parent = dst_parent.fileid
        src_parent.mtime = src_parent.ctime = now
        dst_parent.mtime = dst_parent.ctime = now
        return proto.RenameRes(
            NFS3_OK, src_parent.to_fattr(), dst_parent.to_fattr()
        )

    def link(self, fh: bytes, dir_fh: bytes, name: str,
             now: float) -> proto.LinkRes:
        # Check order mirrors the Slice directory server: directory-link
        # rejection, then name conflict, then target staleness (the target's
        # attribute cell may be remote there, so it is validated last).
        parent = self._node(dir_fh)
        if parent is None:
            return proto.LinkRes(NFS3ERR_STALE)
        if parent.children is None:
            return proto.LinkRes(NFS3ERR_NOTDIR)
        try:
            if FHandle.unpack(fh).ftype == NF3DIR:
                return proto.LinkRes(NFS3ERR_ISDIR)
        except ValueError:
            return proto.LinkRes(NFS3ERR_STALE)
        if name in parent.children:
            return proto.LinkRes(NFS3ERR_EXIST)
        node = self._node(fh)
        if node is None:
            return proto.LinkRes(NFS3ERR_STALE)
        parent.children[name] = node.fileid
        node.nlink += 1
        node.ctime = now
        parent.mtime = parent.ctime = now
        return proto.LinkRes(NFS3_OK, node.to_fattr(), parent.to_fattr())

    def readdir(self, dir_fh: bytes, cookie: int, max_entries: int = 512,
                plus: bool = False) -> proto.ReaddirRes:
        """READDIR, or READDIRPLUS with ``plus``: each entry then also
        carries its attributes and file handle."""
        node = self._node(dir_fh)
        if node is None:
            return proto.ReaddirRes(NFS3ERR_STALE)
        if node.children is None:
            return proto.ReaddirRes(NFS3ERR_NOTDIR)
        listing = [
            (1, ".", node.fileid),
            (2, "..", node.parent),
        ]
        for index, name in enumerate(sorted(node.children)):
            listing.append((index + 3, name, node.children[name]))
        entries = [
            DirEntry(fileid, name, ck)
            for ck, name, fileid in listing
            if ck > cookie
        ][:max_entries]
        if plus:
            for entry in entries:
                target = self._nodes[entry.fileid]
                entry.attr = target.to_fattr()
                entry.fh = self._fh(target)
        last = entries[-1].cookie if entries else cookie
        eof = last >= len(listing)
        return proto.ReaddirRes(
            NFS3_OK, node.to_fattr(), cookieverf=1, entries=entries, eof=eof,
            plus=plus,
        )

    def read(self, fh: bytes, offset: int, count: int,
             now: float) -> Tuple[proto.ReadRes, Data]:
        node = self._node(fh)
        if node is None:
            return proto.ReadRes(NFS3ERR_STALE), RealData(b"")
        if node.ftype == NF3DIR:
            return proto.ReadRes(NFS3ERR_ISDIR), RealData(b"")
        if node.ftype != NF3REG:
            return proto.ReadRes(NFS3ERR_INVAL), RealData(b"")
        node.atime = now
        data = node.data.read(offset, count)
        eof = offset + count >= node.data.size
        return (
            proto.ReadRes(NFS3_OK, node.to_fattr(), count=data.length, eof=eof),
            data,
        )

    def write(self, fh: bytes, offset: int, data: Data, stable: int,
              verf: int, now: float) -> proto.WriteRes:
        node = self._node(fh)
        if node is None:
            return proto.WriteRes(NFS3ERR_STALE)
        if node.ftype == NF3DIR:
            return proto.WriteRes(NFS3ERR_ISDIR)
        if node.ftype != NF3REG:
            return proto.WriteRes(NFS3ERR_INVAL)
        node.data.write(offset, data)
        node.mtime = node.ctime = now
        return proto.WriteRes(
            NFS3_OK, node.to_fattr(), count=data.length,
            committed=stable if stable else 2, verf=verf,
        )

    def commit(self, fh: bytes, verf: int) -> proto.CommitRes:
        node = self._node(fh)
        if node is None:
            return proto.CommitRes(NFS3ERR_STALE)
        return proto.CommitRes(NFS3_OK, node.to_fattr(), verf=verf)

    # -- introspection (tests) ----------------------------------------------

    def node_count(self) -> int:
        return len(self._nodes)

    def file_content(self, fh: bytes) -> Optional[Data]:
        node = self._node(fh)
        if node is None:
            return None
        return node.data.read(0, node.data.size)
