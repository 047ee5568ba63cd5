"""NFS V3 procedure codec (RFC 1813).

Messages declare their wire layout once, with :func:`repro.rpc.xdr.record`:
arguments encode to / decode from the bytes that follow the RPC call
header, results the bytes that follow the RPC reply header.  Only
``WriteArgs`` and ``ReadRes`` (which repeat the body length word) and
``ReaddirRes`` (an entry list the µproxy rewrites) are written by hand,
from the same field kinds.  Bulk data (READ results, WRITE arguments)
travels in the packet *body*, after these headers — matching the
header-splitting NICs of the paper's testbed — and conveniently NFS V3
puts opaque file data last in both messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from repro.rpc import xdr
from repro.rpc.xdr import Decoder, Encoder, ok
from .types import TIME, DirEntry, Fattr3, Sattr3

__all__ = [
    "NFS_PROGRAM",
    "NFS_V3",
    "PROC_NULL",
    "PROC_GETATTR",
    "PROC_SETATTR",
    "PROC_LOOKUP",
    "PROC_ACCESS",
    "PROC_READLINK",
    "PROC_READ",
    "PROC_WRITE",
    "PROC_CREATE",
    "PROC_MKDIR",
    "PROC_SYMLINK",
    "PROC_MKNOD",
    "PROC_REMOVE",
    "PROC_RMDIR",
    "PROC_RENAME",
    "PROC_LINK",
    "PROC_READDIR",
    "PROC_READDIRPLUS",
    "PROC_FSSTAT",
    "PROC_FSINFO",
    "PROC_PATHCONF",
    "PROC_COMMIT",
    "PROC_NAMES",
    "NAME_OPS",
    "IO_OPS",
    "FhArgs",
    "SetattrArgs",
    "DirOpArgs",
    "AccessArgs",
    "ReadArgs",
    "WriteArgs",
    "CreateArgs",
    "MkdirArgs",
    "SymlinkArgs",
    "RenameArgs",
    "LinkArgs",
    "ReaddirArgs",
    "ReaddirplusArgs",
    "CommitArgs",
]

NFS_PROGRAM = 100003
NFS_V3 = 3

PROC_NULL = 0
PROC_GETATTR = 1
PROC_SETATTR = 2
PROC_LOOKUP = 3
PROC_ACCESS = 4
PROC_READLINK = 5
PROC_READ = 6
PROC_WRITE = 7
PROC_CREATE = 8
PROC_MKDIR = 9
PROC_SYMLINK = 10
PROC_MKNOD = 11
PROC_REMOVE = 12
PROC_RMDIR = 13
PROC_RENAME = 14
PROC_LINK = 15
PROC_READDIR = 16
PROC_READDIRPLUS = 17
PROC_FSSTAT = 18
PROC_FSINFO = 19
PROC_PATHCONF = 20
PROC_COMMIT = 21

PROC_NAMES = {
    PROC_NULL: "null",
    PROC_GETATTR: "getattr",
    PROC_SETATTR: "setattr",
    PROC_LOOKUP: "lookup",
    PROC_ACCESS: "access",
    PROC_READLINK: "readlink",
    PROC_READ: "read",
    PROC_WRITE: "write",
    PROC_CREATE: "create",
    PROC_MKDIR: "mkdir",
    PROC_SYMLINK: "symlink",
    PROC_MKNOD: "mknod",
    PROC_REMOVE: "remove",
    PROC_RMDIR: "rmdir",
    PROC_RENAME: "rename",
    PROC_LINK: "link",
    PROC_READDIR: "readdir",
    PROC_READDIRPLUS: "readdirplus",
    PROC_FSSTAT: "fsstat",
    PROC_FSINFO: "fsinfo",
    PROC_PATHCONF: "pathconf",
    PROC_COMMIT: "commit",
}

# The three functional request classes of Figure 1.
NAME_OPS = {
    PROC_LOOKUP, PROC_ACCESS, PROC_READLINK, PROC_CREATE, PROC_MKDIR,
    PROC_SYMLINK, PROC_MKNOD, PROC_REMOVE, PROC_RMDIR, PROC_RENAME,
    PROC_LINK, PROC_READDIR, PROC_READDIRPLUS, PROC_GETATTR, PROC_SETATTR,
    PROC_FSSTAT, PROC_FSINFO, PROC_PATHCONF,
}
IO_OPS = {PROC_READ, PROC_WRITE, PROC_COMMIT}

FH_MAX = 64

FH = xdr.opaque(FH_MAX)
NAME = xdr.string(255)
OPTIONAL_FH = xdr.optional(FH)
SATTR = xdr.nested(Sattr3)


def _fattr_locate(dec: Decoder):
    offset = dec.offset
    return Fattr3.decode(dec), offset


#: fattr3, reporting where its 84 bytes start for in-place patching.
FATTR = xdr.Field(lambda enc, v: v.encode(enc),
                  lambda dec: Fattr3.decode(dec), _fattr_locate)
POST_OP_ATTR = xdr.optional(FATTR)


def _skip_pre_op_attr(dec: Decoder) -> None:
    if dec.boolean():
        dec.opaque_fixed(24)  # wcc_attr: size, mtime, ctime


def _wcc_put(enc: Encoder, post: Optional[Fattr3]) -> None:
    enc.boolean(False)  # pre_op_attr: not given
    POST_OP_ATTR.put(enc, post)


def _wcc_get(dec: Decoder) -> Optional[Fattr3]:
    _skip_pre_op_attr(dec)
    return POST_OP_ATTR.get(dec)


def _wcc_locate(dec: Decoder):
    _skip_pre_op_attr(dec)
    return POST_OP_ATTR.locate(dec)


#: wcc_data as its post-op attributes: written with no pre_op_attr, and a
#: pre_op_attr present on decode is skipped.
WCC = xdr.Field(_wcc_put, _wcc_get, _wcc_locate)


# ---------------------------------------------------------------------------
# Argument messages: one declared wire layout each
# ---------------------------------------------------------------------------


@xdr.record(FH)
class FhArgs(NamedTuple):
    """GETATTR, READLINK, FSSTAT, FSINFO, PATHCONF: a bare file handle."""

    fh: bytes


@xdr.record(FH, SATTR, xdr.optional(TIME))
class SetattrArgs(NamedTuple):
    fh: bytes
    sattr: Sattr3
    guard_ctime: Optional[float] = None


@xdr.record(FH, NAME)
class DirOpArgs(NamedTuple):
    """LOOKUP, REMOVE, RMDIR."""

    dir_fh: bytes
    name: str


@xdr.record(FH, xdr.U32)
class AccessArgs(NamedTuple):
    fh: bytes
    access: int


@xdr.record(FH, xdr.U64, xdr.U32)
class ReadArgs(NamedTuple):
    fh: bytes
    offset: int
    count: int


class WriteArgs(NamedTuple):
    """WRITE arguments; the data itself rides in the packet body."""

    fh: bytes
    offset: int
    count: int
    stable: int

    def encode(self) -> bytes:
        enc = Encoder()
        FH.put(enc, self.fh)
        enc.u64(self.offset)
        enc.u32(self.count)
        enc.u32(self.stable)
        enc.u32(self.count)  # opaque<> length prefix for the body that follows
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "WriteArgs":
        fh = FH.get(dec)
        offset = dec.u64()
        count = dec.u32()
        stable = dec.u32()
        dec.u32()  # body length prefix
        return cls(fh, offset, count, stable)


@xdr.record(FH, NAME, xdr.U32, SATTR)
class CreateArgs(NamedTuple):
    """CREATE; the EXCLUSIVE verifier is not modeled, ``mode`` keeps the
    createhow discriminant in place."""

    dir_fh: bytes
    name: str
    mode: int
    sattr: Sattr3


@xdr.record(FH, NAME, SATTR)
class MkdirArgs(NamedTuple):
    dir_fh: bytes
    name: str
    sattr: Sattr3


@xdr.record(FH, NAME, SATTR, xdr.string(1024))
class SymlinkArgs(NamedTuple):
    dir_fh: bytes
    name: str
    sattr: Sattr3
    path: str


@xdr.record(FH, NAME, FH, NAME)
class RenameArgs(NamedTuple):
    from_dir: bytes
    from_name: str
    to_dir: bytes
    to_name: str


@xdr.record(FH, FH, NAME)
class LinkArgs(NamedTuple):
    fh: bytes
    dir_fh: bytes
    name: str


@xdr.record(FH, xdr.U64, xdr.U64, xdr.U32)
class ReaddirArgs(NamedTuple):
    dir_fh: bytes
    cookie: int
    cookieverf: int
    count: int


@xdr.record(FH, xdr.U64, xdr.U64, xdr.U32, xdr.U32)
class ReaddirplusArgs(NamedTuple):
    dir_fh: bytes
    cookie: int
    cookieverf: int
    dircount: int
    maxcount: int


@xdr.record(FH, xdr.U64, xdr.U32)
class CommitArgs(NamedTuple):
    fh: bytes
    offset: int
    count: int


# ---------------------------------------------------------------------------
# Results: one declared wire layout each, except READ and READDIR
# ---------------------------------------------------------------------------
#
# ``attr_offset`` is the decoder offset of the fattr3 the µproxy patches in
# place, or -1 when it is absent; encoding leaves it alone.


@xdr.record(xdr.U32, ok(FATTR))
@dataclass
class GetattrRes:
    status: int
    attr: Optional[Fattr3] = None
    attr_offset: int = field(default=-1, compare=False)


@xdr.record(xdr.U32, WCC)
@dataclass
class AttrOnlyRes:
    """SETATTR and REMOVE/RMDIR results: status + wcc/post-op attributes."""

    status: int
    attr: Optional[Fattr3] = None
    attr_offset: int = field(default=-1, compare=False)


SetattrRes = AttrOnlyRes
RemoveRes = AttrOnlyRes


@xdr.record(xdr.U32, ok(FH), ok(POST_OP_ATTR), POST_OP_ATTR)
@dataclass
class LookupRes:
    status: int
    fh: Optional[bytes] = None
    attr: Optional[Fattr3] = None
    dir_attr: Optional[Fattr3] = None
    attr_offset: int = field(default=-1, compare=False)


@xdr.record(xdr.U32, POST_OP_ATTR, ok(xdr.U32))
@dataclass
class AccessRes:
    status: int
    attr: Optional[Fattr3] = None
    access: int = 0


@xdr.record(xdr.U32, POST_OP_ATTR, ok(xdr.string(1024)))
@dataclass
class ReadlinkRes:
    status: int
    attr: Optional[Fattr3] = None
    path: str = ""


@dataclass
class ReadRes:
    """READ result header; file data rides in the packet body."""

    status: int
    attr: Optional[Fattr3] = None
    count: int = 0
    eof: bool = False
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        POST_OP_ATTR.put(enc, self.attr)
        if self.status == 0:
            enc.u32(self.count)
            enc.boolean(self.eof)
            enc.u32(self.count)  # opaque<> length prefix for the body
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "ReadRes":
        status = dec.u32()
        attr, offset = POST_OP_ATTR.locate(dec)
        count = eof = 0
        if status == 0:
            count = dec.u32()
            eof = dec.boolean()
            dec.u32()
        return cls(status, attr, count, bool(eof), offset)


@xdr.record(xdr.U32, WCC, ok(xdr.U32), ok(xdr.U32), ok(xdr.U64))
@dataclass
class WriteRes:
    status: int
    attr: Optional[Fattr3] = None
    count: int = 0
    committed: int = 0
    verf: int = 0
    attr_offset: int = field(default=-1, compare=False)


@xdr.record(xdr.U32, ok(OPTIONAL_FH), ok(POST_OP_ATTR), WCC)
@dataclass
class CreateRes:
    """CREATE, MKDIR, SYMLINK results."""

    status: int
    fh: Optional[bytes] = None
    attr: Optional[Fattr3] = None
    dir_attr: Optional[Fattr3] = None


MkdirRes = CreateRes
SymlinkRes = CreateRes


@xdr.record(xdr.U32, WCC, WCC)
@dataclass
class RenameRes:
    status: int
    from_dir_attr: Optional[Fattr3] = None
    to_dir_attr: Optional[Fattr3] = None


@xdr.record(xdr.U32, POST_OP_ATTR, WCC)
@dataclass
class LinkRes:
    status: int
    file_attr: Optional[Fattr3] = None
    dir_attr: Optional[Fattr3] = None


@dataclass
class ReaddirRes:
    """READDIR / READDIRPLUS result (``plus`` selects the wire format)."""

    status: int
    dir_attr: Optional[Fattr3] = None
    cookieverf: int = 0
    entries: List[DirEntry] = field(default_factory=list)
    eof: bool = True
    plus: bool = False

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        POST_OP_ATTR.put(enc, self.dir_attr)
        if self.status != 0:
            return enc.to_bytes()
        enc.u64(self.cookieverf)
        for entry in self.entries:
            enc.boolean(True)
            enc.u64(entry.fileid)
            enc.string(entry.name)
            enc.u64(entry.cookie)
            if self.plus:
                POST_OP_ATTR.put(enc, entry.attr)
                OPTIONAL_FH.put(enc, entry.fh)
        enc.boolean(False)
        enc.boolean(self.eof)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder, plus: bool = False) -> "ReaddirRes":
        status = dec.u32()
        dir_attr = POST_OP_ATTR.get(dec)
        if status != 0:
            return cls(status, dir_attr)
        cookieverf = dec.u64()
        entries = []
        while dec.boolean():
            fileid = dec.u64()
            name = NAME.get(dec)
            cookie = dec.u64()
            attr = fh = None
            if plus:
                attr = POST_OP_ATTR.get(dec)
                fh = OPTIONAL_FH.get(dec)
            entries.append(DirEntry(fileid, name, cookie, attr, fh))
        eof = dec.boolean()
        return cls(status, dir_attr, cookieverf, entries, eof, plus)


@xdr.record(xdr.U32, POST_OP_ATTR, *[ok(xdr.U64)] * 6, ok(xdr.U32))
@dataclass
class FsstatRes:
    status: int
    attr: Optional[Fattr3] = None
    tbytes: int = 0
    fbytes: int = 0
    abytes: int = 0
    tfiles: int = 0
    ffiles: int = 0
    afiles: int = 0
    invarsec: int = 0


@xdr.record(xdr.U32, POST_OP_ATTR, *[ok(xdr.U32)] * 7, ok(xdr.U64),
            ok(TIME), ok(xdr.U32))
@dataclass
class FsinfoRes:
    status: int
    attr: Optional[Fattr3] = None
    rtmax: int = 32768
    rtpref: int = 32768
    rtmult: int = 512
    wtmax: int = 32768
    wtpref: int = 32768
    wtmult: int = 512
    dtpref: int = 8192
    maxfilesize: int = 1 << 62
    time_delta: float = 1e-9
    properties: int = 0x1B  # LINK | SYMLINK | HOMOGENEOUS | CANSETTIME


@xdr.record(xdr.U32, POST_OP_ATTR, ok(xdr.U32), ok(xdr.U32),
            *[ok(xdr.BOOL)] * 4)
@dataclass
class PathconfRes:
    status: int
    attr: Optional[Fattr3] = None
    linkmax: int = 32767
    name_max: int = 255
    no_trunc: bool = True
    chown_restricted: bool = True
    case_insensitive: bool = False
    case_preserving: bool = True


@xdr.record(xdr.U32, WCC, ok(xdr.U64))
@dataclass
class CommitRes:
    status: int
    attr: Optional[Fattr3] = None
    verf: int = 0
