"""NFS V3 procedure codec (RFC 1813).

Messages declare their wire layout once, with :func:`repro.rpc.xdr.record`:
arguments encode to / decode from the bytes that follow the RPC call
header, results the bytes that follow the RPC reply header.  Only
``WriteArgs`` and ``ReadRes`` (which repeat the body length word) and
``ReaddirRes`` (the largest reply, whose entry loop packs and unpacks
precompiled structs, an entryplus3's fattr3 and handle included) are
written by hand.  Bulk data (READ results, WRITE arguments)
travels in the packet *body*, after these headers — matching the
header-splitting NICs of the paper's testbed — and conveniently NFS V3
puts opaque file data last in both messages.

``PROCS``, indexed by procedure number, names each procedure's argument
and result class; every NFS server decodes and answers errors from it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from repro.rpc import xdr
from repro.rpc.xdr import Decoder, Encoder, XdrError, ok
from .types import (
    FATTR3_FORMAT, TIME, DirEntry, Fattr3, Sattr3, nfstime3,
)

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
    "Proc",
    "PROCS",
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

FH_MAX = 64
NAME_MAX = 255

FH = xdr.opaque(FH_MAX)
NAME = xdr.string(NAME_MAX)
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


# READDIR entry layouts (RFC 1813 entry3 / entryplus3), precompiled.
#: value_follows (1), fileid, name length.
_ENTRY_HEAD = struct.Struct("!IQI")
_WORD = struct.Struct("!I")
_U64 = struct.Struct("!Q")
#: A u64 and the word after it: fileid and name length, or cookie and
#: the next value_follows.
_U64_WORD = struct.Struct("!QI")
#: READDIRPLUS: cookie, no attributes, fh value_follows.
_COOKIE_NO_ATTR = struct.Struct("!QII")
#: READDIRPLUS: cookie, attributes follow, fattr3, fh value_follows.
_COOKIE_ATTR = struct.Struct("!QI" + FATTR3_FORMAT[1:] + "I")
#: fattr3, then the fh value_follows.
_ATTR_WORD = struct.Struct(FATTR3_FORMAT + "I")
#: Zero padding, indexed by item length & 3.
_PAD = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")


class _Malformed(Exception):
    """An entry the fast READDIR decoder leaves to the field kinds."""


def _encode_entries(parts: List[bytes], entries: List[DirEntry],
                    plus: bool) -> None:
    """Append each entry's words to ``parts``."""
    append = parts.append
    for entry in entries:
        name = entry.name.encode("utf-8")
        length = len(name)
        if length > NAME_MAX:
            raise XdrError(f"entry name of {length} bytes exceeds max "
                           f"{NAME_MAX}")
        append(_ENTRY_HEAD.pack(1, entry.fileid, length))
        append(name)
        append(_PAD[length & 3])
        if not plus:
            append(_U64.pack(entry.cookie))
            continue
        attr, fh = entry.attr, entry.fh
        if attr is None:
            append(_COOKIE_NO_ATTR.pack(entry.cookie, 0, fh is not None))
        else:
            # Plain arguments: a starred call builds a 20-item tuple per
            # entry, and CPython kept 2,000 freed ones (368 KB) after sfs.
            asec, ansec = nfstime3(attr.atime)
            msec, mnsec = nfstime3(attr.mtime)
            csec, cnsec = nfstime3(attr.ctime)
            append(_COOKIE_ATTR.pack(
                entry.cookie, 1, attr.ftype, attr.mode, attr.nlink,
                attr.uid, attr.gid, attr.size, attr.used, 0, 0, attr.fsid,
                attr.fileid, asec, ansec, msec, mnsec, csec, cnsec,
                fh is not None,
            ))
        if fh is not None:
            length = len(fh)
            if length > FH_MAX:
                raise XdrError(f"file handle of {length} bytes exceeds max "
                               f"{FH_MAX}")
            append(_WORD.pack(length))
            append(fh)
            append(_PAD[length & 3])


def _read_entry(dec: Decoder, plus: bool) -> DirEntry:
    """One entry after its value_follows word, field by field."""
    fileid = dec.u64()
    name = NAME.get(dec)
    cookie = dec.u64()
    if not plus:
        return DirEntry(fileid, name, cookie)
    return DirEntry(fileid, name, cookie, POST_OP_ATTR.get(dec),
                    OPTIONAL_FH.get(dec))


def _decode_entries(dec: Decoder, plus: bool) -> List[DirEntry]:
    """The entry list, through the value_follows word that ends it.

    Each entry is read with a few precompiled structs.  An entry that is
    truncated, out of bounds, not UTF-8 or has a bad bool is read again
    from its start with the field kinds, which raise the error (and leave
    ``dec.offset``) exactly as a field-by-field decode would."""
    data = dec.data
    end = len(data)
    entries: List[DirEntry] = []
    append = entries.append
    start = dec.offset  # the value_follows word of the entry being read
    try:
        follows = _WORD.unpack_from(data, start)[0]
        while follows == 1:
            fileid, length = _U64_WORD.unpack_from(data, start + 4)
            at = start + 16
            stop = at + length
            after = stop + (-length & 3)
            if length > NAME_MAX or after > end:
                raise _Malformed
            name = data[at:stop].decode("utf-8")
            cookie, follows = _U64_WORD.unpack_from(data, after)
            at = after + 12
            if not plus:
                append(DirEntry(fileid, name, cookie))
                start = at - 4
                continue
            attr = fh = None
            if follows == 1:
                w = _ATTR_WORD.unpack_from(data, at)
                attr = Fattr3(w[0], w[1], w[2], w[3], w[4], w[5], w[6],
                              w[9], w[10], w[11] + w[12] / 1e9,
                              w[13] + w[14] / 1e9, w[15] + w[16] / 1e9)
                follows = w[17]
                at += 88
            elif follows == 0:
                follows = _WORD.unpack_from(data, at)[0]
                at += 4
            else:
                raise _Malformed
            if follows == 1:
                length = _WORD.unpack_from(data, at)[0]
                stop = at + 4 + length
                after = stop + (-length & 3)
                if length > FH_MAX or after > end:
                    raise _Malformed
                fh = data[at + 4:stop]
                at = after
            elif follows != 0:
                raise _Malformed
            follows = _WORD.unpack_from(data, at)[0]
            append(DirEntry(fileid, name, cookie, attr, fh))
            start = at
        if follows == 0:
            dec.offset = start + 4
            return entries
    except (struct.error, UnicodeDecodeError, _Malformed):
        pass
    dec.offset = start
    while dec.boolean():
        append(_read_entry(dec, plus))
    return entries


@dataclass
class ReaddirRes:
    """READDIR / READDIRPLUS result (``plus`` selects the wire format).

    The entry loop is written by hand; ``tests/test_readdir_codec_oracle``
    keeps the field-by-field codec it must match."""

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
        parts = [enc.to_bytes()]
        try:
            _encode_entries(parts, self.entries, self.plus)
        except struct.error as exc:
            raise XdrError(f"readdir entry field out of range: {exc}") from None
        parts.append(_WORD.pack(0))
        parts.append(_WORD.pack(1 if self.eof else 0))
        return b"".join(parts)

    @classmethod
    def decode(cls, dec: Decoder, plus: bool = False) -> "ReaddirRes":
        status = dec.u32()
        dir_attr = POST_OP_ATTR.get(dec)
        if status != 0:
            return cls(status, dir_attr)
        cookieverf = dec.u64()
        entries = _decode_entries(dec, plus)
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


# ---------------------------------------------------------------------------
# The procedure table
# ---------------------------------------------------------------------------


class Proc(NamedTuple):
    """One NFS V3 procedure: its number, name and message layouts.

    ``args`` is None where no argument class exists (NULL, MKNOD); a
    server answers a procedure it does not serve with ``result(status)``.
    """

    num: int
    name: str
    args: Optional[type]
    result: Optional[type]


#: Indexed by procedure number.  READDIRPLUS results decode with
#: ``ReaddirRes.decode(dec, plus=True)``.
PROCS = (
    Proc(PROC_NULL, "null", None, None),
    Proc(PROC_GETATTR, "getattr", FhArgs, GetattrRes),
    Proc(PROC_SETATTR, "setattr", SetattrArgs, SetattrRes),
    Proc(PROC_LOOKUP, "lookup", DirOpArgs, LookupRes),
    Proc(PROC_ACCESS, "access", AccessArgs, AccessRes),
    Proc(PROC_READLINK, "readlink", FhArgs, ReadlinkRes),
    Proc(PROC_READ, "read", ReadArgs, ReadRes),
    Proc(PROC_WRITE, "write", WriteArgs, WriteRes),
    Proc(PROC_CREATE, "create", CreateArgs, CreateRes),
    Proc(PROC_MKDIR, "mkdir", MkdirArgs, MkdirRes),
    Proc(PROC_SYMLINK, "symlink", SymlinkArgs, SymlinkRes),
    Proc(PROC_MKNOD, "mknod", None, CreateRes),
    Proc(PROC_REMOVE, "remove", DirOpArgs, RemoveRes),
    Proc(PROC_RMDIR, "rmdir", DirOpArgs, RemoveRes),
    Proc(PROC_RENAME, "rename", RenameArgs, RenameRes),
    Proc(PROC_LINK, "link", LinkArgs, LinkRes),
    Proc(PROC_READDIR, "readdir", ReaddirArgs, ReaddirRes),
    Proc(PROC_READDIRPLUS, "readdirplus", ReaddirplusArgs, ReaddirRes),
    Proc(PROC_FSSTAT, "fsstat", FhArgs, FsstatRes),
    Proc(PROC_FSINFO, "fsinfo", FhArgs, FsinfoRes),
    Proc(PROC_PATHCONF, "pathconf", FhArgs, PathconfRes),
    Proc(PROC_COMMIT, "commit", CommitArgs, CommitRes),
)
