"""NFS V3 procedure codec (RFC 1813).

Argument messages declare their wire layout once, with
:func:`repro.rpc.xdr.record`, and encode to / decode from the bytes that
follow the RPC call header; result classes encode/decode the bytes that
follow the RPC reply header.  Bulk data (READ results, WRITE arguments)
travels in the packet *body*, after these headers — matching the
header-splitting NICs of the paper's testbed — and conveniently NFS V3
puts opaque file data last in both messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

from repro.rpc import xdr
from repro.rpc.xdr import Decoder, Encoder
from .types import (
    DirEntry,
    Fattr3,
    Sattr3,
    decode_post_op_attr,
    decode_time,
    encode_post_op_attr,
    encode_time,
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
SATTR = xdr.nested(Sattr3)


def _enc_wcc(enc: Encoder, post: Optional[Fattr3]) -> int:
    """wcc_data with absent pre-op attributes; returns fattr3 offset."""
    enc.boolean(False)  # pre_op_attr: not given
    return encode_post_op_attr(enc, post)


def _dec_wcc(dec: Decoder) -> Tuple[Optional[Fattr3], int]:
    if dec.boolean():  # pre_op_attr present: size + mtime + ctime
        dec.u64()
        decode_time(dec)
        decode_time(dec)
    return decode_post_op_attr(dec)


# ---------------------------------------------------------------------------
# Argument messages: one declared wire layout each
# ---------------------------------------------------------------------------


@xdr.record(FH)
class FhArgs(NamedTuple):
    """GETATTR, READLINK, FSSTAT, FSINFO, PATHCONF: a bare file handle."""

    fh: bytes


class SetattrArgs(NamedTuple):
    fh: bytes
    sattr: Sattr3
    guard_ctime: Optional[float] = None

    def encode(self) -> bytes:
        enc = Encoder()
        FH.put(enc, self.fh)
        self.sattr.encode(enc)
        if self.guard_ctime is None:
            enc.boolean(False)
        else:
            enc.boolean(True)
            encode_time(enc, self.guard_ctime)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "SetattrArgs":
        fh = FH.get(dec)
        sattr = Sattr3.decode(dec)
        guard = decode_time(dec) if dec.boolean() else None
        return cls(fh, sattr, guard)


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
# Result codecs
# ---------------------------------------------------------------------------


@dataclass
class GetattrRes:
    status: int
    attr: Optional[Fattr3] = None
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        if self.status == 0:
            self.attr_offset = enc.position
            self.attr.encode(enc)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "GetattrRes":
        status = dec.u32()
        attr = None
        offset = -1
        if status == 0:
            offset = dec.offset
            attr = Fattr3.decode(dec)
        return cls(status, attr, offset)


@dataclass
class AttrOnlyRes:
    """SETATTR and REMOVE/RMDIR results: status + wcc/post-op attributes."""

    status: int
    attr: Optional[Fattr3] = None
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        self.attr_offset = _enc_wcc(enc, self.attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "AttrOnlyRes":
        status = dec.u32()
        attr, offset = _dec_wcc(dec)
        return cls(status, attr, offset)


SetattrRes = AttrOnlyRes
RemoveRes = AttrOnlyRes


@dataclass
class LookupRes:
    status: int
    fh: Optional[bytes] = None
    attr: Optional[Fattr3] = None
    dir_attr: Optional[Fattr3] = None
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        if self.status == 0:
            FH.put(enc, self.fh)
            self.attr_offset = encode_post_op_attr(enc, self.attr)
        encode_post_op_attr(enc, self.dir_attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "LookupRes":
        status = dec.u32()
        fh = attr = None
        offset = -1
        if status == 0:
            fh = FH.get(dec)
            attr, offset = decode_post_op_attr(dec)
        dir_attr, _ = decode_post_op_attr(dec)
        return cls(status, fh, attr, dir_attr, offset)


@dataclass
class AccessRes:
    status: int
    attr: Optional[Fattr3] = None
    access: int = 0

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            enc.u32(self.access)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "AccessRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        access = dec.u32() if status == 0 else 0
        return cls(status, attr, access)


@dataclass
class ReadlinkRes:
    status: int
    attr: Optional[Fattr3] = None
    path: str = ""

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            enc.string(self.path)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "ReadlinkRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        path = dec.string(1024) if status == 0 else ""
        return cls(status, attr, path)


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
        self.attr_offset = encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            enc.u32(self.count)
            enc.boolean(self.eof)
            enc.u32(self.count)  # opaque<> length prefix for the body
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "ReadRes":
        status = dec.u32()
        attr, offset = decode_post_op_attr(dec)
        count = eof = 0
        if status == 0:
            count = dec.u32()
            eof = dec.boolean()
            dec.u32()
        return cls(status, attr, count, bool(eof), offset)


@dataclass
class WriteRes:
    status: int
    attr: Optional[Fattr3] = None
    count: int = 0
    committed: int = 0
    verf: int = 0
    attr_offset: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        self.attr_offset = _enc_wcc(enc, self.attr)
        if self.status == 0:
            enc.u32(self.count)
            enc.u32(self.committed)
            enc.u64(self.verf)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "WriteRes":
        status = dec.u32()
        attr, offset = _dec_wcc(dec)
        count = committed = verf = 0
        if status == 0:
            count = dec.u32()
            committed = dec.u32()
            verf = dec.u64()
        return cls(status, attr, count, committed, verf, offset)


@dataclass
class CreateRes:
    """CREATE, MKDIR, SYMLINK results."""

    status: int
    fh: Optional[bytes] = None
    attr: Optional[Fattr3] = None
    dir_attr: Optional[Fattr3] = None

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        if self.status == 0:
            if self.fh is None:
                enc.boolean(False)
            else:
                enc.boolean(True)
                FH.put(enc, self.fh)
            encode_post_op_attr(enc, self.attr)
        _enc_wcc(enc, self.dir_attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "CreateRes":
        status = dec.u32()
        fh = attr = None
        if status == 0:
            if dec.boolean():
                fh = FH.get(dec)
            attr, _ = decode_post_op_attr(dec)
        dir_attr, _ = _dec_wcc(dec)
        return cls(status, fh, attr, dir_attr)


MkdirRes = CreateRes
SymlinkRes = CreateRes


@dataclass
class RenameRes:
    status: int
    from_dir_attr: Optional[Fattr3] = None
    to_dir_attr: Optional[Fattr3] = None

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        _enc_wcc(enc, self.from_dir_attr)
        _enc_wcc(enc, self.to_dir_attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "RenameRes":
        status = dec.u32()
        from_attr, _ = _dec_wcc(dec)
        to_attr, _ = _dec_wcc(dec)
        return cls(status, from_attr, to_attr)


@dataclass
class LinkRes:
    status: int
    file_attr: Optional[Fattr3] = None
    dir_attr: Optional[Fattr3] = None

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.file_attr)
        _enc_wcc(enc, self.dir_attr)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "LinkRes":
        status = dec.u32()
        file_attr, _ = decode_post_op_attr(dec)
        dir_attr, _ = _dec_wcc(dec)
        return cls(status, file_attr, dir_attr)


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
        encode_post_op_attr(enc, self.dir_attr)
        if self.status != 0:
            return enc.to_bytes()
        enc.u64(self.cookieverf)
        for entry in self.entries:
            enc.boolean(True)
            enc.u64(entry.fileid)
            enc.string(entry.name)
            enc.u64(entry.cookie)
            if self.plus:
                encode_post_op_attr(enc, entry.attr)
                if entry.fh is None:
                    enc.boolean(False)
                else:
                    enc.boolean(True)
                    FH.put(enc, entry.fh)
        enc.boolean(False)
        enc.boolean(self.eof)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder, plus: bool = False) -> "ReaddirRes":
        status = dec.u32()
        dir_attr, _ = decode_post_op_attr(dec)
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
                attr, _ = decode_post_op_attr(dec)
                if dec.boolean():
                    fh = FH.get(dec)
            entries.append(DirEntry(fileid, name, cookie, attr, fh))
        eof = dec.boolean()
        return cls(status, dir_attr, cookieverf, entries, eof, plus)


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

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            for value in (
                self.tbytes, self.fbytes, self.abytes,
                self.tfiles, self.ffiles, self.afiles,
            ):
                enc.u64(value)
            enc.u32(0)  # invarsec
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "FsstatRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        values = [0] * 6
        if status == 0:
            values = [dec.u64() for _ in range(6)]
            dec.u32()
        return cls(status, attr, *values)


@dataclass
class FsinfoRes:
    status: int
    attr: Optional[Fattr3] = None
    rtmax: int = 32768
    wtmax: int = 32768
    dtpref: int = 8192
    maxfilesize: int = 1 << 62

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            enc.u32(self.rtmax)
            enc.u32(self.rtmax)  # rtpref
            enc.u32(512)  # rtmult
            enc.u32(self.wtmax)
            enc.u32(self.wtmax)  # wtpref
            enc.u32(512)  # wtmult
            enc.u32(self.dtpref)
            enc.u64(self.maxfilesize)
            enc.u32(0)
            enc.u32(1)  # time_delta: 1ns
            enc.u32(0x1B)  # properties: LINK|SYMLINK|HOMOGENEOUS|CANSETTIME
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "FsinfoRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        if status != 0:
            return cls(status, attr)
        rtmax = dec.u32()
        dec.u32()
        dec.u32()
        wtmax = dec.u32()
        dec.u32()
        dec.u32()
        dtpref = dec.u32()
        maxfilesize = dec.u64()
        dec.u32()
        dec.u32()
        dec.u32()
        return cls(status, attr, rtmax, wtmax, dtpref, maxfilesize)


@dataclass
class PathconfRes:
    status: int
    attr: Optional[Fattr3] = None
    linkmax: int = 32767
    name_max: int = 255

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        encode_post_op_attr(enc, self.attr)
        if self.status == 0:
            enc.u32(self.linkmax)
            enc.u32(self.name_max)
            enc.boolean(True)  # no_trunc
            enc.boolean(True)  # chown_restricted
            enc.boolean(False)  # case_insensitive
            enc.boolean(True)  # case_preserving
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "PathconfRes":
        status = dec.u32()
        attr, _ = decode_post_op_attr(dec)
        if status != 0:
            return cls(status, attr)
        linkmax = dec.u32()
        name_max = dec.u32()
        for _ in range(4):
            dec.boolean()
        return cls(status, attr, linkmax, name_max)


@dataclass
class CommitRes:
    status: int
    attr: Optional[Fattr3] = None
    verf: int = 0

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(self.status)
        _enc_wcc(enc, self.attr)
        if self.status == 0:
            enc.u64(self.verf)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "CommitRes":
        status = dec.u32()
        attr, _ = _dec_wcc(dec)
        verf = dec.u64() if status == 0 else 0
        return cls(status, attr, verf)
