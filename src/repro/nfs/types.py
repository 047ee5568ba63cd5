"""NFS V3 data types (RFC 1813): attributes, settable attributes, dir entries.

Attribute encoding is byte-faithful (84-byte fattr3) because the µproxy
patches size/time fields inside encoded replies using differential
checksumming; the field offsets exported here are part of that contract.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.rpc import xdr
from repro.rpc.xdr import Decoder, Encoder, XdrError

__all__ = [
    "NF3REG",
    "NF3DIR",
    "NF3BLK",
    "NF3CHR",
    "NF3LNK",
    "NF3SOCK",
    "NF3FIFO",
    "UNSTABLE",
    "DATA_SYNC",
    "FILE_SYNC",
    "UNCHECKED",
    "GUARDED",
    "EXCLUSIVE",
    "ACCESS_READ",
    "ACCESS_LOOKUP",
    "ACCESS_MODIFY",
    "ACCESS_EXTEND",
    "ACCESS_DELETE",
    "ACCESS_EXECUTE",
    "Fattr3",
    "Sattr3",
    "DirEntry",
    "FATTR3_SIZE",
    "FATTR3_OFF_SIZE",
    "FATTR3_OFF_ATIME",
    "FATTR3_OFF_MTIME",
    "FATTR3_OFF_CTIME",
    "TIME",
    "SET_TIME",
    "nfstime3",
]

NF3REG = 1
NF3DIR = 2
NF3BLK = 3
NF3CHR = 4
NF3LNK = 5
NF3SOCK = 6
NF3FIFO = 7

UNSTABLE = 0
DATA_SYNC = 1
FILE_SYNC = 2

UNCHECKED = 0
GUARDED = 1
EXCLUSIVE = 2

ACCESS_READ = 0x0001
ACCESS_LOOKUP = 0x0002
ACCESS_MODIFY = 0x0004
ACCESS_EXTEND = 0x0008
ACCESS_DELETE = 0x0010
ACCESS_EXECUTE = 0x0020

# fattr3: ftype, mode, nlink, uid, gid; size, used; rdev (major, minor);
# fsid, fileid; then atime, mtime and ctime, each (seconds, nanoseconds).
_FATTR3 = struct.Struct("!5I2Q2I2Q6I")

# fattr3 field offsets within its 84-byte encoding.
FATTR3_SIZE = _FATTR3.size
FATTR3_OFF_SIZE = struct.calcsize("!5I")
FATTR3_OFF_ATIME = struct.calcsize("!5I2Q2I2Q")
FATTR3_OFF_MTIME = struct.calcsize("!5I2Q2I2Q2I")
FATTR3_OFF_CTIME = struct.calcsize("!5I2Q2I2Q4I")


def nfstime3(seconds: float) -> Tuple[int, int]:
    """Float seconds as the nfstime3 (seconds, nanoseconds) pair."""
    whole = int(seconds)
    nanos = int(round((seconds - whole) * 1e9))
    if nanos >= 10**9:
        whole += 1
        nanos -= 10**9
    return whole & 0xFFFFFFFF, nanos


def _put_time(enc: Encoder, seconds: float) -> None:
    whole, nanos = nfstime3(seconds)
    enc.u32(whole)
    enc.u32(nanos)


def _get_time(dec: Decoder) -> float:
    whole = dec.u32()
    nanos = dec.u32()
    return whole + nanos / 1e9


#: nfstime3 as float seconds.
TIME = xdr.Field(_put_time, _get_time)


@dataclass
class Fattr3:
    """File attributes.  Times are float seconds since the epoch."""

    ftype: int = NF3REG
    mode: int = 0o644
    nlink: int = 1
    uid: int = 0
    gid: int = 0
    size: int = 0
    used: int = 0
    fsid: int = 0
    fileid: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0

    def encode(self, enc: Encoder) -> None:
        try:
            block = _FATTR3.pack(
                self.ftype, self.mode, self.nlink, self.uid, self.gid,
                self.size, self.used, 0, 0, self.fsid, self.fileid,
                *nfstime3(self.atime), *nfstime3(self.mtime),
                *nfstime3(self.ctime),
            )
        except struct.error as exc:
            raise XdrError(f"fattr3 field out of range: {exc}") from None
        enc.opaque_fixed(block)

    @classmethod
    def decode(cls, dec: Decoder) -> "Fattr3":
        (ftype, mode, nlink, uid, gid, size, used, _major, _minor, fsid,
         fileid, asec, ansec, msec, mnsec, csec, cnsec) = _FATTR3.unpack(
            dec.opaque_fixed(FATTR3_SIZE))
        return cls(
            ftype, mode, nlink, uid, gid, size, used, fsid, fileid,
            asec + ansec / 1e9, msec + mnsec / 1e9, csec + cnsec / 1e9,
        )

    def copy(self, **changes) -> "Fattr3":
        return replace(self, **changes)


# Sattr3 time disposition.
DONT_CHANGE = 0
SET_TO_SERVER_TIME = 1
SET_TO_CLIENT_TIME = 2


def _put_set_time(enc: Encoder, value) -> None:
    if value is None:
        enc.u32(DONT_CHANGE)
    elif value == "server":
        enc.u32(SET_TO_SERVER_TIME)
    else:
        enc.u32(SET_TO_CLIENT_TIME)
        _put_time(enc, value)


def _get_set_time(dec: Decoder):
    how = dec.u32()
    if how == DONT_CHANGE:
        return None
    if how == SET_TO_SERVER_TIME:
        return "server"
    if how == SET_TO_CLIENT_TIME:
        return _get_time(dec)
    raise XdrError(f"bad time_how: {how}")


#: set_atime / set_mtime: ``None`` (DONT_CHANGE), ``"server"`` or seconds.
SET_TIME = xdr.Field(_put_set_time, _get_set_time)


@xdr.record(
    xdr.optional(xdr.U32), xdr.optional(xdr.U32), xdr.optional(xdr.U32),
    xdr.optional(xdr.U64), SET_TIME, SET_TIME,
)
@dataclass
class Sattr3:
    """Settable attributes: each field is None (don't change) or a value.

    ``atime``/``mtime`` may also be the sentinel ``"server"`` meaning "set to
    the server's current time" (SET_TO_SERVER_TIME).
    """

    mode: Optional[int] = None
    uid: Optional[int] = None
    gid: Optional[int] = None
    size: Optional[int] = None
    atime: object = None
    mtime: object = None

    def is_truncation(self) -> bool:
        return self.size is not None


@dataclass
class DirEntry:
    """One READDIR entry."""

    fileid: int
    name: str
    cookie: int
    # READDIRPLUS extras:
    attr: Optional[Fattr3] = None
    fh: Optional[bytes] = None
