"""Slice file handles.

NFS V3 file handles are opaque to clients (up to 64 bytes).  Slice exploits
this: the directory servers mint handles that embed everything the µproxy
needs to route without contacting a server — the fileID, the file type,
per-file policy flags (e.g. mirrored striping), and the home logical site of
the object's attribute cell ("directory servers place keys in each newly
minted file handle", §4.3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = ["FHandle", "FLAG_MIRRORED", "FH_SIZE"]

_MAGIC = 0x51CE  # "SlICE"
FH_SIZE = 32

# Per-file policy flag bits (the paper's "file attributes encoded in the
# fhandle" that placement policies may consult, §3.1).
FLAG_MIRRORED = 0x01

_STRUCT = struct.Struct("!HHBBQH16s")
assert _STRUCT.size == FH_SIZE


@dataclass(frozen=True)
class FHandle:
    """Decoded Slice file handle."""

    volume: int
    ftype: int  # NF3REG / NF3DIR / NF3LNK
    flags: int
    fileid: int
    home_site: int  # logical directory-server site of the attribute cell
    key: bytes  # 16-byte cell key (MD5 fingerprint assigned at create)

    def __post_init__(self):
        if len(self.key) != 16:
            raise ValueError(f"cell key must be 16 bytes, got {len(self.key)}")

    def pack(self) -> bytes:
        return _STRUCT.pack(
            _MAGIC,
            self.volume,
            self.ftype,
            self.flags,
            self.fileid,
            self.home_site,
            self.key,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "FHandle":
        if len(raw) != FH_SIZE:
            raise ValueError(f"bad fhandle length: {len(raw)}")
        magic, volume, ftype, flags, fileid, home_site, key = _STRUCT.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"bad fhandle magic: {magic:#x}")
        return cls(volume, ftype, flags, fileid, home_site, key)

    @property
    def mirrored(self) -> bool:
        return bool(self.flags & FLAG_MIRRORED)

    def __repr__(self):
        return (
            f"FHandle(vol={self.volume}, type={self.ftype}, fileid={self.fileid}, "
            f"site={self.home_site}, flags={self.flags:#x})"
        )
