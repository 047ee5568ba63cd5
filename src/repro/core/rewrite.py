"""In-place packet field patching with differential checksums (§4.1).

The µproxy rewrites "at most the source or destination address and port
number, and in some cases certain fields of the file attributes"; each
patch adjusts the UDP checksum incrementally, costing time proportional to
the bytes replaced rather than the packet size.  These helpers patch fattr3
fields inside an encoded reply given the attribute block's byte offset.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.net.packet import Packet
from repro.nfs.types import (
    FATTR3_OFF_ATIME,
    FATTR3_OFF_CTIME,
    FATTR3_OFF_MTIME,
    FATTR3_OFF_SIZE,
    Fattr3,
    nfstime3,
)

__all__ = ["patch_fattr", "patch_u32", "patch_u64", "time_bytes"]


def time_bytes(seconds: float) -> bytes:
    """Encode a timestamp as the 8-byte NFS (seconds, nanoseconds) pair."""
    return struct.pack("!II", *nfstime3(seconds))


def patch_u32(pkt: Packet, offset: int, value: int) -> int:
    """Patch a u32 in the header; returns bytes rewritten."""
    pkt.rewrite_header(offset, struct.pack("!I", value))
    return 4


def patch_u64(pkt: Packet, offset: int, value: int) -> int:
    """Patch a u64 in the header; returns bytes rewritten."""
    pkt.rewrite_header(offset, struct.pack("!Q", value))
    return 8


def patch_fattr(
    pkt: Packet,
    fattr_offset: int,
    size: Optional[int] = None,
    atime: Optional[float] = None,
    mtime: Optional[float] = None,
    ctime: Optional[float] = None,
) -> int:
    """Patch selected fattr3 fields at ``fattr_offset`` in the packet header.

    Returns the number of bytes rewritten (for cycle accounting).
    """
    if fattr_offset < 0:
        return 0
    rewritten = 0
    if size is not None:
        rewritten += patch_u64(pkt, fattr_offset + FATTR3_OFF_SIZE, size)
    if atime is not None:
        pkt.rewrite_header(fattr_offset + FATTR3_OFF_ATIME, time_bytes(atime))
        rewritten += 8
    if mtime is not None:
        pkt.rewrite_header(fattr_offset + FATTR3_OFF_MTIME, time_bytes(mtime))
        rewritten += 8
    if ctime is not None:
        pkt.rewrite_header(fattr_offset + FATTR3_OFF_CTIME, time_bytes(ctime))
        rewritten += 8
    return rewritten


def patch_attrs_from(pkt: Packet, fattr_offset: int, attrs: Fattr3) -> int:
    """Patch size and all three times from a cached attribute record."""
    return patch_fattr(
        pkt, fattr_offset,
        size=attrs.size, atime=attrs.atime,
        mtime=attrs.mtime, ctime=attrs.ctime,
    )
