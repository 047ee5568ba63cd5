"""Wire protocol for the block-service coordinator (§2.2, §3.3.2, §4.2).

Coordinators manage per-file block maps (for dynamic I/O routing) and an
intention log that preserves failure atomicity for operations spanning
multiple storage sites: remove/truncate, NFS V3 write commitment, and
mirrored writes.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from repro.nfs.proto import FH
from repro.rpc import xdr
from repro.rpc.xdr import Decoder, Encoder, XdrError

__all__ = [
    "SLICE_COORD_PROGRAM",
    "COORD_V1",
    "COORD_PING",
    "COORD_INTENT",
    "COORD_COMPLETE",
    "COORD_GET_MAP",
    "COORD_RECLAIM",
    "K_REMOVE",
    "K_TRUNCATE",
    "K_COMMIT",
    "K_MIRROR_WRITE",
    "K_MIGRATE",
    "Intent",
    "CompleteArgs",
    "GetMapArgs",
    "MapRes",
    "ReclaimArgs",
]

SLICE_COORD_PROGRAM = 395901
COORD_V1 = 1

COORD_PING = 0
COORD_INTENT = 1
COORD_COMPLETE = 2
COORD_GET_MAP = 3
COORD_RECLAIM = 4

K_REMOVE = 1
K_TRUNCATE = 2
K_COMMIT = 3
K_MIRROR_WRITE = 4
# Online reconfiguration (repro.reconfig): one object range being copied
# from an old binding to a new one.  sites = [source, destination]; the
# recovery action re-copies the range via the ctrl-plane migration procs,
# which is idempotent (stable writes of identical bytes).
K_MIGRATE = 5


@xdr.record(
    xdr.U64, xdr.U32, FH, xdr.U64, xdr.U32,
    xdr.array(xdr.tuple_of(xdr.string(255), xdr.U32)),
)
class Intent(NamedTuple):
    """One multi-site operation the coordinator guards."""

    op_id: int
    kind: int
    fh: bytes
    offset: int
    count: int
    sites: List[Tuple[str, int]]  # participant (host, port) pairs


@xdr.record(xdr.U64)
class CompleteArgs(NamedTuple):
    op_id: int


@xdr.record(FH, xdr.U64, xdr.U32, xdr.BOOL)
class GetMapArgs(NamedTuple):
    fh: bytes
    first_block: int
    count: int
    allocate: bool


SITES = xdr.array(xdr.I32)


class MapRes(NamedTuple):
    """GET_MAP result: a status word (always OK on the wire) gating the
    site of each block, ``-1`` for a hole."""

    sites: List[int]

    def encode(self) -> bytes:
        enc = Encoder()
        enc.u32(0)  # status OK
        SITES.put(enc, self.sites)
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "MapRes":
        status = dec.u32()
        if status != 0:
            raise XdrError(f"get_map failed: {status}")
        return cls(SITES.get(dec))


@xdr.record(FH, xdr.BOOL, xdr.U64)
class ReclaimArgs(NamedTuple):
    fh: bytes
    remove: bool = True
    truncate_to: int = 0
