"""Slice control protocol: object management ops on storage nodes.

The paper's storage nodes speak "a subset of NFS, including read, write,
commit, and remove"; reads/writes/commits map directly onto NFS procedures,
while object removal/truncation (issued by coordinators and µproxies during
multi-site operations, never by clients) use this small companion program.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.nfs.proto import FH
from repro.rpc import xdr

__all__ = [
    "SLICE_CTRL_PROGRAM",
    "CTRL_V1",
    "CTRL_PING",
    "CTRL_OBJ_REMOVE",
    "CTRL_OBJ_TRUNCATE",
    "CTRL_OBJ_STAT",
    "CTRL_OBJ_READ",
    "CTRL_MIGRATE_WRITE",
    "ObjArgs",
    "TruncateArgs",
    "ObjStat",
    "RangeArgs",
    "StatusRes",
    "ReadRes",
]

SLICE_CTRL_PROGRAM = 395900
CTRL_V1 = 1

CTRL_PING = 0
CTRL_OBJ_REMOVE = 1
CTRL_OBJ_TRUNCATE = 2
CTRL_OBJ_STAT = 3
# Migration data plane (repro.reconfig): reads and stable writes that
# bypass the NFS path's site checks and barriers.  Issued only by the
# rebalancer and by coordinators repairing mirrors/migrations — never by
# clients or µproxies.
CTRL_OBJ_READ = 4
CTRL_MIGRATE_WRITE = 5


@xdr.record(FH)
class ObjArgs(NamedTuple):
    fh: bytes


@xdr.record(FH, xdr.U64)
class TruncateArgs(NamedTuple):
    fh: bytes
    size: int


@xdr.record(xdr.BOOL, xdr.U64, xdr.U64)
class ObjStat(NamedTuple):
    exists: bool
    size: int
    unstable_bytes: int


@xdr.record(FH, xdr.U64, xdr.U32)
class RangeArgs(NamedTuple):
    fh: bytes
    offset: int
    count: int


@xdr.record(xdr.U32)
class StatusRes(NamedTuple):
    status: int


@xdr.record(xdr.BOOL, xdr.U32)
class ReadRes(NamedTuple):
    exists: bool
    count: int
