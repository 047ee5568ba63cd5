"""Peer-to-peer protocol between directory servers (§4.3).

Directory servers use "a simple peer-peer protocol to update link counts
for create/link/remove and mkdir/rmdir operations that cross sites, and to
follow cross-site links for lookup, getattr/setattr, and readdir".  Cross-
site *updates* run as two-phase commit, the protocol §3.3.2 prescribes for
fixed placement: the serving site prepares every remote site the update
touches, logs its own decision, then commits.  A participant left prepared
asks the coordinator with RESOLVE, which answers committed, aborted or
still in flight.

Every message is a declared XDR record.  Keys travel as the 16-byte cell
keys, and cells as :class:`~repro.dirsvc.state.AttrCell` and
:class:`~repro.dirsvc.state.NameCell` records.  A PREPARE carries its
transaction as a list of the typed ops of :mod:`repro.dirsvc.state`, one
record class per kind of mutation (:data:`OP`).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.rpc import xdr
from .state import (
    KEY, OPS, AdjLink, AttrCell, DelName, NameCell, PutAttr, PutName,
    SetParent, TouchDir,
)

__all__ = [
    "SLICE_PEER_PROGRAM",
    "PEER_V1",
    "PEER_GET_ATTRS",
    "PEER_GET_ENTRY",
    "PEER_COUNT",
    "PEER_TOUCH",
    "PEER_PREPARE",
    "PEER_COMMIT",
    "PEER_RESOLVE",
    "PREPARE_OK",
    "PREPARE_CONFLICT",
    "PREPARE_REJECT",
    "RESOLVE_COMMITTED",
    "RESOLVE_ABORTED",
    "RESOLVE_IN_FLIGHT",
    "KeyArgs",
    "EntryArgs",
    "CountArgs",
    "TouchArgs",
    "PutName",
    "DelName",
    "AdjLink",
    "TouchDir",
    "SetParent",
    "PutAttr",
    "OP",
    "PrepareArgs",
    "TxidArgs",
    "AttrRes",
    "EntryRes",
    "U32Res",
    "PrepareRes",
]

SLICE_PEER_PROGRAM = 395902
PEER_V1 = 1

PEER_GET_ATTRS = 1
PEER_GET_ENTRY = 2
PEER_COUNT = 3
PEER_TOUCH = 4
PEER_PREPARE = 5
PEER_COMMIT = 6
PEER_RESOLVE = 8

PREPARE_OK = 0
PREPARE_CONFLICT = 1  # busy lock: abort and retry
PREPARE_REJECT = 2  # semantic validation failed (reason carried alongside)

RESOLVE_COMMITTED = 0
RESOLVE_ABORTED = 1  # decided abort, or unknown to the coordinator
RESOLVE_IN_FLIGHT = 2  # not decided yet: ask again later

TXID = xdr.string(64)


@xdr.record(xdr.U32, KEY)
class KeyArgs(NamedTuple):
    site: int
    key: bytes


@xdr.record(xdr.U32, xdr.U64, xdr.string(255))
class EntryArgs(NamedTuple):
    site: int
    parent_fileid: int
    name: str


@xdr.record(xdr.U64, xdr.array(xdr.U32))
class CountArgs(NamedTuple):
    """Count entries of a directory across several logical sites hosted by
    one physical server (batched so an rmdir emptiness check costs one RPC
    per server, not one per logical site)."""

    dir_fileid: int
    sites: List[int]


@xdr.record(xdr.U32, KEY, xdr.F64)
class TouchArgs(NamedTuple):
    """Remote parent mtime update."""

    site: int
    key: bytes
    mtime: float


#: One transaction op: the arm index is its class's place in ``OPS``.
OP = xdr.union(*OPS)


@xdr.record(TXID, xdr.U32, xdr.U32, xdr.array(OP))
class PrepareArgs(NamedTuple):
    txid: str
    site: int  # target logical site at the remote server
    coord_site: int  # logical site of the transaction coordinator
    ops: List[NamedTuple]


@xdr.record(TXID, xdr.U32)
class TxidArgs(NamedTuple):
    txid: str
    site: int


# -- replies -----------------------------------------------------------------


@xdr.record(xdr.optional(xdr.nested(AttrCell)))
class AttrRes(NamedTuple):
    """GET_ATTRS reply: the cell, or None when the site does not hold it."""

    cell: Optional[AttrCell]


@xdr.record(xdr.optional(xdr.nested(NameCell)))
class EntryRes(NamedTuple):
    """GET_ENTRY reply: the entry, or None when the site does not hold it."""

    cell: Optional[NameCell]


@xdr.record(xdr.U32)
class U32Res(NamedTuple):
    """The reply of COUNT (the entry count), TOUCH and COMMIT (0) and
    RESOLVE (a ``RESOLVE_*`` outcome)."""

    value: int


@xdr.record(xdr.U32, xdr.U32)
class PrepareRes(NamedTuple):
    """PREPARE reply: a ``PREPARE_*`` status, and with PREPARE_REJECT the
    NFS status the coordinator returns."""

    status: int
    nfs_status: int = 0
