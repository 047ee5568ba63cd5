"""Peer-to-peer protocol between directory servers (§4.3).

Directory servers use "a simple peer-peer protocol to update link counts
for create/link/remove and mkdir/rmdir operations that cross sites, and to
follow cross-site links for lookup, getattr/setattr, and readdir".  Cross-
site *updates* run as two-participant transactions: the serving site
prepares its peer, logs its own decision, then commits — the two-phase
commit §3.3.2 prescribes for fixed placement.

This is an internal control-plane protocol between trusted servers, so op
payloads are JSON documents (bytes hex-encoded) carried in XDR strings;
clients never see it.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

from repro.rpc import xdr
from repro.rpc.xdr import Decoder, Encoder, XdrError

__all__ = [
    "SLICE_PEER_PROGRAM",
    "PEER_V1",
    "PEER_GET_ATTRS",
    "PEER_GET_ENTRY",
    "PEER_COUNT",
    "PEER_TOUCH",
    "PEER_PREPARE",
    "PEER_COMMIT",
    "PEER_ABORT",
    "PEER_RESOLVE",
    "PREPARE_OK",
    "PREPARE_CONFLICT",
    "PREPARE_REJECT",
    "RESOLVE_COMMITTED",
    "RESOLVE_ABORTED",
    "RESOLVE_UNKNOWN",
    "PeerReply",
    "KeyArgs",
    "EntryArgs",
    "CountArgs",
    "TouchArgs",
    "PrepareArgs",
    "TxidArgs",
]

SLICE_PEER_PROGRAM = 395902
PEER_V1 = 1

PEER_GET_ATTRS = 1
PEER_GET_ENTRY = 2
PEER_COUNT = 3
PEER_TOUCH = 4
PEER_PREPARE = 5
PEER_COMMIT = 6
PEER_ABORT = 7
PEER_RESOLVE = 8

PREPARE_OK = 0
PREPARE_CONFLICT = 1  # busy lock: abort and retry
PREPARE_REJECT = 2  # semantic validation failed (reason carried alongside)

RESOLVE_COMMITTED = 0
RESOLVE_ABORTED = 1
RESOLVE_UNKNOWN = 2

TXID = xdr.string(64)


def _get_key(dec: Decoder) -> bytes:
    text = dec.string(64)
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise XdrError(f"bad hex key: {text!r}") from None


#: An attribute-cell key, hex-encoded on the wire.
KEY = xdr.Field(lambda enc, key: enc.string(key.hex()), _get_key)


@xdr.record(xdr.JSON)
class PeerReply(NamedTuple):
    """Every peer procedure answers with one JSON document."""

    doc: Any


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


class TouchArgs(NamedTuple):
    """Remote parent mtime update; the mtime travels in whole µs."""

    site: int
    key: bytes
    mtime: float

    def encode(self) -> bytes:
        enc = Encoder().u32(self.site)
        KEY.put(enc, self.key)
        enc.u64(int(self.mtime * 1e6))
        return enc.to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "TouchArgs":
        return cls(dec.u32(), KEY.get(dec), dec.u64() / 1e6)


@xdr.record(TXID, xdr.U32, xdr.U32, xdr.JSON)
class PrepareArgs(NamedTuple):
    txid: str
    site: int  # target logical site at the remote server
    coord_site: int  # logical site of the transaction coordinator
    ops: List[Dict]


@xdr.record(TXID, xdr.U32)
class TxidArgs(NamedTuple):
    txid: str
    site: int
