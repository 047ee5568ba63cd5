"""ONC RPC v2 (RFC 5531) message headers.

Calls carry AUTH_SYS credentials with a variable-length machine name and
group list — one of the variable-length fields the paper blames for the
µproxy's decode cost, so they are encoded for real here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .xdr import Decoder, Encoder, XdrError

__all__ = [
    "CALL",
    "REPLY",
    "AUTH_NONE",
    "AUTH_SYS",
    "MSG_ACCEPTED",
    "MSG_DENIED",
    "SUCCESS",
    "PROG_UNAVAIL",
    "PROC_UNAVAIL",
    "GARBAGE_ARGS",
    "Credential",
    "CallHeader",
    "ReplyHeader",
]

CALL = 0
REPLY = 1

AUTH_NONE = 0
AUTH_SYS = 1

MSG_ACCEPTED = 0
MSG_DENIED = 1

SUCCESS = 0
PROG_UNAVAIL = 1
PROG_MISMATCH = 2
PROC_UNAVAIL = 3
GARBAGE_ARGS = 4

RPC_VERSION = 2


@dataclass
class Credential:
    """AUTH_SYS credential body (RFC 5531 appendix A)."""

    machine: str = "client"
    uid: int = 0
    gid: int = 0
    gids: List[int] = field(default_factory=list)

    def encode(self, enc: Encoder) -> None:
        body = Encoder()
        body.u32(0)  # stamp
        body.string(self.machine)
        body.u32(self.uid)
        body.u32(self.gid)
        body.array(self.gids, lambda e, g: e.u32(g))
        enc.u32(AUTH_SYS)
        enc.opaque_var(body.to_bytes())

    @classmethod
    def decode(cls, dec: Decoder) -> Optional["Credential"]:
        flavor = dec.u32()
        body = dec.opaque_var(400)
        if flavor == AUTH_NONE:
            return None
        if flavor != AUTH_SYS:
            raise XdrError(f"unsupported auth flavor: {flavor}")
        inner = Decoder(body)
        inner.u32()  # stamp
        machine = inner.string(255)
        uid = inner.u32()
        gid = inner.u32()
        gids = inner.array(lambda d: d.u32())
        return cls(machine, uid, gid, gids)


def _encode_null_verf(enc: Encoder) -> None:
    enc.u32(AUTH_NONE)
    enc.opaque_var(b"")


def _decode_verf(dec: Decoder) -> None:
    dec.u32()
    dec.opaque_var(400)


@dataclass
class CallHeader:
    """An RPC call header; arguments follow it in the same buffer."""

    xid: int
    prog: int
    vers: int
    proc: int
    cred: Optional[Credential] = None

    def encode(self) -> Encoder:
        enc = Encoder()
        enc.u32(self.xid)
        enc.u32(CALL)
        enc.u32(RPC_VERSION)
        enc.u32(self.prog)
        enc.u32(self.vers)
        enc.u32(self.proc)
        if self.cred is None:
            enc.u32(AUTH_NONE)
            enc.opaque_var(b"")
        else:
            self.cred.encode(enc)
        _encode_null_verf(enc)
        return enc

    @classmethod
    def decode(cls, dec: Decoder) -> "CallHeader":
        xid = dec.u32()
        msg_type = dec.u32()
        if msg_type != CALL:
            raise XdrError(f"expected CALL, got msg_type={msg_type}")
        rpcvers = dec.u32()
        if rpcvers != RPC_VERSION:
            raise XdrError(f"bad RPC version: {rpcvers}")
        prog = dec.u32()
        vers = dec.u32()
        proc = dec.u32()
        cred = Credential.decode(dec)
        _decode_verf(dec)
        return cls(xid, prog, vers, proc, cred)


@dataclass
class ReplyHeader:
    """An accepted RPC reply header; results follow it in the same buffer."""

    xid: int
    accept_stat: int = SUCCESS

    def encode(self) -> Encoder:
        enc = Encoder()
        enc.u32(self.xid)
        enc.u32(REPLY)
        enc.u32(MSG_ACCEPTED)
        _encode_null_verf(enc)
        enc.u32(self.accept_stat)
        return enc

    @classmethod
    def decode(cls, dec: Decoder) -> "ReplyHeader":
        xid = dec.u32()
        msg_type = dec.u32()
        if msg_type != REPLY:
            raise XdrError(f"expected REPLY, got msg_type={msg_type}")
        reply_stat = dec.u32()
        if reply_stat != MSG_ACCEPTED:
            raise XdrError(f"RPC message denied: {reply_stat}")
        _decode_verf(dec)
        accept_stat = dec.u32()
        return cls(xid, accept_stat)
