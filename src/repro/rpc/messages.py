"""ONC RPC v2 (RFC 5531) message headers.

Calls carry AUTH_SYS credentials with a variable-length machine name and
group list — one of the variable-length fields the paper blames for the
µproxy's decode cost, so they are encoded for real here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional

from .xdr import U32, Decoder, Encoder, XdrError

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


#: Largest credential or verifier body (RFC 5531 ``opaque body<400>``).
AUTH_BODY_MAX = 400
#: Largest AUTH_SYS machine name.
MACHINE_MAX = 255

#: Runs of 3, 6 and 7 unsigned XDR words.
_WORDS3, _WORDS6, _WORDS7 = (
    struct.Struct(f"!{count}I") for count in (3, 6, 7))
#: AUTH_NONE flavor with an empty body: the null credential or verifier.
_NULL_AUTH = bytes(8)


def _out_of_range(what: str, exc: struct.error) -> XdrError:
    return XdrError(f"{what} field out of range: {exc}")


@dataclass
class Credential:
    """AUTH_SYS credential body (RFC 5531 appendix A)."""

    machine: str = "client"
    uid: int = 0
    gid: int = 0
    gids: List[int] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        """Flavor, body length and AUTH_SYS body, as on the wire."""
        body = Encoder().u32(0)  # stamp
        body.string(self.machine).u32(self.uid).u32(self.gid)
        body.array(self.gids, U32.put)
        return Encoder().u32(AUTH_SYS).opaque_var(body.to_bytes()).to_bytes()

    @classmethod
    def decode(cls, dec: Decoder) -> "Credential":
        """An AUTH_SYS body; bytes after the group list are ignored."""
        dec.u32()  # stamp
        machine = dec.string(MACHINE_MAX)
        uid = dec.u32()
        gid = dec.u32()
        return cls(machine, uid, gid, dec.array(U32.get))


def _skip_verifier(dec: Decoder) -> None:
    dec.u32()  # flavor: any is accepted
    dec.opaque_var(AUTH_BODY_MAX)


@dataclass
class CallHeader:
    """An RPC call header; arguments follow it in the same buffer."""

    xid: int
    prog: int
    vers: int
    proc: int
    cred: Optional[Credential] = None

    def encode(self) -> Encoder:
        cred = _NULL_AUTH if self.cred is None else self.cred.to_bytes()
        try:
            head = _WORDS6.pack(self.xid, CALL, RPC_VERSION, self.prog,
                                self.vers, self.proc)
        except struct.error as exc:
            raise _out_of_range("call header", exc) from None
        return Encoder().opaque_fixed(head + cred + _NULL_AUTH)

    @classmethod
    def decode(cls, dec: Decoder) -> "CallHeader":
        (xid, msg_type, rpcvers, prog, vers, proc,
         flavor) = dec.unpack(_WORDS7)
        if msg_type != CALL:
            raise XdrError(f"expected CALL, got msg_type={msg_type}")
        if rpcvers != RPC_VERSION:
            raise XdrError(f"bad RPC version: {rpcvers}")
        body = dec.opaque_var(AUTH_BODY_MAX)
        if flavor == AUTH_SYS:
            cred = Credential.decode(Decoder(body))
        elif flavor == AUTH_NONE:
            cred = None
        else:
            raise XdrError(f"unsupported auth flavor: {flavor}")
        _skip_verifier(dec)
        return cls(xid, prog, vers, proc, cred)


@dataclass
class ReplyHeader:
    """An accepted RPC reply header; results follow it in the same buffer."""

    xid: int
    accept_stat: int = SUCCESS

    def encode(self) -> Encoder:
        try:
            raw = _WORDS6.pack(self.xid, REPLY, MSG_ACCEPTED, AUTH_NONE, 0,
                               self.accept_stat)
        except struct.error as exc:
            raise _out_of_range("reply header", exc) from None
        return Encoder().opaque_fixed(raw)

    @classmethod
    def decode(cls, dec: Decoder) -> "ReplyHeader":
        xid, msg_type, reply_stat = dec.unpack(_WORDS3)
        if msg_type != REPLY:
            raise XdrError(f"expected REPLY, got msg_type={msg_type}")
        if reply_stat != MSG_ACCEPTED:
            raise XdrError(f"RPC message denied: {reply_stat}")
        _skip_verifier(dec)
        return cls(xid, dec.u32())
