"""XDR (RFC 4506) encoding — the wire format under ONC RPC and NFS.

Real byte-level encoding matters here: the µproxy locates and rewrites
fields inside these buffers, and the paper attributes most of its CPU cost
to decoding the variable-length RPC/NFS headers (Table 3).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, List, NamedTuple, Sequence

__all__ = [
    "Encoder",
    "Decoder",
    "XdrError",
    "Field",
    "U32",
    "U64",
    "I32",
    "BOOL",
    "JSON",
    "opaque",
    "string",
    "array",
    "nested",
    "tuple_of",
    "record",
]


class XdrError(Exception):
    """Malformed or truncated XDR data."""


def _pad(length: int) -> int:
    return (4 - (length % 4)) % 4


class Encoder:
    """Append-only XDR encoder."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []
        self._length = 0

    def _append(self, chunk: bytes) -> None:
        self._parts.append(chunk)
        self._length += len(chunk)

    @property
    def position(self) -> int:
        """Bytes encoded so far (offset of the next field)."""
        return self._length

    def u32(self, value: int) -> "Encoder":
        if not 0 <= value <= 0xFFFFFFFF:
            raise XdrError(f"u32 out of range: {value}")
        self._append(struct.pack("!I", value))
        return self

    def i32(self, value: int) -> "Encoder":
        self._append(struct.pack("!i", value))
        return self

    def u64(self, value: int) -> "Encoder":
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise XdrError(f"u64 out of range: {value}")
        self._append(struct.pack("!Q", value))
        return self

    def i64(self, value: int) -> "Encoder":
        self._append(struct.pack("!q", value))
        return self

    def boolean(self, value: bool) -> "Encoder":
        return self.u32(1 if value else 0)

    def opaque_fixed(self, data: bytes) -> "Encoder":
        self._append(data)
        padding = _pad(len(data))
        if padding:
            self._append(b"\x00" * padding)
        return self

    def opaque_var(self, data: bytes) -> "Encoder":
        self.u32(len(data))
        return self.opaque_fixed(data)

    def string(self, text: str) -> "Encoder":
        return self.opaque_var(text.encode("utf-8"))

    def array(self, items: Sequence, encode_item: Callable) -> "Encoder":
        self.u32(len(items))
        for item in items:
            encode_item(self, item)
        return self

    def to_bytes(self) -> bytes:
        return b"".join(self._parts)


class Decoder:
    """Cursor-based XDR decoder over a bytes buffer."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def _take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise XdrError(
                f"truncated XDR: need {count} bytes at offset {self.offset}, "
                f"have {len(self.data) - self.offset}"
            )
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u32(self) -> int:
        return struct.unpack("!I", self._take(4))[0]

    def i32(self) -> int:
        return struct.unpack("!i", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("!Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack("!q", self._take(8))[0]

    def boolean(self) -> bool:
        value = self.u32()
        if value not in (0, 1):
            raise XdrError(f"bad boolean discriminant: {value}")
        return bool(value)

    def opaque_fixed(self, length: int) -> bytes:
        data = self._take(length)
        padding = _pad(length)
        if padding:
            self._take(padding)
        return data

    def opaque_var(self, max_length: int = 0xFFFFFFFF) -> bytes:
        length = self.u32()
        if length > max_length:
            raise XdrError(f"opaque length {length} exceeds max {max_length}")
        return self.opaque_fixed(length)

    def string(self, max_length: int = 0xFFFFFFFF) -> str:
        data = self.opaque_var(max_length)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XdrError(f"string is not UTF-8: {exc}") from None

    def array(self, decode_item: Callable) -> list:
        count = self.u32()
        if count > 1 << 20:
            raise XdrError(f"implausible array length: {count}")
        return [decode_item(self) for _ in range(count)]

    @property
    def remaining(self) -> int:
        return len(self.data) - self.offset

    def done(self) -> bool:
        return self.offset >= len(self.data)


# ---------------------------------------------------------------------------
# Declared message layouts
# ---------------------------------------------------------------------------


class Field(NamedTuple):
    """One XDR field kind: ``put(enc, value)`` appends a value and
    ``get(dec)`` reads one back, with the same range and bound checks."""

    put: Callable[[Encoder, Any], Any]
    get: Callable[[Decoder], Any]


U32 = Field(lambda enc, v: enc.u32(v), lambda dec: dec.u32())
U64 = Field(lambda enc, v: enc.u64(v), lambda dec: dec.u64())
I32 = Field(lambda enc, v: enc.i32(v), lambda dec: dec.i32())
BOOL = Field(lambda enc, v: enc.boolean(v), lambda dec: dec.boolean())


def opaque(max_length: int) -> Field:
    """``opaque<max_length>``: longer input is rejected on decode."""
    return Field(lambda enc, v: enc.opaque_var(v),
                 lambda dec: dec.opaque_var(max_length))


def string(max_length: int) -> Field:
    """``string<max_length>`` holding UTF-8 text."""
    return Field(lambda enc, v: enc.string(v),
                 lambda dec: dec.string(max_length))


def array(kind: Field) -> Field:
    """Counted array of ``kind``, decoded as a list."""
    return Field(lambda enc, v: enc.array(v, kind.put),
                 lambda dec: dec.array(kind.get))


def nested(codec) -> Field:
    """A value with ``encode(enc)`` and a ``decode(dec)`` classmethod,
    such as :class:`~repro.nfs.types.Sattr3`."""
    return Field(lambda enc, v: v.encode(enc), lambda dec: codec.decode(dec))


def tuple_of(*kinds: Field) -> Field:
    """An XDR struct of ``kinds`` in order, decoded as a plain tuple."""
    puts = tuple(kind.put for kind in kinds)
    gets = tuple(kind.get for kind in kinds)

    def put(enc: Encoder, values) -> None:
        for put_one, value in zip(puts, values):
            put_one(enc, value)

    def get(dec: Decoder) -> tuple:
        return tuple([get_one(dec) for get_one in gets])

    return Field(put, get)


#: Largest JSON document a :data:`JSON` field accepts.
JSON_MAX = 1 << 20


def _json_get(dec: Decoder):
    text = dec.string(JSON_MAX)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # RecursionError: a deeply nested document exhausts the parser.
        raise XdrError(f"bad JSON document: {exc!r}") from None


#: A JSON document carried in an XDR string (compact separators).
JSON = Field(
    lambda enc, v: enc.string(json.dumps(v, separators=(",", ":"))),
    _json_get,
)


def record(*kinds: Field):
    """Class decorator declaring a NamedTuple's wire layout.

    ``kinds`` gives one :class:`Field` per NamedTuple field, in order.
    The class gets ``encode(self) -> bytes`` and a ``decode(dec)``
    classmethod that reads the fields back from a :class:`Decoder`.
    """
    layout = tuple_of(*kinds)

    def install(cls):
        if len(cls._fields) != len(kinds):
            raise TypeError(
                f"{cls.__name__} has {len(cls._fields)} fields "
                f"but {len(kinds)} XDR kinds"
            )

        def encode(self) -> bytes:
            enc = Encoder()
            layout.put(enc, self)
            return enc.to_bytes()

        def decode(cls, dec: Decoder):
            return cls._make(layout.get(dec))

        encode.__qualname__ = f"{cls.__qualname__}.encode"
        decode.__qualname__ = f"{cls.__qualname__}.decode"
        cls.encode = encode
        cls.decode = classmethod(decode)
        return cls

    return install
