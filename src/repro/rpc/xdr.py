"""XDR (RFC 4506) encoding — the wire format under ONC RPC and NFS.

Real byte-level encoding matters here: the µproxy locates and rewrites
fields inside these buffers, and the paper attributes most of its CPU cost
to decoding the variable-length RPC/NFS headers (Table 3).

The primitives are built on precompiled :class:`struct.Struct` objects:
:class:`Decoder` checks a read's whole extent (padding included) against
the end of the buffer once and unpacks in place with ``unpack_from``, and
:class:`Encoder` appends packed words to a list joined once at the end.
Every read or write out of range raises :class:`XdrError`, never
``struct.error``.  :func:`record` declares a message's layout as one
:class:`Field` per field.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
from typing import Any, Callable, List, NamedTuple, Optional, Sequence

__all__ = [
    "Encoder",
    "Decoder",
    "XdrError",
    "Field",
    "U32",
    "U64",
    "I32",
    "BOOL",
    "F64",
    "opaque",
    "fixed",
    "string",
    "array",
    "nested",
    "tuple_of",
    "optional",
    "ok",
    "union",
    "record",
]


class XdrError(Exception):
    """Malformed or truncated XDR data."""


_U32 = struct.Struct("!I")
_I32 = struct.Struct("!i")
_U64 = struct.Struct("!Q")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

#: Pad bytes after an item of length ``n``, indexed by ``n & 3``.
_PADDING = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")
#: Their count, indexed the same way.
_PAD_LENGTH = (0, 3, 2, 1)


def _truncated(end: int, offset: int, count: int) -> XdrError:
    """The error for a read of ``count`` bytes at ``offset`` past ``end``,
    the end of the buffer."""
    return XdrError(
        f"truncated XDR: need {count} bytes at offset {offset}, "
        f"have {end - offset}"
    )


class Encoder:
    """Append-only XDR encoder."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    @property
    def position(self) -> int:
        """Bytes encoded so far (offset of the next field)."""
        return sum(map(len, self._parts))

    def u32(self, value: int) -> "Encoder":
        if not 0 <= value <= 0xFFFFFFFF:
            raise XdrError(f"u32 out of range: {value}")
        self._parts.append(_U32.pack(value))
        return self

    def i32(self, value: int) -> "Encoder":
        if not -0x80000000 <= value <= 0x7FFFFFFF:
            raise XdrError(f"i32 out of range: {value}")
        self._parts.append(_I32.pack(value))
        return self

    def u64(self, value: int) -> "Encoder":
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise XdrError(f"u64 out of range: {value}")
        self._parts.append(_U64.pack(value))
        return self

    def i64(self, value: int) -> "Encoder":
        if not -0x8000000000000000 <= value <= 0x7FFFFFFFFFFFFFFF:
            raise XdrError(f"i64 out of range: {value}")
        self._parts.append(_I64.pack(value))
        return self

    def boolean(self, value: bool) -> "Encoder":
        self._parts.append(_U32.pack(1 if value else 0))
        return self

    def opaque_fixed(self, data: bytes) -> "Encoder":
        parts = self._parts
        parts.append(data)
        padding = _PADDING[len(data) & 3]
        if padding:
            parts.append(padding)
        return self

    def opaque_var(self, data: bytes) -> "Encoder":
        length = len(data)
        if length > 0xFFFFFFFF:
            raise XdrError(f"u32 out of range: {length}")
        parts = self._parts
        parts.append(_U32.pack(length))
        parts.append(data)
        padding = _PADDING[length & 3]
        if padding:
            parts.append(padding)
        return self

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
    """Cursor-based XDR decoder over a bytes buffer.

    Each read checks its whole extent (padding included) against the end
    of the buffer once, then unpacks in place: fixed-size words make no
    intermediate slice, and an opaque makes exactly one.
    """

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def u32(self) -> int:
        offset = self.offset
        if offset + 4 > len(self.data):
            raise _truncated(len(self.data), offset, 4)
        self.offset = offset + 4
        return _U32.unpack_from(self.data, offset)[0]

    def i32(self) -> int:
        offset = self.offset
        if offset + 4 > len(self.data):
            raise _truncated(len(self.data), offset, 4)
        self.offset = offset + 4
        return _I32.unpack_from(self.data, offset)[0]

    def u64(self) -> int:
        offset = self.offset
        if offset + 8 > len(self.data):
            raise _truncated(len(self.data), offset, 8)
        self.offset = offset + 8
        return _U64.unpack_from(self.data, offset)[0]

    def i64(self) -> int:
        offset = self.offset
        if offset + 8 > len(self.data):
            raise _truncated(len(self.data), offset, 8)
        self.offset = offset + 8
        return _I64.unpack_from(self.data, offset)[0]

    def unpack(self, layout: struct.Struct) -> tuple:
        """Reads ``layout.size`` bytes as one precompiled struct, such as
        a run of fixed-size words."""
        offset = self.offset
        end = offset + layout.size
        if end > len(self.data):
            raise _truncated(len(self.data), offset, layout.size)
        self.offset = end
        return layout.unpack_from(self.data, offset)

    def boolean(self) -> bool:
        value = self.u32()
        if value > 1:
            raise XdrError(f"bad boolean discriminant: {value}")
        return value == 1

    def opaque_fixed(self, length: int) -> bytes:
        data, offset = self.data, self.offset
        end = offset + length
        padded = end + _PAD_LENGTH[length & 3]
        if padded > len(data):
            raise _truncated(len(data), offset, padded - offset)
        self.offset = padded
        return data[offset:end]

    def opaque_var(self, max_length: int = 0xFFFFFFFF) -> bytes:
        data, offset = self.data, self.offset
        if offset + 4 > len(data):
            raise _truncated(len(data), offset, 4)
        length = _U32.unpack_from(data, offset)[0]
        start = offset + 4
        if length > max_length:
            raise XdrError(f"opaque length {length} exceeds max {max_length}")
        end = start + length
        padded = end + _PAD_LENGTH[length & 3]
        if padded > len(data):
            raise _truncated(len(data), start, padded - start)
        self.offset = padded
        return data[start:end]

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
    ``get(dec)`` reads one back, with the same range and bound checks.

    ``locate(dec)``, on kinds that carry a fixed-size body the µproxy
    patches in place (an fattr3), reads like ``get`` but returns
    ``(value, offset)``: the decoder offset where that body starts, or -1
    when the value is absent.  ``gated`` marks a field that is on the wire
    only when its record's leading status is 0 (see :func:`ok`).
    """

    put: Callable[[Encoder, Any], Any]
    get: Callable[[Decoder], Any]
    locate: Optional[Callable[[Decoder], tuple]] = None
    gated: bool = False


U32 = Field(lambda enc, v: enc.u32(v), lambda dec: dec.u32())
U64 = Field(lambda enc, v: enc.u64(v), lambda dec: dec.u64())
I32 = Field(lambda enc, v: enc.i32(v), lambda dec: dec.i32())
BOOL = Field(lambda enc, v: enc.boolean(v), lambda dec: dec.boolean())


def _put_f64(enc: Encoder, value) -> None:
    try:
        enc.opaque_fixed(_F64.pack(value))
    except (struct.error, OverflowError):
        raise XdrError(f"not a double: {value!r}") from None


#: An XDR double (RFC 4506 §4.7): a float crosses the wire exactly.
F64 = Field(_put_f64, lambda dec: dec.unpack(_F64)[0])


def opaque(max_length: int) -> Field:
    """``opaque<max_length>``: longer input is rejected on decode."""
    return Field(lambda enc, v: enc.opaque_var(v),
                 lambda dec: dec.opaque_var(max_length))


def fixed(length: int) -> Field:
    """``opaque[length]``: a value of any other length is rejected."""

    def put(enc: Encoder, value) -> None:
        if not isinstance(value, (bytes, bytearray)) or len(value) != length:
            raise XdrError(f"need {length} opaque bytes, got {value!r}")
        enc.opaque_fixed(value)

    return Field(put, lambda dec: dec.opaque_fixed(length))


def string(max_length: int) -> Field:
    """``string<max_length>`` holding UTF-8 text."""
    return Field(lambda enc, v: enc.string(v),
                 lambda dec: dec.string(max_length))


def array(kind: Field) -> Field:
    """Counted array of ``kind``, decoded as a list."""
    return Field(lambda enc, v: enc.array(v, kind.put),
                 lambda dec: dec.array(kind.get))


def nested(codec) -> Field:
    """A value of a :func:`record` class, such as
    :class:`~repro.nfs.types.Sattr3`, inlined in the enclosing message."""
    return Field(lambda enc, v: enc.opaque_fixed(v.encode()),
                 lambda dec: codec.decode(dec))


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


def optional(kind: Field) -> Field:
    """``kind *``: an XDR bool, then the value when it is true; ``None``
    stands for the absent value."""
    put_one, get_one, locate_one = kind.put, kind.get, kind.locate

    def put(enc: Encoder, value) -> None:
        if value is None:
            enc.boolean(False)
        else:
            enc.boolean(True)
            put_one(enc, value)

    def get(dec: Decoder):
        return get_one(dec) if dec.boolean() else None

    def locate(dec: Decoder) -> tuple:
        return locate_one(dec) if dec.boolean() else (None, -1)

    return Field(put, get, locate if locate_one is not None else None)


def ok(kind: Field) -> Field:
    """``kind``, on the wire only when the record's leading status is 0
    (NFS3_OK): the arm of a result union that a failed call leaves out.
    Decoding a failed result gives the field its class default."""
    return kind._replace(gated=True)


def union(*arms) -> Field:
    """One of the :func:`record` classes ``arms``: a u32 arm index, then
    the value; the value's class picks the arm."""
    index_of = {arm: index for index, arm in enumerate(arms)}

    def put(enc: Encoder, value) -> None:
        index = index_of.get(type(value))
        if index is None:
            raise XdrError(f"no union arm for {type(value).__name__}")
        enc.u32(index)
        enc.opaque_fixed(value.encode())

    def get(dec: Decoder):
        index = dec.u32()
        if index >= len(arms):
            raise XdrError(f"bad union arm: {index}")
        return arms[index].decode(dec)

    return Field(put, get)


def record(*kinds: Field):
    """Class decorator declaring a NamedTuple's or dataclass's wire layout.

    ``kinds`` gives one :class:`Field` per leading class field, in wire
    order.  The class gets ``encode(self) -> bytes`` and a ``decode(dec)``
    classmethod that reads the fields back from a :class:`Decoder`.

    Fields of :func:`ok` kinds must be contiguous and follow the leading
    status field.  One trailing field past the wire fields is allowed; it
    is not encoded, and decoding stores in it the offset reported by the
    first kind with a ``locate`` (-1 when that field is absent).
    """
    count = len(kinds)
    gated = [index for index, kind in enumerate(kinds) if kind.gated]
    low, high = (gated[0], gated[-1] + 1) if gated else (count, count)
    puts = [kind.put for kind in kinds]
    ungated = [index for index in range(count) if not low <= index < high]

    def install(cls):
        # A NamedTuple is its own tuple of wire values.
        wire_values = None
        if dataclasses.is_dataclass(cls):
            names = [f.name for f in dataclasses.fields(cls)]
            defaults = [f.default for f in dataclasses.fields(cls)]
            getter = operator.attrgetter(*names[:count])
            wire_values = getter if count > 1 else lambda obj: (getter(obj),)
        else:
            names = cls._fields
            defaults = [cls._field_defaults.get(name) for name in names]
        if not count <= len(names) <= count + 1:
            raise TypeError(
                f"{cls.__name__} has {len(names)} fields "
                f"but {count} XDR kinds"
            )
        if gated and (low == 0 or gated != list(range(low, high))):
            raise TypeError(f"{cls.__name__}: status-gated fields must be "
                            f"contiguous and follow the leading status")
        located = -1
        if len(names) > count:  # the trailing offset field
            located = next((index for index, kind in enumerate(kinds)
                            if kind.locate is not None), -1)
            if located < 0:
                raise TypeError(f"{cls.__name__}: no XDR kind reports "
                                f"an offset")
        gets = [kind.locate if index == located else kind.get
                for index, kind in enumerate(kinds)]
        head, body, tail = gets[:low], gets[low:high], gets[high:]
        absent = [(defaults[index], -1) if index == located
                  else defaults[index] for index in range(low, high)]

        def encode(self) -> bytes:
            enc = Encoder()
            values = self if wire_values is None else wire_values(self)
            if body and values[0] != 0:
                for index in ungated:
                    puts[index](enc, values[index])
            else:
                for put, value in zip(puts, values):
                    put(enc, value)
            return enc.to_bytes()

        def decode(cls, dec: Decoder):
            values = [get(dec) for get in head]
            if body:
                if values[0] == 0:
                    values += [get(dec) for get in body]
                else:
                    values += absent
                values += [get(dec) for get in tail]
            if located >= 0:
                values[located], offset = values[located]
                values.append(offset)
            return cls(*values)

        encode.__qualname__ = f"{cls.__qualname__}.encode"
        decode.__qualname__ = f"{cls.__qualname__}.decode"
        cls.encode = encode
        cls.decode = classmethod(decode)
        return cls

    return install
