"""Tests for XDR encoding, declared record layouts and RPC message
headers."""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rpc.messages import (
    CallHeader,
    Credential,
    ReplyHeader,
    SUCCESS,
    PROG_UNAVAIL,
)
from repro.rpc import xdr
from repro.rpc.xdr import Decoder, Encoder, XdrError


def test_u32_roundtrip():
    enc = Encoder().u32(0).u32(1).u32(0xFFFFFFFF)
    dec = Decoder(enc.to_bytes())
    assert [dec.u32(), dec.u32(), dec.u32()] == [0, 1, 0xFFFFFFFF]
    assert dec.done()


def test_u32_range_check():
    with pytest.raises(XdrError):
        Encoder().u32(-1)
    with pytest.raises(XdrError):
        Encoder().u32(1 << 32)


def test_i32_and_i64_signed():
    enc = Encoder().i32(-5).i64(-(1 << 40))
    dec = Decoder(enc.to_bytes())
    assert dec.i32() == -5
    assert dec.i64() == -(1 << 40)


def test_u64_roundtrip():
    enc = Encoder().u64(1 << 63)
    assert Decoder(enc.to_bytes()).u64() == 1 << 63


def test_bool_roundtrip():
    enc = Encoder().boolean(True).boolean(False)
    dec = Decoder(enc.to_bytes())
    assert dec.boolean() is True
    assert dec.boolean() is False


def test_bad_bool_rejected():
    with pytest.raises(XdrError):
        Decoder(Encoder().u32(2).to_bytes()).boolean()


def test_opaque_var_padding():
    enc = Encoder().opaque_var(b"abcde")  # 4 len + 5 data + 3 pad
    raw = enc.to_bytes()
    assert len(raw) == 12
    assert raw[4:9] == b"abcde"
    assert raw[9:] == b"\x00\x00\x00"
    assert Decoder(raw).opaque_var() == b"abcde"


def test_opaque_fixed_roundtrip():
    enc = Encoder().opaque_fixed(b"xyz")
    assert len(enc.to_bytes()) == 4
    assert Decoder(enc.to_bytes()).opaque_fixed(3) == b"xyz"


def test_opaque_max_length_enforced():
    raw = Encoder().opaque_var(b"a" * 100).to_bytes()
    with pytest.raises(XdrError):
        Decoder(raw).opaque_var(max_length=64)


def test_string_unicode():
    enc = Encoder().string("héllo/wörld")
    assert Decoder(enc.to_bytes()).string() == "héllo/wörld"


def test_string_rejects_invalid_utf8_as_xdr_error():
    raw = Encoder().opaque_var(b"\xff\xfe").to_bytes()
    with pytest.raises(XdrError):
        Decoder(raw).string()


def test_array_roundtrip():
    enc = Encoder().array([1, 2, 3], lambda e, x: e.u32(x))
    assert Decoder(enc.to_bytes()).array(lambda d: d.u32()) == [1, 2, 3]


def test_truncated_buffer_raises():
    with pytest.raises(XdrError):
        Decoder(b"\x00\x00").u32()


def test_position_tracks_offset():
    enc = Encoder()
    enc.u32(1)
    assert enc.position == 4
    enc.string("ab")
    assert enc.position == 12


@xdr.record(xdr.U32, xdr.string(8), xdr.JSON)
class _Probe(NamedTuple):
    site: int
    label: str
    doc: object


def test_record_installs_codec_on_the_class():
    probe = _Probe(7, "ok", {"a": [1, 2]})
    assert "encode" in vars(_Probe) and "decode" in vars(_Probe)
    raw = probe.encode()
    assert raw == (Encoder().u32(7).string("ok")
                   .string('{"a":[1,2]}').to_bytes())
    assert _Probe.decode(Decoder(raw)) == probe


def test_record_keeps_bounds_and_range_checks():
    with pytest.raises(XdrError):
        _Probe(-1, "ok", None).encode()
    too_long = Encoder().u32(1).string("ninechars").string("0").to_bytes()
    with pytest.raises(XdrError):
        _Probe.decode(Decoder(too_long))


@pytest.mark.parametrize("text", ["{not json", "[" * 100_000])
def test_json_field_rejects_bad_json_as_xdr_error(text):
    raw = Encoder().u32(1).string("ok").string(text).to_bytes()
    with pytest.raises(XdrError):
        _Probe.decode(Decoder(raw))


def test_record_needs_one_kind_per_field():
    with pytest.raises(TypeError):
        @xdr.record(xdr.U32)
        class _Short(NamedTuple):
            a: int
            b: int


def _u32_at(dec):
    offset = dec.offset
    return dec.u32(), offset


#: A u32 that reports where it starts, like an fattr3 the µproxy patches.
LOCATED_U32 = xdr.Field(xdr.U32.put, xdr.U32.get, _u32_at)


@xdr.record(xdr.U32, xdr.optional(xdr.U32), xdr.ok(xdr.U64),
            xdr.ok(xdr.optional(LOCATED_U32)), xdr.BOOL)
@dataclass
class _Result:
    status: int
    maybe: Optional[int] = None
    big: int = 5
    patched: Optional[int] = None
    flag: bool = False
    patched_at: int = field(default=-1, compare=False)


def test_optional_field_is_a_bool_then_the_value():
    kind = xdr.optional(xdr.U32)
    for value, wire in ((None, Encoder().u32(0)),
                        (9, Encoder().u32(1).u32(9))):
        enc = Encoder()
        kind.put(enc, value)
        assert enc.to_bytes() == wire.to_bytes()
        assert kind.get(Decoder(wire.to_bytes())) == value
    with pytest.raises(XdrError):
        kind.get(Decoder(Encoder().u32(2).u32(9).to_bytes()))


def test_ok_fields_are_on_the_wire_only_when_the_status_is_zero():
    done = _Result(0, 3, 1 << 40, 7, True)
    assert done.encode() == (Encoder().u32(0).u32(1).u32(3).u64(1 << 40)
                             .u32(1).u32(7).u32(1).to_bytes())
    failed = _Result(2, None, 99, 7, True)
    raw = failed.encode()
    assert raw == Encoder().u32(2).u32(0).u32(1).to_bytes()
    assert _Result.decode(Decoder(raw)) == _Result(2, None, 5, None, True)


def test_trailing_field_gets_the_located_offset_on_decode_only():
    done = _Result(0, None, 1, 7)
    raw = done.encode()
    assert done.patched_at == -1
    decoded = _Result.decode(Decoder(bytes(8) + raw, 8))
    assert decoded == done
    assert decoded.patched_at == 8 + 4 + 4 + 8 + 4
    for absent in (_Result(0, None, 1, None), _Result(1, None, 1, 7)):
        assert _Result.decode(Decoder(absent.encode())).patched_at == -1


def test_ok_fields_must_be_contiguous_after_the_status():
    for kinds in ((xdr.ok(xdr.U32), xdr.U32, xdr.U32, xdr.U32),
                  (xdr.U32, xdr.ok(xdr.U32), xdr.U32, xdr.ok(xdr.U32))):
        with pytest.raises(TypeError):
            @xdr.record(*kinds)
            class _Bad(NamedTuple):
                a: int = 0
                b: int = 0
                c: int = 0
                d: int = 0


@given(st.binary(max_size=300))
def test_opaque_var_roundtrip_property(data):
    raw = Encoder().opaque_var(data).to_bytes()
    assert len(raw) % 4 == 0
    assert Decoder(raw).opaque_var() == data


@given(
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 30),
    st.text(max_size=40),
)
def test_mixed_roundtrip_property(a, b, n, text):
    enc = Encoder().u32(a).string(text).u64(b).array(
        list(range(n)), lambda e, x: e.u32(x)
    )
    dec = Decoder(enc.to_bytes())
    assert dec.u32() == a
    assert dec.string() == text
    assert dec.u64() == b
    assert dec.array(lambda d: d.u32()) == list(range(n))
    assert dec.done()


def test_call_header_roundtrip():
    cred = Credential("wkstn14", uid=101, gid=20, gids=[20, 5, 99])
    hdr = CallHeader(xid=777, prog=100003, vers=3, proc=6, cred=cred)
    raw = hdr.encode().to_bytes()
    decoded = CallHeader.decode(Decoder(raw))
    assert decoded.xid == 777
    assert decoded.prog == 100003
    assert decoded.vers == 3
    assert decoded.proc == 6
    assert decoded.cred.machine == "wkstn14"
    assert decoded.cred.gids == [20, 5, 99]


def test_call_header_variable_length():
    """Credential size varies with machine name and group list (the decode
    complexity the paper measures)."""
    short = CallHeader(1, 100003, 3, 0, Credential("a")).encode().to_bytes()
    long = CallHeader(
        1, 100003, 3, 0, Credential("a-much-longer-hostname", gids=list(range(16)))
    ).encode().to_bytes()
    assert len(long) > len(short)


def test_call_header_no_cred():
    raw = CallHeader(5, 200001, 1, 2, None).encode().to_bytes()
    decoded = CallHeader.decode(Decoder(raw))
    assert decoded.cred is None


def test_reply_header_roundtrip():
    raw = ReplyHeader(424242).encode().to_bytes()
    decoded = ReplyHeader.decode(Decoder(raw))
    assert decoded.xid == 424242
    assert decoded.accept_stat == SUCCESS


def test_reply_header_error_stat():
    raw = ReplyHeader(1, PROG_UNAVAIL).encode().to_bytes()
    assert ReplyHeader.decode(Decoder(raw)).accept_stat == PROG_UNAVAIL


def test_reply_rejects_call_message():
    raw = CallHeader(1, 2, 3, 4).encode().to_bytes()
    with pytest.raises(XdrError):
        ReplyHeader.decode(Decoder(raw))


@given(st.binary(max_size=120))
def test_call_header_decode_never_crashes(junk):
    """Arbitrary bytes either decode or raise XdrError — nothing else.

    The µproxy decodes raw packets off the wire; malformed input must be
    rejected cleanly."""
    try:
        CallHeader.decode(Decoder(junk))
    except XdrError:
        pass


@given(st.binary(max_size=120))
def test_reply_header_decode_never_crashes(junk):
    try:
        ReplyHeader.decode(Decoder(junk))
    except XdrError:
        pass


@given(st.binary(max_size=200))
def test_nfs_result_decoders_never_crash(junk):
    from repro.nfs import proto as nfs_proto
    from repro.nfs.fhandle import FHandle

    decoders = [
        nfs_proto.GetattrRes.decode,
        nfs_proto.LookupRes.decode,
        nfs_proto.ReadRes.decode,
        nfs_proto.WriteRes.decode,
        nfs_proto.CreateRes.decode,
        nfs_proto.ReaddirRes.decode,
        nfs_proto.CommitRes.decode,
    ]
    for decode in decoders:
        try:
            decode(Decoder(junk))
        except XdrError:
            pass
    try:
        FHandle.unpack(junk[:32]) if len(junk) >= 32 else None
    except ValueError:
        pass
