"""The struct-based XDR primitives and RPC header codecs against the
slice-based, field-by-field codecs they replaced.

``Decoder`` unpacks words in place with precompiled ``struct.Struct``
objects and checks each read's extent once; ``CallHeader`` and
``ReplyHeader`` read and write their fixed words with one ``struct`` each
(``Decoder.unpack`` on decode).  The reference below is the earlier code:
a decoder that slices a new ``bytes`` per field, and header codecs built
field by field on it.  Seeded random values must give the same bytes, the
same decoded values and the same decoder offset after every read (the
µproxy charges its decode cost by that offset), and every malformed input
must raise ``XdrError`` from both.
"""

import struct

import pytest

from repro.rpc.messages import (
    AUTH_NONE,
    AUTH_SYS,
    CALL,
    MSG_ACCEPTED,
    REPLY,
    CallHeader,
    Credential,
    ReplyHeader,
)
from repro.rpc.xdr import Decoder, Encoder, XdrError
from repro.sim.rand import RandomStreams

# ---------------------------------------------------------------------------
# The reference: slice-based primitives and field-by-field header codecs
# ---------------------------------------------------------------------------


def _pad(length):
    return (4 - (length % 4)) % 4


class RefEncoder:
    def __init__(self):
        self._parts = []

    def u32(self, value):
        if not 0 <= value <= 0xFFFFFFFF:
            raise XdrError(f"u32 out of range: {value}")
        self._parts.append(struct.pack("!I", value))
        return self

    def i32(self, value):
        self._parts.append(struct.pack("!i", value))
        return self

    def u64(self, value):
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise XdrError(f"u64 out of range: {value}")
        self._parts.append(struct.pack("!Q", value))
        return self

    def i64(self, value):
        self._parts.append(struct.pack("!q", value))
        return self

    def boolean(self, value):
        return self.u32(1 if value else 0)

    def opaque_fixed(self, data):
        self._parts.append(data)
        padding = _pad(len(data))
        if padding:
            self._parts.append(b"\x00" * padding)
        return self

    def opaque_var(self, data):
        self.u32(len(data))
        return self.opaque_fixed(data)

    def string(self, text):
        return self.opaque_var(text.encode("utf-8"))

    def array(self, items, encode_item):
        self.u32(len(items))
        for item in items:
            encode_item(self, item)
        return self

    def to_bytes(self):
        return b"".join(self._parts)


class RefDecoder:
    def __init__(self, data, offset=0):
        self.data = data
        self.offset = offset

    def _take(self, count):
        if self.offset + count > len(self.data):
            raise XdrError(
                f"truncated XDR: need {count} bytes at offset {self.offset}, "
                f"have {len(self.data) - self.offset}"
            )
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def u32(self):
        return struct.unpack("!I", self._take(4))[0]

    def i32(self):
        return struct.unpack("!i", self._take(4))[0]

    def u64(self):
        return struct.unpack("!Q", self._take(8))[0]

    def i64(self):
        return struct.unpack("!q", self._take(8))[0]

    def boolean(self):
        value = self.u32()
        if value not in (0, 1):
            raise XdrError(f"bad boolean discriminant: {value}")
        return bool(value)

    def opaque_fixed(self, length):
        data = self._take(length)
        padding = _pad(length)
        if padding:
            self._take(padding)
        return data

    def opaque_var(self, max_length=0xFFFFFFFF):
        length = self.u32()
        if length > max_length:
            raise XdrError(f"opaque length {length} exceeds max {max_length}")
        return self.opaque_fixed(length)

    def string(self, max_length=0xFFFFFFFF):
        data = self.opaque_var(max_length)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XdrError(f"string is not UTF-8: {exc}") from None

    def array(self, decode_item):
        count = self.u32()
        if count > 1 << 20:
            raise XdrError(f"implausible array length: {count}")
        return [decode_item(self) for _ in range(count)]


def ref_encode_cred(cred, enc):
    body = RefEncoder()
    body.u32(0)  # stamp
    body.string(cred.machine)
    body.u32(cred.uid)
    body.u32(cred.gid)
    body.array(cred.gids, lambda e, g: e.u32(g))
    enc.u32(AUTH_SYS)
    enc.opaque_var(body.to_bytes())


def ref_decode_cred(dec):
    flavor = dec.u32()
    body = dec.opaque_var(400)
    if flavor == AUTH_NONE:
        return None
    if flavor != AUTH_SYS:
        raise XdrError(f"unsupported auth flavor: {flavor}")
    inner = RefDecoder(body)
    inner.u32()  # stamp
    machine = inner.string(255)
    uid = inner.u32()
    gid = inner.u32()
    gids = inner.array(lambda d: d.u32())
    return Credential(machine, uid, gid, gids)


def ref_encode_verf(enc):
    enc.u32(AUTH_NONE)
    enc.opaque_var(b"")


def ref_decode_verf(dec):
    dec.u32()
    dec.opaque_var(400)


def ref_encode_call(hdr):
    enc = RefEncoder()
    enc.u32(hdr.xid)
    enc.u32(CALL)
    enc.u32(2)
    enc.u32(hdr.prog)
    enc.u32(hdr.vers)
    enc.u32(hdr.proc)
    if hdr.cred is None:
        enc.u32(AUTH_NONE)
        enc.opaque_var(b"")
    else:
        ref_encode_cred(hdr.cred, enc)
    ref_encode_verf(enc)
    return enc.to_bytes()


def ref_decode_call(dec):
    xid = dec.u32()
    msg_type = dec.u32()
    if msg_type != CALL:
        raise XdrError(f"expected CALL, got msg_type={msg_type}")
    rpcvers = dec.u32()
    if rpcvers != 2:
        raise XdrError(f"bad RPC version: {rpcvers}")
    prog = dec.u32()
    vers = dec.u32()
    proc = dec.u32()
    cred = ref_decode_cred(dec)
    ref_decode_verf(dec)
    return CallHeader(xid, prog, vers, proc, cred)


def ref_encode_reply(hdr):
    enc = RefEncoder()
    enc.u32(hdr.xid)
    enc.u32(REPLY)
    enc.u32(MSG_ACCEPTED)
    ref_encode_verf(enc)
    enc.u32(hdr.accept_stat)
    return enc.to_bytes()


def ref_decode_reply(dec):
    xid = dec.u32()
    msg_type = dec.u32()
    if msg_type != REPLY:
        raise XdrError(f"expected REPLY, got msg_type={msg_type}")
    reply_stat = dec.u32()
    if reply_stat != MSG_ACCEPTED:
        raise XdrError(f"RPC message denied: {reply_stat}")
    ref_decode_verf(dec)
    accept_stat = dec.u32()
    return ReplyHeader(xid, accept_stat)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def outcome(decode, data, offset=0, decoder=Decoder):
    """``(value, offset after)`` of a decode, or ``XdrError``; any other
    exception propagates and fails the test."""
    dec = decoder(data, offset)
    try:
        value = decode(dec)
    except XdrError:
        return XdrError
    return value, dec.offset


def assert_same_decode(fast, ref, data, offset=0):
    got = outcome(fast, data, offset)
    assert got == outcome(ref, data, offset, RefDecoder), data.hex()
    return got


def encode_outcome(encode):
    try:
        return encode()
    except XdrError:
        return XdrError


NAME_CHARS = "abcz09-._é水\U0001F600"


def random_text(rng, max_chars):
    return "".join(rng.choice(NAME_CHARS)
                   for _ in range(rng.randrange(max_chars + 1)))


def random_u32(rng):
    return rng.choice((0, 1, 0xFFFFFFFF, rng.getrandbits(32),
                       rng.getrandbits(8)))


def random_cred(rng):
    if rng.random() < 0.25:
        return None
    return Credential(random_text(rng, 40), random_u32(rng), random_u32(rng),
                      [random_u32(rng) for _ in range(rng.randrange(17))])


def random_call(rng):
    return CallHeader(random_u32(rng), random_u32(rng), random_u32(rng),
                      random_u32(rng), random_cred(rng))


def raw_call(xid=1, msg_type=CALL, rpcvers=2, flavor=AUTH_SYS,
             cred_body=None, verf_flavor=AUTH_NONE, verf_body=b""):
    """A call header assembled word by word, malformed fields allowed."""
    if cred_body is None:
        cred_body = (RefEncoder().u32(0).string("host").u32(5).u32(6)
                     .array([7], lambda e, g: e.u32(g)).to_bytes())
    enc = RefEncoder()
    for word in (xid, msg_type, rpcvers, 100003, 3, 1, flavor):
        enc.u32(word)
    enc.opaque_var(cred_body)
    enc.u32(verf_flavor)
    enc.opaque_var(verf_body)
    return enc.to_bytes()


def raw_reply(msg_type=REPLY, reply_stat=MSG_ACCEPTED, verf_body=b"",
              accept_stat=0):
    enc = RefEncoder()
    for word in (9, msg_type, reply_stat, AUTH_NONE):
        enc.u32(word)
    enc.opaque_var(verf_body)
    enc.u32(accept_stat)
    return enc.to_bytes()


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

#: name -> (random value, encode, decode) of one primitive; decode takes
#: the decoder and returns the value.
PRIMITIVES = {
    "u32": (random_u32, lambda e, v: e.u32(v), lambda d: d.u32()),
    "i32": (lambda rng: rng.randrange(-2**31, 2**31),
            lambda e, v: e.i32(v), lambda d: d.i32()),
    "u64": (lambda rng: rng.choice((0, 2**64 - 1, rng.getrandbits(64))),
            lambda e, v: e.u64(v), lambda d: d.u64()),
    "i64": (lambda rng: rng.randrange(-2**63, 2**63),
            lambda e, v: e.i64(v), lambda d: d.i64()),
    "bool": (lambda rng: rng.random() < 0.5,
             lambda e, v: e.boolean(v), lambda d: d.boolean()),
    "fixed": (lambda rng: rng.randbytes(rng.randrange(9)),
              lambda e, v: e.opaque_fixed(v), None),
    "opaque": (lambda rng: rng.randbytes(rng.randrange(13)),
               lambda e, v: e.opaque_var(v), lambda d: d.opaque_var(12)),
    "string": (lambda rng: random_text(rng, 5),
               lambda e, v: e.string(v), lambda d: d.string(20)),
    "array": (lambda rng: [random_u32(rng) for _ in range(rng.randrange(4))],
              lambda e, v: e.array(v, lambda e2, x: e2.u32(x)),
              lambda d: d.array(lambda d2: d2.u32())),
}


def random_program(rng):
    """A random sequence of ``(kind, value)`` fields."""
    names = sorted(PRIMITIVES)
    program = []
    for _ in range(rng.randrange(1, 8)):
        name = rng.choice(names)
        program.append((name, PRIMITIVES[name][0](rng)))
    return program


def reader(name, value):
    if name == "fixed":
        return lambda d: d.opaque_fixed(len(value))
    return PRIMITIVES[name][2]


def test_primitives_match_reference_on_random_fields():
    rng = RandomStreams(2024).stream("xdr-primitives")
    for _ in range(1000):
        program = random_program(rng)
        enc, ref = Encoder(), RefEncoder()
        for name, value in program:
            PRIMITIVES[name][1](enc, value)
            PRIMITIVES[name][1](ref, value)
            assert enc.position == sum(map(len, ref._parts))
        wire = enc.to_bytes()
        assert wire == ref.to_bytes()
        dec, ref_dec = Decoder(wire), RefDecoder(wire)
        for name, value in program:
            read = reader(name, value)
            assert read(dec) == read(ref_dec) == value
            assert dec.offset == ref_dec.offset
        assert dec.offset == len(wire)


def test_primitives_match_reference_on_random_and_cut_bytes():
    """Random words and every prefix of valid encodings: both decoders
    read the same values to the same offsets, or both raise XdrError."""
    rng = RandomStreams(2024).stream("xdr-garbage")
    for case in range(600):
        program = random_program(rng)
        if case % 2:
            wire = rng.randbytes(rng.randrange(48))
        else:
            enc = Encoder()
            for name, value in program:
                PRIMITIVES[name][1](enc, value)
            wire = enc.to_bytes()
            wire = wire[:rng.randrange(len(wire) + 1)]
        reads = [reader(name, value) for name, value in program]
        assert_same_decode(lambda d: [read(d) for read in reads],
                           lambda d: [read(d) for read in reads], wire)


def test_truncated_primitive_reads_name_need_and_offset():
    dec = Decoder(b"\x00\x00\x00\x05abc", 0)
    with pytest.raises(XdrError,
                       match=r"truncated XDR: need 8 bytes at offset 4"):
        dec.opaque_var()
    with pytest.raises(XdrError,
                       match=r"truncated XDR: need 8 bytes at offset 2"):
        Decoder(b"\x00" * 9, 2).u64()


def test_unpack_reads_like_one_u32_per_word():
    """``Decoder.unpack`` of n words == n reference ``u32`` reads, or
    ``XdrError`` from both when the buffer ends inside the run."""
    rng = RandomStreams(2024).stream("xdr-unpack")
    for _ in range(500):
        count = rng.randrange(1, 9)
        layout = struct.Struct(f"!{count}I")
        wire = rng.randbytes(rng.randrange(40))
        assert_same_decode(lambda d: list(d.unpack(layout)),
                           lambda d: [d.u32() for _ in range(count)],
                           wire, rng.randrange(len(wire) + 1))


@pytest.mark.parametrize("read, limit", [
    (lambda d: d.opaque_var(4), 4),
    (lambda d: d.string(4), 4),
])
def test_over_long_opaques_and_strings_rejected_by_both(read, limit):
    wire = Encoder().opaque_var(b"x" * (limit + 1)).to_bytes()
    assert outcome(read, wire) is XdrError
    assert outcome(read, wire, decoder=RefDecoder) is XdrError


# ---------------------------------------------------------------------------
# RPC headers
# ---------------------------------------------------------------------------


def test_call_headers_match_reference_on_random_calls():
    rng = RandomStreams(2024).stream("call-headers")
    for _ in range(1000):
        hdr = random_call(rng)
        wire = hdr.encode().to_bytes()
        assert wire == ref_encode_call(hdr)
        # Arguments follow the header, and it may not start at offset 0.
        lead = rng.randbytes(rng.choice((0, 4, 12)))
        args = rng.randbytes(rng.randrange(12))
        got = assert_same_decode(CallHeader.decode, ref_decode_call,
                                 lead + wire + args, len(lead))
        assert got == (hdr, len(lead) + len(wire))


def test_reply_headers_match_reference_on_random_replies():
    rng = RandomStreams(2024).stream("reply-headers")
    for _ in range(600):
        hdr = ReplyHeader(random_u32(rng), rng.choice((0, 1, 3, 4,
                                                        random_u32(rng))))
        wire = hdr.encode().to_bytes()
        assert wire == ref_encode_reply(hdr)
        results = rng.randbytes(rng.randrange(12))
        got = assert_same_decode(ReplyHeader.decode, ref_decode_reply,
                                 wire + results)
        assert got == (hdr, len(wire))
        # A reply may carry a verifier body; it is skipped.
        verf = rng.randbytes(rng.randrange(401))
        wire = raw_reply(verf_body=verf, accept_stat=hdr.accept_stat)
        assert_same_decode(ReplyHeader.decode, ref_decode_reply, wire)


def test_header_decodes_match_reference_on_mutated_bytes():
    """Flipped bytes anywhere in valid headers: both codecs agree."""
    rng = RandomStreams(2024).stream("header-mutations")
    for case in range(1000):
        if case % 4:
            wire = bytearray(random_call(rng).encode().to_bytes())
            decode, ref = CallHeader.decode, ref_decode_call
        else:
            wire = bytearray(raw_reply(verf_body=rng.randbytes(
                rng.randrange(9))))
            decode, ref = ReplyHeader.decode, ref_decode_reply
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(wire))
            wire[at] = rng.choice((0, 1, 2, 0xFF, rng.getrandbits(8)))
        assert_same_decode(decode, ref, bytes(wire))


def test_header_truncated_at_every_offset_raises_in_both():
    rng = RandomStreams(2024).stream("header-cuts")
    calls = [random_call(rng) for _ in range(6)]
    calls.append(CallHeader(1, 2, 3, 4, Credential("", gids=[])))
    wires = [(CallHeader.decode, ref_decode_call, c.encode().to_bytes())
             for c in calls]
    wires.append((ReplyHeader.decode, ref_decode_reply,
                  raw_reply(verf_body=b"abcde")))
    for decode, ref, wire in wires:
        for cut in range(len(wire)):
            assert assert_same_decode(decode, ref, wire[:cut]) is XdrError


@pytest.mark.parametrize("wire", [
    raw_call(msg_type=REPLY),
    raw_call(rpcvers=3),
    raw_call(flavor=7),
    raw_call(flavor=AUTH_SYS, cred_body=b"x" * 404),  # body over 400
    raw_call(verf_body=b"v" * 401),
    raw_call(cred_body=RefEncoder().u32(0).string("m" * 256).u32(0).u32(0)
             .u32(0).to_bytes()),  # machine name over 255
    raw_call(cred_body=RefEncoder().u32(0).opaque_var(b"\xff\xfe").u32(0)
             .u32(0).u32(0).to_bytes()),  # machine name not UTF-8
    raw_call(cred_body=RefEncoder().u32(0).string("m").u32(0).u32(0)
             .u32(1 << 21).to_bytes()),  # gid count past the array cap
    raw_call(cred_body=RefEncoder().u32(0).string("m").u32(0).u32(0)
             .u32(3).u32(1).to_bytes()),  # gids past the body's end
    raw_call(cred_body=RefEncoder().u32(0).string("m").u32(0)
             .to_bytes()),  # body ends inside the ids
], ids=["msg-type", "rpcvers", "flavor", "cred-over-400", "verf-over-400",
        "machine-over-255", "machine-not-utf8", "gid-count-cap",
        "gids-past-body", "ids-past-body"])
def test_malformed_calls_rejected_by_both(wire):
    assert assert_same_decode(CallHeader.decode, ref_decode_call,
                              wire) is XdrError


@pytest.mark.parametrize("wire", [
    raw_reply(msg_type=CALL),
    raw_reply(reply_stat=1),
    raw_reply(verf_body=b"v" * 401),
], ids=["msg-type", "denied", "verf-over-400"])
def test_malformed_replies_rejected_by_both(wire):
    assert assert_same_decode(ReplyHeader.decode, ref_decode_reply,
                              wire) is XdrError


def test_auth_none_with_a_body_decodes_without_credential_in_both():
    wire = raw_call(flavor=AUTH_NONE, cred_body=b"ignored!",
                    verf_flavor=AUTH_SYS, verf_body=b"verf")
    value, offset = assert_same_decode(CallHeader.decode, ref_decode_call,
                                       wire)
    assert value.cred is None and offset == len(wire)


def test_credential_body_bytes_after_the_gids_are_ignored_by_both():
    body = (RefEncoder().u32(0).string("m").u32(1).u32(2)
            .array([3], lambda e, g: e.u32(g)).u32(99).to_bytes())
    value, _ = assert_same_decode(CallHeader.decode, ref_decode_call,
                                  raw_call(cred_body=body))
    assert value.cred == Credential("m", 1, 2, [3])


@pytest.mark.parametrize("hdr", [
    CallHeader(1 << 32, 1, 1, 1),
    CallHeader(1, -1, 1, 1),
    CallHeader(1, 1, 1, 1 << 32, Credential("m")),
    CallHeader(1, 1, 1, 1, Credential("m", uid=-1)),
    CallHeader(1, 1, 1, 1, Credential("m", gid=1 << 32)),
    CallHeader(1, 1, 1, 1, Credential("m", gids=[1, 1 << 32])),
])
def test_out_of_range_call_fields_raise_xdr_error_in_both(hdr):
    assert encode_outcome(lambda: hdr.encode().to_bytes()) is XdrError
    assert encode_outcome(lambda: ref_encode_call(hdr)) is XdrError


@pytest.mark.parametrize("hdr", [ReplyHeader(-1), ReplyHeader(1, 1 << 32)])
def test_out_of_range_reply_fields_raise_xdr_error_in_both(hdr):
    assert encode_outcome(lambda: hdr.encode().to_bytes()) is XdrError
    assert encode_outcome(lambda: ref_encode_reply(hdr)) is XdrError
