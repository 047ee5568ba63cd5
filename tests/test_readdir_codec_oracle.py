"""``ReaddirRes``'s hand-written entry loop against the field-by-field codec
it replaced.

``ReaddirRes.encode`` packs each entry (and a READDIRPLUS entry's fattr3
and file handle) with a few precompiled structs, and ``decode`` unpacks
them in place.  The reference below is the earlier codec, built from the
field kinds (``NAME``, ``POST_OP_ATTR``, ``OPTIONAL_FH``) on ``Encoder``
and ``Decoder``.  Seeded random READDIR and READDIRPLUS replies must give
the same bytes; their encodings, whole, truncated at every length and with
bytes overwritten, must decode to the same values with the same decoder
offset, or raise the same ``XdrError`` with the decoder left at the same
offset.  The µproxy charges its decode cost by that offset.
"""

import random

import pytest

from repro.nfs import proto
from repro.nfs.proto import NAME, OPTIONAL_FH, POST_OP_ATTR, ReaddirRes
from repro.nfs.types import DirEntry, Fattr3
from repro.rpc.xdr import Decoder, Encoder, XdrError

SEEDS = range(8)

# ---------------------------------------------------------------------------
# The reference: the field-by-field codec
# ---------------------------------------------------------------------------


def reference_encode(res: ReaddirRes) -> bytes:
    enc = Encoder()
    enc.u32(res.status)
    POST_OP_ATTR.put(enc, res.dir_attr)
    if res.status != 0:
        return enc.to_bytes()
    enc.u64(res.cookieverf)
    for entry in res.entries:
        enc.boolean(True)
        enc.u64(entry.fileid)
        enc.string(entry.name)
        enc.u64(entry.cookie)
        if res.plus:
            POST_OP_ATTR.put(enc, entry.attr)
            OPTIONAL_FH.put(enc, entry.fh)
    enc.boolean(False)
    enc.boolean(res.eof)
    return enc.to_bytes()


def reference_decode(dec: Decoder, plus: bool = False) -> ReaddirRes:
    status = dec.u32()
    dir_attr = POST_OP_ATTR.get(dec)
    if status != 0:
        return ReaddirRes(status, dir_attr)
    cookieverf = dec.u64()
    entries = []
    while dec.boolean():
        fileid = dec.u64()
        name = NAME.get(dec)
        cookie = dec.u64()
        attr = fh = None
        if plus:
            attr = POST_OP_ATTR.get(dec)
            fh = OPTIONAL_FH.get(dec)
        entries.append(DirEntry(fileid, name, cookie, attr, fh))
    eof = dec.boolean()
    return ReaddirRes(status, dir_attr, cookieverf, entries, eof, plus)


# ---------------------------------------------------------------------------
# Random replies
# ---------------------------------------------------------------------------

_ALPHABET = "abcxyz019._-é中\U0001F600"


def _u(rng, bits):
    return rng.choice((0, 1, (1 << bits) - 1, rng.getrandbits(bits)))


def _time(rng):
    # Whole nanoseconds, so a time decodes to the float it was built from.
    return rng.randrange(1 << 32) + rng.randrange(10**9) / 1e9


def _fattr(rng):
    return Fattr3(_u(rng, 32), _u(rng, 32), _u(rng, 32), _u(rng, 32),
                  _u(rng, 32), _u(rng, 64), _u(rng, 64), _u(rng, 64),
                  _u(rng, 64), _time(rng), _time(rng), _time(rng))


def _name(rng):
    if rng.random() < 0.1:
        return "n" * rng.choice((0, 254, 255))
    name = "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(1, 20)))
    while len(name.encode("utf-8")) > 255:
        name = name[:-1]
    return name


def random_reply(rng, plus):
    status = 0 if rng.random() < 0.85 else rng.choice((2, 70, 10008))
    dir_attr = _fattr(rng) if rng.random() < 0.7 else None
    entries = []
    for _ in range(rng.choice((0, 1, 2, rng.randrange(3, 30)))):
        attr = fh = None
        if plus:
            attr = _fattr(rng) if rng.random() < 0.7 else None
            if rng.random() < 0.8:
                fh = rng.randbytes(rng.choice((0, 1, 32, 62, 63, 64)))
        entries.append(DirEntry(_u(rng, 64), _name(rng), _u(rng, 64),
                                attr, fh))
    if status != 0:
        return ReaddirRes(status, dir_attr)  # as either decoder reads it
    return ReaddirRes(status, dir_attr, _u(rng, 64), entries,
                      rng.random() < 0.5, plus)


def outcome(decode, data: bytes, offset: int, plus: bool):
    """(value or the error text, decoder offset afterwards)."""
    dec = Decoder(data, offset)
    try:
        value = decode(dec, plus)
    except XdrError as exc:
        value = f"XdrError: {exc}"
    return value, dec.offset


def assert_same_decode(data: bytes, offset: int, plus: bool):
    expected = outcome(reference_decode, data, offset, plus)
    assert outcome(ReaddirRes.decode, data, offset, plus) == expected
    return expected


# ---------------------------------------------------------------------------
# The tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plus", [False, True], ids=["readdir", "plus"])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_replies_match_the_field_codec(seed, plus):
    rng = random.Random(seed)
    for _ in range(20):
        res = random_reply(rng, plus)
        wire = reference_encode(res)
        assert res.encode() == wire
        prefix = rng.randbytes(rng.choice((0, 4, 12)))
        suffix = rng.randbytes(rng.choice((0, 3, 8)))
        value, offset = assert_same_decode(prefix + wire + suffix,
                                           len(prefix), plus)
        assert (value, offset) == (res, len(prefix) + len(wire))


@pytest.mark.parametrize("plus", [False, True], ids=["readdir", "plus"])
@pytest.mark.parametrize("seed", SEEDS)
def test_truncated_replies_fail_like_the_field_codec(seed, plus):
    rng = random.Random(seed)
    res = random_reply(rng, plus)
    wire = res.encode()
    for cut in range(len(wire)):
        value, _offset = assert_same_decode(wire[:cut], 0, plus)
        assert str(value).startswith("XdrError: truncated XDR")


@pytest.mark.parametrize("plus", [False, True], ids=["readdir", "plus"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_replies_decode_like_the_field_codec(seed, plus):
    """Overwritten bytes: bad bools, lengths past a bound or the buffer,
    invalid UTF-8, or values that still parse."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(60):
        wire = bytearray(random_reply(rng, plus).encode())
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.5:
                # A whole XDR word: a bool, a length or a value.
                at = rng.randrange(len(wire) // 4) * 4
                word = rng.choice((2, 0xFFFFFFFF, 65, 256, 1 << 16))
                wire[at:at + 4] = word.to_bytes(4, "big")
            else:
                at = rng.randrange(len(wire))
                wire[at] = rng.choice((0x00, 0x01, 0x80, 0xC3, 0xFF))
        value, _offset = assert_same_decode(bytes(wire), 0, plus)
        failures += isinstance(value, str)
    assert 0 < failures < 60


def test_a_plus_reply_decoded_as_a_plain_one_matches_the_field_codec():
    rng = random.Random(7)
    for _ in range(40):
        wire = random_reply(rng, True).encode()
        assert_same_decode(wire, 0, False)
        assert_same_decode(random_reply(rng, False).encode(), 0, True)


@pytest.mark.parametrize("plus", [False, True], ids=["readdir", "plus"])
@pytest.mark.parametrize("field, value", [
    ("fileid", -1), ("fileid", 1 << 64), ("cookie", -1), ("cookie", 1 << 64),
])
def test_out_of_range_entry_fields_are_refused(field, value, plus):
    entry = DirEntry(1, "a", 3, Fattr3() if plus else None,
                     b"f" if plus else None)
    setattr(entry, field, value)
    res = ReaddirRes(0, entries=[entry], plus=plus)
    with pytest.raises(XdrError):
        reference_encode(res)
    with pytest.raises(XdrError):
        res.encode()


@pytest.mark.parametrize("plus", [False, True], ids=["readdir", "plus"])
def test_encode_refuses_what_decode_refuses(plus):
    """A name past 255 bytes (and a READDIRPLUS handle past 64), which the
    field-by-field encoder wrote and no decoder reads back."""
    long_name = ReaddirRes(0, entries=[DirEntry(1, "é" * 128, 3)], plus=plus)
    assert len(reference_encode(long_name)) > 0
    with pytest.raises(XdrError, match="exceeds max 255"):
        long_name.encode()
    if plus:
        long_fh = ReaddirRes(0, entries=[DirEntry(1, "a", 3, None, b"f" * 65)],
                             plus=True)
        assert len(reference_encode(long_fh)) > 0
        with pytest.raises(XdrError, match="exceeds max 64"):
            long_fh.encode()
    assert proto.NAME_MAX == 255 and proto.FH_MAX == 64


@pytest.mark.parametrize("plus", [False, True], ids=["readdir", "plus"])
def test_lengths_past_their_bound_fail_like_the_field_codec(plus):
    """A name length word past 255 (and a handle's past 64) with enough
    bytes after it to read that far."""
    entries = [DirEntry(7, "n" * 255, 3, None, b"f" * 64 if plus else None),
               DirEntry(8, "m" * 255, 4, None, b"g" * 64 if plus else None)]
    wire = ReaddirRes(0, entries=entries, plus=plus).encode()
    name_length_at = 4 + 4 + 8 + 4 + 8  # status, no dir attr, verf, follows, fileid
    fh_length_at = name_length_at + 4 + 256 + 8 + 4 + 4
    cases = [(name_length_at, 256, "exceeds max 255")]
    if plus:
        cases.append((fh_length_at, 65, "exceeds max 64"))
    for at, length, error in cases:
        bad = bytearray(wire)
        bad[at:at + 4] = length.to_bytes(4, "big")
        value, _offset = assert_same_decode(bytes(bad), 0, plus)
        assert error in value
