"""The struct-packed fattr3 codec against a field-by-field reference.

``Fattr3`` packs and unpacks its 84 bytes with one ``struct`` format.  The
reference below is the field-by-field ``Encoder``/``Decoder`` codec it
replaced; seeded random attributes must give the same bytes, the same
decoded values (floats bit for bit) and the same ``XdrError`` rejections.
"""

import pytest

from repro.nfs.types import FATTR3_OFF_ATIME, FATTR3_SIZE, Fattr3
from repro.rpc.xdr import Decoder, Encoder, XdrError
from repro.sim.rand import RandomStreams

U32_FIELDS = ("ftype", "mode", "nlink", "uid", "gid")
U64_FIELDS = ("size", "used", "fsid", "fileid")
TIME_FIELDS = ("atime", "mtime", "ctime")


def reference_encode_time(enc, seconds):
    whole = int(seconds)
    nanos = int(round((seconds - whole) * 1e9))
    if nanos >= 10**9:
        whole += 1
        nanos -= 10**9
    enc.u32(whole & 0xFFFFFFFF)
    enc.u32(nanos)


def reference_decode_time(dec):
    whole = dec.u32()
    nanos = dec.u32()
    return whole + nanos / 1e9


def reference_encode(attr, enc):
    enc.u32(attr.ftype)
    enc.u32(attr.mode)
    enc.u32(attr.nlink)
    enc.u32(attr.uid)
    enc.u32(attr.gid)
    enc.u64(attr.size)
    enc.u64(attr.used)
    enc.u32(0)  # rdev major
    enc.u32(0)  # rdev minor
    enc.u64(attr.fsid)
    enc.u64(attr.fileid)
    reference_encode_time(enc, attr.atime)
    reference_encode_time(enc, attr.mtime)
    reference_encode_time(enc, attr.ctime)


def reference_decode(dec):
    ftype = dec.u32()
    mode = dec.u32()
    nlink = dec.u32()
    uid = dec.u32()
    gid = dec.u32()
    size = dec.u64()
    used = dec.u64()
    dec.u32()
    dec.u32()
    fsid = dec.u64()
    fileid = dec.u64()
    atime = reference_decode_time(dec)
    mtime = reference_decode_time(dec)
    ctime = reference_decode_time(dec)
    return Fattr3(ftype, mode, nlink, uid, gid, size, used, fsid, fileid,
                  atime, mtime, ctime)


def encoded(encode, attr):
    enc = Encoder()
    encode(attr, enc)
    return enc.to_bytes()


def struct_encode(attr, enc):
    attr.encode(enc)


def random_time(rng):
    whole = rng.choice((0, rng.getrandbits(32), rng.getrandbits(34)))
    fraction = rng.choice((
        0.0,
        rng.random(),
        rng.randrange(10**9) / 1e9,
        1 - rng.random() * 1e-9,  # nanoseconds that round up to 10**9
    ))
    return whole + fraction


def random_attr(rng):
    return Fattr3(
        **{name: rng.getrandbits(32) for name in U32_FIELDS},
        **{name: rng.getrandbits(64) for name in U64_FIELDS},
        **{name: random_time(rng) for name in TIME_FIELDS},
    )


def assert_same_values(left, right):
    assert left == right
    for name in TIME_FIELDS:
        assert getattr(left, name).hex() == getattr(right, name).hex()


def test_struct_codec_matches_reference_on_random_attributes():
    rng = RandomStreams(1813).stream("fattr3")
    for _ in range(2000):
        attr = random_attr(rng)
        wire = encoded(reference_encode, attr)
        assert encoded(struct_encode, attr) == wire
        assert len(wire) == FATTR3_SIZE
        dec, ref_dec = Decoder(wire), Decoder(wire)
        assert_same_values(Fattr3.decode(dec), reference_decode(ref_dec))
        assert dec.offset == ref_dec.offset == FATTR3_SIZE


def test_struct_decode_matches_reference_on_random_bytes():
    """Arbitrary words, nanoseconds of 10**9 and above included."""
    rng = RandomStreams(1813).stream("fattr3-bytes")
    for _ in range(2000):
        wire = rng.randbytes(FATTR3_SIZE + rng.randrange(8))
        assert_same_values(Fattr3.decode(Decoder(wire)),
                           reference_decode(Decoder(wire)))


def test_nanoseconds_rounding_up_carry_into_seconds():
    attr = Fattr3(atime=41 + (1 - 1e-10), mtime=41.9999999999, ctime=41.5)
    wire = encoded(struct_encode, attr)
    assert wire == encoded(reference_encode, attr)
    times = [int.from_bytes(wire[at:at + 4], "big")
             for at in range(FATTR3_OFF_ATIME, FATTR3_SIZE, 4)]
    assert times == [42, 0, 42, 0, 41, 500_000_000]


@pytest.mark.parametrize("name, value", [
    *[(name, value) for name in U32_FIELDS for value in (-1, 1 << 32)],
    *[(name, value) for name in U64_FIELDS for value in (-1, 1 << 64)],
    *[(name, -0.5) for name in TIME_FIELDS],  # negative nanoseconds
])
def test_out_of_range_fields_raise_xdr_error_in_both_codecs(name, value):
    attr = random_attr(RandomStreams(7).stream(name)).copy(**{name: value})
    with pytest.raises(XdrError):
        encoded(reference_encode, attr)
    with pytest.raises(XdrError):
        encoded(struct_encode, attr)


def test_truncated_fattr3_raises_xdr_error_in_both_codecs():
    wire = encoded(struct_encode, Fattr3(size=5))
    for length in (0, 4, FATTR3_SIZE - 1):
        with pytest.raises(XdrError):
            Fattr3.decode(Decoder(wire[:length]))
        with pytest.raises(XdrError):
            reference_decode(Decoder(wire[:length]))
