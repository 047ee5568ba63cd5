"""Round-trip tests for the NFS V3 codec, Slice fhandles, attributes, and
every declared message layout (NFS, ctrl, coord, dir-peer, config)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dirsvc import peerproto as pp
from repro.ensemble import configsvc as cfg
from repro.nfs import proto
from repro.nfs.fhandle import FLAG_MIRRORED, FHandle
from repro.nfs.types import (
    DirEntry,
    Fattr3,
    NF3DIR,
    NF3REG,
    Sattr3,
)
from repro.rpc.xdr import Decoder, XdrError
from repro.storage import coordproto as cp
from repro.storage import ctrlproto as ctrl


def fh_bytes(fileid=42, ftype=NF3REG, flags=0, site=3):
    return FHandle(
        volume=1, ftype=ftype, flags=flags, fileid=fileid,
        home_site=site, key=bytes(16),
    ).pack()


def test_fhandle_roundtrip():
    fh = FHandle(2, NF3DIR, FLAG_MIRRORED, 123456789, 7, bytes(range(16)))
    decoded = FHandle.unpack(fh.pack())
    assert decoded == fh
    assert decoded.mirrored


def test_fhandle_bad_magic():
    raw = bytearray(fh_bytes())
    raw[0] ^= 0xFF
    with pytest.raises(ValueError):
        FHandle.unpack(bytes(raw))


def test_fhandle_bad_length():
    with pytest.raises(ValueError):
        FHandle.unpack(b"short")


def test_fhandle_key_length_checked():
    with pytest.raises(ValueError):
        FHandle(1, NF3REG, 0, 1, 0, b"short")


@given(
    st.integers(0, 0xFFFF),
    st.integers(0, 255),
    st.integers(0, 255),
    st.integers(0, 2**64 - 1),
    st.integers(0, 0xFFFF),
    st.binary(min_size=16, max_size=16),
)
def test_fhandle_roundtrip_property(vol, ftype, flags, fileid, site, key):
    fh = FHandle(vol, ftype, flags, fileid, site, key)
    assert FHandle.unpack(fh.pack()) == fh


def test_fattr3_roundtrip():
    from repro.rpc.xdr import Encoder

    attr = Fattr3(
        ftype=NF3REG, mode=0o755, nlink=2, uid=10, gid=20,
        size=8300, used=8320, fsid=1, fileid=99,
        atime=100.5, mtime=200.25, ctime=300.125,
    )
    enc = Encoder()
    attr.encode(enc)
    raw = enc.to_bytes()
    assert len(raw) == 84  # FATTR3_SIZE contract for in-place patching
    decoded = Fattr3.decode(Decoder(raw))
    assert decoded == attr


def test_fattr3_field_offsets():
    """The in-place patch offsets must match the encoding."""
    from repro.nfs.types import (
        FATTR3_OFF_MTIME,
        FATTR3_OFF_SIZE,
    )
    from repro.rpc.xdr import Encoder

    attr = Fattr3(size=0xDEADBEEF, mtime=float(0x12345678))
    enc = Encoder()
    attr.encode(enc)
    raw = enc.to_bytes()
    assert int.from_bytes(raw[FATTR3_OFF_SIZE:FATTR3_OFF_SIZE + 8], "big") == 0xDEADBEEF
    assert int.from_bytes(raw[FATTR3_OFF_MTIME:FATTR3_OFF_MTIME + 4], "big") == 0x12345678


def test_sattr3_roundtrip_full():
    from repro.rpc.xdr import Encoder

    sattr = Sattr3(mode=0o600, uid=5, gid=6, size=1024, atime=9.5, mtime="server")
    enc = Encoder()
    sattr.encode(enc)
    decoded = Sattr3.decode(Decoder(enc.to_bytes()))
    assert decoded == sattr


def test_sattr3_roundtrip_empty():
    from repro.rpc.xdr import Encoder

    sattr = Sattr3()
    enc = Encoder()
    sattr.encode(enc)
    decoded = Sattr3.decode(Decoder(enc.to_bytes()))
    assert decoded == sattr
    assert not decoded.is_truncation()


def test_diropargs_roundtrip():
    raw = proto.DirOpArgs(fh_bytes(), "hello.txt").encode()
    args = proto.DirOpArgs.decode(Decoder(raw))
    assert args.name == "hello.txt"
    assert FHandle.unpack(args.dir_fh).fileid == 42


def test_read_args_roundtrip():
    raw = proto.ReadArgs(fh_bytes(7), 65536, 32768).encode()
    args = proto.ReadArgs.decode(Decoder(raw))
    assert (args.offset, args.count) == (65536, 32768)
    assert FHandle.unpack(args.fh).fileid == 7


def test_write_args_roundtrip():
    raw = proto.WriteArgs(fh_bytes(7), 1 << 33, 8192, 0).encode()
    args = proto.WriteArgs.decode(Decoder(raw))
    assert args.offset == 1 << 33
    assert args.count == 8192
    assert args.stable == 0


def test_create_args_roundtrip():
    raw = proto.CreateArgs(fh_bytes(1, NF3DIR), "f", 1, Sattr3(mode=0o644)).encode()
    args = proto.CreateArgs.decode(Decoder(raw))
    assert args.name == "f"
    assert args.mode == 1
    assert args.sattr.mode == 0o644


def test_rename_args_roundtrip():
    raw = proto.RenameArgs(fh_bytes(1), "old", fh_bytes(2), "new").encode()
    args = proto.RenameArgs.decode(Decoder(raw))
    assert args.from_name == "old"
    assert args.to_name == "new"
    assert FHandle.unpack(args.to_dir).fileid == 2


def test_link_args_roundtrip():
    raw = proto.LinkArgs(fh_bytes(9), fh_bytes(1, NF3DIR), "ln").encode()
    args = proto.LinkArgs.decode(Decoder(raw))
    assert FHandle.unpack(args.fh).fileid == 9
    assert args.name == "ln"


def test_setattr_args_roundtrip():
    raw = proto.SetattrArgs(fh_bytes(3), Sattr3(size=0), guard_ctime=12.5).encode()
    args = proto.SetattrArgs.decode(Decoder(raw))
    assert args.sattr.size == 0
    assert args.guard_ctime == pytest.approx(12.5)


def test_readdir_args_roundtrip():
    raw = proto.ReaddirArgs(fh_bytes(1, NF3DIR), 55, 99, 4096).encode()
    args = proto.ReaddirArgs.decode(Decoder(raw))
    assert (args.cookie, args.cookieverf, args.count) == (55, 99, 4096)


def test_commit_args_roundtrip():
    raw = proto.CommitArgs(fh_bytes(4), 0, 0).encode()
    args = proto.CommitArgs.decode(Decoder(raw))
    assert (args.offset, args.count) == (0, 0)


# -- declared message layouts ------------------------------------------------


def golden_messages():
    """Every declared argument and small-result message, built from seeded
    values, next to the wire bytes the hand-written codecs produced for
    those values before the layouts were declared."""
    rng = random.Random(4506)

    def fh():
        return rng.randbytes(rng.choice((8, 20, 32)))

    def name():
        return "".join(rng.choice("ab_Z9.é") for _ in range(rng.randrange(1, 12)))

    def u32():
        return rng.getrandbits(32)

    def u64():
        return rng.getrandbits(64)

    def flag():
        return rng.random() < 0.5

    def sattr():
        return Sattr3(mode=u32() & 0o7777, gid=u32(), size=u64(),
                      atime="server", mtime=rng.randrange(1 << 30) + 0.25)

    return [
        (proto.FhArgs(fh()),
         "00000014d16221350ae145fc1b29c8b063d815ccbf51364f"),
        (proto.SetattrArgs(fh(), sattr(), None),
         "00000008636e4d1bbade913400000001000006ef0000000000000001"
         "d0fb52910000000150af230a19e284af00000001000000021be66a97"
         "0ee6b28000000000"),
        (proto.SetattrArgs(fh(), Sattr3(size=u64()), rng.randrange(1 << 30) + 0.5),
         "00000008455bfc13c302584000000000000000000000000000000001"
         "350b6252f146a57400000000000000000000000129a03b681dcd6500"),
        (proto.DirOpArgs(fh(), name()),
         "00000014283655bfc5c5510baab2146d69a0749492e4cfb700000005"
         "c3a962395f000000"),
        (proto.AccessArgs(fh(), u32()),
         "0000002055c01d241510bc917e76f86d85a2551a3e975ad721b7cf40"
         "eb31c4904717e42f7077465d"),
        (proto.ReadArgs(fh(), u64(), u32()),
         "0000002092bdd38e16c8370a4ddfa66356753b51957d0b48f3353fa5"
         "58dd99850a535c1675783bdccdd32fd0c72f31af"),
        (proto.WriteArgs(fh(), u64(), u32(), rng.randrange(3)),
         "000000141eded0281cfbd3c6754b0af3a07e87e26af0a7852e8bbd19"
         "518f9f98689f4b0000000000689f4b00"),
        (proto.CreateArgs(fh(), name(), rng.randrange(3), sattr()),
         "000000203557d1d04f08e710bf1e89b8a31ee996c7d1f8eac4dbdcc8"
         "1f3781d3d17cdb14000000022e610000000000010000000100000c4c"
         "00000000000000013ab3d6b400000001139d68618c4d495900000001"
         "000000020de628160ee6b280"),
        (proto.MkdirArgs(fh(), name(), sattr()),
         "00000014fc3c8c9d1e095cedd284315ea6a50aab3ffd9da600000006"
         "5f39615a5f390000000000010000097d00000000000000019705691c"
         "0000000145713403ce72b0cb00000001000000023c7bff110ee6b280"),
        (proto.SymlinkArgs(fh(), name(), Sattr3(), "/".join([name(), name()])),
         "00000020d48e44e81efcb6e9e3886381cb01a5c3dd65a02df033a11a"
         "6cd03f30d2ce5f6f000000015a000000000000000000000000000000"
         "00000000000000000000000000000017615a39395a6239625f392f62"
         "5f5f6139c3a96239c3a92e00"),
        (proto.RenameArgs(fh(), name(), fh(), name()),
         "00000014e7c1296a55585af18eb8564b16c4401a9ad4dbf20000000c"
         "61625f62c3a92e5f5a2e5f6200000014e67546a5840ab025d90f9cf2"
         "301702bfe35aab8d00000006c3a92e5f395f0000"),
        (proto.LinkArgs(fh(), fh(), name()),
         "0000002087e60bfb44658999eec15e819ceeb31f5437c8e0cb87ac23"
         "a6e8603922d2cc1200000020fc0f10d2c1fefdf0c0a78e6ec1514ce1"
         "6307441bdd203d8bd872677d495b947e000000062e2e625f5f2e0000"),
        (proto.ReaddirArgs(fh(), u64(), u64(), u32()),
         "00000014cdf098bd583c3a73005c3275444017cae73bab092aa11550"
         "ab3a955d53c05884562ada11d3a8e341"),
        (proto.ReaddirplusArgs(fh(), u64(), u64(), u32(), u32()),
         "0000002028678fad935f42450451fc86eeb4fb5dc3a1b843e46e55c8"
         "efe45578610182d5a01c7152a1a1b439dffa6075fb73babb028b3142"
         "8d682488"),
        (proto.CommitArgs(fh(), u64(), u32()),
         "00000008b18f9e2eb28460ca3668a48bb9684a87b5c0deb6"),
        (ctrl.ObjArgs(fh()),
         "00000014dc563e87dbffa8e2b363b0c84892a6e1a4293511"),
        (ctrl.TruncateArgs(fh(), u64()),
         "000000204cfda37a9860924d3cfcb50be0ebb0d6efffc93f85bc06a5"
         "63a0b586f329511de398a4b8892fa6cc"),
        (ctrl.ObjStat(flag(), u64(), u64()),
         "000000018a2acb013551b619c20fe65f2b48decf"),
        (ctrl.RangeArgs(fh(), u64(), u32()),
         "0000000894c69fa7e81e20f92b4e6891ceeb016b713358c1"),
        (ctrl.StatusRes(u32()),
         "cb701744"),
        (ctrl.ReadRes(flag(), u32()),
         "000000007e36ba7b"),
        (cp.Intent(u64(), rng.randrange(1, 6), fh(), u64(), u32(),
                   [(name(), rng.randrange(1 << 16))
                    for _ in range(rng.randrange(1, 4))]),
         "34e62a156cce2d63000000010000001479e9c5c3bcbef5f20955482d"
         "779b79414e9f50e55146ff381a756b622e320771000000010000000a"
         "39c3a9c3a961c3a9616200000000cf41"),
        (cp.CompleteArgs(u64()),
         "a990572299edfb4d"),
        (cp.GetMapArgs(fh(), u64(), u32(), flag()),
         "0000000884a5bb7dec0d4f3f97a81c7434f0e7c96f2eadd000000000"),
        (cp.MapRes([rng.randrange(-1, 8) for _ in range(rng.randrange(1, 6))]),
         "00000000000000040000000700000007ffffffff00000002"),
        (cp.ReclaimArgs(fh(), flag(), u64()),
         "00000008098771e314dd4656000000011c1d7119ed38bade"),
        (pp.PeerReply({"status": 0, "cell": {"fileid": u64(), "name": name()}}),
         "000000447b22737461747573223a302c2263656c6c223a7b2266696c"
         "656964223a31383239323734373631383130333931323830352c226e"
         "616d65223a225f395a39393962227d7d"),
        (pp.KeyArgs(u32(), rng.randbytes(16)),
         "22f5015e000000206165656231623962393463366230393464383638"
         "373331363865353138353338"),
        (pp.EntryArgs(u32(), u64(), name()),
         "69f8b9bfeb3c27644c7189080000000739625ac3a95f6200"),
        (pp.CountArgs(u64(), [u32() for _ in range(rng.randrange(1, 5))]),
         "b2ebd53be13a470900000001af5bbb8f"),
        (pp.TouchArgs(u32(), rng.randbytes(16), rng.randrange(1 << 30) + 0.5),
         "97ec2c15000000203164346332623939626632303833316161343234"
         "34613932376139383165316100007d3b3f987ae0"),
        (pp.PrepareArgs(name(), u32(), u32(),
                        [{"op": "put_name", "parent": u64(), "name": name()}]),
         "00000006395a615a612e0000ec8da18aeeb53191000000455b7b226f"
         "70223a227075745f6e616d65222c22706172656e74223a3135383932"
         "3233393130353739333232353739372c226e616d65223a22615a6262"
         "62612e625f62227d5d000000"),
        (pp.TxidArgs(name(), u32()),
         "00000003615f39000ef07808"),
        (cfg.ConfigGetArgs(name(), u64()),
         "00000008c3a96262625a6261e7bc4f637a6d56fa"),
    ]


GOLDEN = golden_messages()
MESSAGE_CLASSES = sorted({type(msg) for msg, _ in GOLDEN},
                         key=lambda cls: (cls.__module__, cls.__name__))


def test_golden_covers_every_declared_message():
    declared = {
        value
        for module in (proto, ctrl, cp, pp, cfg)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple)
        and "decode" in vars(value)
    }
    assert declared == set(MESSAGE_CLASSES)
    assert len(declared) == 33


@pytest.mark.parametrize("msg, wire_hex", GOLDEN,
                         ids=[type(m).__name__ for m, _ in GOLDEN])
def test_message_golden_wire_bytes(msg, wire_hex):
    assert msg.encode().hex() == wire_hex


@pytest.mark.parametrize("msg, wire_hex", GOLDEN,
                         ids=[type(m).__name__ for m, _ in GOLDEN])
def test_message_roundtrip_consumes_exactly_its_bytes(msg, wire_hex):
    wire = bytes.fromhex(wire_hex)
    dec = Decoder(wire)
    decoded = type(msg).decode(dec)
    assert dec.offset == len(wire)
    assert decoded == msg
    assert decoded.encode() == wire


@given(st.binary(max_size=160))
def test_message_decoders_raise_only_xdr_errors(junk):
    for cls in MESSAGE_CLASSES:
        try:
            cls.decode(Decoder(junk))
        except XdrError:
            pass



# Each pair: a message at its field's decode bound, and one just past it.
BOUND_CASES = [
    (proto.FhArgs(b"f" * 64), proto.FhArgs(b"f" * 65)),
    (proto.DirOpArgs(b"f", "n" * 255), proto.DirOpArgs(b"f", "n" * 256)),
    (proto.SymlinkArgs(b"f", "n", Sattr3(), "p" * 1024),
     proto.SymlinkArgs(b"f", "n", Sattr3(), "p" * 1025)),
    (ctrl.RangeArgs(b"f" * 64, 0, 0), ctrl.RangeArgs(b"f" * 65, 0, 0)),
    (cp.Intent(1, cp.K_COMMIT, b"f", 0, 0, [("h" * 255, 1)]),
     cp.Intent(1, cp.K_COMMIT, b"f", 0, 0, [("h" * 256, 1)])),
    (pp.KeyArgs(0, bytes(32)), pp.KeyArgs(0, bytes(33))),
    (pp.EntryArgs(0, 1, "n" * 255), pp.EntryArgs(0, 1, "n" * 256)),
    (pp.TxidArgs("t" * 64, 0), pp.TxidArgs("t" * 65, 0)),
    (pp.PeerReply("j" * ((1 << 20) - 2)), pp.PeerReply("j" * ((1 << 20) - 1))),
    (cfg.ConfigGetArgs("t" * 256), cfg.ConfigGetArgs("t" * 257)),
]


@pytest.mark.parametrize("at_bound, past_bound", BOUND_CASES,
                         ids=[type(m).__name__ for m, _ in BOUND_CASES])
def test_message_decode_bounds(at_bound, past_bound):
    assert type(at_bound).decode(Decoder(at_bound.encode())) == at_bound
    with pytest.raises(XdrError):
        type(past_bound).decode(Decoder(past_bound.encode()))

# -- results -----------------------------------------------------------------


def test_getattr_res_roundtrip():
    res = proto.GetattrRes(0, Fattr3(fileid=5, size=100))
    assert proto.GetattrRes.decode(Decoder(res.encode())) == res


def test_getattr_res_error():
    res = proto.GetattrRes(70)  # STALE
    decoded = proto.GetattrRes.decode(Decoder(res.encode()))
    assert decoded.status == 70
    assert decoded.attr is None


def test_lookup_res_roundtrip():
    res = proto.LookupRes(0, fh_bytes(8), Fattr3(fileid=8), Fattr3(fileid=1, ftype=NF3DIR))
    decoded = proto.LookupRes.decode(Decoder(res.encode()))
    assert decoded.fh == res.fh
    assert decoded.attr.fileid == 8
    assert decoded.dir_attr.ftype == NF3DIR


def test_lookup_res_noent_keeps_dir_attr():
    res = proto.LookupRes(2, dir_attr=Fattr3(fileid=1))
    decoded = proto.LookupRes.decode(Decoder(res.encode()))
    assert decoded.status == 2
    assert decoded.fh is None
    assert decoded.dir_attr.fileid == 1


def test_read_res_roundtrip_and_attr_offset():
    res = proto.ReadRes(0, Fattr3(fileid=3, size=999), count=512, eof=True)
    raw = res.encode()
    assert res.attr_offset > 0
    decoded = proto.ReadRes.decode(Decoder(raw))
    assert decoded.count == 512
    assert decoded.eof is True
    assert decoded.attr.size == 999
    assert decoded.attr_offset == res.attr_offset


def test_write_res_roundtrip():
    res = proto.WriteRes(0, Fattr3(fileid=3), count=100, committed=2, verf=0xABCD)
    decoded = proto.WriteRes.decode(Decoder(res.encode()))
    assert decoded.count == 100
    assert decoded.committed == 2
    assert decoded.verf == 0xABCD


def test_create_res_roundtrip():
    res = proto.CreateRes(0, fh_bytes(77), Fattr3(fileid=77), Fattr3(fileid=1))
    decoded = proto.CreateRes.decode(Decoder(res.encode()))
    assert FHandle.unpack(decoded.fh).fileid == 77
    assert decoded.dir_attr.fileid == 1


def test_rename_res_roundtrip():
    res = proto.RenameRes(0, Fattr3(fileid=1), Fattr3(fileid=2))
    decoded = proto.RenameRes.decode(Decoder(res.encode()))
    assert decoded.from_dir_attr.fileid == 1
    assert decoded.to_dir_attr.fileid == 2


def test_readdir_res_roundtrip():
    entries = [
        DirEntry(1, ".", 1),
        DirEntry(2, "..", 2),
        DirEntry(50, "file-a", 3),
    ]
    res = proto.ReaddirRes(0, Fattr3(fileid=1), 42, entries, eof=False)
    decoded = proto.ReaddirRes.decode(Decoder(res.encode()))
    assert [e.name for e in decoded.entries] == [".", "..", "file-a"]
    assert decoded.eof is False
    assert decoded.cookieverf == 42


def test_readdirplus_res_roundtrip():
    entries = [
        DirEntry(50, "f", 1, attr=Fattr3(fileid=50), fh=fh_bytes(50)),
        DirEntry(51, "g", 2, attr=None, fh=None),
    ]
    res = proto.ReaddirRes(0, Fattr3(fileid=1), 7, entries, eof=True, plus=True)
    decoded = proto.ReaddirRes.decode(Decoder(res.encode()), plus=True)
    assert decoded.entries[0].attr.fileid == 50
    assert FHandle.unpack(decoded.entries[0].fh).fileid == 50
    assert decoded.entries[1].attr is None


def test_commit_res_roundtrip():
    res = proto.CommitRes(0, Fattr3(fileid=9), verf=123456)
    decoded = proto.CommitRes.decode(Decoder(res.encode()))
    assert decoded.verf == 123456


def test_fsstat_res_roundtrip():
    res = proto.FsstatRes(0, Fattr3(), 10**12, 10**11, 10**11, 1000, 900, 900)
    decoded = proto.FsstatRes.decode(Decoder(res.encode()))
    assert decoded.tbytes == 10**12
    assert decoded.afiles == 900


def test_fsinfo_res_roundtrip():
    res = proto.FsinfoRes(0, Fattr3(), rtmax=32768, wtmax=32768)
    decoded = proto.FsinfoRes.decode(Decoder(res.encode()))
    assert decoded.rtmax == 32768


def test_pathconf_res_roundtrip():
    res = proto.PathconfRes(0, Fattr3())
    decoded = proto.PathconfRes.decode(Decoder(res.encode()))
    assert decoded.name_max == 255


@given(st.floats(min_value=0, max_value=2**31, allow_nan=False))
def test_time_encoding_precision(seconds):
    """Times survive the (sec, nsec) wire encoding to within a nanosecond."""
    from repro.nfs.types import decode_time, encode_time
    from repro.rpc.xdr import Encoder

    enc = Encoder()
    encode_time(enc, seconds)
    decoded = decode_time(Decoder(enc.to_bytes()))
    assert decoded == pytest.approx(seconds, abs=1e-6)
