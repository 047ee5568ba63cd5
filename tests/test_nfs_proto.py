"""Round-trip tests for the NFS V3 codec, Slice fhandles, attributes, and
every declared message layout (NFS, ctrl, coord, dir-peer, config)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dirsvc import peerproto as pp
from repro.ensemble import configsvc as cfg
from repro.nfs import proto, types
from repro.nfs.fhandle import FLAG_MIRRORED, FHandle
from repro.nfs.types import (
    DirEntry,
    Fattr3,
    NF3DIR,
    NF3REG,
    Sattr3,
)
from repro.core.rewrite import patch_fattr
from repro.ensemble.baseline import MonolithicServer
from repro.net import Address, NetParams, Network, Packet
from repro.rpc import RpcAcceptError, RpcClient
from repro.rpc.messages import GARBAGE_ARGS, ReplyHeader
from repro.rpc.xdr import Decoder, Encoder, XdrError
from repro.sim import Simulator
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
    sattr = Sattr3(mode=0o600, uid=5, gid=6, size=1024, atime=9.5, mtime="server")
    decoded = Sattr3.decode(Decoder(sattr.encode()))
    assert decoded == sattr


def test_sattr3_roundtrip_empty():
    sattr = Sattr3()
    decoded = Sattr3.decode(Decoder(sattr.encode()))
    assert decoded == sattr
    assert not decoded.is_truncation()


def test_setattr_with_unknown_time_how_gets_garbage_args():
    """A SETATTR whose sattr3 carries time_how 7 is undecodable, so the
    server answers GARBAGE_ARGS; time_how 2 in the same bytes is served."""
    sim = Simulator()
    net = Network(sim, NetParams())
    server = MonolithicServer(sim, net.add_host("nfs-server"))
    client = RpcClient(net.add_host("client"), 700)

    def setattr_args(how):
        enc = Encoder()
        proto.FH.put(enc, server.root_fh())
        for word in (0, 0, 0, 0, how, 5, 0, 0, 0):  # ..., no guard
            enc.u32(word)
        return enc.to_bytes()

    def run(args):
        try:
            dec, _ = yield from client.call(
                server.address, proto.NFS_PROGRAM, proto.NFS_V3,
                proto.PROC_SETATTR, args)
        except RpcAcceptError as exc:
            return exc.accept_stat
        return proto.SetattrRes.decode(dec).attr.atime

    assert sim.run_process(run(setattr_args(7))) == GARBAGE_ARGS
    assert sim.run_process(run(setattr_args(2))) == 5.0


def test_sattr3_rejects_unknown_time_how():
    # Four absent optionals, atime time_how 7 with (5, 0), mtime DONT_CHANGE.
    wire = b"".join(word.to_bytes(4, "big") for word in (0, 0, 0, 0, 7, 5, 0, 0))
    with pytest.raises(XdrError, match="time_how"):
        Sattr3.decode(Decoder(wire))
    for how in (3, 0xFFFFFFFF):
        with pytest.raises(XdrError):
            Sattr3.decode(Decoder(wire[:16] + how.to_bytes(4, "big") + wire[20:]))


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

    def when():
        # Quarter seconds survive the (sec, nsec) round trip exactly.
        return rng.randrange(1 << 32) + rng.randrange(4) / 4

    def attr():
        return Fattr3(ftype=rng.randrange(1, 8), mode=u32() & 0o7777,
                      nlink=rng.randrange(1, 9), uid=u32(), gid=u32(),
                      size=u64(), used=u64(), fsid=u64(), fileid=u64(),
                      atime=when(), mtime=when(), ctime=when())

    def entry(plus):
        return DirEntry(u64(), name(), u64(),
                        attr() if plus and flag() else None,
                        fh() if plus and flag() else None)

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
        (attr(),
         "0000000700000f1f00000001a784e57b55afee45e53db3e12bbaac44"
         "e2f67012841601230000000000000000abca01cef531d171e3e63379"
         "07e08e402dcfd96a1dcd65007301c38c2cb417804ef77a822cb41780"),
        (Sattr3(),
         "000000000000000000000000000000000000000000000000"),
        (Sattr3(u32(), u32(), u32(), u64(), when(), when()),
         "00000001c17dfd65000000017454fc1600000001d561a96f00000001"
         "9966636722abab59000000025423e9570000000000000002fe1dc1d8"
         "00000000"),
        (Sattr3(atime="server", mtime="server"),
         "000000000000000000000000000000000000000100000001"),
        (proto.GetattrRes(0, attr()),
         "00000000000000040000078600000004748809ec3f7da44ab26c6155"
         "eec5b16ba389081c1ea6a6f10000000000000000d786e01521c54c01"
         "e5d6b0f969d3fd600485191a0ee6b28068acaabb000000005e8e48b6"
         "0ee6b280"),
        (proto.GetattrRes(70),
         "00000046"),
        (proto.AttrOnlyRes(0, attr()),
         "000000000000000000000001000000010000059700000004dbf3f79b"
         "fab20251cd464ffb2fe71eac9d6296311ed649070000000000000000"
         "8820f908042224e7960d71882e774584901628790ee6b2808bf0f56a"
         "2cb417802c3ef8c41dcd6500"),
        (proto.AttrOnlyRes(13),
         "0000000d0000000000000000"),
        (proto.LookupRes(0, fh(), attr(), attr()),
         "000000000000000882d1d0491406e1860000000100000003000000f2"
         "000000069a6ea93e37719146ddfa4dccb4eeb4536bfea3283b739881"
         "0000000000000000e400ef1a7c884bada7f24ccef48211e5e3424df0"
         "00000000b6e39bfb00000000d16ef36a1dcd65000000000100000005"
         "000008f1000000076816bc766e8f029cc218a5e2eea38eeadb7fdcb0"
         "5162f3a400000000000000009745f37510b39c0130c6042bb23dd7ee"
         "cde802a91dcd650016b6bdbd2cb41780aec6d0a81dcd6500"),
        (proto.LookupRes(2, dir_attr=attr()),
         "00000002000000010000000400000d7b00000004642e0a0b91159388"
         "9d804c67214856c3648c388415be2c4800000000000000000ff64927"
         "b1a944a4fcffbd041ec24b6fea95a17c1dcd650018ca1d552cb41780"
         "48e9c4392cb41780"),
        (proto.AccessRes(0, attr(), u32()),
         "0000000000000001000000030000056000000008d8d9ee1f4a473a50"
         "34ecb7d56e79534071f7683fc350d15f0000000000000000ba3111bb"
         "442a64d2ec4ad67dfdea34e8aedd92f20ee6b280f567427a1dcd6500"
         "5160686f000000008ec365a2"),
        (proto.AccessRes(70),
         "0000004600000000"),
        (proto.ReadlinkRes(0, attr(), "/".join([name(), name()])),
         "00000000000000010000000100000295000000042384ad7d723e36ba"
         "b9fc577378c9e23eb62e6ce7f2296e0700000000000000002d7b199a"
         "693c5f62bcb4c1304b03fb804fdc4dcc0ee6b280aadb655f2cb41780"
         "a452ba63000000000000000e6161c3a92e622f622e2e39612e610000"),
        (proto.ReadlinkRes(22, attr()),
         "0000001600000001000000010000067100000005f1948c50db720ec4"
         "29d81f43d20b88617be7f01dbf714c8d000000000000000031b4d326"
         "cc8c03d90c02e22a166bf21cc983574900000000a0da8dcc00000000"
         "030713180ee6b280"),
        (proto.ReadRes(0, attr(), u32(), True),
         "0000000000000001000000030000065500000001f20a81e5b3bb569c"
         "9943bd96c3e0839cf1ffd3d7944f2cc000000000000000005c69c3fb"
         "0c85faf189806b9290fc386ba7ac30d12cb41780f28385681dcd6500"
         "385754c32cb41780a6ca326c00000001a6ca326c"),
        (proto.ReadRes(5),
         "0000000500000000"),
        (proto.WriteRes(0, attr(), u32(), rng.randrange(3), u64()),
         "0000000000000000000000010000000600000f9a00000003ce206201"
         "14d7baed2797478c16416ad6a57f9fa5abc760430000000000000000"
         "20959f3c9539e7544a241879289a3e399f0b58a22cb4178025824109"
         "00000000e0102c4700000000e6e298550000000135677b8183c8d248"),
        (proto.WriteRes(28, attr()),
         "0000001c00000000000000010000000200000722000000033ce68087"
         "185f9c6cbf1f78a079a05e9e34d9dd0603370d300000000000000000"
         "a65835e075f7cf368853c21d161b23852b87e1251dcd650041454257"
         "1dcd650075c7270100000000"),
        (proto.CreateRes(0, fh(), attr(), attr()),
         "000000000000000100000008ff9d12b444bfad670000000100000001"
         "000008ac00000001507e1f90dcb5f9043b9393e9a99dc018087f8cdf"
         "1cd1965f0000000000000000fd2f276bfd26e6fc778c7da5bc3d0f52"
         "b13917f01dcd65003147a70a000000002fdb22362cb4178000000000"
         "00000001000000020000094600000008d2760a00769c66130a94ec31"
         "da1b89625d41b01ec131236c0000000000000000d958a499c71fd7ee"
         "caa5905c345dd2aa27d405570000000006bc33b02cb41780fe5bac13"
         "00000000"),
        (proto.CreateRes(17, dir_attr=attr()),
         "00000011000000000000000100000006000001dc000000065d7e5a46"
         "67a31e5e1278ef3be21d94233f9166ee04ca36460000000000000000"
         "4027364fd323b476794828142f6bbd9c30dc55af00000000ede68f28"
         "2cb4178083b150eb1dcd6500"),
        (proto.RenameRes(0, attr(), attr()),
         "0000000000000000000000010000000100000a33000000057fb2c2d2"
         "b670096ca1e0d2254b609b9d306d234b875f5bb30000000000000000"
         "7a18aaa8fdea269eef38045256ae57222237c5ad1dcd6500a379dd1e"
         "0ee6b28032c33ff30ee6b28000000000000000010000000300000dbe"
         "0000000342f3763ae4632c921593f86b73bf27f7fcc55695b84ce2f1"
         "0000000000000000acdcf769d772e4be8988eb7c733eab5b689b8987"
         "2cb417807d884bf90ee6b28021a3e4390ee6b280"),
        (proto.RenameRes(18, None, attr()),
         "00000012000000000000000000000000000000010000000300000e28"
         "000000057aade0b72b64f3bccc1728f73fe8b4b4089688c5ea73d3a0"
         "0000000000000000b7afdea0459c98d99860d8c6cdda9e103cb5d65f"
         "2cb41780032c05552cb41780a1c4e79400000000"),
        (proto.LinkRes(0, attr(), attr()),
         "0000000000000001000000040000015700000001b3a9544963fa91a6"
         "ca02d53a9d4a2795a1c6aad284b0d092000000000000000097e19206"
         "59ac24a2adeb175b06fdf2d0f632ee960ee6b2802a540a9200000000"
         "fa69c68a1dcd650000000000000000010000000600000cea00000006"
         "b4ba6dc8ad438915f35626e7245d32b3c73248d919903eaf00000000"
         "0000000092decd93fe125fe4a04b0f7f9c0158b85207898a0ee6b280"
         "d6b0f5b82cb41780eeb2e79f2cb41780"),
        (proto.LinkRes(31),
         "0000001f000000000000000000000000"),
        (proto.ReaddirRes(0, attr(), u64(), [entry(False) for _ in range(3)],
                          eof=False),
         "00000000000000010000000100000ff200000004b7a59f08b279ebf0"
         "6a8229c72ec9f2cd860d87973049735f0000000000000000f11769a9"
         "830d362dfed0e3938c4d9a1484cc597b000000009995f37a1dcd6500"
         "ea4910611dcd65003f8d5ffa5c23622200000001b976b5f766f728a2"
         "000000052e5a2e62610000004082b75dde44e1550000000120cca02c"
         "cf28315f00000004625a615a77fe1c190e6c6640000000014f32ac98"
         "b8c9a75d000000095ac3a9625ac3a9615a000000c3e12bfb808de9f7"
         "0000000000000000"),
        (proto.ReaddirRes(0, None, u64(), [entry(True) for _ in range(4)],
                          eof=True, plus=True),
         "000000000000000004866bf79d6769ff00000001e33f0f70fc8464a1"
         "00000006625a2ec3a92e00002821687d5fde0f070000000000000000"
         "0000000105137d02efd4335a0000000d393961c3a95f61c3a962c3a9"
         "5a000000dc32a2b614caf3d8000000000000000100000020904c5892"
         "41f67a15d1db926adb20d723139fe611fd8a27312d414a438b8e0159"
         "00000001c7b68bb99d7a221b000000065a5f5f625a5a000012c1cd82"
         "4c4f25da000000010000000400000bac00000003951a4e9cfa5c59b0"
         "0fe210267cdd115af4a2abc694ca5ca400000000000000004faffc92"
         "31c9b52ac9ed710df6c92b9f5981e19e0ee6b2800f07504e2cb41780"
         "e2d214d80ee6b280000000000000000105de5934741af9cd00000009"
         "c3a95f2e612e395f5a0000008c8a0fd1b6886fb50000000100000002"
         "00000cb7000000058ae956c5f7d80eb81c342cc7dcb9e133323d337d"
         "983ea4180000000000000000a2e1b7f9faedf7c92b55cae2c50a0534"
         "1caed8e81dcd65000436a821000000009bbd937b0ee6b28000000000"
         "0000000000000001"),
        (proto.ReaddirRes(20, attr()),
         "00000014000000010000000300000301000000044afc1b8d4853f12d"
         "8cd8f64349551983eea7dd5bec50c680000000000000000028721465"
         "85f4a1bc221ea5006ef081580fc6f67c0ee6b2806c74470900000000"
         "5a7786402cb41780"),
        (proto.FsstatRes(0, attr(), u64(), u64(), u64(), u64(), u64(), u64()),
         "00000000000000010000000500000dba000000064dc34670400c8ce5"
         "8d8e41ace4557bb4694d694f13e1c3960000000000000000f9d4a225"
         "d70620df0e318388f808602e99593fe90ee6b2806a2e69dd0ee6b280"
         "6723296d1dcd65000cdfbee1e7e31d58f45c02228ba7d352bd9197cb"
         "0259e7243b179b81fa04570882878b8ad582c99e9d8396660a6f12c8"
         "00000000"),
        (proto.FsstatRes(70),
         "0000004600000000"),
        (proto.FsinfoRes(0, attr(), dtpref=u32(), maxfilesize=u64()),
         "00000000000000010000000300000ac9000000060dc3ace9b109a220"
         "25dea0731acaea19cfbd9818d356850500000000000000000baf0bdd"
         "ad659d6d6ffe3910fc3675b52fea1c720ee6b280895042661dcd6500"
         "74bbd949000000000000800000008000000002000000800000008000"
         "0000020034399c9ed8676952dd8262c600000000000000010000001b"),
        (proto.FsinfoRes(70),
         "0000004600000000"),
        (proto.PathconfRes(0, attr(), linkmax=u32(), name_max=u32()),
         "00000000000000010000000600000b6b00000004264bb8719b11c660"
         "ae56d3ff51d8b38bf23ad312f733cb250000000000000000bd48c3f4"
         "76aef8f4af44eef76c3a9aa909bc40132cb41780e913e24d00000000"
         "075c96fe1dcd65006c4054a30ffe76af000000010000000100000000"
         "00000001"),
        (proto.PathconfRes(70),
         "0000004600000000"),
        (proto.CommitRes(0, attr(), u64()),
         "0000000000000000000000010000000500000e420000000460b88cfe"
         "d812f8e8307ab18970e3376fce57704dc54f7a020000000000000000"
         "b0b6f08f51ed3c5df784520a7feb4beb823ac3070ee6b280ce3e0a04"
         "00000000fe54488700000000a8e35859a45d698d"),
        (proto.CommitRes(5, attr()),
         "0000000500000000000000010000000300000c5c000000037fb39202"
         "29e2975aa8c0dd98586edee3330723e612da23e40000000000000000"
         "5d34504f5cd7dfe3f1388982e323549840937e782cb41780bff3f2bf"
         "0ee6b280049bb9d40ee6b280"),
    ]


GOLDEN = golden_messages()
MESSAGE_CLASSES = sorted({type(msg) for msg, _ in GOLDEN},
                         key=lambda cls: (cls.__module__, cls.__name__))


def golden_id(msg) -> str:
    """The class name; the storage control protocol has a ``ReadRes`` too,
    so NFS's is ``NfsReadRes``."""
    return "NfsReadRes" if type(msg) is proto.ReadRes else type(msg).__name__


GOLDEN_IDS = [golden_id(msg) for msg, _ in GOLDEN]


def wire_of(msg) -> bytes:
    """``msg`` on the wire; an fattr3 is only ever encoded in place."""
    if isinstance(msg, Fattr3):
        enc = Encoder()
        msg.encode(enc)
        return enc.to_bytes()
    return msg.encode()


def decode_like(msg, dec):
    """Decode a message of ``msg``'s type (and READDIRPLUS form)."""
    if isinstance(msg, proto.ReaddirRes):
        return proto.ReaddirRes.decode(dec, plus=msg.plus)
    return type(msg).decode(dec)


def test_golden_covers_every_declared_message():
    declared = {
        value
        for module in (proto, types, ctrl, cp, pp, cfg)
        for value in vars(module).values()
        if isinstance(value, type) and "decode" in vars(value)
    }
    assert declared == set(MESSAGE_CLASSES)
    assert len(declared) == 50


@pytest.mark.parametrize("msg, wire_hex", GOLDEN, ids=GOLDEN_IDS)
def test_message_golden_wire_bytes(msg, wire_hex):
    assert wire_of(msg).hex() == wire_hex


@pytest.mark.parametrize("msg, wire_hex", GOLDEN, ids=GOLDEN_IDS)
def test_message_roundtrip_consumes_exactly_its_bytes(msg, wire_hex):
    wire = bytes.fromhex(wire_hex)
    dec = Decoder(wire)
    decoded = decode_like(msg, dec)
    assert dec.offset == len(wire)
    assert decoded == msg
    assert wire_of(decoded) == wire


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
    assert res.attr_offset == -1  # encoding leaves the result alone
    decoded = proto.ReadRes.decode(Decoder(raw))
    assert decoded.count == 512
    assert decoded.eof is True
    assert decoded.attr.size == 999
    assert decoded.attr_offset == 8  # status, then the post_op_attr bool


# -- fattr3 offsets the µproxy patches in place --------------------------------


def words(*values):
    return b"".join(value.to_bytes(4, "big") for value in values)


PATCH_ATTR = Fattr3(ftype=NF3REG, mode=0o640, nlink=1, uid=7, gid=8, size=4096,
                    used=8192, fsid=1, fileid=99, atime=10.5, mtime=20.25,
                    ctime=30.75)
ATTR_WIRE = proto.GetattrRes(0, PATCH_ATTR).encode()[4:]
#: wcc_data's pre_op_attr when a server sends it: size, mtime, ctime.
PRE_OP_ATTR = words(1) + bytes(range(24))

# (result class, result bytes, offset of the fattr3 within those bytes)
PATCHED = [
    (proto.GetattrRes, proto.GetattrRes(0, PATCH_ATTR).encode(), 4),
    (proto.AttrOnlyRes, proto.AttrOnlyRes(0, PATCH_ATTR).encode(), 12),
    (proto.AttrOnlyRes, words(0) + PRE_OP_ATTR + words(1) + ATTR_WIRE, 36),
    (proto.LookupRes,
     proto.LookupRes(0, fh_bytes(), PATCH_ATTR, Fattr3(fileid=1)).encode(),
     4 + 4 + 32 + 4),
    (proto.ReadRes, proto.ReadRes(0, PATCH_ATTR, 512, True).encode(), 8),
    (proto.WriteRes, proto.WriteRes(0, PATCH_ATTR, 512, 2, 0xAB).encode(), 12),
    (proto.WriteRes,
     words(0) + PRE_OP_ATTR + words(1) + ATTR_WIRE + words(512, 2, 0, 0xAB),
     36),
]


@pytest.mark.parametrize("cls, wire, at", PATCHED,
                         ids=[f"{c.__name__}@{at}" for c, _, at in PATCHED])
def test_attr_offset_locates_the_patched_fattr3(cls, wire, at):
    header = ReplyHeader(0x1234).encode().to_bytes()
    pkt = Packet(Address("server", 2049), Address("client", 700),
                 header + wire).fill_checksum()

    def decode():
        dec = Decoder(pkt.header)
        ReplyHeader.decode(dec)
        res = cls.decode(dec)
        assert dec.offset == len(pkt.header)
        return res

    res = decode()
    assert res.attr == PATCH_ATTR
    assert res.attr_offset == len(header) + at
    assert patch_fattr(pkt, res.attr_offset, size=1 << 40, mtime=77.5) == 16
    patched = decode()
    assert patched.attr == PATCH_ATTR.copy(size=1 << 40, mtime=77.5)
    assert patched.attr_offset == res.attr_offset
    assert pkt.checksum_ok()


@pytest.mark.parametrize("res", [
    proto.GetattrRes(70), proto.AttrOnlyRes(0), proto.LookupRes(0, fh_bytes()),
    proto.LookupRes(2, dir_attr=PATCH_ATTR), proto.ReadRes(0, None, 4),
    proto.WriteRes(28), proto.WriteRes(0, None, 4),
], ids=lambda res: type(res).__name__)
def test_attr_offset_is_minus_one_without_attributes(res):
    assert type(res).decode(Decoder(res.encode())).attr_offset == -1


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
    from repro.nfs.types import TIME

    enc = Encoder()
    TIME.put(enc, seconds)
    decoded = TIME.get(Decoder(enc.to_bytes()))
    assert decoded == pytest.approx(seconds, abs=1e-6)
