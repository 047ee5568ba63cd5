"""The declared dir-peer messages: cell layouts checked against a
hand-packed oracle, key-length and union-arm checks, and a remote TOUCH
that carries its mtime exactly."""

import struct

import pytest

from repro.dirsvc import NAME_HASHING
from repro.dirsvc import peerproto as pp
from repro.dirsvc.state import AttrCell, NameCell, attr_key_for
from repro.nfs.errors import NFS3_OK
from repro.nfs.fhandle import FHandle
from repro.nfs.types import NF3DIR, NF3LNK
from repro.rpc.xdr import Decoder, XdrError

from dir_harness import DirHarness


def xdr_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw + bytes(-len(raw) % 4)


def test_attr_cell_wire_layout():
    cell = AttrCell(
        fileid=(3 << 40) | 9, ftype=NF3LNK, mode=0o777, nlink=1, uid=5,
        gid=6, size=4, used=4096, atime=1.1, mtime=2.2, ctime=1e9 / 7,
        flags=1, home_site=3, symlink_target="é/b", parent_fileid=2,
        parent_site=1,
    )
    wire = (struct.pack(">QIIIIIQQdddII", (3 << 40) | 9, NF3LNK, 0o777, 1,
                        5, 6, 4, 4096, 1.1, 2.2, 1e9 / 7, 1, 3)
            + xdr_string("é/b") + struct.pack(">QI", 2, 1))
    assert cell.encode() == wire
    assert AttrCell.decode(Decoder(wire)) == cell


def test_name_cell_wire_layout():
    cell = NameCell(7, "name", 8, NF3DIR, 1, 12)
    wire = (struct.pack(">Q", 7) + xdr_string("name")
            + struct.pack(">QIII", 8, NF3DIR, 1, 12))
    assert cell.encode() == wire
    assert NameCell.decode(Decoder(wire)) == cell


@pytest.mark.parametrize("length", [15, 17])
@pytest.mark.parametrize("make", [
    lambda key: pp.KeyArgs(0, key),
    lambda key: pp.TouchArgs(0, key, 1.0),
    lambda key: pp.AdjLink(key, 1, 1.0),
    lambda key: pp.TouchDir(key, 1.0, 0),
    lambda key: pp.SetParent(key, 1, 0),
], ids=["KeyArgs", "TouchArgs", "AdjLink", "TouchDir", "SetParent"])
def test_a_key_of_the_wrong_length_is_refused_on_encode(make, length):
    with pytest.raises(XdrError):
        make(bytes(length)).encode()


def test_prepare_op_arm_past_the_arms_is_refused():
    ok = pp.PrepareArgs("t", 1, 2, [pp.SetParent(bytes(16), 3, 4)]).encode()
    # The arm index is the word after txid, site, coord_site and count.
    at = len(xdr_string("t")) + 12
    assert ok[at:at + 4] == struct.pack(">I", 4)
    bad = ok[:at] + struct.pack(">I", 6) + ok[at + 4:]
    with pytest.raises(XdrError):
        pp.PrepareArgs.decode(Decoder(bad))


def test_remote_touch_sets_the_exact_mtime():
    """A create whose parent's attributes live on another server touches
    them over TOUCH; the parent's mtime is the creating server's clock
    reading, not that reading cut to whole microseconds."""
    h = DirHarness(num_servers=2, mode=NAME_HASHING, num_sites=8)
    # Make the clock reading a non-integral number of microseconds.
    h.sim.run(until=1e-3 / 3)

    def run():
        made = yield from h.mkdir(h.root_fh, "d")
        assert made.status == NFS3_OK
        dir_fh = FHandle.unpack(made.fh)
        name = next(
            n for n in (f"f{i}" for i in range(100))
            if h.site_map[h.config.entry_site(dir_fh, n)]
            != h.site_map[dir_fh.home_site]
        )
        created = yield from h.create(dir_fh, name)
        assert created.status == NFS3_OK
        return dir_fh, FHandle.unpack(created.fh)

    dir_fh, file_fh = h.run(run())

    def cell(fh):
        server = h.servers[h.site_map[fh.home_site]]
        return server.sites[fh.home_site].get_attr_cell(
            attr_key_for(fh.fileid))

    mtime = cell(file_fh).mtime
    assert mtime * 1e6 != int(mtime * 1e6)
    assert cell(dir_fh).mtime == mtime

