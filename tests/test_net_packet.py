"""Tests for packets: checksums over split header/body, rewrite fast paths."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.address import Address
from repro.net.packet import Packet
from repro.util.bytesim import PatternData, RealData


def make_packet(header=b"\x01\x02\x03\x04", body=b""):
    return Packet(
        Address("client1", 700),
        Address("server1", 2049),
        header,
        RealData(body),
    )


def test_address_packed_is_six_bytes_and_stable():
    a = Address("client1", 700)
    assert len(a.packed) == 6
    assert a.packed == Address("client1", 700).packed
    assert a.packed != Address("client2", 700).packed
    assert a.packed != Address("client1", 701).packed


def test_address_packed_is_the_md5_pseudo_ip_and_port():
    import hashlib

    for host, port in (("client1", 700), ("dir-0", 2049), ("é", 0xFFFF)):
        a = Address(host, port)
        ip = hashlib.md5(host.encode("utf-8")).digest()[:4]
        assert a.packed == ip + port.to_bytes(2, "big")
        assert a.packed == a.packed  # the memoised value is the same


def test_equal_addresses_stay_equal_after_packing():
    a, b = Address("server1", 2049), Address("server1", 2049)
    a.packed
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert repr(a) == "Address(host='server1', port=2049)"
    assert sorted([Address("b", 1), Address("a", 2), Address("a", 1)]) == [
        Address("a", 1), Address("a", 2), Address("b", 1)]


def test_one_host_packed_with_two_ports_in_a_row():
    first, second = Address("h", 1).packed, Address("h", 2).packed
    assert first[:4] == second[:4]
    assert first[4:] == b"\x00\x01" and second[4:] == b"\x00\x02"


def test_address_rejects_bad_port():
    with pytest.raises(ValueError):
        Address("x", 70000)


def test_packet_size_includes_overhead():
    pkt = make_packet(header=b"\x00" * 100, body=b"\x01" * 50)
    assert pkt.size == 28 + 100 + 50


def test_checksum_roundtrip():
    pkt = make_packet(body=b"payload bytes")
    pkt.fill_checksum()
    assert pkt.checksum_ok()


def test_checksum_detects_header_corruption():
    pkt = make_packet(header=b"\x01\x02\x03\x04")
    pkt.fill_checksum()
    pkt.header = b"\x01\x02\x03\x05"  # corrupt without updating checksum
    assert not pkt.checksum_ok()


def test_checksum_detects_body_corruption():
    pkt = make_packet(body=b"hello")
    pkt.fill_checksum()
    pkt.body = RealData(b"hellp")
    assert not pkt.checksum_ok()


def test_checksum_covers_addresses():
    pkt = make_packet()
    pkt.fill_checksum()
    pkt.dst = Address("elsewhere", 2049)  # raw change, no adjustment
    assert not pkt.checksum_ok()


def test_rewrite_dst_preserves_checksum():
    pkt = make_packet(body=b"some body data")
    pkt.fill_checksum()
    pkt.rewrite_dst(Address("storage3", 3049))
    assert pkt.dst == Address("storage3", 3049)
    assert pkt.checksum_ok()
    assert pkt.cksum == pkt.compute_checksum()


def test_rewrite_src_preserves_checksum():
    pkt = make_packet()
    pkt.fill_checksum()
    pkt.rewrite_src(Address("virtual-nfs", 2049))
    assert pkt.checksum_ok()


def test_rewrite_header_preserves_checksum():
    pkt = make_packet(header=bytes(range(32)), body=b"tail")
    pkt.fill_checksum()
    pkt.rewrite_header(5, b"\xaa\xbb\xcc")  # odd offset
    assert pkt.header[5:8] == b"\xaa\xbb\xcc"
    assert pkt.checksum_ok()
    pkt.rewrite_header(10, b"\x11\x22")  # even offset
    assert pkt.checksum_ok()


def test_rewrite_header_out_of_bounds():
    pkt = make_packet(header=b"abcd")
    with pytest.raises(ValueError):
        pkt.rewrite_header(3, b"xy")


def test_rewrites_without_checksum_are_fine():
    pkt = make_packet()
    assert pkt.cksum is None
    pkt.rewrite_dst(Address("other", 1))
    assert pkt.checksum_ok()  # None always passes


def test_checksum_with_lazy_body():
    body = PatternData(100000, seed=3)
    pkt = Packet(Address("a", 1), Address("b", 2), b"hdr!", body)
    pkt.fill_checksum()
    assert pkt.checksum_ok()
    # Same content as materialized bytes gives same checksum.
    raw = Packet(Address("a", 1), Address("b", 2), b"hdr!", RealData(body.to_bytes()))
    assert raw.compute_checksum() == pkt.cksum


@given(
    st.binary(min_size=4, max_size=64),
    st.binary(max_size=64),
    st.integers(0, 60),
    st.binary(min_size=1, max_size=8),
)
def test_rewrite_sequence_property(header, body, offset, patch):
    """Any sequence of incremental rewrites leaves a verifiable checksum."""
    pkt = Packet(Address("c", 9), Address("s", 10), header, RealData(body))
    pkt.fill_checksum()
    pkt.rewrite_dst(Address("s2", 11))
    pkt.rewrite_src(Address("c2", 12))
    if offset + len(patch) <= len(header):
        pkt.rewrite_header(offset, patch)
    assert pkt.checksum_ok()
    assert pkt.cksum == pkt.compute_checksum()
