"""Property-based fuzzing of the one's-complement checksum algebra.

The µproxy's correctness hinges on RFC 1624 incremental updates agreeing
with a full RFC 1071 recomputation for *every* rewrite it performs.  These
tests hammer that equivalence with randomized messages and mutations, all
seeded through :class:`repro.sim.rand.RandomStreams` so failures reproduce.

The fast sums -- the bigint ``ones_sum`` and every ``Data`` kind's
closed-form ``checksum16`` -- are pinned against ``reference_sum``, a
word-by-word RFC 1071 sum kept here as the oracle.
"""

import struct

import pytest

from repro.net import Address, Packet
from repro.net import checksum as cks
from repro.net.checksum import (
    checksum,
    combine,
    finalize,
    ones_sum,
    update_checksum,
    verify,
)
from repro.sim.rand import RandomStreams
from repro.util import bytesim
from repro.util.bytesim import (
    CompositeData,
    PatternData,
    RealData,
    ZeroData,
    concat,
)

SEED = 20260806


def rng_for(name):
    return RandomStreams(SEED).stream(name)


def random_bytes(rng, n):
    return bytes(rng.getrandbits(8) for _ in range(n))


def reference_sum(data):
    """RFC 1071 one's-complement sum, one 16-bit word at a time."""
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


# -- fast sums vs the reference -----------------------------------------------


def test_ones_sum_matches_reference_edge_cases():
    cases = [b"", b"\x00", b"\x00" * 4096, b"\x00" * 4097, b"\xff",
             b"\xff\xff", b"\xff\xff" * 3000, b"\xff\xff" * 3000 + b"\xff",
             b"\x00\x01", b"\x01", b"\xff\xfe\x00\x01"]
    for data in cases:
        assert ones_sum(data) == reference_sum(data), data[:8]
    # A non-zero multiple of 0xFFFF folds to 0xFFFF, never to 0.
    assert ones_sum(b"\xff\xff") == 0xFFFF
    assert ones_sum(b"\x80\x00\x7f\xff") == 0xFFFF
    assert ones_sum(b"\x00" * 10) == 0


def test_ones_sum_matches_reference_random():
    rng = rng_for("ones_sum")
    for _ in range(300):
        n = rng.randint(0, 20_000)
        kind = rng.randrange(4)
        if kind == 0:
            data = rng.getrandbits(8 * n).to_bytes(n, "big")
        elif kind == 1:  # long runs of all-ones words
            data = b"\xff" * n
        elif kind == 2:  # mostly zero, a few set bytes
            buf = bytearray(n)
            for _set in range(rng.randint(0, 4)):
                if n:
                    buf[rng.randrange(n)] = rng.getrandbits(8)
            data = bytes(buf)
        else:  # words summing to exact multiples of 0xFFFF
            data = b"\x12\x34\xed\xcb" * (n // 4) + b"\xff" * (n % 4)
        assert ones_sum(data) == reference_sum(data), (kind, n)


def random_data(rng, depth=0):
    """A random payload of any kind, small enough to materialize."""
    kind = rng.randrange(4 if depth < 2 else 3)
    n = rng.randint(0, 3 * 4096 + 7)
    if kind == 0:
        return RealData(rng.getrandbits(8 * n).to_bytes(n, "big"))
    if kind == 1:
        return ZeroData(n)
    if kind == 2:
        offset = rng.choice([0, 1, 4095, 4096, 4097, 8193]) + rng.randint(0, 9000)
        return PatternData(n, seed=rng.randrange(3), offset=offset)
    return concat(random_data(rng, depth + 1) for _ in range(rng.randint(2, 5)))


def test_checksum16_matches_reference_every_kind():
    rng = rng_for("checksum16")
    kinds = set()
    for _ in range(400):
        data = random_data(rng)
        kinds.add(type(data).__name__)
        start = rng.randint(0, data.length)
        stop = rng.randint(start, data.length)
        for piece in (data, data.slice(start, stop)):
            assert piece.checksum16() == reference_sum(piece.to_bytes()), (
                piece, start, stop)
    assert kinds == {"RealData", "ZeroData", "PatternData", "CompositeData"}


def test_pattern_checksum16_offsets_and_periods():
    """Even and odd offsets, offsets past the first period, and lengths that
    span several periods, against the materialized reference."""
    rng = rng_for("pattern")
    for offset in (0, 1, 2, 4095, 4096, 4097, 8191, 12_290, 1 << 20 | 3):
        for length in (0, 1, 2, 4095, 4096, 4097, 3 * 4096 + 1, 5 * 4096):
            p = PatternData(length, seed=11, offset=offset)
            assert p.checksum16() == reference_sum(p.to_bytes()), (offset, length)
    for _ in range(100):
        p = PatternData(rng.randint(0, 40_000), seed=rng.randrange(5),
                        offset=rng.randint(0, 1 << 24))
        assert p.checksum16() == reference_sum(p.to_bytes()), p


def test_composite_checksum16_odd_length_parts():
    parts = [RealData(b"\x01\x02\x03"), PatternData(4097, seed=2, offset=5),
             ZeroData(7), RealData(b"\xff"), PatternData(9, seed=4, offset=4096)]
    data = concat(parts)
    assert isinstance(data, CompositeData)
    assert data.checksum16() == reference_sum(data.to_bytes())


def test_real_data_caches_its_sum(monkeypatch):
    data = RealData(b"\x12\x34\x56")
    assert data.checksum16() == reference_sum(b"\x12\x34\x56")
    monkeypatch.setattr(cks, "ones_sum", None)  # any further sum would fail
    assert data.checksum16() == reference_sum(b"\x12\x34\x56")


def test_huge_payload_checksums_without_materializing(monkeypatch):
    """A 1 GiB pattern at an odd offset, and a composite holding it, sum
    in closed form: no materialization, and no byte sum over 4 KB."""
    summed = []
    real_sum = cks.ones_sum

    def counting_sum(data):
        summed.append(len(data))
        return real_sum(data)

    monkeypatch.setattr(cks, "ones_sum", counting_sum)
    monkeypatch.setattr(bytesim, "MATERIALIZE_LIMIT", 0)
    big = PatternData(1 << 30, seed=5, offset=4096 * 3 + 1)
    with pytest.raises(MemoryError):
        big.to_bytes()
    mid = (1 << 29) + 3
    halves = combine(big.slice(0, mid).checksum16(), mid,
                     big.slice(mid, big.length).checksum16())
    assert big.checksum16() == halves != 0

    composite = concat([RealData(b"\x01\x02\x03"), big, ZeroData(5),
                        PatternData((1 << 30) + 1, seed=6)])
    assert isinstance(composite, CompositeData)
    split = composite.length // 2 + 1
    halves = combine(composite.slice(0, split).checksum16(), split,
                     composite.slice(split, composite.length).checksum16())
    assert composite.checksum16() == halves
    assert summed and max(summed) <= 4096


# -- full checksum properties -------------------------------------------------


def test_checksum_verify_roundtrip_random():
    rng = rng_for("roundtrip")
    for _ in range(200):
        data = random_bytes(rng, rng.randint(0, 257))
        cksum = checksum(data)
        assert 1 <= cksum <= 0xFFFF  # canonical: never transmitted as 0
        assert verify(data, cksum)


def test_corruption_detected():
    """Flipping any single byte must invalidate the checksum (one's
    complement detects all single-unit errors)."""
    rng = rng_for("corrupt")
    for _ in range(100):
        data = bytearray(random_bytes(rng, rng.randint(1, 128)))
        cksum = checksum(bytes(data))
        idx = rng.randrange(len(data))
        flip = rng.randint(1, 255)
        data[idx] ^= flip
        assert not verify(bytes(data), cksum)


def test_combine_matches_concatenation():
    rng = rng_for("combine")
    for _ in range(200):
        a = random_bytes(rng, rng.randint(0, 99))
        b = random_bytes(rng, rng.randint(0, 99))
        combined = combine(ones_sum(a), len(a), ones_sum(b))
        assert finalize(combined) == checksum(a + b)


# -- incremental update vs full recompute -------------------------------------


def test_incremental_update_equals_recompute_random_mutations():
    """The core oracle: after arbitrary same-length splices anywhere in the
    message, RFC 1624 must agree with RFC 1071 recomputation."""
    rng = rng_for("mutate")
    for _ in range(300):
        data = bytearray(random_bytes(rng, rng.randint(2, 256)))
        cksum = checksum(bytes(data))
        for _mutation in range(rng.randint(1, 8)):
            length = rng.randint(1, min(16, len(data)))
            offset = rng.randint(0, len(data) - length)
            old = bytes(data[offset:offset + length])
            new = random_bytes(rng, length)
            cksum = update_checksum(
                cksum, old, new, odd_offset=bool(offset % 2)
            )
            data[offset:offset + length] = new
        assert cksum == checksum(bytes(data)), (
            f"incremental {cksum:#06x} != recomputed "
            f"{checksum(bytes(data)):#06x} for {bytes(data)!r}"
        )
        assert verify(bytes(data), cksum)


def test_incremental_update_identity():
    """Replacing bytes with themselves must leave the checksum unchanged."""
    rng = rng_for("identity")
    for _ in range(50):
        data = random_bytes(rng, rng.randint(4, 64))
        cksum = checksum(data)
        offset = rng.randint(0, len(data) - 2)
        chunk = data[offset:offset + 2]
        assert update_checksum(
            cksum, chunk, chunk, odd_offset=bool(offset % 2)
        ) == cksum


def test_incremental_update_rejects_length_mismatch():
    with pytest.raises(ValueError):
        update_checksum(0x1234, b"ab", b"abc")


# -- packet-level rewrites ----------------------------------------------------


def random_address(rng):
    return Address(
        f"host{rng.randrange(1000)}", rng.randrange(1, 0xFFFF)
    )


def test_packet_rewrites_keep_checksum_valid():
    """Random sequences of the µproxy's three rewrite primitives never
    desynchronize the packet checksum."""
    rng = rng_for("packet")
    for _ in range(100):
        pkt = Packet(
            random_address(rng), random_address(rng),
            random_bytes(rng, rng.randint(8, 128)),
        ).fill_checksum()
        for _step in range(rng.randint(1, 10)):
            op = rng.randrange(3)
            if op == 0:
                pkt.rewrite_dst(random_address(rng))
            elif op == 1:
                pkt.rewrite_src(random_address(rng))
            else:
                length = rng.randint(1, min(8, len(pkt.header)))
                offset = rng.randint(0, len(pkt.header) - length)
                pkt.rewrite_header(offset, random_bytes(rng, length))
            assert pkt.checksum_ok(), (
                f"checksum broke after op {op}: "
                f"{pkt.cksum:#06x} != {pkt.compute_checksum():#06x}"
            )
        assert pkt.cksum == pkt.compute_checksum()


def test_fuzz_is_deterministic():
    """Two RandomStreams with the same seed produce identical mutations —
    any failure above reproduces exactly."""
    a = RandomStreams(SEED).stream("mutate")
    b = RandomStreams(SEED).stream("mutate")
    assert [a.getrandbits(32) for _ in range(16)] == [
        b.getrandbits(32) for _ in range(16)
    ]
