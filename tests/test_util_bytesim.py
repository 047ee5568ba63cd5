"""Tests for the lazy Data payload abstraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bytesim import (
    EMPTY,
    CompositeData,
    Data,
    PatternData,
    RealData,
    ZeroData,
    concat,
)


def test_real_data_roundtrip():
    d = RealData(b"hello world")
    assert d.length == 11
    assert d.to_bytes() == b"hello world"
    assert d.byte_at(0) == ord("h")


def test_real_data_slice():
    d = RealData(b"hello world")
    assert d.slice(0, 5).to_bytes() == b"hello"
    assert d.slice(6, 11).to_bytes() == b"world"
    assert d.slice(6, 100).to_bytes() == b"world"  # clamped
    assert d.slice(5, 5) is EMPTY


def test_real_data_eq_bytes():
    assert RealData(b"abc") == b"abc"
    assert RealData(b"abc") != b"abd"


def test_zero_data():
    z = ZeroData(5)
    assert z.to_bytes() == b"\x00\x00\x00\x00\x00"
    assert z == RealData(b"\x00" * 5)
    assert z.checksum16() == 0
    assert z.byte_at(3) == 0


def test_pattern_data_deterministic():
    a = PatternData(1000, seed=42)
    b = PatternData(1000, seed=42)
    assert a.to_bytes() == b.to_bytes()
    assert a == b
    assert PatternData(1000, seed=43) != a


def test_pattern_slice_matches_bytes_slice():
    p = PatternData(10000, seed=7)
    raw = p.to_bytes()
    s = p.slice(1234, 5678)
    assert s.to_bytes() == raw[1234:5678]


def test_pattern_offset_shifts_stream():
    p = PatternData(100, seed=7, offset=50)
    full = PatternData(150, seed=7).to_bytes()
    assert p.to_bytes() == full[50:150]


def test_pattern_crosses_period_boundary():
    p = PatternData(9000, seed=1, offset=4000)
    raw = PatternData(13000, seed=1).to_bytes()
    assert p.to_bytes() == raw[4000:13000]


def test_huge_pattern_not_materialized():
    p = PatternData(1 << 31, seed=1)  # 2 GB
    assert p.length == 1 << 31
    with pytest.raises(MemoryError):
        p.to_bytes()
    # Slicing and equality-of-definition still work without materializing.
    assert p.slice(0, 64).length == 64
    assert p == PatternData(1 << 31, seed=1)
    assert p != PatternData(1 << 31, seed=2)


def test_huge_pattern_equality_ignores_whole_periods():
    """Above the materialization limit, offsets a whole period apart name
    the same content, so they compare and hash equal."""
    n = (1 << 26) + 2
    assert PatternData(n, 3, 0) == PatternData(n, 3, 4096)
    assert hash(PatternData(n, 3, 1)) == hash(PatternData(n, 3, 4096 * 7 + 1))
    assert PatternData(n, 3, 0) != PatternData(n, 3, 1)
    assert PatternData(n, 3, 0).checksum16() == PatternData(n, 3, 4096).checksum16()


def test_concat_basics():
    d = concat([RealData(b"ab"), RealData(b"cd"), ZeroData(2)])
    assert d.to_bytes() == b"abcd\x00\x00"
    assert d.length == 6


def test_concat_flattens_composites():
    inner = concat([RealData(b"a" * 40000), RealData(b"b" * 40000)])
    outer = concat([inner, RealData(b"c")])
    if isinstance(outer, CompositeData):
        assert all(
            not isinstance(p, CompositeData) for p in outer.parts
        )


def test_concat_merges_adjacent_patterns():
    p = PatternData(1000, seed=3)
    merged = concat([p.slice(0, 400), p.slice(400, 1000)])
    assert isinstance(merged, PatternData)
    assert merged == p


def test_concat_merges_zeros():
    merged = concat([ZeroData(10), ZeroData(20)])
    assert isinstance(merged, ZeroData)
    assert merged.length == 30


def test_composite_slice_and_byte_at():
    d = concat([PatternData(100, seed=1), ZeroData(50), RealData(b"xyz")])
    raw = d.to_bytes()
    assert d.slice(90, 160).to_bytes() == raw[90:160]
    for i in (0, 99, 100, 149, 150, 152):
        assert d.byte_at(i) == raw[i]


def test_data_equality_across_representations():
    raw = PatternData(256, seed=9).to_bytes()
    assert PatternData(256, seed=9) == RealData(raw)
    assert concat([PatternData(128, seed=9), PatternData(128, seed=9, offset=128)]) == RealData(raw)


@given(st.binary(max_size=200), st.integers(0, 220), st.integers(0, 220))
def test_real_slice_property(content, start, stop):
    d = RealData(content)
    assert d.slice(start, stop).to_bytes() == content[max(0, start):stop]


@settings(max_examples=50)
@given(
    st.lists(
        st.one_of(
            st.binary(max_size=64).map(RealData),
            st.integers(0, 64).map(ZeroData),
            st.tuples(st.integers(0, 64), st.integers(0, 3)).map(
                lambda t: PatternData(t[0], seed=t[1])
            ),
        ),
        max_size=6,
    ),
    st.integers(0, 300),
    st.integers(0, 300),
)
def test_concat_slice_matches_bytes(parts, start, stop):
    d = concat(parts)
    raw = d.to_bytes()
    assert d.to_bytes() == b"".join(p.to_bytes() for p in parts)
    expected = raw[max(0, start):max(0, stop)] if stop > start else b""
    assert d.slice(start, stop).to_bytes() == expected


@given(st.binary(max_size=500))
def test_fingerprint_equality_matches_content(content):
    assert RealData(content) == RealData(bytes(content))
    if content:
        mutated = bytes([content[0] ^ 1]) + content[1:]
        assert RealData(content) != RealData(mutated)
