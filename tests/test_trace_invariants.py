"""Trace-replay invariants over whole-cluster scenarios.

Every test attaches a :class:`~repro.obs.Tracer` to a full Slice ensemble,
drives a workload through the NFS client + µproxy, then replays the traces
with :class:`~repro.obs.TraceChecker`.  Negative tests *inject* protocol
bugs (double replies, overlapping split segments, checksum desync) and
assert the checker catches them — the oracle itself is under test.
"""

import pytest

from repro.ensemble.cluster import SliceCluster
from repro.ensemble.params import ClusterParams
from repro.net import Address, Packet
from repro.nfs.errors import NFS3_OK
from repro.nfs.types import FILE_SYNC
from repro.obs import InvariantViolation, TraceChecker, Tracer
from repro.sim.rand import RandomStreams
from repro.util.bytesim import PatternData, RealData
from repro.workloads.untar import UntarSpec, UntarWorkload

from drops import DropWhen

pytestmark = pytest.mark.trace


def traced_cluster(**overrides):
    defaults = dict(
        num_storage_nodes=4,
        num_dir_servers=2,
        num_sf_servers=2,
        dir_logical_sites=8,
        sf_logical_sites=8,
    )
    defaults.update(overrides)
    tracer = Tracer()
    cluster = SliceCluster(params=ClusterParams(**defaults), tracer=tracer)
    return cluster, tracer


def drain_and_check(cluster, tracer, **kwargs):
    """Let in-flight async work (intent completions, attribute write-backs,
    watchdog recovery) land, then assert every invariant."""
    cluster.sim.run(until=cluster.sim.now + 60.0)
    return TraceChecker(tracer).check(**kwargs)


# -- positive: real workloads satisfy the invariants -------------------------


def test_small_file_exchanges_satisfy_invariants():
    cluster, tracer = traced_cluster()
    client, _proxy = cluster.add_client()
    payload = RealData(b"trace me end to end")

    def run():
        created = yield from client.create(cluster.root_fh, "obs.txt")
        assert created.status == NFS3_OK
        yield from client.write_file(created.fh, payload)
        data = yield from client.read_file(created.fh, payload.length)
        return data

    data = cluster.run(run())
    assert data == payload
    summary = drain_and_check(cluster, tracer)
    assert summary["exchanges"] > 0
    assert summary["replies"] >= summary["exchanges"]
    assert summary["checksum_failures"] == 0
    # Every redirect's differential checksum adjustment was validated.
    assert summary["rewrites_checked"] > 0


def test_bulk_striped_io_satisfies_invariants():
    cluster, tracer = traced_cluster()
    client, _proxy = cluster.add_client()
    size = 2 << 20
    payload = PatternData(size, seed=3)

    def run():
        created = yield from client.create(cluster.root_fh, "bulk.bin")
        yield from client.write_file(created.fh, payload)
        data = yield from client.read_file(created.fh, size)
        return data

    data = cluster.run(run())
    assert data == payload
    summary = drain_and_check(cluster, tracer)
    assert summary["exchanges"] > 10
    # Bulk traffic crossed the fabric with checksums verified en route.
    assert summary["packets_checked"] > 0


def test_unaligned_split_io_segments_tile():
    """An I/O straddling the small/bulk threshold is scattered; its recorded
    segments must tile the original range exactly."""
    cluster, tracer = traced_cluster()
    client, _proxy = cluster.add_client()
    threshold = cluster.params.io.threshold
    offset = threshold - 8192
    count = 3 * 8192  # straddles the threshold boundary

    def run():
        created = yield from client.create(cluster.root_fh, "straddle.bin")
        res = yield from client.write(
            created.fh, offset, PatternData(count, seed=9), FILE_SYNC
        )
        assert res.status == NFS3_OK
        rres, data = yield from client.read(created.fh, offset, count)
        return rres, data

    rres, _data = cluster.run(run())
    assert rres.status == NFS3_OK
    summary = drain_and_check(cluster, tracer)
    assert summary["splits"] >= 2  # the write and the read both split
    split_kinds = {
        kind
        for exch in tracer.exchanges.values()
        for kind, _o, _c, _s in exch.splits
    }
    assert split_kinds == {"read", "write"}


def test_commit_fanout_closes_every_intention():
    cluster, tracer = traced_cluster()
    client, _proxy = cluster.add_client()
    size = 1 << 20

    def run():
        created = yield from client.create(cluster.root_fh, "commit.bin")
        yield from client.write_file(created.fh, PatternData(size, seed=4))
        cres = yield from client.commit(created.fh)
        assert cres.status == NFS3_OK
        return created.fh

    cluster.run(run())
    summary = drain_and_check(cluster, tracer)
    # The striped write dirtied multiple sites -> the commit fan-out went
    # through the coordinator's intention log, and every intention closed.
    assert summary["intents"] > 0
    assert summary["open_intents"] == 0


def test_untar_under_packet_loss_still_passes():
    """Retransmission hides loss; the invariants must hold regardless."""
    cluster, tracer = traced_cluster()
    client, _proxy = cluster.add_client()
    rng = RandomStreams(77).stream("loss")
    workload = UntarWorkload(
        client, cluster.root_fh, UntarSpec(total_entries=40), prefix="p0"
    )

    def run():
        cluster.net.fault_injector = DropWhen(lambda pkt: rng.random() < 0.03)
        result = yield from workload.run()
        cluster.net.fault_injector = None
        return result

    entries, _ops, _elapsed = cluster.run(run())
    assert entries == 40
    cluster.net.fault_injector = None
    summary = drain_and_check(cluster, tracer)
    assert summary["exchanges"] > 100
    # Loss-induced retransmissions mean some exchanges carry multiple calls.
    assert summary["calls"] >= summary["exchanges"]


def test_proxy_state_loss_keeps_invariants():
    cluster, tracer = traced_cluster()
    client, proxy = cluster.add_client()
    payload = PatternData(256 << 10, seed=6)

    def run():
        created = yield from client.create(cluster.root_fh, "loss.bin")
        yield from client.write_file(created.fh, payload)
        proxy.discard_state()  # legal at any time (§2.1)
        data = yield from client.read_file(created.fh, payload.length)
        return data

    data = cluster.run(run())
    assert data == payload
    drain_and_check(cluster, tracer)


# -- negative: injected bugs must be caught ----------------------------------


def test_injected_double_reply_is_caught():
    """Bug injection: the µproxy synthesizes every reply twice.  The
    reply-unique invariant (at most one reply per client call) must fire."""
    cluster, tracer = traced_cluster()
    client, proxy = cluster.add_client()
    original = type(proxy)._synthesize_reply

    def double_reply(self, client_addr, xid, res):
        original(self, client_addr, xid, res)
        original(self, client_addr, xid, res)

    proxy._synthesize_reply = double_reply.__get__(proxy)

    def run():
        created = yield from client.create(cluster.root_fh, "dup.bin")
        res = yield from client.write(
            created.fh, 0, PatternData(8192, seed=2)
        )
        assert res.status == NFS3_OK
        # The uncommitted write dirtied the attribute cache, so this GETATTR
        # is absorbed and its reply synthesized -> duplicated by the bug.
        gres = yield from client.getattr(created.fh)
        assert gres.status == NFS3_OK

    cluster.run(run())
    cluster.sim.run(until=cluster.sim.now + 60.0)
    with pytest.raises(InvariantViolation) as excinfo:
        TraceChecker(tracer).check()
    assert any(v.rule == "reply-unique" for v in excinfo.value.violations)


def test_injected_overlapping_segments_are_caught():
    """Bug injection: the segment splitter emits overlapping ranges.  The
    segments-tile invariant must fire."""
    cluster, tracer = traced_cluster()
    client, proxy = cluster.add_client()
    original = type(proxy)._io_segments

    def overlapping(self, offset, count):
        segments = original(self, offset, count)
        if len(segments) > 1:
            # Grow the first segment into the second's range.
            first_off, first_len = segments[0]
            segments[0] = (first_off, first_len + 4096)
        return segments

    proxy._io_segments = overlapping.__get__(proxy)
    threshold = cluster.params.io.threshold

    def run():
        created = yield from client.create(cluster.root_fh, "overlap.bin")
        yield from client.write(
            created.fh, threshold - 8192,
            PatternData(16384, seed=8), FILE_SYNC,
        )

    cluster.run(run())
    cluster.sim.run(until=cluster.sim.now + 60.0)
    with pytest.raises(InvariantViolation) as excinfo:
        TraceChecker(tracer).check(require_replies=False)
    assert any(v.rule == "segments-tile" for v in excinfo.value.violations)


def test_checker_catches_gap_and_out_of_order_segments():
    tracer = Tracer()
    client = Address("c0", 700)
    tracer.call_intercepted(client, 1, 7, 0.0)
    tracer.split(client, 1, 0.0, "write", 0, 100, [(0, 40), (60, 40)])
    tracer.reply_sent(client, 1, 0.1)
    violations = TraceChecker(tracer).violations()
    assert [v.rule for v in violations] == ["segments-tile"]
    assert "gap" in violations[0].detail

    tracer2 = Tracer()
    tracer2.call_intercepted(client, 2, 7, 0.0)
    tracer2.split(client, 2, 0.0, "read", 0, 100, [(50, 50), (0, 50)])
    tracer2.reply_sent(client, 2, 0.1)
    violations = TraceChecker(tracer2).violations()
    assert any("out of order" in v.detail for v in violations)


def test_checker_catches_checksum_delta_mismatch():
    tracer = Tracer()
    client = Address("c0", 700)
    tid = tracer.call_intercepted(client, 3, 4, 0.0)
    pkt = Packet(client, Address("slice-fs", 2049), b"\x01" * 16,
                 trace_id=tid).fill_checksum()
    pkt.cksum = (pkt.cksum + 1) & 0xFFFF or 1  # desync incremental value
    tracer.rewrite_check(pkt, "redirect")
    tracer.reply_sent(client, 3, 0.1)
    violations = TraceChecker(tracer).violations()
    assert [v.rule for v in violations] == ["checksum-delta"]


def test_checker_catches_missing_reply_and_open_intent():
    tracer = Tracer()
    client = Address("c0", 700)
    tracer.call_intercepted(client, 4, 1, 0.0)  # call, never answered
    tracer.intent_logged(0xDEAD, 1, 0.0)  # intention, never closed
    rules = {v.rule for v in TraceChecker(tracer).violations()}
    assert rules == {"reply-present", "intent-closed"}
    # Both are tolerated when the run legitimately abandons work.
    assert TraceChecker(tracer).violations(
        require_replies=False, allow_open_intents=True
    ) == []


def test_checker_catches_fabric_checksum_failure():
    tracer = Tracer()
    bad = Packet(Address("a", 1), Address("b", 2), b"data").fill_checksum()
    bad.header = b"daTa"
    tracer.packet_delivered(bad, 1.0)
    violations = TraceChecker(tracer).violations()
    assert [v.rule for v in violations] == ["packet-checksum"]
