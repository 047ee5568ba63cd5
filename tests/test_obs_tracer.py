"""Unit tests for the repro.obs tracer: spans, ledgers and its own counts."""

import pytest

from repro.net import Address, Packet
from repro.obs import Tracer, all_tracers
from repro.obs.trace import INTENT_COMPLETED, INTENT_OPEN, INTENT_RECOVERED

CLIENT = Address("client0", 700)


def make_exchange(tracer, xid=7, proc=6, ts=1.0):
    tid = tracer.call_intercepted(CLIENT, xid, proc, ts, size=128)
    return tid


# -- exchange / span bookkeeping ------------------------------------------


def test_call_intercepted_allocates_trace_ids():
    tracer = Tracer()
    tid1 = make_exchange(tracer, xid=1)
    tid2 = make_exchange(tracer, xid=2)
    assert tid1 != 0 and tid2 != 0 and tid1 != tid2
    assert tracer.trace_id_of(CLIENT, 1) == tid1
    assert tracer.trace_id_of(CLIENT, 2) == tid2
    assert tracer.trace_id_of(CLIENT, 99) == 0  # unknown exchange


def test_retransmission_reuses_exchange():
    tracer = Tracer()
    tid1 = make_exchange(tracer, xid=5, ts=1.0)
    tid2 = make_exchange(tracer, xid=5, ts=1.5)  # client retransmit
    assert tid1 == tid2
    exchange = tracer.exchange(CLIENT, 5)
    assert exchange.n_calls == 2


def test_span_tree_nesting():
    tracer = Tracer()
    make_exchange(tracer, xid=3, ts=0.0)
    tracer.route(CLIENT, 3, 0.001, Address("dir0", 3049), "name-entry",
                 site=2)
    tracer.reply_sent(CLIENT, 3, 0.004)
    exchange = tracer.exchange(CLIENT, 3)
    tree = exchange.tree()
    assert tree["component"] == "uproxy"
    assert tree["name"] == "exchange"
    # The root's children: the call span and the reply span.
    names = [child["name"] for child in tree["children"]]
    assert names == ["call", "reply"]
    call_node = tree["children"][0]
    # The route decision nests under the call that triggered it.
    assert [c["name"] for c in call_node["children"]] == ["route"]
    assert call_node["children"][0]["attrs"]["reason"] == "name-entry"
    assert call_node["children"][0]["attrs"]["site"] == 2
    # Replying closes the root span.
    assert exchange.root.end_ts == 0.004
    assert exchange.root.duration == pytest.approx(0.004)


def test_format_is_human_readable():
    tracer = Tracer()
    make_exchange(tracer, xid=9)
    tracer.route(CLIENT, 9, 1.1, Address("store0", 4049), "bulk-read",
                 site=0, block=4)
    text = tracer.exchange(CLIENT, 9).format()
    assert "uproxy/route" in text
    assert "reason=bulk-read" in text


def test_split_and_segments_recorded():
    tracer = Tracer()
    make_exchange(tracer, xid=11, proc=6)
    segs = [(0, 65536), (65536, 65536)]
    tracer.split(CLIENT, 11, 1.0, "read", 0, 131072, segs)
    tracer.segment(CLIENT, 11, 1.2, 0, 65536, Address("sf0", 3050), 0)
    exchange = tracer.exchange(CLIENT, 11)
    assert exchange.splits == [("read", 0, 131072, segs)]
    kinds = [s.name for s in exchange.spans]
    assert "split" in kinds and "segment" in kinds


def test_capacity_eviction():
    tracer = Tracer(capacity=4)
    for xid in range(10):
        make_exchange(tracer, xid=xid)
    assert len(tracer.exchanges) == 4
    assert tracer.evicted == 6
    # Evicted exchanges no longer resolve by trace id.
    assert tracer.trace_id_of(CLIENT, 0) == 0
    assert tracer.trace_id_of(CLIENT, 9) != 0


# -- packet-facing hooks -----------------------------------------------------


def test_rewrite_check_records_pair():
    tracer = Tracer()
    tid = make_exchange(tracer, xid=21)
    pkt = Packet(CLIENT, Address("slice-fs", 2049), b"\x00" * 32,
                 trace_id=tid)
    pkt.fill_checksum()
    pkt.rewrite_dst(Address("dir1", 3049))
    tracer.rewrite_check(pkt, "redirect")
    exchange = tracer.exchange(CLIENT, 21)
    assert len(exchange.rewrite_checks) == 1
    where, incremental, recomputed = exchange.rewrite_checks[0]
    assert where == "redirect"
    assert incremental == recomputed  # rewrite_dst adjusts correctly


def test_packet_delivery_checksum_verification():
    tracer = Tracer()
    good = Packet(CLIENT, Address("dir0", 3049), b"abcd1234").fill_checksum()
    tracer.packet_delivered(good, 1.0)
    assert not tracer.checksum_failures
    bad = Packet(CLIENT, Address("dir0", 3049), b"abcd1234").fill_checksum()
    bad.header = b"abcd9999"  # corrupt without fixing the checksum
    tracer.packet_delivered(bad, 1.1)
    assert len(tracer.checksum_failures) == 1
    assert tracer.packets_checked == 2


def test_server_spans_attach_via_trace_id():
    tracer = Tracer()
    tid = make_exchange(tracer, xid=31)
    span = tracer.server_begin("dirsvc:dir0", tid, 3, 2.0)
    tracer.server_end(span, 2.5, status=0)
    exchange = tracer.exchange(CLIENT, 31)
    handled = [s for s in exchange.spans if s.name == "handle"]
    assert len(handled) == 1
    assert handled[0].component == "dirsvc:dir0"
    assert handled[0].duration == pytest.approx(0.5)
    # Unknown trace ids don't create spans but still count.
    assert tracer.server_begin("dirsvc:dir0", 0, 3, 2.0) is None


# -- intent lifecycle -------------------------------------------------------


def test_intent_lifecycle():
    tracer = Tracer()
    tracer.intent_logged(0xAA, 1, 1.0)
    tracer.intent_logged(0xBB, 1, 1.0)
    tracer.intent_logged(0xCC, 2, 1.0)
    assert sorted(tracer.open_intents()) == [0xAA, 0xBB, 0xCC]
    tracer.intent_completed(0xAA, 2.0)
    tracer.intent_recovered(0xBB, 12.0)
    assert tracer.open_intents() == [0xCC]
    assert tracer.intents[0xAA][0] == INTENT_COMPLETED
    assert tracer.intents[0xBB][0] == INTENT_RECOVERED
    assert tracer.intents[0xCC][0] == INTENT_OPEN


# -- the tracer's own counts and histograms ---------------------------------


def test_tracer_metrics_integration():
    tracer = Tracer()
    make_exchange(tracer, xid=41)
    tracer.route(CLIENT, 41, 1.0, Address("sf0", 3050), "small-file")
    tracer.absorb(CLIENT, 41, 1.1, "commit")
    tracer.reply_sent(CLIENT, 41, 1.2)
    # Only what needs trace context is counted here; calls and replies
    # are the µproxy's own counters.
    assert tracer.counts == {
        "uproxy.route.small-file": 1,
        "uproxy.absorb.commit": 1,
    }
    span = tracer.server_begin("storage:store1", 0, 6, 2.0)
    tracer.server_end(span, 2.5)  # trace id 0: no exchange, no span
    tid = tracer.trace_id_of(CLIENT, 41)
    tracer.server_end(tracer.server_begin("storage:store1", tid, 6, 2.0),
                      2.004)
    hist = tracer.histograms["storage:store1.handle_s"]
    assert hist.count == 1
    assert hist.mean() == pytest.approx(0.004)


def test_metrics_format_tables():
    from repro.metrics import LatencyRecorder, metric_tables

    hist = LatencyRecorder("storage:store1.handle_s")
    hist.record(0.00021)
    text = metric_tables({"net.packets_delivered": 42},
                         {"storage:store1.handle_s": hist})
    assert "net.packets_delivered" in text
    assert "42" in text
    # Sub-millisecond seconds keep their significant digits.
    assert "storage:store1.handle_s" in text and "0.00021" in text
    assert metric_tables({}) == "(no metrics recorded)"


def test_all_tracers_registry_is_weak():
    import gc

    # Earlier tests may have left tracers inside uncollected reference
    # cycles; collect first so the baseline only counts truly-live tracers.
    gc.collect()
    before = len(all_tracers())
    tracer = Tracer()
    assert len(all_tracers()) == before + 1
    del tracer
    gc.collect()
    assert len(all_tracers()) == before


def test_summary_counts():
    tracer = Tracer()
    make_exchange(tracer, xid=51)
    tracer.split(CLIENT, 51, 1.0, "write", 0, 100, [(0, 100)])
    tracer.reply_sent(CLIENT, 51, 1.5, synthesized=True)
    tracer.intent_logged(1, 1, 1.0)
    summary = tracer.summary()
    assert summary["exchanges"] == 1
    assert summary["calls"] == 1
    assert summary["replies"] == 1
    assert summary["splits"] == 1
    assert summary["intents"] == 1
    assert summary["open_intents"] == 1
