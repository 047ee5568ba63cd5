"""Unit tests for the Resource, Link and Store queueing primitives."""

import pytest

from repro.sim import Link, Resource, Simulator, Store
from repro.sim.rand import RandomStreams


def test_resource_serial_service():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    finish_times = []

    def job():
        yield from cpu.use(2.0)
        finish_times.append(sim.now)

    for _ in range(3):
        sim.process(job())
    sim.run()
    assert finish_times == [2.0, 4.0, 6.0]


def test_resource_parallel_capacity():
    sim = Simulator()
    pool = Resource(sim, capacity=2)
    finish_times = []

    def job():
        yield from pool.use(2.0)
        finish_times.append(sim.now)

    for _ in range(4):
        sim.process(job())
    sim.run()
    assert finish_times == [2.0, 2.0, 4.0, 4.0]


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def job(tag, arrive):
        yield sim.timeout(arrive)
        yield from res.use(1.0)
        order.append(tag)

    sim.process(job("b", 0.2))
    sim.process(job("a", 0.1))
    sim.process(job("c", 0.3))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_release_ungranted_request_drops_from_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()  # granted immediately
    assert held.triggered
    waiting = res.request()
    assert not waiting.triggered
    res.release(waiting)  # cancel before grant
    res.release(held)
    assert res.in_use == 0
    assert res.queue_length == 0


def test_resource_utilization_tracking():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def job():
        yield from res.use(3.0)
        yield sim.timeout(1.0)

    sim.process(job())
    sim.run()
    assert res.busy_time() == pytest.approx(3.0)
    assert res.utilization() == pytest.approx(3.0 / 4.0)


def test_resource_utilization_while_busy():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def job():
        yield from res.use(10.0)

    sim.process(job())
    sim.run(until=5.0)
    assert res.busy_time() == pytest.approx(5.0)


def test_resource_sums_the_wait_of_every_grant():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def job(arrive):
        yield sim.timeout(arrive)
        yield from res.use(2.0)

    for arrive in (0.0, 0.5, 1.0):
        sim.process(job(arrive))
    sim.run(until=2.5)
    # Granted at 0 (no wait) and at 2 (waited 1.5); the third still queues.
    assert res.wait_time == 1.5
    assert res.stats()["wait_time"] == 1.5
    sim.run()
    assert res.wait_time == 1.5 + 3.0


def test_link_departures_follow_lindley():
    sim = Simulator()
    link = Link(sim)
    assert link.reserve(2.0) == 2.0
    assert link.reserve(1.0) == 3.0  # queues behind the first
    sim.run(until=5.0)
    assert link.reserve(1.0) == 6.0  # idle link: starts now
    assert link.busy_time() == 3.0


def test_link_reads_like_a_resource():
    """Mid-service, queued, and after: every reading is the one a
    capacity-1 Resource serving the same claims reads."""
    sim = Simulator()
    link, res = Link(sim), Resource(sim, capacity=1)

    def claim(duration):
        link.reserve(duration)
        yield from res.use(duration)

    def arrivals():
        for gap, duration in ((0.0, 2.0), (0.5, 1.0), (0.25, 0.5),
                              (3.0, 1.0)):
            yield sim.timeout(gap)
            sim.process(claim(duration))

    sim.process(arrivals())
    # Between events, and at departures (2, 3, 3.5 and 4.75), where the
    # departed claim is released and the next one is in service.
    for when in (0.1, 0.6, 1.0, 2.0, 2.1, 3.0, 3.2, 3.5, 3.9, 4.5, 4.75,
                 10.0):
        sim.run(until=when)
        assert link.stats() == res.stats(), when
    assert link.stats()["total_served"] == 4
    assert link.peak_queue == 2


def test_link_tie_counts_a_claim_scheduled_before_the_departing_start():
    """A claim that reaches the link in the very instant it frees queues
    for no time if it was scheduled before the departing claim started,
    which is the order a process-driven Resource sees the two in."""
    sim = Simulator()
    early, late = Link(sim), Link(sim)
    sim.run(until=0.5)
    for link in (early, late):
        link.reserve(1.0)
    sim.run(until=1.5)
    early.reserve(1.0, asked=0.25)
    late.reserve(1.0, asked=1.0)
    assert (early.peak_queue, late.peak_queue) == (1, 0)
    assert early.wait_time == late.wait_time == 0.0


def test_resource_rejects_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")

    def consumer():
        item = yield store.get()
        return item

    assert sim.run_process(consumer()) == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (item, sim.now)

    def producer():
        yield sim.timeout(4)
        store.put("late")

    sim.process(producer())
    assert sim.run_process(consumer()) == ("late", 4)


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        while True:
            item = yield store.get()
            got.append(item)

    sim.process(consumer())
    for i in range(5):
        store.put(i)
    sim.run()
    assert got == [0, 1, 2, 3, 4]
    assert len(store) == 0


def test_random_streams_are_deterministic():
    a = RandomStreams(7).stream("disk")
    b = RandomStreams(7).stream("disk")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_random_streams_are_independent():
    streams = RandomStreams(7)
    disk = streams.stream("disk")
    net = streams.stream("net")
    seq1 = [disk.random() for _ in range(3)]
    fresh = RandomStreams(7)
    fresh.stream("net").random()  # consuming net must not perturb disk
    seq2 = [fresh.stream("disk").random() for _ in range(3)]
    assert seq1 == seq2


def test_random_streams_fork_differs_from_parent():
    parent = RandomStreams(7)
    child = parent.fork("client-1")
    assert parent.stream("x").random() != child.stream("x").random()
