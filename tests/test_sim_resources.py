"""Unit tests for the Resource and Store queueing primitives."""

import pytest

from repro.sim import Resource, Simulator, Store
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
