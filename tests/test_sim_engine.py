"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.sim import Interrupt, Resource, Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return sim.now

    assert sim.run_process(proc()) == 1.5
    assert sim.now == 1.5


def test_timeouts_fire_in_order():
    sim = Simulator()
    seen = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        seen.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    seen = []

    def waiter(tag):
        yield sim.timeout(1.0)
        seen.append(tag)

    for tag in range(10):
        sim.process(waiter(tag))
    sim.run()
    assert seen == list(range(10))


def test_zero_delay_timeout():
    sim = Simulator()

    def proc():
        yield sim.timeout(0)
        return "done"

    assert sim.run_process(proc()) == "done"
    assert sim.now == 0.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_event_value_passes_to_waiter():
    sim = Simulator()
    ev = sim.event()

    def setter():
        yield sim.timeout(2)
        ev.succeed(42)

    def getter():
        value = yield ev
        return value

    sim.process(setter())
    assert sim.run_process(getter()) == 42


def test_event_failure_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def setter():
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))

    def getter():
        try:
            yield ev
        except ValueError as exc:
            return str(exc)
        return "no error"

    sim.process(setter())
    assert sim.run_process(getter()) == "boom"


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_waiting_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # process the event

    def late():
        value = yield ev
        return value

    assert sim.run_process(late()) == "early"


def test_process_waits_for_process():
    sim = Simulator()

    def inner():
        yield sim.timeout(5)
        return "inner-result"

    def outer():
        result = yield sim.process(inner())
        return (result, sim.now)

    assert sim.run_process(outer()) == ("inner-result", 5)


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def inner():
        yield sim.timeout(1)
        raise RuntimeError("inner died")

    def outer():
        try:
            yield sim.process(inner())
        except RuntimeError as exc:
            return f"caught: {exc}"
        return "no exception"

    assert sim.run_process(outer()) == "caught: inner died"


def test_uncaught_process_crash_is_recorded():
    sim = Simulator()

    def doomed():
        yield sim.timeout(1)
        raise RuntimeError("unobserved")

    sim.process(doomed())
    sim.run()
    assert len(sim.crashed_processes) == 1
    when, _proc, exc = sim.crashed_processes[0]
    assert when == 1
    assert str(exc) == "unobserved"


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)
        return "slept through"

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(3)
        proc.interrupt("wake up")

    sim.process(interrupter())
    sim.run()
    assert proc.value == ("interrupted", "wake up", 3)


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()


def test_run_until_stops_clock():
    sim = Simulator()
    seen = []

    def ticker():
        while True:
            yield sim.timeout(1)
            seen.append(sim.now)

    sim.process(ticker())
    sim.run(until=5)
    assert seen == [1, 2, 3, 4, 5]
    assert sim.now == 5


def test_run_until_advances_clock_past_last_event():
    sim = Simulator()

    def once():
        yield sim.timeout(2)

    sim.process(once())
    sim.run(until=10)
    assert sim.now == 10


def test_any_of_first_wins():
    sim = Simulator()

    def proc():
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(5, value="slow")
        result = yield sim.any_of([fast, slow])
        return (list(result.values()), sim.now)

    values, now = sim.run_process(proc())
    assert values == ["fast"]
    assert now == 1


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        a = sim.timeout(1, value="a")
        b = sim.timeout(5, value="b")
        result = yield sim.all_of([a, b])
        return (sorted(result.values()), sim.now)

    values, now = sim.run_process(proc())
    assert values == ["a", "b"]
    assert now == 5


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def proc():
        yield sim.all_of([])
        return sim.now

    assert sim.run_process(proc()) == 0


def test_deadlock_detected_by_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_process(stuck())


def test_nested_immediate_resume_does_not_recurse():
    """A long chain of already-processed events must not blow the stack."""
    sim = Simulator()
    events = [sim.event() for _ in range(5000)]
    for ev in events:
        ev.succeed(1)
    sim.run()  # process all events so waits resume inline

    def proc():
        total = 0
        for ev in events:
            total += yield ev
        return total

    assert sim.run_process(proc()) == 5000


# -- spawn: processes nobody waits for ---------------------------------------


def _eid_after(start_name):
    sim = Simulator()

    def quick():
        yield sim.timeout(1)
        return "done"

    proc = getattr(sim, start_name)(quick())
    sim.run()
    assert proc.processed and proc.value == "done"
    return sim._eid


def test_spawned_process_end_costs_no_event():
    assert _eid_after("spawn") == _eid_after("process") - 1


def test_spawned_process_crash_is_recorded():
    sim = Simulator()

    def doomed():
        yield sim.timeout(2)
        raise RuntimeError("spawned and died")

    proc = sim.spawn(doomed())
    sim.run()
    assert [(when, p, str(exc)) for when, p, exc in sim.crashed_processes] \
        == [(2, proc, "spawned and died")]
    assert not proc.ok


def test_spawned_process_with_a_waiter_still_wakes_it():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        return 7

    def parent():
        return (yield sim.spawn(child()))

    assert sim.run_process(parent()) == 7


def _callback_log(start_name, seed):
    """(time, tag) of every resumption in a seeded random process tree;
    children nobody waits for are started with ``start_name``."""
    import random

    rng = random.Random(seed)
    sim = Simulator()
    start = getattr(sim, start_name)
    log = []
    shared = [sim.event() for _ in range(4)]

    def node(tag, depth):
        log.append((sim.now, tag, "start"))
        for step in range(rng.randrange(1, 4)):
            choice = rng.random()
            if choice < 0.4:
                yield sim.timeout(rng.choice((0, 0, 0.5, 1, 2.5)))
            elif choice < 0.55 and depth < 4:
                # An awaited child: always a full process.
                value = yield sim.process(node(f"{tag}.w{step}", depth + 1))
                log.append((sim.now, tag, "joined", value))
            elif choice < 0.85 and depth < 4:
                start(node(f"{tag}.s{step}", depth + 1))
            else:
                ev = rng.choice(shared)
                if ev.triggered:
                    yield ev
                else:
                    ev.succeed(tag)
            log.append((sim.now, tag, step))
        return tag

    for root in range(3):
        start(node(f"r{root}", 0))
    sim.run()
    return log, sim._eid


def test_spawn_keeps_the_order_of_a_random_process_tree():
    for seed in range(30):
        spawned, spawned_eids = _callback_log("spawn", seed)
        plain, plain_eids = _callback_log("process", seed)
        assert spawned == plain
        assert spawned_eids < plain_eids


# -- call_at --------------------------------------------------------------------


def test_call_at_runs_the_function_at_its_time_in_one_step():
    sim = Simulator()
    seen = []
    sim.call_at(2.5, lambda *args: seen.append((sim.now, args)), "a", 1)
    assert sim._eid == 1 and seen == []
    sim.run()
    assert seen == [(2.5, ("a", 1))]
    assert sim._eid - len(sim._heap) == 1


def test_call_at_takes_its_place_among_timeouts():
    """A call and a timeout due at the same instant run in the order they
    were scheduled, as two timeouts would."""
    sim = Simulator()
    seen = []

    def waiter(tag, delay):
        yield sim.timeout(delay)
        seen.append((tag, sim.now))

    sim.process(waiter("first", 1.0))
    sim.run(until=0.5)
    sim.call_at(1.0, lambda: seen.append(("call", sim.now)))
    sim.process(waiter("last", 0.5))
    sim.run()
    assert seen == [("first", 1.0), ("call", 1.0), ("last", 1.0)]


def test_call_at_time_is_absolute():
    """``now + (when - now)`` can differ from ``when`` in the last bit; the
    call runs at ``when`` itself."""
    sim = Simulator()
    sim.run(until=0.16814494622242826)
    when = 28.745614808230652
    assert sim.now + (when - sim.now) != when
    times = []
    sim.call_at(when, lambda: times.append(sim.now))
    sim.run()
    assert times == [when]


def test_call_at_in_the_past_is_rejected():
    sim = Simulator()
    sim.run(until=1.0)
    with pytest.raises(ValueError):
        sim.call_at(0.5, lambda: None)


def test_a_dropped_simulation_is_reclaimed_by_one_collection():
    """Collecting an unreachable simulation finalizes its suspended
    processes.  A ``finally`` that wakes a waiter (here the release that
    grants the next request) must not make the simulation reachable again,
    or it and everything its heap holds outlive the collection."""
    sim = Simulator()
    cpu = Resource(sim, capacity=1)

    def job():
        yield from cpu.use(10.0)

    for _ in range(2):
        sim.process(job())
    sim.run(until=1.0)
    assert cpu.queue_length == 1
    # A weak reference is cleared before finalizers run, even for an object
    # they bring back, so look for the simulator itself.
    sim_id = id(sim)
    del sim, cpu
    gc.collect()
    assert not [o for o in gc.get_objects()
                if type(o) is Simulator and id(o) == sim_id]
