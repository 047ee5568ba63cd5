"""Tests of the benchmark's own helpers (no cluster is built).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import time

import pytest

import machine
from layers import LayerClock, _module_of_file, layer_of_module
from metrics import (
    Metric,
    check_name,
    failure_ratio,
    median,
    result_json,
    samples_beyond,
    tail_percentile,
)


# -- percentile rule ------------------------------------------------------------

def test_p99_needs_ten_samples_beyond():
    samples = list(range(1, 1001))  # 1000 samples: exactly 10 beyond p99
    assert samples_beyond(1000, 0.99) == 10
    assert tail_percentile(samples) == (0.99, 990)


def test_short_sample_falls_back_to_lower_percentile():
    assert tail_percentile(range(1, 1000))[0] == 0.95  # 9 beyond p99
    assert tail_percentile(range(1, 101)) == (0.9, 90)  # 10 beyond p90
    assert tail_percentile(range(1, 41)) == (0.75, 30)


def test_tiny_sample_reports_the_median():
    assert tail_percentile([5.0, 1.0, 3.0]) == (0.5, 3.0)


def test_percentile_never_exceeds_the_request():
    assert tail_percentile(range(100000), want=0.5)[0] == 0.5
    with pytest.raises(ValueError):
        tail_percentile([])


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


# -- metric names ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "sim.steps", "core.x-y.z_9"])
def test_metric_name_accepted(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "lat p99", "ops/s", "a:b", "é", None])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        check_name(name)


# -- failure ratio --------------------------------------------------------------

def test_failure_ratio_base():
    assert failure_ratio(0, 1) == 0.0
    assert failure_ratio(1, 4) == 0.25
    with pytest.raises(ValueError):
        failure_ratio(0, 0)  # no base: not a ratio
    with pytest.raises(ValueError):
        failure_ratio(5, 4)


# -- self time --------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children():
    tick = FakeClock()
    clock = LayerClock(tick)

    def inner():
        tick.now += 2.0

    def outer():
        tick.now += 1.0
        wrapped_inner()
        tick.now += 3.0

    wrapped_inner = clock.wrap(inner, "b")
    clock.wrap(outer, "a")()
    assert clock.self_s == {"a": 4.0, "b": 2.0}
    assert clock.calls == {"a": 1, "b": 1}


def test_generator_self_time_excludes_suspension():
    tick = FakeClock()
    clock = LayerClock(tick)

    def leaf():
        tick.now += 1.0
        got = yield "event"  # suspended: no time accrues
        tick.now += 2.0
        return got * 2

    def parent():
        tick.now += 0.5
        result = yield from clock.wrap(leaf, "leaf")()
        tick.now += 0.25
        return result

    gen = clock.wrap(parent, "parent")()
    assert next(gen) == "event"
    tick.now += 100.0  # time spent elsewhere while the coroutine waits
    with pytest.raises(StopIteration) as stop:
        gen.send(21)
    assert stop.value.value == 42
    assert clock.self_s == {"parent": 0.75, "leaf": 3.0}


def test_generator_wrapper_forwards_exceptions():
    clock = LayerClock(FakeClock())

    def catcher():
        try:
            yield "wait"
        except KeyError:
            return "caught"

    gen = clock.wrap(catcher, "x")()
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))
    assert stop.value.value == "caught"


def test_module_of_file_uses_innermost_package():
    assert _module_of_file("/w/repro/src/repro/rpc/xdr.py") == "repro.rpc.xdr"
    assert _module_of_file("/w/repro/perfbench/run.py") == "perfbench.run"
    assert _module_of_file("/usr/lib/python3/heapq.py") == ""


def test_layer_of_module():
    assert layer_of_module("repro.rpc.xdr") == "rpc.xdr"
    assert layer_of_module("repro.rpc.endpoint") == "rpc"
    assert layer_of_module("repro.storage.coordinator") == "coord"
    assert layer_of_module("repro.storage.node") == "storage"
    assert layer_of_module("repro.simulation") is None
    assert layer_of_module("json") is None


# -- machine speed -------------------------------------------------------------------

def test_machine_speed_runs_at_least_the_requested_time():
    start = time.perf_counter()
    steps_per_s = machine.speed(0.02)
    assert time.perf_counter() - start >= 0.02
    assert steps_per_s > 0


# -- output shape -------------------------------------------------------------------

def test_result_json_shape():
    metrics = [Metric("b_s", 0.5, "s"), Metric("a", 3, "count", "note")]
    line = result_json(True, 10, 0, metrics, only=["a", "b_s"])
    assert "\n" not in line
    doc = json.loads(line)
    assert list(doc) == ["correct", "attempted", "failed", "metrics"]
    assert doc["correct"] is True
    assert (doc["attempted"], doc["failed"]) == (10, 0)
    assert list(doc["metrics"]) == ["a", "b_s"]
    assert doc["metrics"]["a"] == {"value": 3.0, "unit": "count"}


def test_result_json_rejects_missing_duplicate_and_bad_counts():
    metrics = [Metric("a", 1.0, "s")]
    with pytest.raises(ValueError):
        result_json(True, 1, 0, metrics, only=["a", "missing"])
    with pytest.raises(ValueError):
        result_json(True, 1, 0, metrics + [Metric("a", 2.0, "s")])
    with pytest.raises(ValueError):
        result_json(True, 0, 0, metrics)


def test_metric_line_states_unit_and_note():
    line = Metric("lat_p99_ms", 1.5, "ms", "p99 of 1000 samples").line()
    assert "lat_p99_ms" in line and "ms" in line and "1000 samples" in line
