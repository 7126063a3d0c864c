"""Event engine: ordering, reservation, cancellation, determinism, RNG streams."""

import random

import numpy as np
import pytest

from vanetbench.core import RngStreams, SchedulingError, SimulationFault, Simulator

from conftest import record_dispatch_log


def test_same_time_scheduling_dispatches():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, lambda: fired.append("a"))
    assert sim.run_until(1.0) == 1
    assert fired == ["a"]


def test_tie_break_by_sequence():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda: order.append("first"))
    sim.schedule(5.0, lambda: order.append("second"))
    sim.run_until(10.0)
    assert order == ["first", "second"]


def test_past_time_scheduling_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run_until(2.0)
    with pytest.raises(SchedulingError):
        sim.schedule(1.0, lambda: None)


def test_run_until_before_the_clock_is_rejected():
    sim = Simulator()
    sim.run_until(2.0)
    with pytest.raises(SchedulingError, match=r"run_until\(1\.0\) is before clock 2\.0"):
        sim.run_until(1.0)
    assert sim.now == 2.0


def test_run_until_empty_queue():
    sim = Simulator()
    assert sim.run_until(100.0) == 0
    assert sim.now == 100.0


def test_run_until_boundary():
    sim = Simulator()
    hits = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda t=t: hits.append(t))
    assert sim.run_until(2.5) == 2
    assert hits == [1.0, 2.0]
    assert sim.now == 2.5


def test_cancel_semantics():
    sim = Simulator()
    fired = []
    h = sim.schedule(1.0, lambda: fired.append(1))
    assert sim.cancel(h) is True
    assert sim.cancel(h) is False
    sim.run_until(2.0)
    assert fired == []

    h2 = sim.schedule(3.0, lambda: fired.append(2))
    sim.run_until(4.0)
    assert sim.cancel(h2) is False   # already dispatched
    assert fired == [2]


def test_handler_fault_carries_context():
    sim = Simulator()

    def boom():
        raise ValueError("nope")

    sim.schedule(7.5, boom, target="bad.handler")
    with pytest.raises(SimulationFault) as err:
        sim.run_until(10.0)
    assert err.value.time == 7.5
    assert err.value.target == "bad.handler"


def _random_workload(sim, seed):
    """Events that schedule more events while fewer than 500 are pending;
    returns the dispatch log."""
    rng = random.Random(seed)
    log = record_dispatch_log(sim)
    scheduled = 0

    def schedule(at, depth, target):
        nonlocal scheduled
        scheduled += 1
        sim.schedule(at, lambda: spawn(depth), target=target)

    def spawn(depth):
        if depth > 0 and scheduled - len(log) < 500:    # pending: not yet dispatched
            schedule(sim.now + rng.uniform(0.0, 3.0), depth - 1, f"d{depth}")

    for _ in range(50):
        schedule(rng.uniform(0.0, 5.0), 3, "seed")
    return log


def test_dispatch_log_is_strictly_ordered():
    sim = Simulator()
    log = _random_workload(sim, 99)
    sim.run_until(30.0)
    keys = [(t, seq) for t, seq, _ in log]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_identical_seed_identical_dispatch_log():
    logs = []
    for _ in range(2):
        sim = Simulator()
        log = _random_workload(sim, 1234)
        sim.run_until(30.0)
        logs.append(log)
    assert logs[0] == logs[1]


def test_clock_never_moves_backward():
    sim = Simulator()
    log = _random_workload(sim, 5)
    sim.run_until(20.0)
    times = [t for t, _, _ in log]
    assert all(a <= b for a, b in zip(times, times[1:]))


def _unwrapped(sim):
    return []


def _bench_like(sim):
    """Wrap the action in a closure, as the benchmark's span tracer does."""
    schedule = sim.schedule

    def traced(at, action, target=""):
        return schedule(at, lambda: action(), target)

    sim.schedule = traced
    return []


WRAPPERS = [_unwrapped, record_dispatch_log, _bench_like]


@pytest.mark.parametrize("wrap", WRAPPERS)
def test_a_reserved_event_dispatches_where_its_reservation_put_it(wrap):
    sim = Simulator()
    log = wrap(sim)
    order = []
    sim.schedule(1.0, lambda: order.append("a"), target="a")
    seq = sim.reserve()
    sim.schedule(1.0, lambda: order.append("c"), target="c")
    reserved = []

    def push():
        reserved.append(sim.schedule_reserved(1.0, seq, lambda: order.append("b"), "b"))

    sim.schedule(0.5, push, target="push")
    after = sim.schedule(1.0, lambda: order.append("d"), target="d")
    sim.run_until(2.0)
    assert order == ["a", "b", "c", "d"]
    assert reserved[0].sequence == seq and reserved[0].fired
    assert after.sequence == seq + 3      # c and push took the numbers between
    if log:
        assert [target for _, _, target in log] == ["push", "a", "b", "c", "d"]


@pytest.mark.parametrize("wrap", WRAPPERS)
def test_a_reserved_push_into_the_past_raises_and_keeps_the_counter(wrap):
    sim = Simulator()
    wrap(sim)
    seq = sim.reserve()
    sim.schedule(2.0, lambda: None)
    sim.run_until(2.0)
    with pytest.raises(SchedulingError):
        sim.schedule_reserved(1.0, seq, lambda: None)
    assert sim.schedule(3.0, lambda: None).sequence == seq + 2
    assert sim.reserve() == seq + 3


def test_every_fires_the_kth_time_at_exactly_at_k():
    sim = Simulator()
    times = []
    sim.every(lambda k: k * 0.1, 100.0, lambda: times.append(sim.now), "tick")
    sim.run_until(200.0)
    assert times == [k * 0.1 for k in range(1000)]      # bit for bit
    summed = [0.0]
    for _ in range(999):
        summed.append(summed[-1] + 0.1)
    # a timer that adds its period to the last firing drifts off the grid
    assert summed != times


@pytest.mark.parametrize("stop, fired", [(0.5, [0.0, 0.25]), (0.55, [0.0, 0.25, 0.5]),
                                         (1.0, [0.0, 0.25, 0.5, 0.75])])
def test_every_fires_nothing_at_or_after_stop(stop, fired):
    sim = Simulator()
    times = []
    sim.every(lambda k: k * 0.25, stop, lambda: times.append(sim.now), "tick")
    sim.run_until(10.0)
    assert times == fired


def test_an_event_the_action_schedules_at_its_instant_runs_before_the_next_firing():
    sim = Simulator()
    log = record_dispatch_log(sim)
    order = []

    def action():
        order.append(("fire", sim.now))
        if len(order) == 1:
            sim.schedule(sim.now, lambda: order.append(("event", sim.now)), "event")

    # the first two firings share an instant, so only the order in which they
    # are queued tells them apart
    sim.every(lambda k: (0.0, 0.0, 1.0)[k], 0.5, action, "tick")
    sim.run_until(1.0)
    assert order == [("fire", 0.0), ("event", 0.0), ("fire", 0.0)]
    assert [target for _, _, target in log] == ["tick", "event", "tick"]
    assert [seq for _, seq, _ in log] == [0, 1, 2]


def test_rng_streams_reproducible():
    a = RngStreams(42).stream("mobility").uniform(size=16)
    b = RngStreams(42).stream("mobility").uniform(size=16)
    assert np.array_equal(a, b)


def test_rng_streams_label_independence():
    streams = RngStreams(42)
    a = streams.stream("mobility").uniform(size=20000)
    b = streams.stream("channel").uniform(size=20000)
    assert not np.array_equal(a[:16], b[:16])
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_rng_streams_cached_instance():
    streams = RngStreams(7)
    assert streams.stream("mac") is streams.stream("mac")
