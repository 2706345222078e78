"""Kernel event-loop semantics."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simt import Timeout

from _kernel_reference import dispatch_log


def test_time_starts_at_zero(kernel):
    assert kernel.now == 0.0


def test_timeout_advances_time(kernel):
    done = []

    def proc(k):
        yield k.timeout(2.5)
        done.append(k.now)

    kernel.spawn(proc(kernel), name="p")
    kernel.run()
    assert done == [2.5]
    assert kernel.now == 2.5


def test_zero_timeout_fires_same_instant(kernel):
    def proc(k):
        yield k.timeout(0.0)
        return k.now

    p = kernel.spawn(proc(kernel))
    kernel.run()
    assert p.value == 0.0


def test_negative_timeout_rejected(kernel):
    with pytest.raises(SimulationError):
        kernel.timeout(-1.0)


@pytest.mark.parametrize("delay", [float("nan"), -0.5, float("-inf")])
def test_nan_and_negative_delays_leave_the_schedule_untouched(kernel, delay):
    # NaN compares false against everything: accepted, it would sit in the
    # heap unordered and surface as a DeadlockError naming an innocent
    # sleeper.  Rejected at the door, like a negative delay.
    with pytest.raises(SimulationError, match=">= 0"):
        kernel.timeout(delay)
    with pytest.raises(SimulationError, match=">= 0"):
        Timeout(kernel, delay)
    assert kernel.events_dispatched == 0

    def sleeper(k):
        yield k.timeout(1.0)

    kernel.spawn(sleeper(kernel))
    kernel.run()  # nothing poisoned: the sleeper wakes, no deadlock
    assert kernel.now == 1.0


def test_events_fire_in_timestamp_order(kernel):
    order = []

    def proc(k, name, delay):
        yield k.timeout(delay)
        order.append(name)

    kernel.spawn(proc(kernel, "c", 3.0))
    kernel.spawn(proc(kernel, "a", 1.0))
    kernel.spawn(proc(kernel, "b", 2.0))
    kernel.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_schedule_order(kernel):
    order = []

    def proc(k, name):
        yield k.timeout(1.0)
        order.append(name)

    for name in ("first", "second", "third"):
        kernel.spawn(proc(kernel, name))
    kernel.run()
    assert order == ["first", "second", "third"]


def test_run_until_deadline_stops_exactly(kernel):
    fired = []

    def proc(k):
        for _ in range(10):
            yield k.timeout(1.0)
            fired.append(k.now)

    kernel.spawn(proc(kernel))
    kernel.run(until=4.5)
    assert fired == [1.0, 2.0, 3.0, 4.0]
    assert kernel.now == 4.5


def test_run_until_event_returns_value(kernel):
    def child(k):
        yield k.timeout(1.0)
        return 42

    p = kernel.spawn(child(kernel))
    assert kernel.run(until=p) == 42


def test_run_until_past_deadline_rejected(kernel):
    kernel.spawn(iter([]) and _noop(kernel))
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.run(until=kernel.now - 1.0)


def _noop(k):
    yield k.timeout(0.0)


def test_deadlock_detection_names_blocked_process(kernel):
    def stuck(k):
        yield k.event()

    kernel.spawn(stuck(kernel), name="stucky")
    with pytest.raises(DeadlockError) as excinfo:
        kernel.run()
    assert "stucky" in str(excinfo.value)


def test_unhandled_crash_surfaces(kernel):
    def boom(k):
        yield k.timeout(1.0)
        raise ValueError("broken")

    kernel.spawn(boom(kernel), name="boom")
    with pytest.raises(SimulationError, match="boom"):
        kernel.run()


def test_joined_crash_propagates_to_joiner(kernel):
    caught = []

    def boom(k):
        yield k.timeout(1.0)
        raise ValueError("inner")

    def joiner(k):
        child = k.spawn(boom(k), name="boom")
        try:
            yield child
        except ValueError as exc:
            caught.append(str(exc))

    kernel.spawn(joiner(kernel), name="joiner")
    kernel.run()
    assert caught == ["inner"]


def test_events_dispatched_counter(kernel):
    def proc(k):
        yield k.timeout(1.0)
        yield k.timeout(1.0)

    kernel.spawn(proc(kernel))
    kernel.run()
    assert kernel.events_dispatched >= 2


def test_step_on_empty_schedule_raises(kernel):
    with pytest.raises(SimulationError):
        kernel.step()


@pytest.mark.parametrize("as_float", [True, False], ids=["yield d", "yield timeout(d)"])
def test_step_dispatches_exactly_one_entry(kernel, as_float):
    # A process whose delay ends stays PENDING, so "run until the head entry
    # is triggered" would run on until the process finished.
    woke = []

    def proc(k):
        for _ in range(3):
            yield 1.0 if as_float else k.timeout(1.0)
            woke.append(k.now)

    kernel.spawn(proc(kernel))
    kernel.step()  # the start event
    for n in (1, 2, 3):
        kernel.step()
        assert (kernel.events_dispatched, kernel.now) == (1 + n, float(n))
        assert woke == [1.0, 2.0, 3.0][:n]
    kernel.step()  # the process's own completion
    assert kernel.events_dispatched == 5 and not kernel._heap and not kernel._ready


def test_a_float_delay_is_one_heap_entry_with_the_seq_a_timeout_would_have(kernel):
    def napper(k, form):
        got = yield (0.5 if form == "float" else k.timeout(0.5))
        assert got is None
        yield (0.0 if form == "float" else k.timeout(0.0))
        return k.now

    schedules = []
    for form in ("float", "timeout"):
        k = type(kernel)()
        with dispatch_log(k) as log:
            procs = [k.spawn(napper(k, form)) for _ in range(3)]
            while k._heap or k._ready:
                k.step()
        assert [p.value for p in procs] == [0.5] * 3
        dispatched = [(when, seq) for when, seq, _event, _delay_over in log]
        schedules.append((dispatched, k.events_dispatched, k._seq, k.now))
    assert schedules[0] == schedules[1]


def test_run_until_a_process_that_is_taking_a_float_delay(kernel):
    def proc(k):
        yield 1.0
        yield 2.0
        return "done"

    def bystander(k):
        while True:
            yield 0.75

    kernel.spawn(bystander(kernel))
    assert kernel.run(until=kernel.spawn(proc(kernel))) == "done"
    assert kernel.now == 3.0
    kernel.run(until=4.0)  # a deadline between two delays of the bystander
    assert kernel.now == 4.0 and len(kernel._heap) == 1 and not kernel._ready


def test_many_processes_complete(kernel):
    results = []

    def proc(k, i):
        yield k.timeout(i * 0.001)
        results.append(i)

    for i in range(200):
        kernel.spawn(proc(kernel, i))
    kernel.run()
    assert results == list(range(200))
