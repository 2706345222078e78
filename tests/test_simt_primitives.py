"""Waitable primitives: events, conditions, interrupts."""

import pytest

from repro.errors import SimulationError
from repro.simt import Kernel
from repro.simt.primitives import Interrupt, SimEvent


def test_event_succeed_delivers_value(kernel):
    got = []

    def proc(k, ev):
        value = yield ev
        got.append(value)

    ev = kernel.event("e")
    kernel.spawn(proc(kernel, ev))
    ev.succeed("payload")
    kernel.run()
    assert got == ["payload"]


def test_event_fail_raises_in_waiter(kernel):
    caught = []

    def proc(k, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = kernel.event()
    kernel.spawn(proc(kernel, ev))
    ev.fail(RuntimeError("bad"))
    kernel.run()
    assert caught == ["bad"]


def test_double_trigger_rejected(kernel):
    ev = kernel.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_fail_requires_exception_instance(kernel):
    ev = kernel.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_callback_after_dispatch_runs_immediately(kernel):
    ev = kernel.event()
    ev.succeed(7)
    kernel.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == [7]


def test_multiple_waiters_all_resume(kernel):
    got = []

    def proc(k, ev, name):
        value = yield ev
        got.append((name, value))

    ev = kernel.event()
    for name in ("a", "b", "c"):
        kernel.spawn(proc(kernel, ev, name))
    ev.succeed(1)
    kernel.run()
    assert sorted(got) == [("a", 1), ("b", 1), ("c", 1)]


def test_any_of_fires_on_first(kernel):
    def proc(k):
        t_fast = k.timeout(1.0, value="fast")
        t_slow = k.timeout(5.0, value="slow")
        fired = yield k.any_of([t_fast, t_slow])
        return (k.now, list(fired.values()))

    p = kernel.spawn(proc(kernel))
    kernel.run()
    assert p.value == (1.0, ["fast"])


def test_all_of_waits_for_every_child(kernel):
    def proc(k):
        a = k.timeout(1.0, value="a")
        b = k.timeout(3.0, value="b")
        fired = yield k.all_of([a, b])
        return (k.now, sorted(fired.values()))

    p = kernel.spawn(proc(kernel))
    kernel.run()
    assert p.value == (3.0, ["a", "b"])


def test_all_of_empty_fires_immediately(kernel):
    def proc(k):
        yield k.all_of([])
        return k.now

    p = kernel.spawn(proc(kernel))
    kernel.run()
    assert p.value == 0.0


def test_condition_rejects_foreign_kernel_events(kernel):
    other = Kernel()
    foreign = SimEvent(other)
    with pytest.raises(SimulationError):
        kernel.any_of([foreign])


def test_all_of_propagates_failure(kernel):
    caught = []

    def proc(k, bad):
        try:
            yield k.all_of([k.timeout(5.0), bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    bad = kernel.event()
    kernel.spawn(proc(kernel, bad))
    bad.fail(RuntimeError("child failed"))
    kernel.run(until=6.0)
    assert caught == ["child failed"]


def test_interrupt_reaches_waiting_process(kernel):
    log = []

    def sleeper(k):
        try:
            yield k.timeout(100.0)
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, k.now))

    def interrupter(k, target):
        yield k.timeout(2.0)
        target.interrupt("wake up")

    target = kernel.spawn(sleeper(kernel), name="sleeper")
    kernel.spawn(interrupter(kernel, target))
    kernel.run(until=10.0)
    assert log == [("interrupted", "wake up", 2.0)]


def test_interrupt_finished_process_rejected(kernel):
    def quick(k):
        yield k.timeout(0.1)

    p = kernel.spawn(quick(kernel))
    kernel.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yielding_non_waitable_fails_process(kernel):
    def bad(k):
        yield 42  # not a waitable

    kernel.spawn(bad(kernel), name="bad")
    with pytest.raises(SimulationError, match="yielded int"):
        kernel.run()


def test_spawn_requires_generator(kernel):
    with pytest.raises(SimulationError, match="generator"):
        kernel.spawn(lambda: None)  # type: ignore[arg-type]
