"""Process lifecycle edge cases and kernel robustness under load."""

import traceback

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simt import Kernel
from repro.simt.primitives import Interrupt


def test_process_return_value_via_join(kernel):
    def child(k):
        yield k.timeout(1.0)
        return {"answer": 42}

    def parent(k):
        result = yield k.spawn(child(k))
        return result["answer"]

    p = kernel.spawn(parent(kernel))
    kernel.run()
    assert p.value == 42


def test_join_already_finished_process(kernel):
    def quick(k):
        yield k.timeout(0.5)
        return "done"

    def late_joiner(k, target):
        yield k.timeout(5.0)
        result = yield target
        return result

    child = kernel.spawn(quick(kernel))
    parent = kernel.spawn(late_joiner(kernel, child))
    kernel.run()
    assert parent.value == "done"


def test_interrupted_process_can_continue(kernel):
    trace = []

    def worker(k):
        try:
            yield k.timeout(100.0)
        except Interrupt:
            trace.append(("interrupted", k.now))
        yield k.timeout(1.0)  # keeps living after the interrupt
        trace.append(("finished", k.now))

    def boss(k, target):
        yield k.timeout(2.0)
        target.interrupt()

    target = kernel.spawn(worker(kernel))
    kernel.spawn(boss(kernel, target))
    kernel.run()
    assert trace == [("interrupted", 2.0), ("finished", 3.0)]


def test_stale_wakeup_after_interrupt_ignored(kernel):
    """The original timeout firing later must not resume the process twice."""
    resumed = []

    def worker(k):
        try:
            yield k.timeout(5.0)
            resumed.append("timeout")
        except Interrupt:
            resumed.append("interrupt")
        yield k.timeout(10.0)
        resumed.append("second")

    def boss(k, target):
        yield k.timeout(1.0)
        target.interrupt()

    target = kernel.spawn(worker(kernel))
    kernel.spawn(boss(kernel, target))
    kernel.run()
    assert resumed == ["interrupt", "second"]


def test_nested_spawning(kernel):
    depth_reached = []

    def recursive(k, depth):
        if depth == 0:
            depth_reached.append(k.now)
            return 0
        yield k.timeout(0.1)
        child = k.spawn(recursive(k, depth - 1))
        result = yield child
        return result + 1

    p = kernel.spawn(recursive(kernel, 10))
    kernel.run()
    assert p.value == 10
    assert depth_reached == [pytest.approx(1.0)]


def test_thousands_of_processes(kernel):
    done = []

    def tiny(k, i):
        yield k.timeout(i * 1e-6)
        done.append(i)

    for i in range(3000):
        kernel.spawn(tiny(kernel, i))
    kernel.run()
    assert len(done) == 3000
    assert done == sorted(done)


def test_alive_processes_listing(kernel):
    def sleeper(k):
        yield k.timeout(10.0)

    kernel.spawn(sleeper(kernel), name="s1")
    kernel.spawn(sleeper(kernel), name="s2")
    kernel.run(until=1.0)
    assert {p.name for p in kernel.alive_processes()} == {"s1", "s2"}
    kernel.run()
    assert kernel.alive_processes() == []


# -- float delays: a sleeping process is its own heap entry ------------------------------


def _crossed(form):
    """Four victims interrupted mid-delay (the entry due at t=5 goes stale),
    each joined by a watcher.  ``form`` spells the victims' delays."""
    k = Kernel()
    log = []

    def nap(d):
        return d if form == "float" else k.timeout(d)

    def victim(then):
        try:
            yield nap(5.0)
        except Interrupt as intr:
            log.append((k.now, then, "interrupted", intr.cause))
        if then == "waits on an event":
            yield k.timeout(8.0)
        elif then == "sleeps again":
            yield nap(1.0)
            yield nap(9.0)
        elif then == "finishes at t=5":
            yield tick  # pops before the stale entry; the finish entry after it
        log.append((k.now, then, "done"))
        return then

    def boss(targets):
        yield k.timeout(1.0)
        for target in targets:
            target.interrupt("boss")

    def watcher(target):
        joined = yield target
        log.append((k.now, "joined", joined))

    tick = k.timeout(5.0)  # scheduled before any victim's delay
    victims = [
        k.spawn(victim(then))
        for then in ("waits on an event", "sleeps again", "finishes at t=5", "finishes at t=1")
    ]
    k.spawn(boss(victims))
    for v in victims:
        k.spawn(watcher(v))
    schedule = []
    while k._heap:
        schedule.append((k._heap[0][:2], len(k._heap)))
        k.step()
    return log, schedule, k.events_dispatched, k.now


def test_a_stale_delay_entry_is_a_counted_no_op_like_a_stale_timeout():
    # It pops while its process waits on something else, sleeps again, has
    # just finished (finish entry still queued, joiner attached) and has
    # long finished: nothing resumes twice, no joiner hears early, nothing
    # reaches len(None) -- and the schedule is the Timeout form's, entry
    # for entry.
    as_float = _crossed("float")
    assert as_float == _crossed("timeout")
    log, _schedule, dispatched, now = as_float
    assert [e for e in log if e[1:3] != ("joined",) and e[2] == "done"] == [
        (1.0, "finishes at t=1", "done"),
        (5.0, "finishes at t=5", "done"),
        (9.0, "waits on an event", "done"),
        (11.0, "sleeps again", "done"),
    ]
    assert sorted(e for e in log if e[1] == "joined") == [
        (1.0, "joined", "finishes at t=1"),
        (5.0, "joined", "finishes at t=5"),
        (9.0, "joined", "waits on an event"),
        (11.0, "joined", "sleeps again"),
    ]
    # 9 starts, tick, the boss's timeout, 4 interrupts, 4 stale entries,
    # 1 + 2 delays that ran their course, 9 completions
    assert now == 11.0 and dispatched == 31


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("-inf")])
def test_a_bad_float_delay_raises_at_the_yield(kernel, bad):
    caught = []

    def proc(k):
        try:
            yield bad  # <- the traceback names this line
        except SimulationError as exc:
            caught.append(traceback.extract_tb(exc.__traceback__)[-1].line)
        yield 1.0  # the handler decides; the process lives on
        return k.now

    p = kernel.spawn(proc(kernel))
    kernel.run()
    assert caught == ["yield bad  # <- the traceback names this line"]
    assert p.value == 1.0 and kernel.events_dispatched == 3  # start, delay, completion

    def careless(k):
        yield bad

    crashed = kernel.spawn(careless(kernel))
    with pytest.raises(Exception, match=">= 0"):
        kernel.run(until=crashed)


def test_an_infinite_delay_never_ends(kernel):
    def proc(k):
        yield float("inf")

    p = kernel.spawn(proc(kernel))
    kernel.run(until=1e9)
    assert p.is_alive and kernel.now == 1e9


@pytest.mark.parametrize("junk", [0, 1, True, None, "1.0", (1.0,)])
def test_only_a_float_is_a_delay(kernel, junk):
    def proc(k):
        yield junk

    p = kernel.spawn(proc(kernel))
    with pytest.raises(SimulationError, match="expected a waitable"):
        kernel.run(until=p)


def test_float_subclasses_are_delays(kernel):
    def proc(k):
        yield np.float64(0.25)
        yield np.float64(0.5)
        return k.now

    p = kernel.spawn(proc(kernel))
    kernel.run()
    assert p.value == 0.75
