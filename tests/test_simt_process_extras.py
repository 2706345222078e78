"""Process lifecycle edge cases and kernel robustness under load."""

import pytest

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


def test_current_process_visibility(kernel):
    seen = []

    def introspect(k):
        seen.append(k.current_process.name)
        yield k.timeout(0.0)

    kernel.spawn(introspect(kernel), name="me")
    kernel.run()
    assert seen == ["me"]
    assert kernel.current_process is None
