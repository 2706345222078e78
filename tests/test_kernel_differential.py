"""Differential oracle: the single dispatch loop vs the reference scheduler.

Hypothesis draws small process programs — positive and zero-delay timeouts
that tie, ``succeed``/``fail`` chains on shared events, ``any_of``/``all_of``,
``interrupt``, joins (also on crashed processes), ``call_every(first=)``
hooks — and one of the three ``run()`` modes.  Each program runs on the real
kernel with telemetry off and on and on ``tests/_kernel_reference.py``; the
dispatch trace ``(now, seq, event name, num_waiters)``, what the processes
saw, the final clock, ``events_dispatched`` and the type of any raised error
must agree.  The real kernel's trace is read off its heap pops, so the test
needs no hook inside the loop it checks.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simt import Interrupt, Kernel
from repro.simt import kernel as kernel_module
from repro.telemetry import Telemetry

from _kernel_reference import ReferenceKernel

N_EVENTS = 3
MAX_PROCS = 4

# Few distinct delays, zero among them: ties at every level of the heap.
delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.5])
event_ids = st.integers(0, N_EVENTS - 1)
proc_ids = st.integers(0, MAX_PROCS - 1)
event_sets = st.lists(event_ids, min_size=0, max_size=3)

ops = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("sleep"), delays),  # twice: sleepers are what interrupts hit
    st.tuples(st.just("wait"), event_ids),
    st.tuples(st.just("succeed"), event_ids),
    st.tuples(st.just("fail"), event_ids),
    st.tuples(st.just("any_of"), event_sets, delays),
    st.tuples(st.just("all_of"), event_sets),
    st.tuples(st.just("join"), proc_ids),
    st.tuples(st.just("interrupt"), proc_ids),
    st.tuples(st.just("hook"), st.sampled_from([0.5, 0.75, 2.0]), delays),
    st.tuples(st.just("crash")),
)
scripts = st.lists(st.lists(ops, max_size=6), min_size=1, max_size=MAX_PROCS)
modes = st.one_of(
    st.just(("drain",)),
    st.tuples(st.just("deadline"), st.sampled_from([0.0, 1.0, 2.5, 10.0])),
    st.tuples(st.just("event"), event_ids),
    st.tuples(st.just("process"), proc_ids),
)


class Boom(Exception):
    """What ``crash`` raises and ``fail`` delivers."""


def _body(k, me, script, events, procs, seen):
    for op in script:
        kind = op[0]
        if kind == "crash":
            raise Boom(f"p{me}")
        try:
            if kind == "sleep":
                yield k.timeout(op[1])
            elif kind == "wait":
                seen.append((k.now, me, "got", (yield events[op[1]])))
            elif kind == "succeed" and not events[op[1]].triggered:
                events[op[1]].succeed(f"p{me}")
            elif kind == "fail" and not events[op[1]].triggered:
                events[op[1]].fail(Boom(f"p{me}"))
            elif kind == "any_of":
                fired = yield k.any_of([events[i] for i in op[1]] + [k.timeout(op[2])])
                seen.append((k.now, me, "any", sorted(ev.name for ev in fired)))
            elif kind == "all_of":
                fired = yield k.all_of([events[i] for i in op[1]])
                seen.append((k.now, me, "all", sorted(ev.name for ev in fired)))
            elif kind == "join" and op[1] < len(procs) and op[1] != me:
                seen.append((k.now, me, "joined", (yield procs[op[1]])))
            elif kind == "interrupt" and op[1] < len(procs):
                try:
                    procs[op[1]].interrupt(f"by p{me}")
                except SimulationError:
                    seen.append((k.now, me, "uninterruptible", op[1]))
            elif kind == "hook":
                k.call_every(
                    op[1], lambda now, me=me: seen.append((now, me, "hook")),
                    first=k.now + op[2],
                )
        except Interrupt as intr:
            seen.append((k.now, me, "interrupted", intr.cause))
        except Boom as boom:
            seen.append((k.now, me, "caught", str(boom)))
        seen.append((k.now, me, kind))
    return f"p{me} done"


def _execute(k, program, mode, dispatched):
    """Run ``program`` on ``k``; everything observable about the run
    (``dispatched()`` returns its ``(now, seq, name, num_waiters)`` trace)."""
    seen = []
    events = [k.event(f"e{i}") for i in range(N_EVENTS)]
    procs = []
    for me, script in enumerate(program):
        procs.append(k.spawn(_body(k, me, script, events, procs, seen), name=f"p{me}"))
    if mode[0] == "deadline":
        until = mode[1]
    elif mode[0] == "event":
        until = events[mode[1]]
    elif mode[0] == "process":
        until = procs[mode[1] % len(procs)]
    else:
        until = None
    try:
        outcome = ("returned", k.run(until))
    except Exception as exc:  # noqa: BLE001 - the error type is the outcome
        outcome = ("raised", type(exc).__name__)
    return {
        "trace": dispatched(),
        "seen": seen,
        "outcome": outcome,
        "now": k.now,
        "events_dispatched": k.events_dispatched,
    }


def _on_real_kernel(k, program, mode):
    popped = []
    real_pop = kernel_module.heappop

    def recording_pop(heap):
        entry = real_pop(heap)
        popped.append(entry)
        return entry

    with mock.patch.object(kernel_module, "heappop", recording_pop):
        return _execute(
            k, program, mode,
            # num_waiters is set at dispatch and stays, so it is read afterwards.
            lambda: [(when, seq, ev.name, ev.num_waiters) for when, seq, ev in popped],
        )


def _on_reference(program, mode):
    k = ReferenceKernel()
    return _execute(k, program, mode, lambda: k.dispatched)


@settings(max_examples=300, deadline=None)
@given(program=scripts, mode=modes)
def test_single_loop_matches_the_reference_scheduler(program, mode):
    expected = _on_reference(program, mode)
    assert _on_real_kernel(Kernel(), program, mode) == expected
    assert _on_real_kernel(Kernel(telemetry=Telemetry()), program, mode) == expected


def test_the_recorded_trace_is_the_dispatch_order():
    # The oracle's own plumbing: on a program whose schedule is known by
    # hand, the heap-pop trace is the (time, seq) order with waiter counts.
    program = [[("sleep", 1.0), ("succeed", 0)], [("wait", 0)], [("wait", 0)]]
    got = _on_real_kernel(Kernel(), program, ("drain",))
    assert got["trace"] == [
        (0.0, 1, "p0.start", 1),
        (0.0, 2, "p1.start", 1),
        (0.0, 3, "p2.start", 1),
        (1.0, 4, "timeout", 1),
        (1.0, 5, "e0", 2),
        (1.0, 6, "p0", 0),
        (1.0, 7, "p1", 0),
        (1.0, 8, "p2", 0),
    ]
    assert got["events_dispatched"] == 8 and got["now"] == 1.0
    assert got == _on_reference(program, ("drain",))
