"""Differential oracle: the single dispatch loop vs the reference scheduler.

Hypothesis draws small process programs — positive and zero delays that tie,
spelled ``yield kernel.timeout(d)`` (``sleep``) or ``yield d`` (``nap``),
``succeed``/``fail``/``succeed_after`` chains on shared events,
``any_of``/``all_of``, the MPI layer's value-less ``Join`` (held to
``all_of`` on the reference), ``interrupt``, joins (also on crashed
processes), ``call_every(first=)`` hooks — and one of the three ``run()``
modes, ``run(until=<event>)`` followed by ``run()``, or a
``step()``-by-``step()`` walk.  Each program runs on the real kernel with
telemetry off and on and on ``tests/_kernel_reference.py``; the dispatch
trace ``(now, seq, event name, num_waiters)``, what the processes saw, the
final clock, ``events_dispatched`` and the type of any raised error must
agree.  The real
kernel's trace is read off its heap pops and a recording deque in place of
its FIFO of events due now (``dispatch_log``), so the test needs no hook
inside the loop it checks.

The observed runs also read the two kernel instruments wherever an observer
can: at every firing of every hook, after every ``step()``, after the run
however it ended.  The reference writes them once per event; the real
kernel only where they can be read, and each reading, the final counter,
``Gauge.value`` and ``Gauge.max`` must be the reference's.

A second property holds the float form to the ``Timeout`` form: respelling
every delay of a program one way or the other moves no ``(when, seq)`` of
the dispatch log, no resume, no counter and no heap depth.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SimulationError
from repro.mpi.request import Join
from repro.simt.kernel import Kernel
from repro.simt.primitives import Interrupt
from repro.telemetry.core import KERNEL_PID, NULL_TELEMETRY, Telemetry

from _kernel_reference import ReferenceKernel, dispatch_log

N_EVENTS = 3
MAX_PROCS = 4

# Few distinct delays, zero among them: ties at every level of the heap.  An
# advance of 0.25 reaches the probe hook's next firing and no earlier one, so
# the loop, not a hook walk, moves the rest of that instant off the heap.
delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 1.5])
event_ids = st.integers(0, N_EVENTS - 1)
proc_ids = st.integers(0, MAX_PROCS - 1)
event_sets = st.lists(event_ids, min_size=0, max_size=3)

ops = st.one_of(
    # two spellings of a pure delay, each twice: sleepers are what interrupts hit
    st.tuples(st.sampled_from(["sleep", "nap", "sleep", "nap"]), delays),
    st.tuples(st.sampled_from(["sleep", "nap", "sleep", "nap"]), delays),
    st.tuples(st.just("wait"), event_ids),
    st.tuples(st.just("succeed"), event_ids),
    st.tuples(st.just("fail"), event_ids),
    st.tuples(st.just("succeed_after"), event_ids, delays),
    st.tuples(st.just("any_of"), event_sets, delays),
    st.tuples(st.just("all_of"), event_sets),
    st.tuples(st.just("mpi_join"), event_sets),
    st.tuples(st.just("join"), proc_ids),
    st.tuples(st.just("interrupt"), proc_ids),
    st.tuples(st.just("hook"), st.sampled_from([0.5, 0.75, 2.0]), delays),
    st.tuples(st.just("crash")),
)
scripts = st.lists(st.lists(ops, max_size=6), min_size=1, max_size=MAX_PROCS)
modes = st.one_of(
    st.just(("drain",)),
    st.tuples(st.just("deadline"), st.sampled_from([0.0, 1.0, 2.5, 10.0])),
    st.tuples(st.sampled_from(["event", "event+drain"]), event_ids),
    st.tuples(st.just("process"), proc_ids),
    st.just(("steps",)),
)


class Boom(Exception):
    """What ``crash`` raises and ``fail`` delivers."""


def _open(event):
    """Neither triggered nor scheduled: it may still be fired."""
    return not event.triggered and event.num_waiters == -1


def _body(k, me, script, events, procs, seen, probe):
    for op in script:
        kind = op[0]
        if kind == "crash":
            raise Boom(f"p{me}")
        try:
            if kind == "sleep":
                yield k.timeout(op[1])
            elif kind == "nap":
                yield op[1]
            elif kind == "wait":
                seen.append((k.now, me, "got", (yield events[op[1]])))
            elif kind == "succeed" and _open(events[op[1]]):
                events[op[1]].succeed(f"p{me}")
            elif kind == "fail" and _open(events[op[1]]):
                events[op[1]].fail(Boom(f"p{me}"))
            elif kind == "succeed_after" and _open(events[op[1]]):
                events[op[1]].succeed_after(op[2], f"p{me}")
            elif kind == "any_of":
                fired = yield k.any_of([events[i] for i in op[1]] + [k.timeout(op[2])])
                seen.append((k.now, me, "any", sorted(ev.name for ev in fired)))
            elif kind == "all_of":
                fired = yield k.all_of([events[i] for i in op[1]])
                seen.append((k.now, me, "all", sorted(ev.name for ev in fired)))
            elif kind == "mpi_join" and op[1]:
                children = [events[i] for i in op[1]]
                if isinstance(k, ReferenceKernel):
                    yield k.all_of(children)
                else:
                    yield Join(k, children, "all_of")
                seen.append((k.now, me, "joined all"))
            elif kind == "join" and op[1] < len(procs) and op[1] != me:
                seen.append((k.now, me, "joined", (yield procs[op[1]])))
            elif kind == "interrupt" and op[1] < len(procs):
                try:
                    procs[op[1]].interrupt(f"by p{me}")
                except SimulationError:
                    seen.append((k.now, me, "uninterruptible", op[1]))
            elif kind == "hook":
                k.call_every(
                    op[1],
                    lambda now, me=me: (seen.append((now, me, "hook")), probe(now)),
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
    readings = []  # (now, events counter, heap-depth gauge) wherever one can look
    tel = k.telemetry
    if tel.enabled:
        counter = tel.counters["kernel.events_dispatched"]
        gauge = tel.gauges["kernel.heap_depth", KERNEL_PID]

        def probe(now):
            readings.append((now, counter.value, gauge.value))
    else:
        def probe(now):
            pass
    k.call_every(0.25, probe)
    events = [k.event(f"e{i}") for i in range(N_EVENTS)]
    procs = []
    for me, script in enumerate(program):
        procs.append(
            k.spawn(_body(k, me, script, events, procs, seen, probe), name=f"p{me}")
        )
    if mode[0] == "deadline":
        until = mode[1]
    elif mode[0] in ("event", "event+drain"):
        until = events[mode[1]]
    elif mode[0] == "process":
        until = procs[mode[1] % len(procs)]
    else:
        until = None
    try:
        if mode[0] == "steps":
            while k._heap or k._ready:
                k.step()
                probe(k.now)
            outcome = ("stepped", None)
        elif mode[0] == "event+drain":  # stop mid-instant, then go on
            outcome = ("returned", (k.run(until), k.run()))
        else:
            outcome = ("returned", k.run(until))
    except Exception as exc:  # noqa: BLE001 - the error type is the outcome
        outcome = ("raised", type(exc).__name__)
    probe(k.now)
    return {
        "trace": dispatched(),
        "seen": seen,
        "outcome": outcome,
        "now": k.now,
        "events_dispatched": k.events_dispatched,
        "instruments": (readings, counter.value, gauge.value, gauge.max)
        if tel.enabled else None,
    }


def _on_real_kernel(k, program, mode):
    with dispatch_log(k) as log:
        return _execute(
            k, program, mode,
            # num_waiters is set at dispatch and stays, so it is read afterwards.
            lambda: [
                (when, seq, ev.name, "delay" if delay_over else ev.num_waiters)
                for when, seq, ev, delay_over in log
            ],
        )


def _on_reference(program, mode):
    k = ReferenceKernel(telemetry=Telemetry())
    return _execute(k, program, mode, lambda: k.dispatched)


def _assert_matches_the_reference(program, mode):
    expected = _on_reference(program, mode)
    assert expected["instruments"][1] == expected["events_dispatched"]
    assert _on_real_kernel(Kernel(telemetry=Telemetry()), program, mode) == expected
    # Telemetry off: the same schedule, and neither instrument exists.
    plain = Kernel()
    assert _on_real_kernel(plain, program, mode) == {**expected, "instruments": None}
    assert not hasattr(plain, "_ctr_dispatched") and not hasattr(plain, "_gauge_heap")
    assert not NULL_TELEMETRY.counters and not NULL_TELEMETRY.gauges


@settings(max_examples=300, deadline=None)
@given(program=scripts, mode=modes)
# Joins over a child already dispatched (succeeded or failed) and over one
# that fails while the join waits: the paths random programs rarely reach.
@example(
    program=[[("succeed", 0), ("nap", 0.5), ("mpi_join", [0, 1])], [("nap", 1.0), ("succeed", 1)]],
    mode=("drain",),
)
@example(program=[[("fail", 0), ("nap", 0.5), ("mpi_join", [1, 0])]], mode=("drain",))
@example(
    program=[[("mpi_join", [0, 1])], [("nap", 0.5), ("fail", 1), ("nap", 0.5), ("succeed", 0)]],
    mode=("drain",),
)
# The two-level schedule's edges: entries due now (the FIFO) behind the rest
# of an instant the clock just reached (moved off the heap).  Each first
# dispatch of a tie at 0.1 schedules something due now; 0.1 is short of the
# probe hook's first firing, so no hook walk does the move instead.
# Zero delays, both spellings:
@example(
    program=[
        [("sleep", 0.1), ("nap", 0.0), ("sleep", 0.0), ("succeed", 0)],
        [("nap", 0.1), ("sleep", 0.0), ("nap", 0.0), ("wait", 0)],
        [("sleep", 0.1), ("wait", 0)],
    ],
    mode=("drain",),
)
# Timeout(0) and succeed_after(0):
@example(
    program=[
        [("nap", 0.1), ("succeed_after", 0, 0.0), ("sleep", 0.0), ("wait", 1)],
        [("sleep", 0.1), ("wait", 0), ("succeed_after", 1, 0.0)],
        [("nap", 0.1), ("any_of", [0], 0.0)],
    ],
    mode=("drain",),
)
# Delays the clock absorbs (0.1 + 1e-18 == 0.1, as 1e6 + 1e-12 == 1e6) are
# due now:
@example(
    program=[
        [("nap", 0.1), ("nap", 1e-18), ("wait", 0)],
        [("sleep", 0.1), ("sleep", 1e-18), ("succeed_after", 1, 1e-18)],
        [("nap", 0.1), ("succeed", 0), ("wait", 1)],
    ],
    mode=("drain",),
)
# A step() walk across a same-instant batch:
@example(
    program=[
        [("sleep", 0.1), ("nap", 0.0), ("succeed", 0)],
        [("nap", 0.1), ("wait", 0)],
        [("sleep", 0.1), ("sleep", 0.0)],
    ],
    mode=("steps",),
)
# run(until=<event>) stops with the instant half dispatched; run() resumes it:
@example(
    program=[
        [("nap", 0.1), ("succeed", 0), ("nap", 0.0)],
        [("sleep", 0.1), ("nap", 0.0)],
        [("nap", 0.1), ("wait", 0)],
    ],
    mode=("event+drain", 0),
)
# interrupt() of processes sleeping 0.0, both spellings:
@example(
    program=[
        [("sleep", 0.1), ("nap", 0.0), ("nap", 0.5)],
        [("nap", 0.1), ("interrupt", 0)],
        [("sleep", 0.1), ("sleep", 0.0)],
        [("nap", 0.1), ("interrupt", 2)],
    ],
    mode=("drain",),
)
# call_every(first=now) registered mid-batch:
@example(
    program=[
        [("sleep", 0.1), ("hook", 0.5, 0.0), ("nap", 0.0)],
        [("nap", 0.1), ("succeed", 0)],
        [("sleep", 0.1), ("wait", 0)],
    ],
    mode=("drain",),
)
def test_single_loop_matches_the_reference_scheduler(program, mode):
    _assert_matches_the_reference(program, mode)


def _respelled(program, kind):
    return [
        [(kind, op[1]) if op[0] in ("sleep", "nap") else op for op in script]
        for script in program
    ]


@settings(max_examples=200, deadline=None)
@given(program=scripts, mode=modes)
def test_a_float_delay_schedules_exactly_like_a_timeout(program, mode):
    runs = []
    for kind in ("nap", "sleep"):
        got = _on_real_kernel(Kernel(telemetry=Telemetry()), _respelled(program, kind), mode)
        # The entry is a process here and a Timeout there; where it sits in
        # the schedule is what must not move.
        got["trace"] = [(when, seq) for when, seq, _name, _waiters in got["trace"]]
        got["seen"] = [
            (now, me, what.replace(kind, "delay"), *rest) for now, me, what, *rest in got["seen"]
        ]
        runs.append(got)
    assert runs[0] == runs[1]


# The ways _dispatch can be left, each on a program that keeps events queued
# behind the exit so a stale counter or heap depth would show.
_BUSY = [("sleep", 0.5), ("nap", 0.0), ("sleep", 1.0), ("nap", 1.5)]


@pytest.mark.parametrize(
    "program, mode, outcome",
    [
        ([_BUSY, [("sleep", 1.0), ("crash",)], _BUSY], ("drain",), ("raised", "ProcessCrashError")),
        ([_BUSY, [("sleep", 1.0), ("succeed", 0)], _BUSY], ("event", 0), ("returned", "p1")),
        ([_BUSY, [("sleep", 1.0)], _BUSY], ("process", 1), ("returned", "p1 done")),
        ([_BUSY, _BUSY], ("deadline", 1.0), ("returned", None)),
        ([_BUSY, _BUSY], ("deadline", 10.0), ("returned", None)),
        ([_BUSY, [("hook", 0.5, 0.0)], _BUSY], ("steps",), ("stepped", None)),
        ([_BUSY, [("wait", 0)]], ("drain",), ("raised", "DeadlockError")),
    ],
)
def test_instruments_are_current_however_the_loop_is_left(program, mode, outcome):
    _assert_matches_the_reference(program, mode)
    got = _on_real_kernel(Kernel(telemetry=Telemetry()), program, mode)
    assert got["outcome"] == outcome
    readings, counter, _depth, high = got["instruments"]
    assert counter == got["events_dispatched"] > 0
    assert len(readings) > 1 and high >= max(depth for _now, _count, depth in readings)


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
    assert got == {**_on_reference(program, ("drain",)), "instruments": None}
