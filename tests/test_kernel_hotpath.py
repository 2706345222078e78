"""The dispatch loop's observable contract, from every way into it.

``Kernel._dispatch`` is the only loop: ``run()`` (drain), ``run(until=<deadline>)``,
``run(until=<event>)`` and ``step()`` all go through it, with telemetry as
one branch inside.  Every case here runs from each of the three ``run()``
modes with telemetry off and on, and pins what they must share: hook firing
points relative to same-timestamp ties, ``call_every(first=)`` grid
alignment, the stale-cache edges around cancellation and empty schedules,
crash surfacing, and stale wake-ups after an interrupt.

The cases that predate the single loop keep their names and ids (some still
say "batch" or "drains", after the second loop they were written against)
and walk the three modes inside; the newer ones take ``mode`` as a parameter.
"""

import pytest

from repro.errors import ProcessCrashError, SimulationError
from repro.simt import Interrupt, Kernel
from repro.telemetry import Telemetry

from _kernel_reference import ReferenceKernel, dispatch_log

MODES = ("drain", "deadline", "event")


def _instrumented_kernel() -> Kernel:
    return Kernel(telemetry=Telemetry())


both_kernels = pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])


@pytest.fixture(params=[Kernel, _instrumented_kernel])
def k(request):
    return request.param()


@pytest.fixture(params=MODES)
def mode(request):
    return request.param


def _drive(k, mode, last, end):
    """Run until ``last`` — the process that finishes last, at ``end`` — is
    done, entering the loop through ``mode``."""
    if mode == "drain":
        k.run()
    elif mode == "deadline":
        k.run(until=end)
    else:
        k.run(until=last)
    assert k.now == end


def _sleeper(k, log, name, delays):
    def proc(kk):
        for d in delays:
            yield kk.timeout(d)
            log.append((name, kk.now))

    return k.spawn(proc(k), name=name)


# -- hook ordering around same-timestamp ties ------------------------------------------


@both_kernels
def test_hook_fires_once_before_first_event_of_a_tie_batch(make_kernel):
    for mode in MODES:
        k = make_kernel()
        log = []
        for name in ("a", "b"):
            _sleeper(k, log, name, [1.0])
        last = _sleeper(k, log, "c", [1.0])
        k.call_every(10.0, lambda now, log=log: log.append(("hook", now)), first=1.0)
        _drive(k, mode, last, 1.0)
        assert log == [("hook", 1.0), ("a", 1.0), ("b", 1.0), ("c", 1.0)], mode


@both_kernels
def test_hook_interleaves_between_timestamp_batches(make_kernel):
    for mode in MODES:
        k = make_kernel()
        log = []
        _sleeper(k, log, "a", [1.0, 1.0])
        last = _sleeper(k, log, "b", [1.0, 1.0])
        k.call_every(1.0, lambda now, log=log: log.append(("hook", now)))
        _drive(k, mode, last, 2.0)
        assert log == [
            ("hook", 1.0), ("a", 1.0), ("b", 1.0),
            ("hook", 2.0), ("a", 2.0), ("b", 2.0),
        ], mode


@both_kernels
def test_hook_registered_mid_batch_fires_within_the_batch(make_kernel):
    # A callback dispatched at t may register a hook due exactly at t; the
    # per-event due compare must catch it before the tie's next event.
    for mode in MODES:
        k = make_kernel()
        log = []

        def registrar(kk, log=log):
            yield kk.timeout(1.0)
            log.append(("registrar", kk.now))
            kk.call_every(5.0, lambda now: log.append(("hook", now)), first=kk.now)

        k.spawn(registrar(k), name="registrar")
        last = _sleeper(k, log, "b", [1.0])
        _drive(k, mode, last, 1.0)
        assert log == [("registrar", 1.0), ("hook", 1.0), ("b", 1.0)], mode


def test_fast_and_instrumented_drains_agree():
    # Telemetry changes nothing the simulation can see, in any mode.
    for mode in MODES:
        runs = []
        for k in (Kernel(), _instrumented_kernel()):
            log = []
            _sleeper(k, log, "a", [0.5, 0.5, 1.0])
            last = _sleeper(k, log, "b", [1.0, 1.0])
            k.call_every(0.7, lambda now, log=log: log.append(("hook", now)))
            _drive(k, mode, last, 2.0)
            runs.append((log, k.now, k.events_dispatched))
        assert runs[0] == runs[1], mode


@both_kernels
def test_hook_catches_up_across_an_event_gap(make_kernel):
    # Events at 0.5 and 3.5 with a 1.0 hook: the 3.5 dispatch owes three
    # grid points, each fired with the clock reading its exact due time.
    for mode in MODES:
        k = make_kernel()
        seen = []
        k.call_every(1.0, lambda now, k=k, seen=seen: seen.append((now, k.now)))

        def proc(kk):
            yield kk.timeout(0.5)
            yield kk.timeout(3.0)

        _drive(k, mode, k.spawn(proc(k)), 3.5)
        assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)], mode


# -- a hook that schedules ----------------------------------------------------------------
# Hooks are observers and should not, but one that does is held to the schedule
# as it always was: an entry due before the popped instant is in the past, one
# due at it takes its (time, seq) place among the entries due then.


@pytest.mark.parametrize(
    "schedule",
    [lambda k: k.event().succeed(), lambda k: k.timeout(0.0), lambda k: k.timeout(0.5)],
    ids=["succeed", "timeout(0)", "timeout(0.5)"],
)
def test_a_hook_scheduling_before_the_popped_instant_is_an_error(k, mode, schedule):
    # The hook fires at 1.0 on the way to the sleeper's 5.0: what it
    # schedules is due at 1.0 or 1.5, and the clock cannot go back there.
    k.call_every(1.0, lambda now: schedule(k))
    last = _sleeper(k, [], "s", [5.0])
    with pytest.raises(SimulationError, match="time went backwards"):
        _drive(k, mode, last, 5.0)


def _hooked_tie(k):
    """Three processes due at 5.0, a hook at 2.0 scheduling a timeout due at
    5.0 and one at 5.0 scheduling two events due then; the last process."""
    k.call_every(100.0, lambda now: k.timeout(3.0), first=2.0)
    k.call_every(100.0, lambda now: (k.event("now").succeed(), k.timeout(0.0)), first=5.0)

    def proc(kk, delay):
        yield delay
        yield 0.0

    procs = [k.spawn(proc(k, k.timeout(5.0) if i % 2 else 5.0), name=f"p{i}") for i in range(3)]
    return procs[-1]


@pytest.mark.parametrize("make_kernel", [Kernel, _instrumented_kernel])
def test_a_hook_scheduling_at_the_popped_instant_keeps_the_order(make_kernel, mode):
    real = make_kernel()
    with dispatch_log(real) as log:
        _drive(real, mode, _hooked_tie(real), 5.0)
    reference = ReferenceKernel()
    _drive(reference, mode, _hooked_tie(reference), 5.0)
    assert [(when, seq, event.name) for when, seq, event, _delay_over in log] == [
        (when, seq, name) for when, seq, name, _waiters in reference.dispatched
    ]
    assert real.events_dispatched == reference.events_dispatched == len(log)


# -- call_every(first=) grid alignment ----------------------------------------------


def _every_kernel_and_mode():
    for make_kernel in (Kernel, _instrumented_kernel):
        for mode in MODES:
            yield make_kernel(), f"{make_kernel.__name__}/{mode}", mode


def test_first_pins_the_firing_grid_absolutely():
    for k, where, mode in _every_kernel_and_mode():
        k.run(until=0.3)  # attach late, off-grid
        fired = []
        k.call_every(2.0, fired.append, first=5.0)

        def ticker(kk):
            while kk.now < 9.8:
                yield kk.timeout(0.5)

        _drive(k, mode, k.spawn(ticker(k)), 9.8)
        assert fired == [5.0, 7.0, 9.0], where


def test_first_in_the_past_rejected():
    k = Kernel()
    k.run(until=2.0)
    with pytest.raises(SimulationError, match="in the past"):
        k.call_every(1.0, lambda now: None, first=1.5)


def test_first_exactly_now_fires_on_next_dispatch():
    for k, where, mode in _every_kernel_and_mode():
        k.run(until=2.0)
        fired = []
        k.call_every(1.0, fired.append, first=2.0)
        _drive(k, mode, _sleeper(k, [], "a", [0.0]), 2.0)
        assert fired == [2.0], where


def test_default_first_is_one_interval_from_attach():
    for k, where, mode in _every_kernel_and_mode():
        k.run(until=1.25)
        fired = []
        k.call_every(0.5, fired.append)
        _drive(k, mode, _sleeper(k, [], "a", [1.0]), 2.25)
        assert fired == [1.75, 2.25], where


# -- cancellation and empty-schedule edges ------------------------------------------


@both_kernels
def test_cancel_every_from_inside_the_hook(make_kernel):
    for mode in MODES:
        k = make_kernel()
        fired = []
        hooks = []

        def fn(now, k=k, fired=fired, hooks=hooks):
            fired.append(now)
            if len(fired) == 2:
                k.cancel_every(hooks[0])

        hooks.append(k.call_every(1.0, fn))
        _drive(k, mode, _sleeper(k, [], "a", [1.0] * 6), 6.0)
        assert fired == [1.0, 2.0], mode
        assert hooks[0].fired == 2, mode


@both_kernels
def test_directly_cancelled_hook_leaves_stale_low_cache_harmless(make_kernel):
    # hook.cancel() skips cancel_every()'s cache recompute, leaving
    # _hooks_due stale-LOW: the loop calls _fire_hooks once, which fires
    # nothing and repairs the cache.  It must never fire the dead hook.
    for mode in MODES:
        k = make_kernel()
        fired = []
        hook = k.call_every(1.0, fired.append)
        hook.cancel()
        _drive(k, mode, _sleeper(k, [], "a", [1.0, 1.0, 1.0]), 3.0)
        assert fired == [], mode


def test_directly_cancelled_hooks_are_forgotten_not_rescanned(k, mode):
    # hook.cancel() is the path every plane's detach takes.  Fifty
    # register/cancel rounds beside two live hooks: the registry holds the
    # survivors only, and they fire at the same points, in registration
    # order, as if the others had never existed.
    order = []
    first = k.call_every(1.0, lambda now: order.append(("first", now)))
    doomed = []
    for _ in range(25):
        doomed.append(k.call_every(1.0, lambda now: order.append(("dead", now))))
        doomed[-1].cancel()
    second = k.call_every(1.0, lambda now: order.append(("second", now)))

    def churn(now):  # 25 more rounds, from inside a firing hook
        if len(doomed) < 50:
            doomed.append(k.call_every(0.5, lambda now: order.append(("dead", now))))
            doomed[-1].cancel()

    third = k.call_every(0.25, churn)
    _drive(k, mode, _sleeper(k, [], "a", [1.0] * 8), 8.0)
    assert len(doomed) == 50 and not any(h.fired for h in doomed)
    assert k._hooks == [first, second, third]
    assert order == [(name, float(t)) for t in range(1, 9) for name in ("first", "second")]
    assert (first.fired, second.fired, third.fired) == (8, 8, 32)


def test_hooks_alone_do_not_keep_the_simulation_alive():
    for k in (Kernel(), _instrumented_kernel()):
        fired = []
        k.call_every(1.0, fired.append)
        k.run()  # empty schedule, no live processes: clean return
        assert fired == []
        assert k.now == 0.0


@both_kernels
def test_no_hook_fires_in_the_idle_gap_before_a_deadline(make_kernel):
    k = make_kernel()
    fired = []
    k.call_every(1.0, fired.append)
    _sleeper(k, [], "a", [1.0])
    k.run(until=5.0)
    assert fired == [1.0]
    assert k.now == 5.0


@both_kernels
def test_stop_event_leaves_same_timestamp_peers_schedulable(make_kernel):
    # run(until=<event>) stops as soon as the event triggers, even inside
    # a same-timestamp tie; the peers must fire on the next run().
    k = make_kernel()
    log = []
    target = _sleeper(k, log, "target", [1.0])
    _sleeper(k, log, "late", [1.0])
    k.run(until=target)
    assert log == [("target", 1.0)]
    k.run()
    assert log == [("target", 1.0), ("late", 1.0)]


def test_cache_recomputes_after_cancelling_the_earliest_hook():
    for k, where, mode in _every_kernel_and_mode():
        early_fired, late_fired = [], []
        early = k.call_every(1.0, early_fired.append)
        k.call_every(2.5, late_fired.append)
        k.cancel_every(early)
        _drive(k, mode, _sleeper(k, [], "a", [1.0] * 6), 6.0)
        assert early_fired == [], where
        assert late_fired == [2.5, 5.0], where


# -- crashes and interrupts, from every mode --------------------------------------------


def test_unjoined_crash_surfaces_from_every_mode(k, mode):
    def boom(kk):
        yield kk.timeout(1.0)
        raise ValueError("inner")

    k.spawn(boom(k), name="boom")
    bystander = _sleeper(k, [], "bystander", [2.0])
    with pytest.raises(ProcessCrashError, match="boom") as info:
        _drive(k, mode, bystander, 2.0)
    assert isinstance(info.value.__cause__, ValueError)
    assert k.now == 1.0


def test_joined_crash_does_not_surface(k, mode):
    def boom(kk):
        yield kk.timeout(1.0)
        raise ValueError("inner")

    def joiner(kk, child):
        try:
            yield child
        except ValueError as exc:
            return str(exc)

    last = k.spawn(joiner(k, k.spawn(boom(k), name="boom")), name="joiner")
    _drive(k, mode, last, 1.0)
    assert last.value == "inner"


def test_stale_wakeup_after_interrupt_ignored(k, mode):
    # "bully" and "victim" wait on one event, the bully registered first.
    # Dispatching it wakes the bully, who interrupts the victim while the
    # victim's own wake-up from the same dispatch is still to come: that
    # wake-up is stale and must not resume the victim; the Interrupt must.
    log = []
    shared = k.event("shared")
    procs = {}

    def bully(kk):
        yield shared
        procs["victim"].interrupt("mine")

    def victim(kk):
        try:
            log.append(("victim got", (yield shared)))
        except Interrupt as intr:
            log.append(("victim interrupted", intr.cause, kk.now))
        yield kk.timeout(1.0)
        log.append(("victim done", kk.now))

    def trigger(kk):
        yield kk.timeout(1.0)
        shared.succeed("value")

    k.spawn(trigger(k), name="trigger")
    k.spawn(bully(k), name="bully")
    procs["victim"] = k.spawn(victim(k), name="victim")
    _drive(k, mode, procs["victim"], 2.0)
    assert log == [("victim interrupted", "mine", 1.0), ("victim done", 2.0)]


def test_interrupted_sleeper_ignores_its_old_timeout(k, mode):
    resumed = []

    def worker(kk):
        try:
            yield kk.timeout(5.0)
            resumed.append("timeout")
        except Interrupt:
            resumed.append("interrupt")
        yield kk.timeout(10.0)
        resumed.append("second")

    def boss(kk, target):
        yield kk.timeout(1.0)
        target.interrupt()

    target = k.spawn(worker(k), name="worker")
    k.spawn(boss(k, target), name="boss")
    _drive(k, mode, target, 11.0)
    assert resumed == ["interrupt", "second"]


# -- step() and run() are the same loop ---------------------------------------------------


def _tie_heavy(k):
    log = []
    _sleeper(k, log, "a", [0.0, 1.0, 0.0, 1.0])
    _sleeper(k, log, "b", [1.0, 0.0, 1.0])
    target = _sleeper(k, log, "c", [0.5, 1.5])
    k.call_every(0.75, lambda now: log.append(("hook", now)))
    return log, target


def test_run_until_event_dispatches_exactly_what_stepping_does():
    ran, stepped = Kernel(), Kernel()
    ran_log, target = _tie_heavy(ran)
    ran.run(until=target)

    stepped_log, target = _tie_heavy(stepped)
    while not target.triggered:
        stepped.step()

    assert ran.events_dispatched == stepped.events_dispatched
    assert (ran_log, ran.now) == (stepped_log, stepped.now)
    # ... and both leave the same events behind for the next run().
    ran.run()
    stepped.run()
    assert ran.events_dispatched == stepped.events_dispatched
    assert (ran_log, ran.now) == (stepped_log, stepped.now)


def test_step_dispatches_one_event_whatever_its_state(k):
    # The head may be PENDING (a timeout) or already triggered (a succeeded
    # event waiting for dispatch); step() dispatches exactly it either way.
    k.event("ready").succeed()
    k.timeout(0.0)
    k.event("also ready").succeed()
    for expected in (1, 2, 3):
        k.step()
        assert k.events_dispatched == expected
    with pytest.raises(SimulationError, match="empty schedule"):
        k.step()
