"""Fault injection: plans, the injector, failover, and chaos resilience."""

import json

import pytest

from repro.apps.nas.adi import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError, ProcessCrashError, SimulationError
from repro.faults.plan import (
    ANALYZER_CRASH, ANALYZER_STALL, CANNED_PLANS, LINK_DEGRADE, PACK_CORRUPT, PACK_DROP, FaultPlan,
    FaultSpec, make_plan,
)
from repro.instrument.overhead import InstrumentationCost
from repro.telemetry.core import Telemetry


# ---------------------------------------------------------------------------------
# Plan validation and serialization
# ---------------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ConfigError):
        FaultSpec("meteor_strike", at=1.0)
    with pytest.raises(ConfigError):
        FaultSpec(ANALYZER_CRASH, at=0.0)
    with pytest.raises(ConfigError):
        FaultSpec(ANALYZER_CRASH, at=1.0, target=0)  # gather root is off-limits
    with pytest.raises(ConfigError):
        FaultSpec(LINK_DEGRADE, at=1.0, factor=0.0)
    with pytest.raises(ConfigError):
        FaultSpec(LINK_DEGRADE, at=1.0)  # neither knob changes anything
    with pytest.raises(ConfigError):
        FaultSpec(PACK_CORRUPT, at=1.0, every=0)
    with pytest.raises(ConfigError):
        FaultSpec(ANALYZER_STALL, at=1.0, duration=0.0)


def test_plan_json_roundtrip():
    plan = make_plan("mixed", at=2.0, seed=7)
    data = json.loads(plan.to_json())
    back = FaultPlan.from_json(data)
    assert back == plan
    assert back.name == "mixed"
    assert back.seed == 7
    assert len(back) == 3


def test_plan_from_json_rejects_garbage():
    with pytest.raises(ConfigError):
        FaultPlan.from_json({"nofaults": []})
    with pytest.raises(ConfigError):
        FaultPlan.from_json({"faults": [{"kind": ANALYZER_CRASH, "bogus": 1}]})


@pytest.mark.parametrize("text, match", [
    ("{not json", "not valid JSON"),
    ('{"faults": [{"kind": "analyzer_crash", "at": NaN}]}', "fault at must be a finite number"),
    ('{"faults": [{"kind": "analyzer_crash", "at": Infinity}]}', "fault at must be a finite number"),
    ('{"faults": [{"kind": "analyzer_crash", "at": "1.0"}]}', "fault at must be a finite number"),
    ('{"faults": [{"kind": "analyzer_crash", "at": true}]}', "fault at must be a finite number"),
    ('{"faults": [{"kind": "link_degrade", "at": 1.0, "factor": NaN}]}',
     "fault factor must be a finite number"),
    ('{"faults": [{"kind": "link_degrade", "at": 1.0, "extra_latency": -Infinity}]}',
     "fault extra_latency must be a finite number"),
    ('{"faults": [{"kind": "analyzer_stall", "at": 1.0, "duration": Infinity}]}',
     "fault duration must be a finite number"),
    ('{"faults": [{"kind": "analyzer_crash", "at": 1.0, "target": "a"}]}',
     "fault target must be an integer"),
    ('{"faults": [{"kind": "analyzer_crash", "at": 1.0, "target": 1.0}]}',
     "fault target must be an integer"),
    ('{"faults": [{"kind": "pack_drop", "at": 1.0, "every": true}]}',
     "fault every must be an integer"),
])
def test_plan_from_json_rejects_bad_values(text, match):
    with pytest.raises(ConfigError, match=match):
        FaultPlan.from_json(text)


def test_every_canned_plan_builds():
    for name in CANNED_PLANS:
        plan = make_plan(name, at=1.5, seed=3)
        assert len(plan) >= 1
        assert not plan.empty
    with pytest.raises(ConfigError):
        make_plan("nonesuch")


# ---------------------------------------------------------------------------------
# Session-level behavior
# ---------------------------------------------------------------------------------


def _session(machine, *, telemetry=None, nprocs=4, readers=2):
    cost = InstrumentationCost(block_size=4096, na_buffers=2)
    session = CouplingSession(
        machine=machine, seed=0, instrumentation=cost, telemetry=telemetry
    )
    name = session.add_application(SP(nprocs, "C", iterations=3))
    session.set_analyzer(nprocs=readers)
    return session, name


def _anchor(machine):
    """Healthy wall-time of the reference workload, for mid-run fault anchors."""
    session, name = _session(machine)
    return session.run().app(name).walltime


def test_empty_plan_is_bit_identical(machine):
    baseline, _ = _session(machine)
    base = baseline.run()

    planned, _ = _session(machine)
    planned.inject_faults(FaultPlan(specs=()))
    res = planned.run()

    assert res.degraded is False
    assert res.faults is None  # empty plan: injector never constructed
    assert res.data_loss_fraction == 0.0
    for name, run in base.apps.items():
        other = res.apps[name]
        assert (run.walltime, run.events, run.packs) == (
            other.walltime,
            other.events,
            other.packs,
        )
    assert base.analyzer_walltime == res.analyzer_walltime
    assert base.analyzer_stats["packs"] == res.analyzer_stats["packs"]


@pytest.mark.chaos
def test_crash_failover_completes_and_remaps(machine):
    at = _anchor(machine) * 0.35
    telemetry = Telemetry()
    session, name = _session(machine, telemetry=telemetry)
    monitor = session.enable_monitor()
    session.inject_faults(make_plan("crash1", at=at, seed=0))
    res = session.run()

    assert res.degraded is True
    assert res.apps[name].walltime > 0  # the application completed
    assert res.faults["dead_ranks"], "the crash must actually land"
    assert res.faults["remapped"], "orphan writers must be re-routed"
    survivors = set(res.faults["remapped"].values())
    assert not survivors & set(res.faults["dead_ranks"])
    assert res.analyzer_stats["degraded"] is True
    assert res.analyzer_stats["dead_analyzer_ranks"]
    # The run still reports a data-loss fraction (possibly zero: failover
    # can be lossless when no block was in flight to the dead rank).
    assert 0.0 <= res.data_loss_fraction < 1.0
    kinds = {a.kind for a in monitor.alerts}
    assert "analyzer_crash" in kinds
    assert "analyzer_failover" in kinds


@pytest.mark.chaos
def test_crash_is_deterministic(machine):
    at = _anchor(machine) * 0.35

    def run_once():
        session, _ = _session(machine)
        session.inject_faults(make_plan("mixed", at=at, seed=5))
        res = session.run()
        times = tuple(r["t"] for r in res.faults["records"])
        return (
            times,
            res.faults["injected"],
            tuple(sorted(res.faults["dead_ranks"])),
            res.data_loss_fraction,
            res.analyzer_stats["packs"],
            res.analyzer_stats["packs_rejected"],
        )

    assert run_once() == run_once()


@pytest.mark.chaos
def test_corrupt_packs_rejected_not_crashing(machine):
    at = _anchor(machine) * 0.3
    session, name = _session(machine)
    session.inject_faults(
        FaultPlan(specs=(FaultSpec(PACK_CORRUPT, at=at, every=2),), name="corrupt2")
    )
    res = session.run()
    assert res.degraded is True
    assert res.analyzer_stats["packs_rejected"] >= 1
    # Rejected packs count as loss but never poison the analyzer.
    assert res.data_loss_fraction > 0.0
    assert res.analyzer_stats["packs"] >= 1
    assert res.apps[name].walltime > 0


@pytest.mark.chaos
def test_dropped_packs_accounted(machine):
    at = _anchor(machine) * 0.3
    session, name = _session(machine)
    session.inject_faults(
        FaultPlan(specs=(FaultSpec(PACK_DROP, at=at, every=2),), name="drop2")
    )
    res = session.run()
    assert res.apps[name].packs_dropped >= 1
    assert res.data_loss_fraction > 0.0
    attempted = res.apps[name].packs + res.apps[name].packs_dropped
    assert res.analyzer_stats["packs"] == attempted - res.apps[name].packs_dropped


@pytest.mark.chaos
def test_degrade_slows_the_coupling(machine):
    healthy, name = _session(machine)
    base = healthy.run()

    at = base.app(name).walltime * 0.2
    session, name = _session(machine)
    session.inject_faults(
        FaultPlan(
            specs=(FaultSpec(LINK_DEGRADE, at=at, target=-1, factor=0.05),),
            name="brutal-degrade",
        )
    )
    res = session.run()
    assert res.degraded is True
    # Analysis finishes later on a 20x-slower link; the app itself survives.
    assert res.analyzer_walltime >= base.analyzer_walltime
    assert res.analyzer_stats["packs"] == base.analyzer_stats["packs"]


@pytest.mark.chaos
def test_stall_fault_freezes_consumer(machine):
    base_session, name = _session(machine)
    base = base_session.run()
    at = base.app(name).walltime * 0.3

    session, name = _session(machine)
    session.inject_faults(
        FaultPlan(
            specs=(FaultSpec(ANALYZER_STALL, at=at, target=-1, duration=5.0),),
            name="stall5",
        )
    )
    res = session.run()
    assert res.degraded is True
    assert res.faults["by_kind"].get(ANALYZER_STALL) == 1
    # No data is lost to a stall: backpressure absorbs it.
    assert res.analyzer_stats["packs"] == base.analyzer_stats["packs"]


def test_injector_misuse_rejected(machine):
    session, _ = _session(machine)
    with pytest.raises(ConfigError):
        session.inject_faults("crash1")
    session.inject_faults(FaultPlan(specs=()))
    with pytest.raises(ConfigError):
        session.inject_faults(FaultPlan(specs=()))


def test_crash_target_resolution_bounds(machine):
    plan = FaultPlan(specs=(FaultSpec(ANALYZER_CRASH, at=1.0, target=99),))
    session, _ = _session(machine)
    session.inject_faults(plan)
    with pytest.raises(ConfigError):
        session.run()


# ---------------------------------------------------------------------------------
# Kernel-level crash surfacing
# ---------------------------------------------------------------------------------


def test_unabsorbed_crash_is_typed(kernel):
    from repro.simt.process import Process

    def boom():
        yield kernel.timeout(1.0)
        raise RuntimeError("meteor")

    Process(kernel, boom(), name="doomed")
    with pytest.raises(ProcessCrashError) as exc:
        kernel.run()
    assert isinstance(exc.value, SimulationError)
    assert "doomed" in str(exc.value)


# ---------------------------------------------------------------------------------
# Chaos bench driver
# ---------------------------------------------------------------------------------


@pytest.mark.chaos
def test_chaos_bench_single_plan(machine):
    from repro.bench.chaos import chaos_resilience

    result = chaos_resilience(scale="small", seed=0, plan="crash1")
    assert [p.plan for p in result.points] == ["none", "crash1"]
    healthy, chaotic = result.points
    assert healthy.degraded is False and healthy.data_loss_fraction == 0.0
    assert chaotic.degraded is True
    assert chaotic.completed is True
    assert chaotic.dead_ranks == 1
    table = result.table()
    assert "data_loss_pct" in table.columns
    assert len(table.rows) == 2


def test_chaos_plan_loader(tmp_path):
    from repro.bench.chaos import load_plan

    plan = load_plan("degrade", at=3.0, seed=2)
    assert plan.name == "degrade"

    path = tmp_path / "custom.json"
    path.write_text(make_plan("drop", at=1.0).to_json())
    loaded = load_plan(str(path), at=99.0)
    assert loaded.name == "drop"
    assert loaded.specs[0].at == 1.0  # file timestamps used verbatim

    with pytest.raises(ConfigError):
        load_plan("not-a-plan-or-file", at=1.0)


@pytest.mark.parametrize("seed", ['"abc"', "null", "[1]"])
def test_chaos_plan_loader_names_a_bad_seed(tmp_path, seed):
    from repro.bench.chaos import load_plan

    path = tmp_path / "bad.json"
    path.write_text(f'{{"faults": [], "seed": {seed}}}')
    with pytest.raises(ConfigError, match="fault plan 'seed' must be an integer"):
        load_plan(str(path), at=1.0)
