"""Adaptive steering: policies, the controller's control loop, bench gates."""

import dataclasses
import json

import pytest

from repro.analysis.alerts import AlertRouter
from repro.apps.nas import SP
from repro.bench.steering import (
    SteeringBenchPoint,
    _gate,
    bench_policy,
    steering_adaptation,
)
from repro.codec.frame import parse_frame
from repro.core.session import CouplingSession
from repro.errors import BenchGateError, ConfigError, InstrumentationError
from repro.faults import LINK_DEGRADE, FaultPlan, FaultSpec
from repro.instrument import EventPackBuilder, decode_pack
from repro.instrument.interceptor import StreamingInstrumentation
from repro.instrument.overhead import InstrumentationCost
from repro.mpi.costmodel import CostModel
from repro.mpi.pmpi import CallRecord
from repro.network.machine import TERA100
from repro.simt import Kernel
from repro.steering import (
    ESCALATE_REDUCTION,
    REBALANCE_WRITERS,
    RELAX_REDUCTION,
    SCALE_DOWN_WORKERS,
    SCALE_UP_WORKERS,
    SteeringController,
    SteeringPolicy,
)
from repro.steering.controller import QUIESCENCE
from repro.steering.policy import static_policy
from repro.telemetry import HealthMonitor, MonitorConfig, Telemetry

pytestmark = pytest.mark.steering


# -- policy dataclass -----------------------------------------------------------------


class TestPolicy:
    def test_defaults_are_valid_and_normalized(self):
        policy = SteeringPolicy()
        assert policy.reduction_steps[0] == ""
        assert all(isinstance(s, str) for s in policy.reduction_steps)

    def test_steps_pass_through_the_codec_validator(self):
        policy = SteeringPolicy(reduction_steps=("", "delta+dict"))
        assert policy.reduction_steps == ("", "delta+dict")

    def test_bad_chain_spec_rejected(self):
        with pytest.raises(ConfigError):
            SteeringPolicy(reduction_steps=("", "bogus-codec"))

    def test_plain_string_sequences_rejected(self):
        with pytest.raises(ConfigError):
            SteeringPolicy(escalate_on="stream_stall")

    def test_validation(self):
        with pytest.raises(ConfigError):
            SteeringPolicy(name="")
        with pytest.raises(ConfigError):
            SteeringPolicy(reduction_steps=())
        with pytest.raises(ConfigError):
            SteeringPolicy(escalate_cooldown_s=-1.0)
        with pytest.raises(ConfigError):
            SteeringPolicy(max_workers=0)
        with pytest.raises(ConfigError):
            SteeringPolicy(worker_step=1)
        with pytest.raises(ConfigError):
            SteeringPolicy(max_rebalances=-1)

    def test_json_round_trip(self):
        policy = bench_policy()
        clone = SteeringPolicy.from_json(policy.to_json())
        assert clone == policy

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown steering policy keys"):
            SteeringPolicy.from_json('{"name": "x", "warp_factor": 9}')
        with pytest.raises(ConfigError):
            SteeringPolicy.from_json("[1, 2]")
        with pytest.raises(ConfigError):
            SteeringPolicy.from_json("{not json")

    def test_static_policy_disables_every_actuator(self):
        policy = static_policy()
        assert not policy.enable_reduction
        assert not policy.enable_autoscale
        assert not policy.enable_rebalance


# -- controller unit tests over a fake world ------------------------------------------


class FakeAlert:
    """Shape-compatible stand-in for a HealthMonitor alert."""

    def __init__(self, kind, t, value=1.0, source="health_monitor"):
        self.kind = kind
        self.t_detect = t
        self.value = value
        self.severity = "warning"
        self.source = source


class FakeInterceptor:
    def __init__(self):
        self.specs = []

    def set_reduction(self, spec):
        self.specs.append(spec)
        return spec


class FakeWorld:
    def __init__(self, kernel, telemetry):
        self.kernel = kernel
        self.telemetry = telemetry
        self.streams = []
        self.faults = None
        self.flows = None
        self.steering = None


def make_rig(policy, initial_chain="", interceptors=2):
    tel = Telemetry()
    kernel = Kernel(telemetry=tel)
    world = FakeWorld(kernel, tel)
    monitor = HealthMonitor(tel, config=MonitorConfig(interval=0.05, window=0.25))
    monitor.router = AlertRouter()
    controller = SteeringController(policy)
    registry = {"app": [FakeInterceptor() for _ in range(interceptors)]}
    controller.attach(world, monitor, registry, initial_chain=initial_chain)
    monitor.attach(kernel)  # the relax pass rides the monitor's tick
    return controller, world, monitor.router, registry


def drive(kernel, router, script, until):
    """Advance virtual time, routing each scripted alert at its timestamp."""

    def proc(k):
        t = 0.0
        for at, alert in script:
            if at > t:
                yield k.timeout(at - t)
                t = at
            router.route(alert)
        if until > t:
            yield k.timeout(until - t)

    kernel.spawn(proc(kernel))
    kernel.run()


STEPS = ("", "delta+dict", "delta+dict+zlib")


def escalate_policy(**overrides):
    base = dict(
        name="t",
        reduction_steps=STEPS,
        escalate_on=("stream_stall", "stream_write_timeout"),
        escalate_cooldown_s=0.05,
        relax_after_s=0.25,
        relax_cooldown_s=0.1,
        autoscale_on=("backlog_growth",),
        autoscale_cooldown_s=0.1,
        enable_rebalance=False,
    )
    base.update(overrides)
    return SteeringPolicy(**base)


class TestControllerWiring:
    def test_attach_requires_router(self):
        tel = Telemetry()
        monitor = HealthMonitor(tel, config=MonitorConfig(interval=0.05, window=0.25))
        monitor.router = None
        controller = SteeringController()
        with pytest.raises(ConfigError):
            controller.attach(FakeWorld(Kernel(telemetry=tel), tel), monitor, {})

    def test_double_attach_rejected(self):
        controller, world, router, _ = make_rig(escalate_policy())
        tel = world.telemetry
        monitor = HealthMonitor(tel, config=MonitorConfig(interval=0.05, window=0.25))
        monitor.router = router
        with pytest.raises(ConfigError):
            controller.attach(world, monitor, {})

    def test_attach_publishes_itself_on_the_world(self):
        controller, world, _, _ = make_rig(escalate_policy())
        assert world.steering is controller

    def test_foreign_alerts_ignored(self):
        controller, world, router, registry = make_rig(escalate_policy())
        drive(world.kernel, router,
              [(0.1, FakeAlert("stream_stall", 0.1, source=""))], until=0.2)
        assert controller.alerts_seen == 0
        assert controller.decisions == []
        assert registry["app"][0].specs == []


class TestEscalation:
    def test_alert_steps_every_interceptor_up_the_ladder(self):
        controller, world, router, registry = make_rig(escalate_policy())
        drive(world.kernel, router, [
            (0.10, FakeAlert("stream_stall", 0.10)),
            (0.12, FakeAlert("stream_stall", 0.12)),  # inside cooldown
            (0.20, FakeAlert("stream_stall", 0.20)),
            (0.30, FakeAlert("stream_stall", 0.30)),  # already at the top
        ], until=0.35)
        actions = [d.action for d in controller.decisions]
        assert actions == [ESCALATE_REDUCTION, ESCALATE_REDUCTION]
        for interceptor in registry["app"]:
            assert interceptor.specs == ["delta+dict", "delta+dict+zlib"]
        d0 = controller.decisions[0]
        assert d0.trigger_kind == "stream_stall"
        assert d0.detail["from"] == "identity"
        assert d0.detail["to"] == "delta+dict"
        assert d0.detail["writers"] == 2

    def test_disabled_reduction_never_switches(self):
        controller, world, router, registry = make_rig(
            escalate_policy(enable_reduction=False, enable_autoscale=False))
        drive(world.kernel, router,
              [(0.1, FakeAlert("stream_stall", 0.1))], until=0.3)
        assert controller.decisions == []
        assert registry["app"][0].specs == []
        assert controller.alerts_seen == 1

    def test_baseline_mid_ladder_relaxes_back_to_baseline(self):
        controller, world, router, registry = make_rig(
            escalate_policy(), initial_chain="delta+dict")
        drive(world.kernel, router, [
            (0.10, FakeAlert("stream_write_timeout", 0.10)),
        ], until=1.0)
        # Escalated one level above the baseline, then relaxed back to it —
        # never below (the session's own configuration is the floor).
        actions = [d.action for d in controller.decisions]
        assert actions == [ESCALATE_REDUCTION, RELAX_REDUCTION]
        assert registry["app"][0].specs == ["delta+dict+zlib", "delta+dict"]
        assert controller.summary()["final"]["chain"] == "delta+dict"


class TestHysteresis:
    def test_windowed_congestion_blocks_relax_until_cleared(self):
        controller, world, router, _ = make_rig(escalate_policy())
        drive(world.kernel, router, [
            (0.10, FakeAlert("stream_stall", 0.10)),
            (0.60, FakeAlert("stream_stall.cleared", 0.60)),
        ], until=1.2)
        relaxes = [d for d in controller.decisions if d.action == RELAX_REDUCTION]
        assert len(relaxes) == 1
        # relax_after_s past the all-clear edge, never before it.
        assert relaxes[0].t >= 0.60 + 0.25
        assert relaxes[0].trigger_kind == QUIESCENCE

    def test_fault_kind_trigger_relaxes_by_timer_alone(self):
        # stream_write_timeout is a cumulative fault kind: no paired
        # .cleared event exists, so quiescence is purely relax_after_s.
        controller, world, router, _ = make_rig(escalate_policy())
        drive(world.kernel, router, [
            (0.10, FakeAlert("stream_write_timeout", 0.10)),
        ], until=0.6)
        relaxes = [d for d in controller.decisions if d.action == RELAX_REDUCTION]
        assert len(relaxes) == 1
        assert 0.35 <= relaxes[0].t <= 0.45

    def test_relax_steps_are_cooldown_spaced(self):
        controller, world, router, _ = make_rig(escalate_policy())
        drive(world.kernel, router, [
            (0.05, FakeAlert("stream_write_timeout", 0.05)),
            (0.15, FakeAlert("stream_write_timeout", 0.15)),  # level 2
        ], until=1.0)
        relaxes = [d for d in controller.decisions if d.action == RELAX_REDUCTION]
        assert len(relaxes) == 2
        assert relaxes[1].t - relaxes[0].t >= 0.1 - 1e-9
        assert controller.summary()["final"]["reduction_level"] == 0


class TestAutoscale:
    def test_scale_up_doubles_to_the_cap_then_back_down(self):
        controller, world, router, _ = make_rig(escalate_policy(
            enable_reduction=False, max_workers=4, worker_step=2))
        drive(world.kernel, router, [
            (0.10, FakeAlert("backlog_growth", 0.10)),
            (0.12, FakeAlert("backlog_growth", 0.12)),  # inside cooldown
            (0.25, FakeAlert("backlog_growth", 0.25)),
            (0.40, FakeAlert("backlog_growth", 0.40)),  # at the cap: no-op
            (0.50, FakeAlert("backlog_growth.cleared", 0.50)),
        ], until=1.2)
        ups = [d for d in controller.decisions if d.action == SCALE_UP_WORKERS]
        downs = [d for d in controller.decisions if d.action == SCALE_DOWN_WORKERS]
        assert [(d.detail["from"], d.detail["to"]) for d in ups] == [(1, 2), (2, 4)]
        assert [(d.detail["from"], d.detail["to"]) for d in downs] == [(4, 2), (2, 1)]
        assert controller.analysis_workers == 1


class FakeReadStream:
    mode = "r"
    _closed = False

    def __init__(self):
        self.adopted = []

    def adopt_peer(self, writer):
        self.adopted.append(writer)

    def stats(self):
        return {}


class FakeWriteStream:
    mode = "w"
    _closed = False

    def __init__(self, endpoint):
        self.endpoints = [endpoint]
        self.retargets = []

    def retarget_endpoint(self, old, new):
        if old not in self.endpoints:
            return False
        self.retargets.append((old, new))
        self.endpoints = [new]
        return True


class TestRebalance:
    def rig(self, **overrides):
        policy = escalate_policy(
            enable_reduction=False, enable_autoscale=False,
            enable_rebalance=True, rebalance_on=("load_imbalance",),
            rebalance_cooldown_s=0.0, **overrides)
        return make_rig(policy)

    def test_excess_fan_in_moves_to_underloaded_readers(self):
        controller, world, router, _ = self.rig()
        r16, r17 = FakeReadStream(), FakeReadStream()
        writers = {g: FakeWriteStream(16) for g in range(4)}
        world.streams = [(16, r16), (17, r17)] + sorted(
            (g, s) for g, s in writers.items())
        controller.on_alert(FakeAlert("load_imbalance", 0.5))
        assert [d.action for d in controller.decisions] == [REBALANCE_WRITERS]
        moves = controller.decisions[0].detail["moves"]
        # ceil(4/2) = 2 writers per reader: the two highest-ranked writers
        # assigned to the overloaded reader move, deterministically.
        assert moves == {"2": 17, "3": 17}
        assert r17.adopted == [2, 3]
        assert writers[2].retargets == [(16, 17)]
        assert writers[0].retargets == []

    def test_balanced_fan_in_records_no_decision(self):
        controller, world, router, _ = self.rig()
        world.streams = [
            (16, FakeReadStream()), (17, FakeReadStream()),
            (0, FakeWriteStream(16)), (1, FakeWriteStream(17)),
        ]
        controller.on_alert(FakeAlert("load_imbalance", 0.5))
        assert controller.decisions == []

    def test_max_rebalances_caps_the_rounds(self):
        controller, world, router, _ = self.rig(max_rebalances=1)
        r16, r17 = FakeReadStream(), FakeReadStream()
        world.streams = [(16, r16), (17, r17)] + [
            (g, FakeWriteStream(16)) for g in range(4)]
        controller.on_alert(FakeAlert("load_imbalance", 0.5))
        # Skew it again: a second alert must not act past the cap.
        for _, s in world.streams[2:]:
            s.endpoints = [16]
        controller.on_alert(FakeAlert("load_imbalance", 0.9))
        assert len(controller.decisions) == 1

    def test_single_reader_is_left_alone(self):
        controller, world, router, _ = self.rig()
        world.streams = [(16, FakeReadStream())] + [
            (g, FakeWriteStream(16)) for g in range(4)]
        controller.on_alert(FakeAlert("load_imbalance", 0.5))
        assert controller.decisions == []


# -- mid-session chain switching (the codec contract steering relies on) --------------


def _record(i, rank=0):
    return CallRecord(
        name="MPI_Send", t_start=float(i), t_end=float(i) + 0.5,
        comm_id=0, comm_rank=rank, comm_size=16, peer=(i * 7) % 16,
        tag=i, nbytes=1024 + i,
    )


class _Host:
    """The slice of StreamingInstrumentation that set_reduction touches."""

    def __init__(self, builder):
        self.chain = builder.chain
        self.builder = builder


class TestMidSessionChainSwitch:
    def seal(self, builder, base, n=8, rank=0):
        for i in range(base, base + n):
            builder.add(_record(i, rank=rank))
        return builder.emit()

    def test_interleaved_writers_decode_across_a_switch(self):
        # Two writers seal packs before, between and after two live
        # set_reduction() switches; the analyzer-side decode path sees the
        # packs interleaved and must decode each from its own descriptor.
        hosts = [
            _Host(EventPackBuilder(app_id=0, rank=rank, capacity_bytes=4096))
            for rank in (0, 1)
        ]
        wire = []
        for rank, host in enumerate(hosts):
            wire.append((rank, self.seal(host.builder, 0, rank=rank)))
        for host in hosts:
            spec = StreamingInstrumentation.set_reduction(host, "delta+dict+zlib")
            assert spec == "delta+dict+zlib"
            assert host.builder.chain is host.chain
        for rank, host in enumerate(hosts):
            wire.append((rank, self.seal(host.builder, 8, rank=rank)))
        for host in hosts:
            assert StreamingInstrumentation.set_reduction(host, None) == ""
            assert host.chain is None
        for rank, host in enumerate(hosts):
            wire.append((rank, self.seal(host.builder, 16, rank=rank)))

        specs = [parse_frame(blob).codec for _, blob in wire]
        assert specs == ["", "", "delta+dict+zlib", "delta+dict+zlib", "", ""]
        for k, (rank, blob) in enumerate(wire):
            header, events = decode_pack(blob)
            assert header.rank == rank
            assert len(events) == 8
            base = (k // 2) * 8
            assert [int(e["tag"]) for e in events] == list(range(base, base + 8))
            assert float(events[0]["t_start"]) == float(base)

    def test_bad_spec_rejected_and_chain_unchanged(self):
        host = _Host(EventPackBuilder(app_id=0, rank=0, capacity_bytes=4096))
        StreamingInstrumentation.set_reduction(host, "delta+dict")
        before = host.chain
        with pytest.raises(InstrumentationError):
            StreamingInstrumentation.set_reduction(host, "no-such-stage")
        assert host.chain is before
        assert host.builder.chain is before

    def test_buffered_records_seal_under_the_new_chain(self):
        host = _Host(EventPackBuilder(app_id=0, rank=0, capacity_bytes=4096))
        host.builder.add(_record(0))
        StreamingInstrumentation.set_reduction(host, "delta+dict+zlib")
        blob = host.builder.emit()
        assert parse_frame(blob).codec == "delta+dict+zlib"
        _, events = decode_pack(blob)
        assert len(events) == 1


# -- end-to-end sessions: determinism and bit-identity --------------------------------


def _steer_session(policy, *, plan=None, iterations=12, enable=True, seed=7):
    mach = dataclasses.replace(TERA100, cores_per_node=8)
    cost = dataclasses.replace(
        CostModel.for_machine(mach, ranks_per_node=8), eager_threshold=2048)
    icost = InstrumentationCost(
        block_size=4096, na_buffers=2, write_timeout=2e-3, max_retries=2,
        overflow="drop-newest")
    session = CouplingSession(
        machine=mach, seed=seed, instrumentation=icost, mpi_cost=cost,
        telemetry=Telemetry())
    name = session.add_application(SP(16, "C", iterations=iterations))
    session.set_analyzer(nprocs=4)
    session.enable_monitor()
    if enable:
        session.enable_steering(policy)
    if plan is not None:
        session.inject_faults(plan)
    result = session.run()
    return result, name, session


def _congestion_plan(anchor):
    return FaultPlan(
        specs=(FaultSpec(LINK_DEGRADE, at=anchor, target=-1, factor=2e-5),),
        name="congestion")


@pytest.fixture(scope="module")
def healthy_anchor():
    result, name, _ = _steer_session(static_policy())
    return result.app(name).walltime * 0.35


@pytest.fixture(scope="module")
def congested_adaptive(healthy_anchor):
    return _steer_session(bench_policy(), plan=_congestion_plan(healthy_anchor))


class TestSessionIntegration:
    def test_enable_steering_requires_telemetry(self):
        session = CouplingSession()
        with pytest.raises(ConfigError):
            session.enable_steering()

    def test_double_enable_rejected(self):
        session = CouplingSession(telemetry=Telemetry())
        session.enable_steering()
        with pytest.raises(ConfigError):
            session.enable_steering()

    def test_decisions_fire_under_congestion(self, congested_adaptive):
        result, _, _ = congested_adaptive
        assert result.steering is not None
        decisions = result.steering["decisions"]
        assert decisions
        assert any(d["action"] == ESCALATE_REDUCTION for d in decisions)
        for d in decisions:
            assert d["trigger_kind"]
            assert d["t"] >= 0.0

    def test_report_gains_a_steering_section(self, congested_adaptive):
        result, _, _ = congested_adaptive
        text = result.report.render()
        assert "Steering" in text
        assert ESCALATE_REDUCTION in text

    def test_decision_instants_land_in_the_trace(self, congested_adaptive):
        result, _, session = congested_adaptive
        names = {
            inst["name"] for inst in session.telemetry.instants
            if inst["cat"] == "steering"
        }
        assert f"steering.{ESCALATE_REDUCTION}" in names

    def test_same_seed_and_policy_is_deterministic(self, healthy_anchor,
                                                   congested_adaptive):
        first, name_a, _ = congested_adaptive
        second, name_b, _ = _steer_session(
            bench_policy(), plan=_congestion_plan(healthy_anchor))
        assert first.steering["decisions"] == second.steering["decisions"]
        assert first.app(name_a).walltime == second.app(name_b).walltime
        assert (first.report.chapter(name_a).profile.events_total
                == second.report.chapter(name_b).profile.events_total)

    def test_disabled_and_static_runs_match_the_seed(self):
        def key(result, name):
            writers = [st.stats() for _, st in result.world.streams
                       if st.mode == "w"]
            return (
                result.app(name).walltime,
                result.report.chapter(name).profile.events_total,
                sum(st["blocks_written"] for st in writers),
            )

        bare, name, _ = _steer_session(None, enable=False)
        static, name_s, _ = _steer_session(static_policy())
        adaptive, name_a, _ = _steer_session(bench_policy())
        assert bare.steering is None
        assert static.steering is not None
        assert static.steering["decisions"] == []
        assert adaptive.steering["decisions"] == []
        assert key(bare, name) == key(static, name_s) == key(adaptive, name_a)


# -- the bench lane gates itself ------------------------------------------------------


class TestBenchLane:
    def test_grid_runs_and_gates(self, tmp_path):
        result = steering_adaptation()
        assert [(p.policy, p.plan) for p in result.points] == [
            ("static", "none"), ("adaptive", "none"),
            ("static", "congestion"), ("adaptive", "congestion"),
        ]
        static_c = result.points[2]
        adaptive_c = result.points[3]
        assert adaptive_c.decisions >= 1
        assert (adaptive_c.packs_dropped + adaptive_c.packs_stranded
                < static_c.packs_dropped + static_c.packs_stranded)
        assert adaptive_c.events_per_s >= static_c.events_per_s
        result.artifacts["steering_decisions.json"](tmp_path / "steering_decisions.json")
        log = json.loads((tmp_path / "steering_decisions.json").read_text())
        assert len(log["decisions"]) == adaptive_c.decisions
        table = result.table().render()
        assert "congestion" in table


    @staticmethod
    def _grid(**changes):
        """A point set that passes every gate clause, then one change."""
        def point(policy, plan, **fields):
            base = dict(
                policy=policy, plan=plan, decisions=0, escalations=0, relaxes=0,
                packs_written=100, packs_dropped=0, packs_stranded=0,
                write_timeouts=0, events_analyzed=5000, app_walltime=1.0,
                events_per_s=5000.0,
            )
            return SteeringBenchPoint(**{**base, **fields})

        grid = {
            "healthy_static": point("static", "none"),
            "healthy_adaptive": point("adaptive", "none"),
            "congested_static": point(
                "static", "congestion", packs_dropped=40, events_per_s=3000.0),
            "congested_adaptive": point(
                "adaptive", "congestion", decisions=2, packs_dropped=10,
                events_per_s=4000.0),
        }
        for key, fields in changes.items():
            grid[key] = dataclasses.replace(grid[key], **fields)
        return list(grid.values())

    def test_gate_passes_a_sound_grid(self):
        _gate(*self._grid())

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"healthy_adaptive": {"decisions": 1}}, "made 1 decisions on the healthy"),
            ({"healthy_adaptive": {"packs_written": 101}}, "changed the healthy run"),
            ({"congested_adaptive": {"decisions": 0}}, "triggered no adaptive decisions"),
            ({"congested_adaptive": {"packs_stranded": 30}}, "did not cut pack loss"),
            ({"congested_adaptive": {"events_per_s": 2999.0}}, "fell below static"),
        ],
    )
    def test_each_gate_clause_fires(self, change, message):
        with pytest.raises(BenchGateError, match=message):
            _gate(*self._grid(**change))
