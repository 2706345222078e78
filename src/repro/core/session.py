"""CouplingSession: wire applications + analyzer into one MPMD job.

The session builds the full measurement chain of the paper:

1. every application partition is launched virtualized (its own
   ``MPI_COMM_WORLD``) with a :class:`StreamingInstrumentation` interceptor
   attached before its first MPI call;
2. an ``Analyzer`` partition (sized by the writer/reader *ratio* of paper
   Figure 14, ``Nr = max(1, floor(Nw / ratio))``) runs the blackboard
   analysis engine;
3. after the simulation drains, the analyzer root's report and all
   bookkeeping are exposed as a :class:`SessionResult`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ConfigError, ReproError
from repro.analysis.engine import AnalysisConfig, analyzer_program
from repro.codec.stages import build_chain
from repro.analysis.report import ProfileReport
from repro.apps.base import AppKernel
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.instrument.interceptor import ANALYZER_PARTITION, StreamingInstrumentation
from repro.instrument.overhead import InstrumentationCost
from repro.mpi.world import World
from repro.network.machine import MachineSpec, TERA100
from repro.analysis.alerts import AlertRouter
from repro.obs.bus import ObservabilityBus
from repro.obs.registry import HEALTH_KINDS, HEALTH_SCHEMA, STEERING_SCHEMA, make_record
from repro.obs.sinks import FileSink, RingSink, TailServer
from repro.steering.controller import SteeringController
from repro.steering.policy import SteeringPolicy
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.telemetry.provenance import FlowRegistry
from repro.telemetry import hostprof as _hostprof
from repro.telemetry.export import jsonl_records as _telemetry_records
from repro.telemetry.monitor import HealthMonitor, MonitorConfig
from repro.telemetry.popmetrics import PopConfig, PopMetricsEngine
from repro.vmpi.virtualization import VirtualizedLauncher


@dataclass
class AppRun:
    """Per-application outcome."""

    name: str
    nprocs: int
    walltime: float
    events: int
    packs: int
    modeled_stream_bytes: int
    #: packs discarded by overflow policies or injected transport faults
    packs_dropped: int = 0

    @property
    def bi_bandwidth(self) -> float:
        """Aggregate instrumentation bandwidth Bi = event volume / time."""
        if self.walltime <= 0:
            return 0.0
        return self.modeled_stream_bytes / self.walltime


@dataclass
class SessionResult:
    """Everything a session run produced."""

    report: ProfileReport | None
    apps: dict[str, AppRun]
    analyzer_walltime: float | None
    analyzer_nprocs: int
    analyzer_stats: dict[str, Any] | None
    world: World = field(repr=False, default=None)
    #: ``HealthMonitor.summary()`` when a monitor watched the run.
    health: dict[str, Any] | None = None
    #: True when any injected fault actually fired during the run.
    degraded: bool = False
    #: ``FaultInjector.summary()`` when a fault plan was attached.
    faults: dict[str, Any] | None = None
    #: Fraction of emitted packs that never reached analysis (dropped,
    #: corrupted-and-rejected, or lost to a crash).  0.0 in healthy runs.
    data_loss_fraction: float = 0.0
    #: ``FlowRegistry.summary()`` when provenance tracing was enabled:
    #: per-stage latency statistics, watermarks and the critical path.
    flows: dict[str, Any] | None = None
    #: Event-reduction summary (chain spec, wire/content bytes, codec CPU)
    #: when a reduction chain was active; None for identity runs.
    reduction: dict[str, Any] | None = None
    #: ``PopMetricsEngine.summary()`` when time-resolved efficiency metrics
    #: were enabled: per-phase POP metrics, window count, end-of-run totals.
    efficiency: dict[str, Any] | None = None
    #: ``SteeringController.summary()`` when adaptive steering was enabled:
    #: the policy, the decision journal, and the final actuator state.
    steering: dict[str, Any] | None = None
    #: ``ObservabilityBus.summary()`` when the unified observability bus
    #: was enabled: per-schema record counts and per-sink delivery stats.
    obs: dict[str, Any] | None = None

    def app(self, name: str) -> AppRun:
        try:
            return self.apps[name]
        except KeyError:
            raise KeyError(f"no application {name!r} in session result") from None


class CouplingSession:
    """Online instrumentation-analysis coupling of one or more applications."""

    def __init__(
        self,
        machine: MachineSpec = TERA100,
        *,
        seed: int = 0,
        instrumentation: InstrumentationCost | None = None,
        analysis: AnalysisConfig | None = None,
        mpi_cost=None,
        telemetry: Telemetry | None = None,
    ):
        self.machine = machine
        self.seed = seed
        self.mpi_cost = mpi_cost
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.instrumentation = instrumentation or InstrumentationCost()
        self.analysis = analysis or AnalysisConfig(
            block_size=self.instrumentation.block_size,
            na_buffers=self.instrumentation.na_buffers,
        )
        self._apps: list[tuple[str, AppKernel]] = []
        self._analyzer_nprocs: int | None = None
        self._ratio: float | None = None
        self._monitor: HealthMonitor | None = None
        self._fault_plan: FaultPlan | None = None
        self._flows: FlowRegistry | None = None
        self._pop: PopMetricsEngine | None = None
        self._pop_stream: FileSink | None = None
        self._steering: SteeringController | None = None
        self._obs: ObservabilityBus | None = None
        self._obs_ring: RingSink | None = None
        self._obs_tail: TailServer | None = None

    # -- configuration ------------------------------------------------------------

    def add_application(self, kernel: AppKernel, name: str | None = None) -> str:
        """Register an application; returns its partition name."""
        name = name or kernel.label
        if name == ANALYZER_PARTITION:
            raise ConfigError(f"{ANALYZER_PARTITION!r} is reserved for the analyzer")
        if any(n == name for n, _ in self._apps):
            raise ConfigError(f"duplicate application name {name!r}")
        self._apps.append((name, kernel))
        return name

    def set_analyzer(self, ratio: float | None = None, nprocs: int | None = None) -> int:
        """Size the analyzer partition.

        Either an explicit rank count or the paper's writer/reader ratio:
        ``Nr = max(1, floor(Nw / ratio))`` over the total application ranks.
        """
        if (ratio is None) == (nprocs is None):
            raise ConfigError("give exactly one of ratio / nprocs")
        if nprocs is not None:
            if nprocs < 1:
                raise ConfigError("analyzer needs at least one rank")
            self._analyzer_nprocs = nprocs
            self._ratio = None
        else:
            if ratio <= 0:
                raise ConfigError(f"ratio must be > 0, got {ratio}")
            self._ratio = float(ratio)
            self._analyzer_nprocs = None
        return self.analyzer_nprocs

    def set_reduction(self, spec: str | Sequence[str] | None) -> str:
        """Choose the event-reduction chain applied to every emitted pack.

        ``spec`` is either a ``"+"``-joined string (``"delta+dict+zlib"``),
        a sequence of stage specs (``["delta", "dict", "zlib"]``), or
        None / ``""`` for the identity chain.  The chain is validated and
        normalized here (:class:`ConfigError` on unknown stages or bad
        ordering) and carried on the wire in each frame's codec-descriptor
        section, so the analyzer decodes exactly what was encoded.

        Returns the normalized chain spec string.
        """
        if spec is None:
            spec_str = ""
        elif isinstance(spec, str):
            spec_str = spec
        else:
            spec_str = "+".join(spec)
        try:
            chain = build_chain(spec_str)
        except ReproError as exc:
            raise ConfigError(f"invalid reduction chain {spec_str!r}: {exc}") from exc
        self.instrumentation = dataclasses.replace(
            self.instrumentation, reduction=chain.spec
        )
        return chain.spec

    def _need_telemetry(self, who_needs: str) -> None:
        if not self.telemetry.enabled:
            raise ConfigError(
                f"{who_needs} telemetry; construct the session with "
                "telemetry=Telemetry()"
            )

    def enable_monitor(
        self, config: MonitorConfig | None = None, router=None
    ) -> HealthMonitor:
        """Attach an online health monitor to the upcoming run.

        Requires live telemetry (the monitor reads the instrument stream).
        The monitor samples every instrument into bounded ring series on a
        periodic kernel callback, raises :class:`HealthAlert`\\ s *during*
        the simulation, and publishes them onto the analyzer root's
        blackboard.  It is observation-only: simulation results are
        bit-identical with the monitor on or off.
        """
        self._need_telemetry("health monitor needs")
        if self._monitor is not None:
            raise ConfigError("health monitor already enabled for this session")
        self._monitor = HealthMonitor(self.telemetry, config=config, router=router)
        return self._monitor

    def enable_pop_metrics(
        self,
        config: PopConfig | None = None,
        stream: str | None = None,
    ) -> PopMetricsEngine:
        """Compute time-resolved POP efficiency metrics over the run.

        The engine rides the kernel's periodic-callback hook: every
        ``config.window`` virtual seconds it closes a metric window from
        the interceptors' per-rank time decomposition and the live stream
        counters' growth since the previous close, detects phase
        boundaries online via a change-point test on the windowed series,
        mirrors the metrics into ``pop.*`` gauges (Chrome-trace counter
        tracks) and — with ``stream`` set — appends schema-versioned NDJSON
        records to that path *as windows close*, so a frontend can tail
        the file mid-run.  Requires live telemetry; observation-only, so
        results are bit-identical with metrics on or off.

        After :meth:`run`, :attr:`SessionResult.efficiency` and the
        report's "Efficiency timeline" section carry the summary.
        """
        self._need_telemetry("pop metrics need")
        if self._pop is not None:
            raise ConfigError("pop metrics already enabled for this session")
        self._pop = PopMetricsEngine(self.telemetry, config=config)
        if stream is not None:
            self._pop_stream = self._pop.add_sink(FileSink(stream))
        return self._pop

    @property
    def pop_metrics(self) -> PopMetricsEngine | None:
        return self._pop

    def enable_steering(self, policy: SteeringPolicy | None = None) -> SteeringController:
        """Close the control loop: act on health alerts during the run.

        A :class:`~repro.steering.controller.SteeringController` subscribes to the
        health monitor's alert router and — under the given declarative
        :class:`~repro.steering.SteeringPolicy` — escalates/relaxes the
        writers' reduction chain, autoscales the analyzer's modelled
        worker pool, and rebalances writers across analyzer ranks.  The
        monitor (and its router) is created on demand; live telemetry is
        required.  A run in which no decision fires is bit-identical to
        the same run without steering.

        After :meth:`run`, :attr:`SessionResult.steering` and the
        report's "Steering" section carry the decision journal.
        """
        self._need_telemetry("steering needs")
        if self._steering is not None:
            raise ConfigError("steering already enabled for this session")
        if self._monitor is None:
            self.enable_monitor()
        if self._monitor.router is None:
            self._monitor.router = AlertRouter()
        self._steering = SteeringController(policy)
        return self._steering

    @property
    def steering(self) -> SteeringController | None:
        return self._steering

    def enable_observability(
        self,
        path: str | None = None,
        *,
        ring: int | None = 1024,
        tail: str | None = None,
    ) -> ObservabilityBus:
        """Attach the unified observability bus to the upcoming run.

        Every enabled plane publishes its schema-tagged records onto one
        :class:`~repro.obs.bus.ObservabilityBus`: POP metric windows,
        phases and the run summary *as they seal*, health alerts and
        steering decisions *as they fire*, and the telemetry/hostprof
        record dumps at teardown.  Sinks:

        * ``path`` — an NDJSON :class:`~repro.obs.sinks.FileSink` holding
          every plane's records in publish order;
        * ``ring`` — a bounded in-memory :class:`~repro.obs.sinks.RingSink`
          (None disables it) left queryable after the run via
          :attr:`obs_ring`;
        * ``tail`` — a :class:`~repro.obs.sinks.TailServer` live-feed
          address (``HOST:PORT``, ``:0`` for an ephemeral port, or a Unix
          socket path), resolved address at :attr:`obs_tail`.

        The bus is observation-only: it taps existing observation planes
        and never schedules events, so a run with the bus enabled is
        bit-identical to the same run without it.  After :meth:`run`,
        :attr:`SessionResult.obs` and the report's "Observability" section
        carry the bus summary.
        """
        if self._obs is not None:
            raise ConfigError("observability bus already enabled for this session")
        bus = ObservabilityBus()
        if path is not None:
            bus.add_sink(FileSink(path), name="file")
        if ring is not None:
            self._obs_ring = RingSink(ring)
            bus.add_sink(self._obs_ring, name="ring")
        if tail is not None:
            self._obs_tail = TailServer(tail)
            bus.add_sink(self._obs_tail, name="tail")
        self._obs = bus
        return bus

    @property
    def obs_ring(self) -> RingSink | None:
        return self._obs_ring

    @property
    def obs_tail(self) -> TailServer | None:
        return self._obs_tail

    def enable_provenance(self, sample_rate: float = 1.0) -> FlowRegistry:
        """Trace causal pack flows through the upcoming run.

        Every sampled event pack is stamped with a provenance trailer at
        seal time and its hop timestamps (enqueue, send, arrival, read,
        dispatch, analysis done) are recorded in a :class:`FlowRegistry`,
        from which :attr:`SessionResult.flows` derives per-stage latency
        statistics, pipeline watermarks and the end-to-end critical path.

        Sampling is deterministic (seeded from the session seed per
        writer), so same-seed runs produce identical flow records; the
        tracing itself is observation-only — application and analyzer
        timings are bit-identical with provenance on or off.  Works with
        or without telemetry; with telemetry enabled the registry is also
        attached to it so Chrome-trace exports draw the flow arrows.
        """
        if self._flows is not None:
            raise ConfigError("provenance already enabled for this session")
        self._flows = FlowRegistry(seed=self.seed, sample_rate=sample_rate)
        if self.telemetry.enabled:
            self.telemetry.attach_flows(self._flows)
        return self._flows

    def inject_faults(self, plan: FaultPlan) -> None:
        """Attach a fault plan to the upcoming run (chaos testing).

        An empty plan costs nothing: the run stays bit-identical to one
        without any plan.  Faults target the analyzer partition; see
        :mod:`repro.faults.plan` for the fault model.
        """
        if not isinstance(plan, FaultPlan):
            raise ConfigError(f"inject_faults() needs a FaultPlan, got {plan!r}")
        if self._fault_plan is not None:
            raise ConfigError("fault plan already set for this session")
        self._fault_plan = plan

    @property
    def monitor(self) -> HealthMonitor | None:
        return self._monitor

    @property
    def total_app_ranks(self) -> int:
        return sum(k.nprocs for _n, k in self._apps)

    @property
    def analyzer_nprocs(self) -> int:
        if self._analyzer_nprocs is not None:
            return self._analyzer_nprocs
        ratio = self._ratio if self._ratio is not None else 1.0
        return max(1, int(self.total_app_ranks // ratio))

    # -- observability-bus taps ----------------------------------------------------

    def _wire_obs_taps(self) -> None:
        """Subscribe the bus to every live plane the session has enabled."""
        bus = self._obs
        if self._pop is not None:
            self._pop.add_sink(bus)
        if self._monitor is not None:
            if self._monitor.router is None:
                self._monitor.router = AlertRouter()

            def publish_alert(alert: Any) -> None:
                d = (
                    alert.as_dict()
                    if hasattr(alert, "as_dict")
                    else dataclasses.asdict(alert)
                )
                kind = d.pop("kind", None)
                # Foreign alert kinds (a user's custom router traffic) are
                # not the health plane's to publish — skip, don't crash.
                if kind in HEALTH_KINDS:
                    bus.publish(make_record(HEALTH_SCHEMA, kind, **d))

            self._monitor.router.subscribe(publish_alert)
        if self._steering is not None:
            self._steering.on_decision = lambda decision: bus.publish(
                make_record(STEERING_SCHEMA, "decision", **decision.as_dict())
            )

    def _drain_obs(self, result_report: ProfileReport | None) -> dict[str, Any] | None:
        """Publish the teardown planes, close the bus, return its summary."""
        if self._obs is None:
            return None
        if self.telemetry.enabled:
            self._obs.publish_all(_telemetry_records(self.telemetry))
        if _hostprof.ACTIVE is not None:
            self._obs.publish_all(_hostprof.ACTIVE.jsonl_records())
        summary = self._obs.summary()
        self._obs.close()
        if result_report is not None:
            result_report.obs = summary
        return summary

    # -- execution -----------------------------------------------------------------

    def run(self) -> SessionResult:
        """Launch, simulate to completion, collect the report."""
        if not self._apps:
            raise ConfigError("no applications added")
        launcher = VirtualizedLauncher(
            machine=self.machine,
            seed=self.seed,
            cost=self.mpi_cost,
            telemetry=self.telemetry if self.telemetry.enabled else None,
        )
        instr_registry: dict[str, list[StreamingInstrumentation]] = {
            name: [] for name, _ in self._apps
        }
        for name, kernel in self._apps:
            launcher.add_program(
                name,
                nprocs=kernel.nprocs,
                main=_instrumented_main,
                kernel=kernel,
                cost=self.instrumentation,
                registry=instr_registry[name],
            )
        sink: dict[str, Any] = {}
        launcher.add_program(
            ANALYZER_PARTITION,
            nprocs=self.analyzer_nprocs,
            main=analyzer_program,
            config=self.analysis,
            sink=sink,
            monitor=self._monitor,
        )
        world = launcher.launch()
        if self._flows is not None:
            world.flows = self._flows
        injector: FaultInjector | None = None
        if self._fault_plan is not None and not self._fault_plan.empty:
            injector = FaultInjector(self._fault_plan)
            injector.attach(world)
        if self._monitor is not None:
            self._monitor.attach(world.kernel)
        if self._steering is not None:
            self._steering.attach(
                world,
                self._monitor,
                instr_registry,
                initial_chain=self.instrumentation.reduction,
            )
        if self._pop is not None:
            self._pop.bind_sources(instr_registry)
            self._pop.attach(world.kernel)
        if self._obs is not None:
            self._wire_obs_taps()
        world.run()
        if self._pop is not None:
            self._pop.finalize(world.kernel.now)
            self._pop.detach()
            if self._pop_stream is not None:
                self._pop_stream.close()

        apps: dict[str, AppRun] = {}
        for name, kernel in self._apps:
            interceptors = instr_registry[name]
            apps[name] = AppRun(
                name=name,
                nprocs=kernel.nprocs,
                walltime=world.app_walltime(name),
                events=sum(i.events_captured for i in interceptors),
                packs=sum(i.packs_flushed for i in interceptors),
                modeled_stream_bytes=sum(i.bytes_streamed_modeled for i in interceptors),
                packs_dropped=sum(i.packs_dropped for i in interceptors),
            )
        report = sink.get("report")
        if report is not None and self.telemetry.enabled:
            report.telemetry = self.telemetry.summary()
        health = None
        if self._monitor is not None:
            self._monitor.detach()
            health = self._monitor.summary()
            if report is not None:
                report.health = health
        degraded = injector.degraded if injector is not None else False
        flows = self._flows.summary() if self._flows is not None else None
        if report is not None and flows is not None:
            report.flows = flows
        stats = sink.get("analyzer_stats")
        reduction = None
        if self.instrumentation.reduction:
            interceptors = [i for ranks in instr_registry.values() for i in ranks]
            bytes_content = sum(i.builder.bytes_content for i in interceptors)
            bytes_wire = sum(i.builder.bytes_wire for i in interceptors)
            reduction = {
                "chain": self.instrumentation.reduction,
                "bytes_content": bytes_content,
                "bytes_wire": bytes_wire,
                "ratio": bytes_wire / bytes_content if bytes_content else 0.0,
                "events_sampled_out": sum(
                    i.builder.events_sampled_out for i in interceptors
                ),
                "encode_cpu_s": sum(i.codec_cpu_s for i in interceptors),
                "decode_cpu_s": stats.get("decode_cpu_s", 0.0) if stats else 0.0,
                "codecs_seen": dict(stats.get("codecs_seen", {})) if stats else {},
            }
            if report is not None:
                report.reduction = reduction
        efficiency = None
        if self._pop is not None:
            efficiency = self._pop.summary()
            if report is not None:
                report.efficiency = efficiency
        steering = None
        if self._steering is not None:
            self._steering.finalize(world.kernel.now)
            self._steering.detach()
            steering = self._steering.summary()
            if report is not None:
                report.steering = steering
        obs = self._drain_obs(report)
        attempted = sum(run.packs + run.packs_dropped for run in apps.values())
        analyzed = stats["packs"] if stats is not None else 0
        loss = 1.0 - analyzed / attempted if attempted > 0 else 0.0
        return SessionResult(
            report=report,
            apps=apps,
            analyzer_walltime=world.app_walltime(
                ANALYZER_PARTITION, skip_missing=degraded
            ),
            analyzer_nprocs=self.analyzer_nprocs,
            analyzer_stats=stats,
            world=world,
            health=health,
            degraded=degraded,
            faults=injector.summary() if injector is not None else None,
            data_loss_fraction=max(0.0, loss),
            flows=flows,
            reduction=reduction,
            efficiency=efficiency,
            steering=steering,
            obs=obs,
        )

    def run_reference(self) -> SessionResult:
        """Run the same applications uninstrumented (no analyzer partition)."""
        if not self._apps:
            raise ConfigError("no applications added")
        launcher = VirtualizedLauncher(machine=self.machine, seed=self.seed, cost=self.mpi_cost)
        for name, kernel in self._apps:
            launcher.add_program(name, nprocs=kernel.nprocs, main=kernel.main)
        world = launcher.run()
        apps = {
            name: AppRun(
                name=name,
                nprocs=kernel.nprocs,
                walltime=world.app_walltime(name),
                events=0,
                packs=0,
                modeled_stream_bytes=0,
            )
            for name, kernel in self._apps
        }
        return SessionResult(
            report=None,
            apps=apps,
            analyzer_walltime=None,
            analyzer_nprocs=0,
            analyzer_stats=None,
            world=world,
        )


def _instrumented_main(mpi, kernel: AppKernel, cost: InstrumentationCost, registry: list):
    """Program wrapper: attach instrumentation; the program is the kernel's."""
    interceptor = StreamingInstrumentation(mpi, cost=cost)
    mpi.ctx.pmpi.attach(interceptor)
    registry.append(interceptor)
    return kernel.main(mpi)
