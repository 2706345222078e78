"""End-to-end event provenance: trailer wire format, flow registry,
stage attribution, determinism guarantees, and export integration."""

import json

import pytest

from repro.apps.nas import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.codec.frame import (
    PROVENANCE_BODY_SIZE,
    SEC_PROVENANCE,
    SECTION_HEADER_SIZE,
    PackProvenance,
    frame_content_size,
    parse_frame,
    peek_provenance,
)
from repro.instrument.packer import EventPackBuilder, decode_pack, verify_pack
from repro.instrument.overhead import InstrumentationCost
from repro.mpi.pmpi import CallRecord
from repro.telemetry import FlowRegistry, Telemetry, make_flow_id, split_flow_id
from repro.telemetry.provenance import STAGES, FlowRecord

pytestmark = pytest.mark.flow


def _pack(rank=3, app_id=1, nevents=4) -> bytes:
    builder = EventPackBuilder(app_id=app_id, rank=rank, capacity_bytes=4096)
    for i in range(nevents):
        builder.add(CallRecord(
            name="MPI_Send", t_start=i * 1e-3, t_end=i * 1e-3 + 5e-6, comm_id=0,
            comm_rank=rank, comm_size=8, peer=(rank + 1) % 8, tag=i, nbytes=256,
        ))
    return builder.emit()


def _prov(flow_id=7, t_seal=0.0) -> PackProvenance:
    return PackProvenance(flow_id=flow_id, app_id=1, rank=3, t_seal=t_seal)


def _coupled_session(seed=7, prov=True, sample_rate=1.0, telemetry=None):
    session = CouplingSession(
        seed=seed,
        instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
        telemetry=telemetry,
    )
    name = session.add_application(SP(16, "C", iterations=3), name="sp")
    session.set_analyzer(nprocs=4)
    if prov:
        session.enable_provenance(sample_rate=sample_rate)
    return session, name


# -- wire format -------------------------------------------------------------------


def test_provenance_section_roundtrip():
    blob = _pack()
    stamped = parse_frame(blob).with_provenance(_prov(0xABC123, 2.5)).to_bytes()
    # one extra typed section: header + fixed body
    assert len(stamped) == len(blob) + SECTION_HEADER_SIZE + PROVENANCE_BODY_SIZE
    prov = peek_provenance(stamped)
    assert prov is not None
    assert (prov.flow_id, prov.app_id, prov.rank, prov.t_seal) == (0xABC123, 1, 3, 2.5)
    stripped = parse_frame(stamped)
    stripped.drop_section(SEC_PROVENANCE)
    assert stripped.to_bytes() == blob


def test_peek_provenance_is_robust():
    assert peek_provenance(_pack()) is None  # plain pack, CRC only
    assert peek_provenance(b"") is None
    assert peek_provenance(b"short") is None
    assert peek_provenance(None) is None
    assert peek_provenance(("not", "bytes")) is None
    plain = parse_frame(_pack())
    plain.drop_section(SEC_PROVENANCE)  # no-op without a trailer
    assert plain.to_bytes() == _pack()


def test_trailer_is_exempt_from_content_accounting():
    blob = _pack()
    stamped = parse_frame(blob).with_provenance(_prov()).to_bytes()
    assert frame_content_size(stamped) == frame_content_size(blob)


def test_verify_and_decode_ignore_the_trailer():
    blob = _pack()
    stamped = parse_frame(blob).with_provenance(_prov()).to_bytes()
    verify_pack(stamped)  # CRC still checks out around the trailer
    header, events = decode_pack(stamped)
    ref_header, ref_events = decode_pack(blob)
    assert header == ref_header
    assert events.tobytes() == ref_events.tobytes()


# -- flow ids ----------------------------------------------------------------------


def test_flow_id_roundtrip_and_disjoint_spaces():
    assert split_flow_id(make_flow_id(2, 1000, 42)) == (2, 1000, 42)
    ids = {make_flow_id(a, r, s) for a in (0, 1) for r in (0, 5) for s in range(10)}
    assert len(ids) == 2 * 2 * 10  # no collisions across writers


# -- registry ----------------------------------------------------------------------


def test_registry_stamps_tolerate_unknown_ids():
    registry = FlowRegistry(seed=0)
    registry.on_enqueue(999, 1.0)
    registry.on_send(999, 1.0)
    registry.on_arrive(999, 1.0)
    registry.on_read(999, 1.0)
    registry.on_dispatch(999, 1.0)
    registry.on_done(999, 1.0)
    registry.on_drop(999, "overflow", 1.0)
    assert len(registry) == 0


def test_registry_sample_rate_validation():
    with pytest.raises(ConfigError):
        FlowRegistry(sample_rate=1.5)
    with pytest.raises(ConfigError):
        FlowRegistry(sample_rate=-0.1)


def test_sampling_is_deterministic_and_keeps_sequence_numbers():
    def sampled_ids(seed):
        registry = FlowRegistry(seed=seed, sample_rate=0.5)
        out = []
        for i in range(40):
            rec = registry.begin(app_id=0, rank=2, global_rank=2, t=float(i))
            if rec is not None:
                out.append(rec.flow_id)
        return out

    a, b = sampled_ids(11), sampled_ids(11)
    assert a == b  # same seed, same subset
    assert 0 < len(a) < 40  # actually sampled
    # Sequence numbers reflect seal order even across skipped packs.
    seqs = [split_flow_id(f)[2] for f in a]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert sampled_ids(12) != a  # different seed, different subset


def test_zero_sample_rate_traces_nothing():
    registry = FlowRegistry(seed=0, sample_rate=0.0)
    for i in range(10):
        assert registry.begin(app_id=0, rank=0, global_rank=0, t=float(i)) is None
    assert len(registry) == 0
    assert registry.sealed[(0, 0)] == 10  # seals still counted


def test_flow_record_stages_telescope():
    record = FlowRecord(flow_id=1, app_id=0, origin_rank=0, origin_global=0, t_seal=1.0)
    record.t_enqueue, record.t_send, record.t_arrive = 1.5, 2.0, 3.0
    record.t_read, record.t_dispatch, record.t_done = 4.5, 4.5, 6.0
    stages = record.stages()
    assert tuple(stages) == STAGES
    assert sum(stages.values()) == pytest.approx(record.end_to_end_s)
    assert record.complete


def test_first_drop_label_wins():
    registry = FlowRegistry(seed=0)
    rec = registry.begin(app_id=0, rank=0, global_rank=0, t=0.0)
    registry.on_drop(rec.flow_id, "tamper", 1.0)
    registry.on_drop(rec.flow_id, "crash", 2.0)
    assert rec.dropped == "tamper"
    assert not rec.complete


# -- end-to-end through the coupled session ----------------------------------------


def test_session_flows_telescope_and_sum_to_end_to_end():
    session, _ = _coupled_session()
    result = session.run()
    flows = result.flows
    assert flows["flows_traced"] > 0
    assert flows["flows_completed"] == flows["flows_traced"]
    assert flows["flows_dropped"] == 0 and flows["losses"] == {}
    # Telescoping per flow: stage sum equals end-to-end exactly.
    for record in session._flows.completed():
        assert sum(record.stages().values()) == pytest.approx(
            record.end_to_end_s, abs=1e-12
        )
    # And in aggregate: per-stage totals sum to the end-to-end total.
    stage_total = sum(s["total_s"] for s in flows["stages"].values())
    assert stage_total == pytest.approx(flows["end_to_end"]["total_s"], rel=1e-9)
    # Watermarks cover every writer, all caught up.
    assert len(flows["watermarks"]) == 16
    assert all(w["in_flight"] == 0 for w in flows["watermarks"].values())
    critical = flows["critical_path"]
    assert critical["total_s"] == pytest.approx(
        max(r.end_to_end_s for r in session._flows.completed())
    )
    assert sum(critical["share"].values()) == pytest.approx(1.0)


def test_provenance_is_observation_only():
    """Provenance on/off: identical timings, stream and board accounting."""
    base_session, name = _coupled_session(prov=False)
    base = base_session.run()
    prov_session, _ = _coupled_session(prov=True)
    prov = prov_session.run()
    assert base.app(name).walltime == prov.app(name).walltime
    assert base.analyzer_walltime == prov.analyzer_walltime
    assert base.analyzer_stats["board"] == prov.analyzer_stats["board"]
    # Stream accounting matches except the physical-wire counters: the
    # provenance section adds real frame bytes (exempt from all modelling).
    def modelled(stats):
        return {
            k: v for k, v in stats.items()
            if not k.startswith("bytes_wire") and k != "pack_ratio"
        }

    assert modelled(base.analyzer_stats["stream"]) == modelled(
        prov.analyzer_stats["stream"]
    )
    assert base.analyzer_stats["bytes"] == prov.analyzer_stats["bytes"]
    assert base.flows is None and prov.flows is not None


def test_same_seed_runs_produce_identical_flow_records():
    records = []
    for _ in range(2):
        session, _ = _coupled_session(sample_rate=0.5)
        session.run()
        records.append(sorted(
            (r.as_dict() for r in session._flows.records()),
            key=lambda d: d["flow_id"],
        ))
    assert records[0] == records[1]
    assert 0 < len(records[0])


def test_report_renders_pipeline_latency_section():
    session, _ = _coupled_session()
    result = session.run()
    text = result.report.render()
    assert "## Pipeline latency (flow provenance)" in text
    assert "end_to_end" in text and "critical path" in text


# -- export integration ------------------------------------------------------------


def test_chrome_trace_contains_flow_arrows(tmp_path):
    telemetry = Telemetry()
    session, _ = _coupled_session(telemetry=telemetry)
    result = session.run()
    trace = telemetry.chrome_trace()
    arrows = [e for e in trace["traceEvents"] if e.get("cat") == "flow"]
    assert {e["ph"] for e in arrows} == {"s", "t", "f"}
    starts = {e["id"] for e in arrows if e["ph"] == "s"}
    finishes = {e["id"] for e in arrows if e["ph"] == "f"}
    assert starts == finishes  # every arrow has both ends
    assert len(starts) == result.flows["flows_completed"]
    for e in arrows:
        if e["ph"] == "f":
            assert e["bp"] == "e"
    # The file round-trips as JSON.
    path = tmp_path / "flows.trace.json"
    telemetry.write_chrome_trace(str(path))
    assert json.loads(path.read_text())["traceEvents"]


def test_jsonl_export_includes_flow_records(tmp_path):
    telemetry = Telemetry()
    session, _ = _coupled_session(telemetry=telemetry)
    result = session.run()
    flows = [r for r in telemetry.jsonl_records() if r["kind"] == "flow"]
    assert len(flows) == result.flows["flows_traced"]
    assert all(r["stamps"]["t_seal"] is not None for r in flows)


# -- loss attribution --------------------------------------------------------------


def test_overflow_drops_and_retry_delay_are_attributed():
    """A stalled reader forces drop-oldest reclaims: stolen flows carry the
    overflow label, surviving ones the timed-out wait as retry delay."""
    from repro.network.machine import small_test_machine
    from repro.vmpi import ROUND_ROBIN, VMPIMap, VMPIStream, map_partitions
    from repro.vmpi.stream import EOF, OVERFLOW_DROP_OLDEST
    from repro.vmpi.virtualization import VirtualizedLauncher

    out = {}

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(
            na_buffers=2, write_timeout=0.05, max_retries=1,
            overflow=OVERFLOW_DROP_OLDEST,
        )
        yield from st.open_map(mpi, vmap, "w")
        flows = mpi.ctx.world.flows
        for i in range(10):
            builder = EventPackBuilder(app_id=0, rank=mpi.rank, capacity_bytes=4096)
            builder.add(CallRecord(
                name="MPI_Send", t_start=mpi.now, t_end=mpi.now + 1e-6, comm_id=0,
                comm_rank=mpi.rank, comm_size=1, peer=0, tag=i, nbytes=64,
            ))
            rec = flows.begin(app_id=0, rank=mpi.rank,
                              global_rank=mpi.ctx.global_rank,
                              t=mpi.ctx.kernel.now)
            blob = builder.emit(provenance=PackProvenance(
                flow_id=rec.flow_id, app_id=rec.app_id,
                rank=rec.origin_rank, t_seal=rec.t_seal,
            ))
            yield from st.write(payload=blob)
        yield from st.close()
        out["w"] = st.stats()
        yield from mpi.finalize()

    def reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream(na_buffers=2)
        yield from st.open_map(mpi, vmap, "r")
        st.stall_until(mpi.now + 5.0)
        while True:
            n, _ = yield from st.read()
            if n == EOF:
                break
        yield from st.close()
        out["r"] = st.stats()
        yield from mpi.finalize()

    launcher = VirtualizedLauncher(
        machine=small_test_machine(nodes=4, cores_per_node=4), seed=3
    )
    launcher.add_program("W", nprocs=1, main=writer, out=out)
    launcher.add_program("Analyzer", nprocs=1, main=reader, out=out)
    world = launcher.launch()
    registry = FlowRegistry(seed=3)
    world.flows = registry
    world.run()

    records = list(registry.records())
    assert len(records) == 10
    overflowed = [r for r in records if r.dropped == "overflow"]
    assert len(overflowed) == out["w"]["blocks_dropped"] >= 1
    # Every flow is accounted exactly once: delivered to the reader or lost.
    assert len(overflowed) + sum(1 for r in records if r.t_read is not None) == 10
    # The granted-after-timeout writes carry their wait as retry delay.
    assert sum(r.retry_delay_s for r in records) > 0
    # The tombstones' buffer residence shows up as dropped dwell.
    assert out["r"]["dropped_dwell_s"] > 0


def test_tamper_and_reject_losses_are_attributed():
    """Injected transport faults surface as labelled flow losses: swallowed
    packs as ``tamper``, corrupted ones as ``reject`` at the analyzer."""
    from repro.faults import make_plan

    healthy, name = _coupled_session(prov=False)
    anchor = healthy.run().app(name).walltime * 0.35

    for plan, label, counter in (("drop", "tamper", "packs_dropped"),
                                 ("corrupt", "reject", "packs_rejected")):
        session, name = _coupled_session(seed=7)
        session.inject_faults(make_plan(plan, at=anchor, seed=7))
        result = session.run()
        lost = (
            result.app(name).packs_dropped
            if counter == "packs_dropped"
            else result.analyzer_stats["packs_rejected"]
        )
        assert lost > 0, plan
        flows = result.flows
        assert flows["losses"].get(label, 0) == lost, plan
        assert flows["flows_dropped"] == lost, plan
        # Lost flows never complete; the rest of the pipeline still does.
        assert flows["flows_completed"] == flows["flows_traced"] - lost, plan
