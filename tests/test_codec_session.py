"""The reduction pipeline end to end: session wiring, bit-identity,
wire-volume guarantees, fault interplay, diagnostics."""

import struct

import pytest

from repro.apps.nas.adi import SP
from repro.analysis.engine import AnalysisConfig
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.faults.plan import make_plan
from repro.instrument.overhead import InstrumentationCost
from repro.packdump import dump
from repro.telemetry.core import Telemetry

pytestmark = pytest.mark.codec


def _session(reduction=None, seed=7, analysis=None, telemetry=None):
    session = CouplingSession(
        seed=seed,
        instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
        analysis=analysis,
        telemetry=telemetry,
    )
    name = session.add_application(SP(16, "C", iterations=3), name="sp")
    session.set_analyzer(nprocs=4)
    if reduction is not None:
        session.set_reduction(reduction)
    return session, name


# -- configuration surface ---------------------------------------------------------


def test_set_reduction_normalizes_and_validates():
    session, _ = _session()
    assert session.set_reduction(["delta", "dict", "zlib"]) == "delta+dict+zlib"
    assert session.instrumentation.reduction == "delta+dict+zlib"
    assert session.set_reduction(None) == ""
    with pytest.raises(ConfigError):
        session.set_reduction("delta+nope")
    with pytest.raises(ConfigError):
        session.set_reduction("zlib+delta")  # phase order


def test_instrumentation_cost_validates_reduction():
    with pytest.raises(ConfigError):
        InstrumentationCost(reduction="bogus-stage")
    with pytest.raises(ConfigError):
        InstrumentationCost(codec_per_byte_cpu=-1.0)


# -- bit-identity of the identity chain --------------------------------------------


def test_identity_chain_is_bit_identical():
    """set_reduction("") leaves every simulated figure untouched."""
    plain, name = _session()
    base = plain.run()
    ident, _ = _session(reduction="")
    res = ident.run()
    assert base.app(name).walltime == res.app(name).walltime
    assert base.analyzer_walltime == res.analyzer_walltime
    assert base.analyzer_stats["bytes"] == res.analyzer_stats["bytes"]
    assert base.analyzer_stats["board"] == res.analyzer_stats["board"]
    assert res.reduction is None and base.reduction is None


def test_reduction_preserves_analysis_results():
    """Lossless chains change wire bytes, never the analyzed events."""
    plain, name = _session()
    base = plain.run()
    red, _ = _session(reduction="delta+dict+zlib")
    res = red.run()
    assert res.analyzer_stats["packs_rejected"] == 0
    assert res.app(name).events == base.app(name).events
    base_profile = base.report.chapter(name).profile
    red_profile = res.report.chapter(name).profile
    assert red_profile.events_total == base_profile.events_total
    assert {k: (s.hits, s.nbytes) for k, s in red_profile.calls.items()} == {
        k: (s.hits, s.nbytes) for k, s in base_profile.calls.items()
    }


# -- wire-volume guarantees --------------------------------------------------------


def test_full_chain_halves_wire_volume():
    """ISSUE acceptance: delta+dict+zlib on the fig14-style workload."""
    session, _ = _session(reduction="delta+dict+zlib")
    result = session.run()
    r = result.reduction
    assert r["chain"] == "delta+dict+zlib"
    assert r["bytes_wire"] / r["bytes_content"] <= 0.5
    assert r["ratio"] == r["bytes_wire"] / r["bytes_content"]
    assert r["encode_cpu_s"] > 0 and r["decode_cpu_s"] > 0
    assert r["codecs_seen"] == {"delta+dict+zlib": result.analyzer_stats["packs"]}
    # Analyzer-side wire accounting telescopes with the writer side.
    assert result.analyzer_stats["bytes_wire"] == r["bytes_wire"]


def test_stream_stats_expose_wire_bytes():
    session, _ = _session(reduction="delta+dict+zlib")
    result = session.run()
    stream = result.analyzer_stats["stream"]
    assert stream["bytes_wire_read"] > 0
    assert stream["bytes_wire_read"] < stream["bytes_read"]  # compressed
    assert 0.0 < stream["pack_ratio"] < 1.0
    plain, _ = _session()
    stream = plain.run().analyzer_stats["stream"]
    assert stream["pack_ratio"] > 1.0  # framing overhead, no reduction


def test_report_renders_reduction_section():
    session, _ = _session(reduction="delta+dict+zlib")
    text = session.run().report.render()
    assert "## Reduction" in text
    assert "delta+dict+zlib" in text
    plain, _ = _session()
    assert "## Reduction" not in plain.run().report.render()


# -- interplay with faults and acceptance gates ------------------------------------


def test_corruption_is_rejected_with_chain_active():
    """Tampered reduced packs fail the CRC, not the decoder."""
    healthy, name = _session()
    anchor = healthy.run().app(name).walltime * 0.35
    session, _ = _session(reduction="delta+dict+zlib")
    session.inject_faults(make_plan("corrupt", at=anchor, seed=7))
    result = session.run()
    stats = result.analyzer_stats
    assert stats["packs_rejected"] > 0
    assert stats["rejects_by_cause"] == {
        "ChecksumError": stats["packs_rejected"]
    }


def test_accept_codecs_rejects_foreign_descriptors():
    session, _ = _session(
        reduction="delta+dict+zlib",
        analysis=AnalysisConfig(
            block_size=4096, na_buffers=2, accept_codecs=("delta",)
        ),
    )
    result = session.run()
    stats = result.analyzer_stats
    assert stats["packs"] == 0
    assert stats["packs_rejected"] > 0
    assert stats["rejects_by_cause"] == {
        "UnknownCodecError": stats["packs_rejected"]
    }


def test_accept_codecs_validated_up_front():
    with pytest.raises(ConfigError):
        AnalysisConfig(accept_codecs=("delta", "wat"))


# -- telemetry ---------------------------------------------------------------------


def test_codec_telemetry_histograms():
    telemetry = Telemetry()
    session, _ = _session(reduction="delta+zlib", telemetry=telemetry)
    session.run()
    summary = telemetry.summary()
    names = set()
    for section in summary.values():
        if isinstance(section, dict):
            names.update(section)
    assert any("codec.encode_s" in n for n in names)
    assert any("codec.decode_s" in n for n in names)
    assert any("codec.pack_ratio" in n for n in names)


# -- packdump on real session artefacts --------------------------------------------


def test_packdump_renders_a_real_pack():
    from repro.codec.stages import build_chain
    from repro.instrument.packer import EventPackBuilder
    from repro.mpi.pmpi import CallRecord

    builder = EventPackBuilder(
        app_id=0, rank=5, capacity_bytes=4096, chain=build_chain("delta+dict+zlib")
    )
    for i in range(12):
        builder.add(CallRecord(
            name="MPI_Send", t_start=i * 1e-3, t_end=i * 1e-3 + 1e-6, comm_id=0,
            comm_rank=5, comm_size=16, peer=6, tag=i, nbytes=256,
        ))
    text = dump(builder.emit(now=1.0))
    assert "v2 frame" in text
    assert "codec chain: delta+dict+zlib" in text
    assert "crc32:" in text and "OK" in text
    assert "PAYLOAD" in text and "CODEC" in text


@pytest.mark.parametrize(
    "blob, verdict",
    [
        # the v1 pack magic, retired in PR 5: no reader left, still no raise
        (
            struct.pack("<IHHII", 0x45564E54, 1, 0, 5, 0),
            "format: unknown (leading magic 0x45564e54)",
        ),
        (b"\x00\x01\x02\x03rest", "format: unknown (leading magic 0x03020100)"),
        (b"ab", "format: unknown (too short for a magic number)"),
    ],
)
def test_packdump_reports_foreign_magic_without_raising(blob, verdict):
    assert dump(blob).splitlines() == [f"{len(blob)} bytes", verdict]


# -- observers free when off ------------------------------------------------------


def test_null_telemetry_session_makes_no_histogram_calls(monkeypatch):
    """A telemetry-off reduced run never reaches the disabled singleton:
    the per-pack ``codec.encode_s`` / ``codec.pack_ratio`` observations in
    ``StreamingInstrumentation._flush`` are guarded on ``telemetry.enabled``."""
    calls = []
    original = Telemetry.histogram

    def counting(self, name, *args, **kwargs):
        calls.append((self.enabled, name))
        return original(self, name, *args, **kwargs)

    monkeypatch.setattr(Telemetry, "histogram", counting)
    off, _ = _session(reduction="delta+dict+zlib")
    result = off.run()
    assert result.analyzer_stats["packs"] > 0 and calls == []
    # Telemetry on, the same two histograms are fed once per flushed pack.
    on, _ = _session(reduction="delta+dict+zlib", telemetry=Telemetry())
    on.run()
    assert {name for enabled, name in calls if enabled} >= {
        "codec.encode_s",
        "codec.pack_ratio",
    }
