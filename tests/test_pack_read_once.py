"""A pack is read once per hop; nothing it accounts moved.

Three contracts, all observed from outside (nothing under ``src/`` carries
a probe for them):

* *Reader entries.*  Every reader in ``repro.codec.frame`` goes through the
  header read ``_header_fields`` (alone for ``peek_header`` /
  ``frame_content_size``, inside the walk ``_walk`` for ``parse_frame`` /
  ``peek_provenance``), so wrapping those two counts every time a layer
  enters a pack's bytes, and the caller's module says which layer it was.
  Per emitted pack: the interceptor 0, each stream side one content-size
  read plus — with provenance on — one stamp read, the analyzer one parse.
  The fault injector's tamper hook parses the packs it corrupts; that is its
  own hop, counted apart.
* *One walk per damaged pack.*  A frame the analyzer cannot parse is walked
  once; the error of that walk names the reject cause.
* *Parent values.*  ``tests/fixtures/pack_path_parent.json`` holds every
  stream's ``stats()``, ``analyzer_stats`` and the flow summary of three
  sessions, seeds 0 and 1, taken **on the parent of PR 22**; regenerate (on a
  commit whose values are the contract) with
  ``PYTHONPATH=src python tests/test_pack_read_once.py``.
"""

import inspect
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import _pack_sessions as sessions  # noqa: E402

from repro.apps.synthetic import stream_reader_program, stream_writer_program
from repro.codec import frame as frame_mod  # noqa: E402
from repro.network.machine import TERA100  # noqa: E402
from repro.telemetry import hostprof  # noqa: E402
from repro.telemetry.core import Telemetry
from repro.util.units import MIB  # noqa: E402
from repro.vmpi.virtualization import VirtualizedLauncher
from repro.vmpi.stream import VMPIStream  # noqa: E402

FIXTURE = Path(__file__).parent / "fixtures" / "pack_path_parent.json"


class ReaderProbe:
    """Counts entries into a pack's bytes, by calling layer and by kind."""

    def __init__(self, monkeypatch):
        self.entries = Counter()  # layer -> header reads (every entry makes one)
        self.walks = Counter()  # (layer, blob) -> structural walks
        self.stamp_reads = 0  # peek_provenance calls
        for name, count in (("_header_fields", self._entry), ("_walk", self._walk)):
            monkeypatch.setattr(frame_mod, name, self._wrap(getattr(frame_mod, name), count))
        peek = frame_mod.peek_provenance

        def counted_peek(blob):
            self.stamp_reads += 1
            return peek(blob)

        # the stream holds the one ``from … import`` alias of the stamp reader
        monkeypatch.setattr("repro.vmpi.stream.peek_provenance", counted_peek)

    @staticmethod
    def _layer() -> str:
        """Package (``repro.<layer>``) of whoever called into the frame module."""
        caller = sys._getframe(1)
        while caller.f_globals["__name__"] in (frame_mod.__name__, __name__):
            caller = caller.f_back
        return caller.f_globals["__name__"].split(".")[1]

    def _wrap(self, original, count):
        def wrapper(blob):
            count(blob)
            return original(blob)

        return wrapper

    def _entry(self, blob):
        self.entries[self._layer()] += 1

    def _walk(self, blob):
        self.walks[self._layer(), blob if isinstance(blob, bytes) else repr(blob)] += 1

    def walks_by(self, layer: str) -> int:
        return sum(n for (who, _blob), n in self.walks.items() if who == layer)


def test_reduced_coupled_enters_a_pack_three_times(monkeypatch):
    probe = ReaderProbe(monkeypatch)
    result = sessions.reduced_coupled().run()
    packs = sessions.app_run(result).packs
    assert packs == result.analyzer_stats["packs"] > 0
    # writer and reader side read the content size once each; the analyzer parses
    assert probe.entries == {"vmpi": 2 * packs, "analysis": packs}
    assert sum(probe.entries.values()) / packs <= 3.0  # 4.0 on the parent
    assert probe.walks_by("analysis") == packs and probe.walks_by("vmpi") == 0
    assert probe.stamp_reads == 0


def test_observed_faulted_enters_a_pack_five_times(monkeypatch, tmp_path):
    probe = ReaderProbe(monkeypatch)
    result = sessions.observed_faulted(0, str(tmp_path)).run()
    run = sessions.app_run(result)
    emitted = run.packs + run.packs_dropped
    corrupted = sum(st.injected_corruptions for _rank, st in result.world.streams)
    assert result.degraded and corrupted > 0
    # the injector parses exactly the packs it corrupts: its own hop
    assert probe.entries.pop("faults") == probe.walks_by("faults") == corrupted
    assert set(probe.entries) == {"vmpi", "analysis"}
    assert sum(probe.entries.values()) / emitted <= 5.0  # 8.3 on the parent
    assert probe.entries["analysis"] == probe.walks_by("analysis")
    assert probe.entries["analysis"] == sum(
        result.analyzer_stats[k] for k in ("packs", "packs_rejected")
    )
    # the stamp comes off the wire once per stream side (4.3 on the parent,
    # where close markers were peeked too); the analyzer reads its parsed frame
    assert 0 < probe.stamp_reads / emitted <= 2.0
    assert probe.stamp_reads == probe.walks_by("vmpi")


def test_payloadless_stream_never_enters_a_reader(monkeypatch):
    probe = ReaderProbe(monkeypatch)
    stats = {}
    launcher = VirtualizedLauncher(machine=TERA100, seed=0)
    launcher.add_program(
        "Writers", nprocs=4, main=stream_writer_program, total_bytes=4 * MIB,
        block_size=MIB, reader_partition="Analyzer", stats=stats,
    )
    launcher.add_program(
        "Analyzer", nprocs=2, main=stream_reader_program, block_size=MIB, stats=stats
    )
    launcher.run()
    assert stats["bytes_read"] == 16 * MIB
    assert not probe.entries and not probe.walks and probe.stamp_reads == 0


# -- a damaged pack is walked once ------------------------------------------------------

DAMAGE = {
    "FrameTruncatedError": lambda blob: blob[: len(blob) // 2],
    "PackFormatError": lambda blob: b"XXXX" + blob[4:],
    "SectionLengthError": lambda blob: blob + b"\x00",
    "ChecksumError": lambda blob: blob[:40] + bytes([blob[40] ^ 0xFF]) + blob[41:],
}


def test_a_damaged_pack_is_walked_once_and_rejected_by_its_cause(monkeypatch):
    probe = ReaderProbe(monkeypatch)
    damaged = {}  # blob -> expected cause
    write = VMPIStream.write
    kinds = list(DAMAGE)

    def damaging_write(self, nbytes=None, payload=None):
        if isinstance(payload, bytes) and self.blocks_written % 2:
            cause = kinds[len(damaged) % len(kinds)]
            payload = DAMAGE[cause](payload)
            damaged[payload] = cause
        return write(self, nbytes, payload)

    monkeypatch.setattr(VMPIStream, "write", damaging_write)
    telemetry = Telemetry()
    session = sessions.reduced_coupled(telemetry=telemetry)
    session.enable_provenance()
    result = session.run()

    expected = Counter(damaged.values())
    assert set(expected) == set(DAMAGE)
    stats = result.analyzer_stats
    assert stats["rejects_by_cause"] == expected
    assert stats["packs_rejected"] == len(damaged)
    for cause, n in expected.items():
        assert telemetry.counter(f"analysis.packs_rejected.{cause}").value == n
    assert telemetry.counter("analysis.packs_rejected").value == len(damaged)
    # one analysis-side walk per damaged pack (two on the parent for the
    # structurally damaged ones), and one per intact pack
    for blob, cause in damaged.items():
        assert probe.walks["analysis", blob] == 1, cause
    assert probe.walks_by("analysis") == stats["packs"] + stats["packs_rejected"]
    # a flow whose stamp survived the damage ends labelled "reject"
    readable = sum(1 for blob in damaged if frame_mod.peek_provenance(blob) is not None)
    assert result.flows["losses"].get("reject", 0) == readable > 0


# -- nothing the pack path accounts moved -----------------------------------------------


def _snapshots(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "reduced_coupled": sessions.snapshot(sessions.reduced_coupled(seed).run()),
            "observed_faulted": sessions.snapshot(sessions.observed_faulted(seed, tmp).run()),
            "drop_oldest": sessions.snapshot(sessions.overflowing(seed).run()),
        }


@pytest.mark.parametrize("seed", [0, 1])
def test_stats_flows_and_rejects_match_the_parents(seed):
    expected = json.loads(FIXTURE.read_text())[str(seed)]
    assert expected["drop_oldest"]["analyzer_stats"]["stream"]["stale_blocks_discarded"] > 0
    assert expected["observed_faulted"]["analyzer_stats"]["rejects_by_cause"]
    got = _snapshots(seed)
    for name, snapshot in expected.items():
        for part, value in snapshot.items():
            assert got[name][part] == value, (name, part)


# -- the names others patch are what they were --------------------------------------------

PATCHED_FUNCTIONS = {
    "repro.codec.frame": (
        "parse_frame", "peek_header", "peek_provenance", "frame_content_size", "build_frame",
    ),
    "repro.instrument.packer": ("decode_pack", "decode_pack_frame", "verify_pack"),
    "repro.instrument.events": ("decode_events",),
}


def test_patched_names_are_still_plain_functions_and_attributes():
    import importlib

    from repro.analysis.engine import AnalysisConfig, AnalyzerEngine

    for module, names in PATCHED_FUNCTIONS.items():
        namespace = vars(importlib.import_module(module))
        for name in names:
            assert inspect.isfunction(namespace[name]), (module, name)
    assert inspect.isfunction(vars(AnalyzerEngine)["ingest"])
    engine = AnalyzerEngine([("probe", 4)], AnalysisConfig())
    for attr in ("packs_ingested", "packs_rejected", "bytes_ingested", "bytes_wire_ingested"):
        assert vars(engine)[attr] == 0, attr


def test_the_host_profiler_installs_and_restores_all_eleven_entry_points():
    points = [hostprof.resolve_entry_point(row[0]) for row in hostprof.ENTRY_POINTS]
    assert len(points) == 11
    with hostprof.profiled():
        assert all(vars(owner)[attr] is not original for owner, attr, original in points)
    assert all(vars(owner)[attr] is original for owner, attr, original in points)


if __name__ == "__main__":
    FIXTURE.write_text(
        "{\n"
        + ",\n".join(
            f'"{seed}": ' + json.dumps(_snapshots(seed), sort_keys=True, separators=(",", ":"))
            for seed in (0, 1)
        )
        + "\n}\n"
    )
    print(f"wrote {FIXTURE}")
