"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.instrument.events import CALL_NAMES, decode_events, encode_event
from repro.instrument.packer import EventPackBuilder, decode_pack
from repro.mpi.pmpi import CallRecord
from repro.simt.kernel import Kernel
from repro.simt.resources import Pipe
from repro.util.stats import Histogram
from repro.util.units import fmt_bytes, parse_size

# ---------------------------------------------------------------------------
# Histogram: totals conserved
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(-100, 200, allow_nan=False), max_size=200),
    st.integers(1, 64),
)
def test_histogram_conserves_count(values, nbins):
    h = Histogram(0.0, 100.0, nbins=nbins)
    for v in values:
        h.add(v)
    assert h.total == len(values)
    assert all(c >= 0 for c in h.counts)


# ---------------------------------------------------------------------------
# Units: parse/format round trips
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**15))
def test_parse_size_identity_on_ints(n):
    assert parse_size(n) == n


@given(st.integers(0, 10**14))
def test_fmt_bytes_always_parseable_magnitude(n):
    text = fmt_bytes(n)
    value, unit = text.split(" ")
    assert float(value) >= 0
    assert unit in ("B", "KB", "MB", "GB", "TB")


# ---------------------------------------------------------------------------
# Event record wire format round trip
# ---------------------------------------------------------------------------

call_names = st.sampled_from(CALL_NAMES)
records = st.builds(
    CallRecord,
    name=call_names,
    t_start=st.floats(0, 1e6, allow_nan=False),
    t_end=st.floats(0, 1e6, allow_nan=False),
    comm_id=st.integers(0, 100),
    comm_rank=st.integers(0, 2**16),
    comm_size=st.integers(0, 2**20),
    peer=st.integers(-1, 2**31 - 1),
    tag=st.integers(-1, 2**31 - 1),
    nbytes=st.integers(0, 2**62),
)


@given(records)
def test_event_roundtrip(record):
    decoded = decode_events(encode_event(record))[0]
    assert CALL_NAMES[decoded["call"]] == record.name
    assert decoded["peer"] == record.peer
    assert decoded["tag"] == record.tag
    assert decoded["nbytes"] == record.nbytes
    assert decoded["comm_size"] == record.comm_size
    assert decoded["t_start"] == np.float64(record.t_start)
    assert decoded["t_end"] == np.float64(record.t_end)


@given(st.lists(records, max_size=60), st.integers(0, 255), st.integers(0, 2**16))
def test_pack_roundtrip(recs, app_id, rank):
    pb = EventPackBuilder(app_id=app_id, rank=rank, capacity_bytes=1 << 20)
    for r in recs:
        pb.add(r)
    header, events = decode_pack(pb.emit())
    assert header.app_id == app_id and header.rank == rank
    assert header.count == len(recs)
    for wire, orig in zip(events, recs):
        assert CALL_NAMES[wire["call"]] == orig.name


# ---------------------------------------------------------------------------
# Pipe invariants: serialization conserves work, never exceeds bandwidth
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(1, 10**7), min_size=1, max_size=40),
    st.floats(1e3, 1e9, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_pipe_aggregate_throughput_bounded(sizes, bandwidth):
    kernel = Kernel()
    pipe = Pipe(kernel, bandwidth=bandwidth)
    finish = []

    def sender(k, n):
        yield pipe.transfer(n)
        finish.append(k.now)

    for n in sizes:
        kernel.spawn(sender(kernel, n))
    kernel.run()
    total = sum(sizes)
    makespan = max(finish)
    assert makespan >= total / bandwidth * (1 - 1e-9)
    assert pipe.bytes_transferred == total


@given(st.lists(st.integers(1, 10**6), min_size=2, max_size=30))
@settings(max_examples=30, deadline=None)
def test_pipe_fifo_completion_order(sizes):
    kernel = Kernel()
    pipe = Pipe(kernel, bandwidth=1e6)
    order = []

    def sender(k, idx, n):
        yield pipe.transfer(n)
        order.append(idx)

    for i, n in enumerate(sizes):
        kernel.spawn(sender(kernel, i, n))
    kernel.run()
    assert order == sorted(order)
