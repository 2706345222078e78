"""Property-based tests over subsystem behaviours (mailbox, mapping, blackboard)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.topology import CommMatrix
from repro.blackboard import Blackboard
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.mpi.message import Envelope, Mailbox
from repro.simt import Kernel
from repro.simt.primitives import SimEvent
from repro.vmpi.mapping import FIXED, RANDOM, ROUND_ROBIN


# ---------------------------------------------------------------------------
# Mailbox: every message matches exactly one receive; FIFO per (src, tag)
# ---------------------------------------------------------------------------


def _deliver(kernel, mailbox, src, tag, seq):
    arrival = SimEvent(kernel)
    env = Envelope(
        comm_id=0, src=src, tag=tag, nbytes=8, payload=seq, arrival=arrival,
        match_event=None,
    )
    mailbox.deliver(env)
    arrival.succeed()
    return env


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40
    ),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_mailbox_conserves_messages(messages, recv_first):
    kernel = Kernel()
    mailbox = Mailbox(kernel, owner_rank=0)
    received = []

    def on_done(ev):
        received.append(ev.value.payload)

    if recv_first:
        for _ in messages:
            mailbox.post(0, ANY_SOURCE, ANY_TAG, 0.0).add_callback(on_done)
    for seq, (src, tag) in enumerate(messages):
        _deliver(kernel, mailbox, src, tag, seq)
    if not recv_first:
        for _ in messages:
            mailbox.post(0, ANY_SOURCE, ANY_TAG, 0.0).add_callback(on_done)
    kernel.run()
    assert sorted(received) == list(range(len(messages)))
    unexpected, posted = mailbox.pending_counts()
    assert unexpected == 0 and posted == 0


@given(st.lists(st.integers(0, 2), min_size=2, max_size=30))
@settings(max_examples=60, deadline=None)
def test_mailbox_fifo_per_source(srcs):
    """Messages from the same source on one tag arrive in send order."""
    kernel = Kernel()
    mailbox = Mailbox(kernel, owner_rank=0)
    received = []
    for seq, src in enumerate(srcs):
        _deliver(kernel, mailbox, src, 0, (src, seq))
    for _ in srcs:
        mailbox.post(0, ANY_SOURCE, 0, 0.0).add_callback(
            lambda ev: received.append(ev.value.payload)
        )
    kernel.run()
    for src in set(srcs):
        seqs = [s for (m_src, s) in received if m_src == src]
        assert seqs == sorted(seqs)


_mailbox_ops = st.one_of(
    st.tuples(st.just("deliver"), st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    st.tuples(
        st.sampled_from(["post", "probe"]),
        st.integers(0, 2),
        st.sampled_from([ANY_SOURCE, 0, 1, 2]),
        st.sampled_from([ANY_TAG, 0, 1]),
    ),
)


@given(st.lists(_mailbox_ops, min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_mailbox_running_unexpected_count_matches_a_recount(ops):
    """``unexpected_peak`` and ``pending_counts()`` come from a running
    counter; after every deliver / post / probe across three communicators
    (wildcards included) they must equal a brute-force recount of the
    queues.  The post-side match is the decrement that is easy to forget."""
    kernel = Kernel()
    mailbox = Mailbox(kernel, owner_rank=0)
    peak = 0
    for op, comm_id, a, b in ops:
        if op == "deliver":
            arrival = SimEvent(kernel)
            mailbox.deliver(Envelope(comm_id, a, b, 8, None, arrival, None))
            arrival.succeed()
        elif op == "post":
            mailbox.post(comm_id, a, b, 0.0)
        else:
            probed = mailbox.probe(comm_id, a, b)
            assert probed is None or not probed.matched
        unexpected = sum(len(q) for q in mailbox._unexpected.values())
        posted = sum(len(q) for q in mailbox._posted.values())
        peak = max(peak, unexpected)
        assert mailbox.pending_counts() == (unexpected, posted)
        assert mailbox.unexpected_peak == peak
    kernel.run()
    assert mailbox.pending_counts()[0] == sum(
        1 for q in mailbox._unexpected.values() for env in q if not env.matched
    )


# ---------------------------------------------------------------------------
# Mapping policies: validity invariants
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 200),
    st.integers(1, 50),
    st.sampled_from([ROUND_ROBIN, FIXED, RANDOM]),
    st.integers(0, 2**31),
)
def test_policy_assignments_in_range(slaves, masters, policy, seed):
    for i in range(slaves):
        local = policy.assign(i, masters, seed)
        assert 0 <= local < masters


@given(st.integers(1, 300), st.integers(1, 60))
def test_round_robin_covers_all_masters(slaves, masters):
    targets = {ROUND_ROBIN.assign(i, masters, 0) for i in range(slaves)}
    assert targets == set(range(min(slaves, masters)))


@given(st.integers(1, 100), st.integers(1, 20), st.integers(0, 1000))
def test_random_policy_deterministic(slaves, masters, seed):
    a = [RANDOM.assign(i, masters, seed) for i in range(slaves)]
    b = [RANDOM.assign(i, masters, seed) for i in range(slaves)]
    assert a == b


# ---------------------------------------------------------------------------
# Blackboard: entry conservation and ref-count hygiene under chained KSs
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_blackboard_conserves_entries(fanouts):
    board = Blackboard(seed=1)
    t_in = board.register_type("in")
    t_out = board.register_type("out")
    sunk = []

    def splitter(b, entries):
        for e in entries:
            for j in range(e.payload):
                b.submit(t_out, j, size=1)

    board.register_ks("split", [t_in], splitter)
    board.register_ks("sink", [t_out], lambda b, es: sunk.append(es[0].payload))
    submitted = []
    for fanout in fanouts:
        entry = board.submit(t_in, fanout, size=4)
        submitted.append(entry)
    board.run_until_idle()
    assert len(sunk) == sum(fanouts)
    assert all(e.freed for e in submitted)
    assert board.stats()["bytes_current"] == 0


# ---------------------------------------------------------------------------
# CommMatrix: merge commutes with update order
# ---------------------------------------------------------------------------

edges = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 10**6)),
    min_size=1,
    max_size=50,
)


@given(edges, st.integers(0, 50))
@settings(max_examples=50, deadline=None)
def test_comm_matrix_merge_equals_single(edge_list, cut):
    import numpy as np
    from repro.instrument.events import CALL_IDS, EVENT_DTYPE

    def events_for(e_list):
        by_src = {}
        for src, dst, nbytes in e_list:
            by_src.setdefault(src, []).append((dst, nbytes))
        out = {}
        for src, items in by_src.items():
            arr = np.zeros(len(items), dtype=EVENT_DTYPE)
            for i, (dst, nbytes) in enumerate(items):
                arr[i] = (CALL_IDS["MPI_Send"], 0, dst, 0, 8, nbytes, 0.0, 1.0)
            out[src] = arr
        return out

    cut = min(cut, len(edge_list))
    whole = CommMatrix("app", 8)
    for src, arr in events_for(edge_list).items():
        whole.update(src, arr)
    left, right = CommMatrix("app", 8), CommMatrix("app", 8)
    for src, arr in events_for(edge_list[:cut]).items():
        left.update(src, arr)
    for src, arr in events_for(edge_list[cut:]).items():
        right.update(src, arr)
    left.merge(right)
    assert left.cells.keys() == whole.cells.keys()
    for key in whole.cells:
        assert left.cells[key] == pytest.approx(whole.cells[key])
    total_bytes = sum(n for _s, _d, n in edge_list)
    assert whole.totals()[1] == pytest.approx(total_bytes)
