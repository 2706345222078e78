"""The seven analysis modules vs their frozen pre-batch, dense-state
references (ROADMAP 4b).

``src/repro/analysis/`` holds one accumulation path — every module reads the
per-pack ``EventBatch`` — and one state shape: per-rank state keyed by the
ranks seen, with the vectors over every application rank built on query.
``tests/_analysis_reference.py`` holds what both replaced: ``update()`` bodies
that re-derive durations, ``np.unique`` and ``np.isin`` for themselves, writing
into dense per-rank vectors.  Hypothesis-drawn batches go to both in the same
order over several ranks, and the states read through the live classes'
public views must be **exactly** equal — floats compared by their bits, never
``approx`` — before and after ``merge()``, and the full rendered report
string-equal with all seven modules enabled.  The rendered report's SHA-256 is
a golden fingerprint of ``benchmarks/e2e``, so "close" is a failure.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _analysis_reference as ref
from repro.analysis.engine import AnalysisConfig, AnalyzerEngine
from repro.analysis import engine as engine_module
from repro.analysis.batch import EventBatch, call_lut
from repro.codec.frame import build_frame
from repro.errors import ReproError
from repro.instrument.events import CALL_IDS, CALL_NAMES, EVENT_DTYPE

MODULES = tuple(ref.REFERENCE_CLASSES)
APP, APP_SIZE = "app", 6

#: capped so tier-1 stays where it was (the whole file runs in a few seconds)
PROFILE = settings(max_examples=120, deadline=None)

# -- exact state comparison ----------------------------------------------------------

#: not accumulation state: shared configuration objects
_NOT_STATE = frozenset({"config", "router"})


def freeze(obj):
    """A hashable-free, ``==``-comparable image of a state that equals another
    only when every number has the same type and the same bits."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (float, np.floating)):
        return (type(obj).__name__, float(obj).hex())
    if isinstance(obj, (bool, int, np.integer, str, type(None))):
        return (type(obj).__name__, obj)
    if isinstance(obj, dict):  # insertion order is state too (report tie-breaks)
        return ("dict", [(freeze(k), freeze(v)) for k, v in obj.items()])
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [freeze(v) for v in obj])
    slots = getattr(type(obj), "__slots__", None)
    names = slots if slots is not None else sorted(vars(obj))
    return (
        type(obj).__name__,
        [(n, freeze(getattr(obj, n))) for n in names if n not in _NOT_STATE],
    )


#: what is compared per module: its fields, per-rank state through the dense views
VIEWS = {
    "profile": ("calls", "events_total", "bytes_total", "rank_t0", "rank_t1", "rank_events"),
    "topology": ("cells",),
    "density": ("maps",),
    "waitstate": ("wait_time", "collective_time", "window_t0", "window_t1"),
    "otf2proxy": ("_chunks", "events_seen", "events_selected"),
    "alerts": ("alerts", "_raised_until", "last_event", "seen"),
    "latesender": (
        "sends", "recvs", "matched_pairs", "unmatched_sends", "unmatched_recvs",
        "late_send_time", "late_send_count", "_finalized",
    ),
}
#: the live per-rank field each module's dense views are built from
_BEHIND_VIEWS = {
    "profile": {"ranks"},
    "density": {"cells"},
    "waitstate": {"ranks"},
    "alerts": {"_last_event"},
    "latesender": {"late"},
}


def image(mod: str, state) -> list:
    return [(name, freeze(getattr(state, name))) for name in VIEWS[mod]]


def test_views_cover_every_live_field():
    for mod, state in _fresh().items():
        unread = set(vars(state)) - set(VIEWS[mod]) - _NOT_STATE - {"app", "app_size"}
        assert unread == _BEHIND_VIEWS.get(mod, set()), mod


def test_freeze_tells_apart_what_equality_conflates():
    assert freeze(0.0) != freeze(-0.0)
    assert freeze(1) != freeze(1.0) and freeze(np.int64(1)) != freeze(1)
    assert freeze(np.zeros(2)) != freeze(np.zeros(2, dtype=np.float32))
    assert freeze({1: 2, 3: 4}) != freeze({3: 4, 1: 2})
    assert freeze(0.1 + 0.2) != freeze(0.3)


# -- batches -------------------------------------------------------------------------

_KNOWN = list(range(len(CALL_NAMES)))
#: ids on and past the end of the registry, and at the ``<u2`` limits
_ODD_IDS = [len(CALL_NAMES), len(CALL_NAMES) + 1, 255, 256, 65_535]
_SIZES = [-(2**40), -1, 0, 1, 8, 4096, 2**20, 2**40]

#: record counts around numpy's pairwise-sum block edges (8, 128) and pack sizes
counts = st.one_of(
    st.sampled_from([0, 1, 2, 7, 8, 9, 127, 128, 129, 409, 2000]),
    st.integers(0, 300),
    st.integers(1, 2000),
)

palettes = st.one_of(
    st.just(_KNOWN),  # every registered call id
    st.just(_KNOWN + _ODD_IDS),
    st.sampled_from(_KNOWN + _ODD_IDS).map(lambda c: [c]),  # one call id only
    st.lists(st.sampled_from(_KNOWN + _ODD_IDS), min_size=1, max_size=6),
)


@st.composite
def event_batches(draw, max_peer: int = APP_SIZE - 1):
    """One ``(rank, events)`` pair: structure from Hypothesis, bulk from a seed."""
    n = draw(counts)
    palette = draw(palettes)
    time_mode = draw(st.sampled_from(["jitter", "repeated", "constant", "backwards"]))
    peer_mode = draw(st.sampled_from(["mixed", "none", "one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    events = np.zeros(n, dtype=EVENT_DTYPE)
    events["call"] = rng.choice(palette, n)
    events["flags"] = rng.integers(0, 2, n)
    if peer_mode == "mixed":
        events["peer"] = rng.integers(-1, max_peer + 1, n)
    elif peer_mode == "none":
        events["peer"] = -1
    else:
        events["peer"] = max_peer
    events["tag"] = rng.integers(-1, 3, n)
    events["comm_size"] = APP_SIZE
    events["nbytes"] = rng.choice(_SIZES, n)
    # Durations span seven decades so that any change in summation order
    # (pairwise vs sequential) shows in the last bits.
    spread = rng.uniform(1e-7, 1e-3, n) * 10.0 ** rng.integers(-3, 4, n)
    if time_mode == "jitter":
        start = rng.uniform(0.0, 50.0, n)
    elif time_mode == "repeated":
        start = rng.choice([0.0, 0.5, 1.25, 1e-9, 7.0], n)
        spread = rng.choice([0.0, 1e-6, 0.25], n)
    elif time_mode == "constant":
        start = np.full(n, 3.0)
    else:  # "backwards": t_end before t_start, negative durations
        start = rng.uniform(10.0, 20.0, n)
        spread = -spread
    events["t_start"] = start
    events["t_end"] = start + spread
    return draw(st.integers(0, APP_SIZE - 1)), events


def _fresh(classes=engine_module._MODULE_CLASSES) -> dict:
    return {mod: classes[mod](APP, APP_SIZE) for mod in MODULES}


def _feed_both(new: dict, old: dict, rank: int, events: np.ndarray, shared: bool) -> None:
    # ``shared``: the engine's path, one batch object read by all seven modules.
    arg = EventBatch(events) if shared else events
    for mod in MODULES:
        produced = new[mod].update(rank, arg)
        expected = old[mod].update(rank, events)
        assert freeze(produced) == freeze(expected), mod  # AlertMonitor returns alerts


def _assert_same(new: dict, old: dict) -> None:
    for mod in MODULES:
        assert image(mod, new[mod]) == image(mod, old[mod]), mod


@PROFILE
@given(
    batches=st.lists(event_batches(), min_size=1, max_size=5),
    shared=st.booleans(),
    split=st.integers(0, 5),
)
def test_states_match_the_reference_exactly(batches, shared, split):
    new, old = _fresh(), _fresh(ref.REFERENCE_CLASSES)
    # A second analyzer rank takes the tail of the stream, then merges in.
    new_peer, old_peer = _fresh(), _fresh(ref.REFERENCE_CLASSES)
    for i, (rank, events) in enumerate(batches):
        if i < split:
            _feed_both(new, old, rank, events, shared)
        else:
            _feed_both(new_peer, old_peer, rank, events, shared)
    _assert_same(new, old)
    _assert_same(new_peer, old_peer)
    for mod in MODULES:
        new[mod].merge(new_peer[mod])
        old[mod].merge(old_peer[mod])
    _assert_same(new, old)
    # The late-sender reduction of finalized shards, then the silence pass.
    for states in (new, old, new_peer, old_peer):
        states["latesender"].finalize()
    new["latesender"].merge(new_peer["latesender"])
    old["latesender"].merge(old_peer["latesender"])
    _assert_same(new, old)
    # The reference reads each silence off a numpy vector: same bits, numpy type.
    silent = [replace(a, value=float(a.value)) for a in old["alerts"].finalize(60.0)]
    assert freeze(new["alerts"].finalize(60.0)) == freeze(silent)


def _reference_classes() -> dict:
    """The reference classes, fed the engine's batches as plain arrays."""
    classes = {}
    for mod, reference in ref.REFERENCE_CLASSES.items():

        def update(self, rank, events, _body=reference.update):
            return _body(self, rank, EventBatch.of(events).events)

        classes[mod] = type(reference.__name__, (reference,), {"update": update})
    return classes


@contextmanager
def _module_classes(classes: dict):
    """Swap the engine's module table while a reference engine is built."""
    saved = dict(engine_module._MODULE_CLASSES)
    engine_module._MODULE_CLASSES.update(classes)
    try:
        yield
    finally:
        engine_module._MODULE_CLASSES.update(saved)


def _render(engine: AnalyzerEngine) -> str:
    for mods in engine.states.values():
        mods["latesender"].finalize()
    return engine.build_report().render()


@PROFILE
@given(batches=st.lists(event_batches(), min_size=1, max_size=4))
def test_engine_report_is_string_equal(batches):
    config = AnalysisConfig(modules=MODULES)
    new = AnalyzerEngine([(APP, APP_SIZE)], config)
    with _module_classes(_reference_classes()):
        old = AnalyzerEngine([(APP, APP_SIZE)], config)
    for rank, events in batches:
        blob = build_frame(0, rank, len(events), events.tobytes())
        assert new.ingest(blob) and old.ingest(blob)
    for mod in MODULES:
        assert image(mod, new.states[APP][mod]) == image(mod, old.states[APP][mod]), mod
    assert _render(new) == _render(old)


# -- what the batch itself promises -----------------------------------------------------


def test_of_returns_a_batch_unchanged_and_wraps_an_array():
    events = np.zeros(3, dtype=EVENT_DTYPE)
    batch = EventBatch(events)
    assert EventBatch.of(batch) is batch
    assert EventBatch.of(events).events is events


def test_empty_batch_has_an_empty_table_and_never_reduces():
    batch = EventBatch(np.zeros(0, dtype=EVENT_DTYPE))
    assert len(batch) == 0 and batch.groups == [] and batch.nbytes_total == 0
    for mod, state in _fresh().items():
        before = freeze(state)
        state.update(0, batch)
        assert freeze(state) == before, mod
    with pytest.raises(ValueError):  # min() of nothing: modules return before this
        batch.t0


def test_group_table_columns():
    events = np.zeros(5, dtype=EVENT_DTYPE)
    events["call"] = [7, 2, 7, 40_000, 2]
    events["nbytes"] = [10, -5, 30, 4, 6]
    events["t_start"] = [0.0, 1.0, 2.0, 3.0, 4.0]
    events["t_end"] = [0.5, 1.25, 2.125, 3.0, 4.75]
    batch = EventBatch(events)
    assert batch.groups == [
        (2, 2, 1.0, 6, 0.25, 0.75),
        (7, 2, 0.625, 40, 0.125, 0.5),
        (40_000, 1, 0.0, 4, 0.0, 0.0),
    ]
    assert (batch.t0, batch.t1, batch.nbytes_total) == (0.0, 4.75, 50)
    assert batch.call.flags["C_CONTIGUOUS"] and batch.groups is batch.groups


def test_call_lut_covers_every_representable_id():
    lut = call_lut({CALL_IDS["MPI_Send"], 65_535})
    assert lut.shape == (1 << 16,) and lut.dtype == bool and int(lut.sum()) == 2
    call = np.array([CALL_IDS["MPI_Send"], 65_535, 0, 300], dtype="<u2")
    assert lut[call].tolist() == [True, True, False, False]
    assert not call_lut(()).any()
    with pytest.raises(ValueError):  # shared by every engine in the process
        lut[0] = True


def test_out_of_range_peer_rejected_by_both():
    """Where the two deliberately differ: the reference rejects mid-loop."""
    events = np.zeros(2, dtype=EVENT_DTYPE)
    events["call"] = CALL_IDS["MPI_Send"]
    events["peer"] = [1, APP_SIZE]
    new, old = _fresh(), _fresh(ref.REFERENCE_CLASSES)
    with pytest.raises(ReproError, match=f"send to rank {APP_SIZE} outside"):
        new["topology"].update(0, events)
    with pytest.raises(ReproError, match=f"send to rank {APP_SIZE} outside"):
        old["topology"].update(0, events)
    assert new["topology"].cells == {} and old["topology"].cells != {}
