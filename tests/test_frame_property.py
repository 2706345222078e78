"""Every EVF2 reader agrees with every other, on any bytes (ROADMAP 5e).

One Hypothesis property over arbitrary byte strings and over valid frames
(identity and ``delta+dict+zlib`` descriptors, with and without provenance
and sampling sections) damaged by 1–3 byte flips, a truncation or trailing
garbage.  ``tests/test_frame_differential.py`` pins the parser to a frozen
legacy copy on a seeded corpus; this file pins the readers to each other,
which is what "one walk behind every reader" promises.
"""

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import packdump
from repro.codec.frame import (
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    FRAME_VERSION,
    PackProvenance,
    build_frame,
    frame_content_size,
    parse_frame,
    peek_header,
    peek_provenance,
)
from repro.errors import PackFormatError

pytestmark = pytest.mark.codec

SRC = str(Path(packdump.__file__).resolve().parents[1])

_provenance = st.builds(
    PackProvenance,
    flow_id=st.integers(0, 2**64 - 1),
    app_id=st.integers(0, 2**16 - 1),
    rank=st.integers(0, 2**32 - 1),
    t_seal=st.floats(allow_nan=True),
)

valid_frames = st.builds(
    build_frame,
    app_id=st.integers(0, 2**16 - 1),
    rank=st.integers(0, 2**32 - 1),
    count=st.integers(0, 2**32 - 1),
    payload=st.binary(max_size=96),
    codec=st.sampled_from(["", "delta+dict+zlib"]),
    provenance=st.none() | _provenance,
    events_dropped=st.sampled_from([0, 7]),
    flags=st.integers(0, 2**16 - 1),
)


@st.composite
def damaged_frames(draw):
    blob = bytearray(draw(valid_frames))
    kind = draw(st.sampled_from(["flip", "truncate", "garbage", "intact"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    elif kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    elif kind == "garbage":
        blob += draw(st.binary(min_size=1, max_size=12))
    return bytes(blob)


_EVF2 = struct.pack("<IH", FRAME_MAGIC, FRAME_VERSION)
any_bytes = st.binary(max_size=160) | st.binary(max_size=80).map(lambda tail: _EVF2 + tail)


def _outcome(reader, blob):
    """``("ok", value)`` or ``("err", None)``; only ``PackFormatError`` may escape."""
    try:
        return "ok", reader(blob)
    except PackFormatError:
        return "err", None


def _stamp(prov):
    if prov is None:
        return None
    return prov.flow_id, prov.app_id, prov.rank, struct.pack("<d", prov.t_seal)  # NaN-safe


@settings(max_examples=400, deadline=None)
@given(blob=damaged_frames() | any_bytes)
def test_readers_agree_and_only_pack_format_errors_escape(blob):
    status, frame = _outcome(lambda b: parse_frame(b, verify=False), blob)
    verified, _ = _outcome(parse_frame, blob)
    if status == "err":
        assert verified == "err"
    else:
        assert (verified == "ok") == bool(frame.crc_ok)
        _outcome(lambda f: f.codec, frame)  # a non-UTF-8 descriptor is a format error

    # the stamp reader is the parser's provenance, errors mapped to None
    assert _stamp(peek_provenance(blob)) == _stamp(frame.provenance if frame is not None else None)

    # the header readers succeed exactly when the header is valid ...
    header_valid = len(blob) >= FRAME_HEADER_SIZE and blob[: len(_EVF2)] == _EVF2
    h_status, info = _outcome(peek_header, blob)
    s_status, size = _outcome(frame_content_size, blob)
    assert (h_status == "ok") == (s_status == "ok") == header_valid
    assert status == "err" or header_valid
    if header_valid:
        assert size == info.content_size
    # ... and agree with the parsed frame
    if frame is not None:
        assert (info.app_id, info.rank, info.count, info.flags) == (
            frame.app_id, frame.rank, frame.count, frame.flags,
        )
        assert size == frame.content_size
        crc_sections = info.nsections - len(frame.sections)
        assert crc_sections >= 0 and (crc_sections > 0) == (frame.stored_crc is not None)

    # the forensic CLI's renderer never raises, whatever it is shown
    assert packdump.dump(blob).startswith(f"{len(blob)} bytes")


@settings(max_examples=6, deadline=None)
@given(
    blobs=st.lists(damaged_frames() | any_bytes, min_size=1, max_size=12),
    missing=st.booleans(),
)
def test_packdump_exits_zero_or_one_never_with_a_traceback(blobs, missing, tmp_path_factory):
    directory = tmp_path_factory.mktemp("packs")
    paths = []
    for i, blob in enumerate(blobs):
        path = directory / f"pack{i}.bin"
        path.write_bytes(blob)
        paths.append(str(path))
    if missing:  # an unreadable path is exit 1, not a crash
        paths.append(str(directory / "missing.bin"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.packdump", *paths],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == int(missing), done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.count("== ") == len(blobs)
