"""Trace round-trip properties: record → replay is byte-identical.

The trace format is RESP all the way down, so the identity is checked
at the byte level: re-encoding a loaded trace reproduces the file
payload exactly, and re-recording the same (spec, seed) reproduces the
whole file.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.kvstore.resp import encode_command
from repro.loadgen.engine import OperationStream
from repro.loadgen.spec import PRESETS, preset
from repro.loadgen.trace import (
    TraceError,
    _MAGIC,
    read_trace,
    record_trace,
    trace_spec,
)



def replay_batches(path):
    """The trace's batches, in recorded order (driver-compatible)."""
    return read_trace(path)[1]


def reencode(batches):
    """The RESP payload bytes for ``batches`` (sans header): the
    oracle of the ``read_trace`` round-trip identity."""
    chunks = []
    for batch in batches:
        chunks.append(b"*%d\r\n" % len(batch))
        chunks.extend(encode_command(*op) for op in batch)
    return b"".join(chunks)


preset_names = st.sampled_from(sorted(PRESETS))
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(name=preset_names, seed=seeds,
       batches=st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_record_read_round_trip(tmp_path_factory, name, seed, batches):
    path = tmp_path_factory.mktemp("trace") / "t.lg"
    spec = preset(name, keyspace=128)
    meta = record_trace(path, OperationStream(spec, seed), batches=batches)
    loaded_meta, loaded = read_trace(path)

    assert loaded_meta == meta
    assert loaded_meta["seed"] == seed
    assert loaded_meta["batches"] == batches == len(loaded)
    assert trace_spec(loaded_meta) == spec

    # the loaded batches are the stream's batches, op for op
    expected = list(
        itertools.islice(OperationStream(spec, seed).batches(), batches)
    )
    assert loaded == expected

    # byte identity: re-encoding the loaded trace reproduces the file
    raw = path.read_bytes()
    payload = raw[raw.find(b"\n") + 1:]
    assert reencode(loaded) == payload


def test_re_recording_is_byte_identical(tmp_path):
    spec = preset("ttl-churn", keyspace=64)
    first, second = tmp_path / "a.lg", tmp_path / "b.lg"
    record_trace(first, OperationStream(spec, 7), batches=8)
    record_trace(second, OperationStream(spec, 7), batches=8)
    assert first.read_bytes() == second.read_bytes()


def test_replay_batches_streams_the_recorded_ops(tmp_path):
    path = tmp_path / "t.lg"
    spec = preset("ycsb-a", keyspace=64)
    record_trace(path, OperationStream(spec, 3), batches=5)
    replayed = list(replay_batches(path))
    assert replayed == list(
        itertools.islice(OperationStream(spec, 3).batches(), 5)
    )


def test_replayed_ops_are_plain_bytes(tmp_path):
    # the parser may hand back memoryviews; replay must normalize them
    path = tmp_path / "t.lg"
    record_trace(
        path, OperationStream(preset("ycsb-b", keyspace=64), 1), batches=2
    )
    for batch in replay_batches(path):
        for op in batch:
            assert all(type(part) is bytes for part in op)


# ----------------------------------------------------------------------
# validation: corrupt files fail loudly, not weirdly
# ----------------------------------------------------------------------


def _valid_trace(tmp_path):
    path = tmp_path / "t.lg"
    record_trace(
        path, OperationStream(preset("ycsb-a", keyspace=64), 2), batches=3
    )
    return path


def test_missing_magic_is_rejected(tmp_path):
    path = tmp_path / "bad.lg"
    path.write_bytes(b"not a trace\n*1\r\n")
    with pytest.raises(TraceError, match="header"):
        read_trace(path)


def test_malformed_header_json_is_rejected(tmp_path):
    path = tmp_path / "bad.lg"
    path.write_bytes(_MAGIC + b"{oops\n")
    with pytest.raises(TraceError, match="malformed"):
        read_trace(path)


def test_truncated_payload_is_rejected(tmp_path):
    path = _valid_trace(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(TraceError):
        read_trace(path)


def test_trailing_garbage_is_rejected(tmp_path):
    path = _valid_trace(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw + b"$3\r\nxyz")
    with pytest.raises(TraceError):
        read_trace(path)


def test_header_count_mismatch_is_rejected(tmp_path):
    path = _valid_trace(tmp_path)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    header = raw[len(_MAGIC):newline].replace(b'"batches":3', b'"batches":4')
    path.write_bytes(_MAGIC + header + raw[newline:])
    with pytest.raises(TraceError, match="promises"):
        read_trace(path)
