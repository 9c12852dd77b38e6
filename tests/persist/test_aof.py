"""AOF writer behavior: policies, torn-write rollback, tail truncation."""

from __future__ import annotations

import os

import pytest

from repro.kvstore.persist.aof import AofWriter, RealFile, load_aof
from repro.kvstore.persist.codec import (
    HEADER_SIZE,
    encode_delete,
    frame,
    scan_frames,
)
from repro.kvstore.persist.faults import (
    DiskFaultInjector,
    DiskFaultPlan,
)


def _records(writer: AofWriter, count: int, size: int = 16) -> None:
    for i in range(count):
        writer.append(frame(b"r%04d" % i + b"x" * size))


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_append_is_pure_buffering(tmp_path):
    path = str(tmp_path / "a.aof")
    writer = AofWriter(path, fsync_policy="no")
    _records(writer, 3)
    assert writer.pending_bytes > 0
    assert os.path.getsize(path) == 0  # nothing on disk until flush
    assert writer.flush()
    assert writer.pending_bytes == 0
    assert os.path.getsize(path) == writer.good_size > 0
    writer.close()


def test_fsync_policies(tmp_path):
    clock = FakeClock()
    always = AofWriter(
        str(tmp_path / "always.aof"), fsync_policy="always", clock=clock
    )
    _records(always, 1)
    always.flush()
    assert always.fsyncs == 1
    # a read-only batch (nothing pending) must not pay another fsync
    always.flush()
    assert always.fsyncs == 1
    always.close()

    eachsec = AofWriter(
        str(tmp_path / "sec.aof"),
        fsync_policy="everysec",
        clock=clock,
    )
    _records(eachsec, 1)
    eachsec.flush()
    assert eachsec.fsyncs == 0  # inside the window: deferred
    clock.t += 1.5
    eachsec.flush()  # window elapsed: the deferred fsync happens
    assert eachsec.fsyncs == 1
    clock.t += 1.5
    eachsec.flush()  # nothing new written since: no fsync owed
    assert eachsec.fsyncs == 1
    eachsec.close()

    never = AofWriter(str(tmp_path / "no.aof"), fsync_policy="no")
    _records(never, 5)
    never.flush()
    assert never.fsyncs == 0
    never.close(flush=True)  # close always seals with one forced fsync
    assert never.fsyncs == 1


def test_unknown_policy_rejected(tmp_path):
    with pytest.raises(ValueError):
        AofWriter(str(tmp_path / "x.aof"), fsync_policy="sometimes")


def test_load_aof_round_trip(tmp_path):
    path = str(tmp_path / "log.aof")
    writer = AofWriter(path, fsync_policy="no")
    out = bytearray()
    encode_delete(out, b"k1")
    encode_delete(out, b"k2")
    writer.append(bytes(out[:HEADER_SIZE + 7]))  # first framed record
    records, truncated = (None, None)
    writer.buffer = out  # append both frames wholesale
    writer.flush()
    writer.close()
    records, truncated = load_aof(path)
    assert truncated == 0
    assert records == [("D", b"k1"), ("D", b"k2")]


def test_load_aof_missing_file(tmp_path):
    records, truncated = load_aof(str(tmp_path / "absent.aof"))
    assert records == [] and truncated == 0


def test_load_aof_truncates_torn_tail(tmp_path):
    path = str(tmp_path / "torn.aof")
    good = bytearray()
    encode_delete(good, b"alpha")
    encode_delete(good, b"beta")
    torn = bytes(good) + frame(b"D\x05\x00\x00\x00gamma")[:-3]
    with open(path, "wb") as fh:
        fh.write(torn)
    records, truncated = load_aof(path)
    assert records == [("D", b"alpha"), ("D", b"beta")]
    assert truncated == len(torn) - len(good)
    # the file was physically cut back to the valid prefix
    assert os.path.getsize(path) == len(good)
    # idempotent: a second load sees a clean log
    assert load_aof(path) == (records, 0)


def test_load_aof_stops_at_decodable_but_invalid_record(tmp_path):
    path = str(tmp_path / "bad.aof")
    good = bytearray()
    encode_delete(good, b"ok")
    blob = bytes(good) + frame(b"Q-not-a-record") + frame(b"D\x02\x00\x00\x00no")
    with open(path, "wb") as fh:
        fh.write(blob)
    records, truncated = load_aof(path)
    # CRC passes on the bad frame, decode fails: replay must stop there
    assert records == [("D", b"ok")]
    assert truncated == len(blob) - len(good)
    assert os.path.getsize(path) == len(good)


def test_write_error_rolls_back_to_good_size(tmp_path):
    path = str(tmp_path / "err.aof")
    injector = DiskFaultInjector(
        DiskFaultPlan(short_write=1.0, after_writes=1, seed=3)
    )
    writer = AofWriter(
        path, fsync_policy="no", file_factory=injector.open
    )
    first = bytearray()
    encode_delete(first, b"first")
    second = bytearray()
    encode_delete(second, b"second")
    writer.append(bytes(first))
    assert writer.flush()  # write 1 passes clean (after_writes=1)
    clean_size = writer.good_size
    writer.append(bytes(second))
    assert not writer.flush()  # injected short write
    assert writer.write_errors == 1
    # rollback: the file holds exactly the pre-failure bytes
    assert os.path.getsize(path) == clean_size
    # the pending buffer was retained: nothing acknowledged is dropped
    assert writer.pending_bytes > 0
    # a retry against a healed disk completes the record
    injector.plan = DiskFaultPlan()
    assert writer.flush()
    writer.close()
    records, truncated = load_aof(path)
    assert truncated == 0
    assert records == [("D", b"first"), ("D", b"second")]


def test_fsync_errors_are_counted_not_raised(tmp_path):
    injector = DiskFaultInjector(DiskFaultPlan(fsync_error=1.0, seed=1))
    writer = AofWriter(
        str(tmp_path / "f.aof"),
        fsync_policy="always",
        file_factory=injector.open,
    )
    writer.append(frame(b"data"))
    assert writer.flush()  # write lands; only the fsync fails
    assert writer.fsync_errors == 1
    assert writer.good_size > 0
    writer.close()


def test_enospc_keeps_prefix_and_recovers(tmp_path):
    path = str(tmp_path / "full.aof")
    record = frame(b"payload-0123456789")
    injector = DiskFaultInjector(
        DiskFaultPlan(enospc_after_bytes=len(record) + 5, seed=9)
    )
    writer = AofWriter(path, fsync_policy="no", file_factory=injector.open)
    writer.append(record)
    assert writer.flush()
    writer.append(record)
    assert not writer.flush()  # disk full mid-record
    assert injector.stats.enospc_errors == 1
    # rollback cut the torn tail; the log still scans clean
    payloads, valid = scan_frames(open(path, "rb").read())
    assert payloads == [b"payload-0123456789"]
    assert valid == os.path.getsize(path)
    writer.close(flush=False)


def test_bit_flip_is_silent_until_scan(tmp_path):
    path = str(tmp_path / "flip.aof")
    injector = DiskFaultInjector(DiskFaultPlan(bit_flip=1.0, seed=5))
    writer = AofWriter(path, fsync_policy="no", file_factory=injector.open)
    writer.append(frame(b"victim"))
    assert writer.flush()  # the writer sees success
    assert injector.stats.bits_flipped == 1
    writer.close()
    records, truncated = load_aof(path)
    # recovery's CRC scan is the only place the damage shows up
    assert records == []
    assert truncated > 0
    assert os.path.getsize(path) == 0


def test_close_is_idempotent(tmp_path):
    writer = AofWriter(str(tmp_path / "c.aof"), fsync_policy="always")
    writer.append(frame(b"x"))
    writer.close()
    fsyncs = writer.fsyncs
    writer.close()
    writer.close()
    assert writer.fsyncs == fsyncs  # no double flush
    assert writer.closed


def test_dirty_tail_flag_when_rollback_fails(tmp_path):
    class BrokenTruncate:
        def __init__(self, inner):
            self.inner = inner
            self.fail = False

        def write(self, data):
            if self.fail:
                raise OSError("boom")
            return self.inner.write(data)

        def fsync(self):
            self.inner.fsync()

        def truncate(self, size):
            raise OSError("cannot truncate")

        def close(self):
            self.inner.close()

    path = str(tmp_path / "d.aof")
    broken = BrokenTruncate(RealFile(path))
    writer = AofWriter(path, fsync_policy="no", file_factory=lambda p: broken)
    writer.append(frame(b"a"))
    writer.flush()
    broken.fail = True
    writer.append(frame(b"b"))
    assert not writer.flush()
    assert writer.dirty_tail  # recovery's CRC scan is the last resort


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        DiskFaultPlan(short_write=1.5)
    with pytest.raises(ValueError):
        DiskFaultPlan(enospc_after_bytes=-1)
    with pytest.raises(ValueError):
        DiskFaultPlan(after_writes=-2)


def test_injector_stats_roll_across_rotations(tmp_path):
    injector = DiskFaultInjector(DiskFaultPlan(seed=0))
    for gen in range(3):
        writer = AofWriter(
            str(tmp_path / f"incr-{gen}.aof"),
            fsync_policy="no",
            file_factory=injector.open,
        )
        writer.append(frame(b"x"))
        writer.flush()
        writer.close()
    assert injector.stats.writes == 3  # one plan across all files
    assert injector.stats.bytes_written > 0
