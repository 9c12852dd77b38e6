"""Tests for SoftBuffer (real bytes in soft memory)."""

import pytest

from repro.core.errors import ReclaimedMemoryError
from repro.core.sma import SoftMemoryAllocator
from repro.sds.soft_buffer import SoftBuffer
from repro.util.units import PAGE_SIZE


@pytest.fixture
def sma():
    return SoftMemoryAllocator(name="buf-test", request_batch_pages=1)


@pytest.fixture
def buf(sma):
    return SoftBuffer(sma, segment_size=PAGE_SIZE)


class TestWriteRead:
    def test_roundtrip(self, buf):
        off = buf.write(b"hello world")
        assert off == 0
        assert buf.read(0, 11) == b"hello world"
        assert len(buf) == 11

    def test_appends_are_contiguous(self, buf):
        a = buf.write(b"aaa")
        b = buf.write(b"bbb")
        assert (a, b) == (0, 3)
        assert buf.read(0, 6) == b"aaabbb"

    def test_cross_segment_write_and_read(self, buf):
        data = bytes(range(256)) * 32  # 8192 bytes = 2 segments
        buf.write(data)
        assert buf.read(0, len(data)) == data
        assert buf.read(4090, 12) == data[4090:4102]
        assert buf.live_segments == 2

    def test_partial_reads(self, buf):
        buf.write(b"0123456789")
        assert buf.read(3, 4) == b"3456"
        assert buf.read(9, 1) == b"9"
        assert buf.read(5, 0) == b""

    def test_out_of_range_read(self, buf):
        buf.write(b"abc")
        with pytest.raises(ValueError):
            buf.read(0, 4)
        with pytest.raises(ValueError):
            buf.read(-1, 1)

    def test_segment_sizing(self, sma):
        buf = SoftBuffer(sma, segment_size=100)
        buf.write(b"x" * 250)
        assert buf.live_segments == 3

    def test_invalid_segment_size(self, sma):
        with pytest.raises(ValueError):
            SoftBuffer(sma, segment_size=0)

    def test_bytes_are_real(self, buf, sma):
        """The soft allocation actually holds the content."""
        buf.write(b"payload-bytes")
        __, payload = buf._segments[0].payload
        assert bytes(payload[:13]) == b"payload-bytes"


class TestReclamation:
    def test_oldest_segments_dropped_first(self, sma, buf):
        buf.write(b"A" * PAGE_SIZE)
        buf.write(b"B" * PAGE_SIZE)
        buf.write(b"C" * PAGE_SIZE)
        sma.reclaim(1)
        with pytest.raises(ReclaimedMemoryError):
            buf.read(0, 10)
        assert buf.read(PAGE_SIZE, 10) == b"B" * 10
        assert buf.try_read(10, 10) is None

    def test_offsets_stable_after_reclaim(self, sma, buf):
        buf.write(b"A" * PAGE_SIZE)
        off = buf.write(b"BBBB")
        sma.reclaim(1)  # drops segment 0
        later = buf.write(b"CCCC")
        assert buf.read(off, 4) == b"BBBB"
        assert buf.read(later, 4) == b"CCCC"
        assert later == off + 4

    def test_callback_gets_segment_content(self, sma):
        seen = []
        buf = SoftBuffer(
            sma, segment_size=PAGE_SIZE,
            callback=lambda payload: seen.append(payload),
        )
        buf.write(b"Z" * PAGE_SIZE)
        buf.write(b"Y" * 10)
        sma.reclaim(1)
        (seg_index, content), = seen
        assert seg_index == 0
        assert bytes(content) == b"Z" * PAGE_SIZE

    def test_available_bytes_shrinks(self, sma, buf):
        buf.write(b"x" * (3 * PAGE_SIZE))
        assert buf.live_segments == 3
        sma.reclaim(2)
        # the two oldest pages are gone, the newest still reads
        assert buf.live_segments == 1
        assert buf.try_read(0, 2 * PAGE_SIZE) is None
        assert buf.read(2 * PAGE_SIZE, PAGE_SIZE) == b"x" * PAGE_SIZE
        assert len(buf) == 3 * PAGE_SIZE  # length never shrinks

    def test_pinned_range_survives(self, sma, buf):
        buf.write(b"A" * PAGE_SIZE)
        buf.write(b"B" * PAGE_SIZE)
        with buf.pinned(0, 10):
            sma.reclaim(2)
            assert buf.read(0, 3) == b"AAA"
        # the unpinned segment was fair game
        assert buf.try_read(PAGE_SIZE, 3) is None

    def test_pinned_on_reclaimed_range_raises(self, sma, buf):
        buf.write(b"A" * PAGE_SIZE)
        buf.write(b"B" * 10)
        sma.reclaim(1)
        with pytest.raises(ReclaimedMemoryError):
            buf.pinned(0, 5)

    def test_segments_listing(self, sma, buf):
        buf.write(b"x" * (2 * PAGE_SIZE))
        sma.reclaim(1)
        listing = dict(buf.segments())
        assert listing == {1: True}  # segment 0 removed entirely

    def test_evict_empty_returns_false(self, buf):
        assert not buf.evict_one()


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    chunks=st.lists(st.binary(min_size=1, max_size=300), max_size=30),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_buffer_matches_bytearray_model(chunks, seed):
    """Property: without reclamation, the buffer is byte-for-byte a
    plain bytearray; with reclamation, surviving ranges still match and
    reclaimed ranges answer None."""
    import random

    from repro.core.sma import SoftMemoryAllocator

    rng = random.Random(seed)
    sma = SoftMemoryAllocator(name="prop", request_batch_pages=1)
    buf = SoftBuffer(sma, segment_size=128)
    model = bytearray()
    for chunk in chunks:
        offset = buf.write(chunk)
        assert offset == len(model)
        model.extend(chunk)
    assert len(buf) == len(model)
    # random range reads agree with the model
    for _ in range(20):
        if not model:
            break
        start = rng.randrange(len(model))
        length = rng.randint(0, len(model) - start)
        assert buf.read(start, length) == bytes(model[start:start + length])
    # reclaim a page's worth; reads either agree or are None
    sma.reclaim(1)
    for _ in range(20):
        if not model:
            break
        start = rng.randrange(len(model))
        length = rng.randint(0, len(model) - start)
        got = buf.try_read(start, length)
        assert got is None or got == bytes(model[start:start + length])
    sma.check_invariants()


class TestTailReclamation:
    def test_append_after_tail_reclaim_skips_boundary(self, sma, buf):
        """Lost bytes must never reappear as zeroes: appends after the
        tail segment was reclaimed continue at the next boundary."""
        buf.write(b"A" * 10)  # partial tail segment
        # reclaim everything (the only segment is the tail)
        assert buf.context.heap.live_allocations == 1
        sma.reclaim(sma.reclaimable_pages())
        assert buf.try_read(0, 10) is None

        off = buf.write(b"NEW")
        assert off == PAGE_SIZE  # skipped to the next segment
        assert buf.read(off, 3) == b"NEW"
        # the lost range still reads as reclaimed, not zeroes
        assert buf.try_read(0, 10) is None
        with pytest.raises(ReclaimedMemoryError):
            buf.read(5, 2)

    def test_append_after_interior_reclaim_unaffected(self, sma, buf):
        buf.write(b"A" * PAGE_SIZE)   # segment 0
        buf.write(b"B" * 10)          # partial segment 1 (tail, alive)
        sma.reclaim(1)                # takes oldest = segment 0
        off = buf.write(b"CC")
        assert off == PAGE_SIZE + 10  # tail alive: no skip
        assert buf.read(PAGE_SIZE, 12) == b"B" * 10 + b"CC"
