"""Hash-slot math: CRC16 vectors, hash tags, partitioning.

The slot function must match Redis's ``keyHashSlot`` bit-for-bit —
these vectors (including the canonical CRC16-XMODEM check value
``0x31C3`` for ``"123456789"``) pin that down, and a hypothesis
property pins the structural guarantee the serving plane relies on:
under *any* partition, every key hashes into exactly one shard's range.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.kvstore.cluster.slots import (
    SLOT_COUNT,
    crc16,
    hash_tag,
    key_hash_slot,
    partition_slots,
)


class TestCrc16:
    def test_xmodem_check_value(self):
        # the canonical CRC16/XMODEM test vector
        assert crc16(b"123456789") == 0x31C3

    def test_empty(self):
        assert crc16(b"") == 0

    def test_redis_reference_slots(self):
        # values observable from a real Redis: CLUSTER KEYSLOT <key>
        assert key_hash_slot(b"foo") == 12182
        assert key_hash_slot(b"bar") == 5061
        assert key_hash_slot(b"") == 0
        assert key_hash_slot(b"123456789") == 0x31C3 % SLOT_COUNT

    def test_slot_range(self):
        for key in (b"a", b"user:1000", b"\x00\xff", b"x" * 500):
            assert 0 <= key_hash_slot(key) < SLOT_COUNT


class TestHashTag:
    def test_plain_key_hashes_whole(self):
        assert hash_tag(b"user:1000") == b"user:1000"

    def test_tag_extracted(self):
        assert hash_tag(b"{user:1000}.following") == b"user:1000"
        assert key_hash_slot(b"{user:1000}.following") == key_hash_slot(
            b"{user:1000}.followers"
        )

    def test_empty_tag_hashes_whole_key(self):
        # Redis rule: {} is not a tag, the whole key hashes
        assert hash_tag(b"foo{}{bar}") == b"foo{}{bar}"

    def test_unclosed_brace_hashes_whole_key(self):
        assert hash_tag(b"foo{bar") == b"foo{bar"
        assert hash_tag(b"{") == b"{"

    def test_first_tag_wins(self):
        assert hash_tag(b"foo{bar}{zap}") == b"bar"

    def test_nested_braces(self):
        # first { to first } after it: the tag is "{bar"
        assert hash_tag(b"foo{{bar}}zap") == b"{bar"

    def test_tag_only_key(self):
        assert hash_tag(b"{tag}") == b"tag"


class TestPartition:
    def test_single_shard_owns_everything(self):
        assert partition_slots(1) == [(0, SLOT_COUNT - 1)]

    def test_even_split(self):
        assert partition_slots(2) == [(0, 8191), (8192, 16383)]

    def test_uneven_split_is_contiguous_and_complete(self):
        for shards in (3, 5, 7, 16):
            ranges = partition_slots(shards)
            assert len(ranges) == shards
            assert ranges[0][0] == 0
            assert ranges[-1][1] == SLOT_COUNT - 1
            for (_, prev_end), (start, end) in zip(ranges, ranges[1:]):
                assert start == prev_end + 1
                assert start <= end

    def test_extra_slots_go_to_low_shards(self):
        ranges = partition_slots(3)  # 16384 = 3*5461 + 1
        sizes = [end - start + 1 for start, end in ranges]
        assert sizes == [5462, 5461, 5461]

    @given(
        key=st.binary(min_size=0, max_size=64),
        shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_key_has_exactly_one_owner(self, key, shards):
        slot = key_hash_slot(key)
        owners = [
            i
            for i, (start, end) in enumerate(partition_slots(shards))
            if start <= slot <= end
        ]
        assert len(owners) == 1
