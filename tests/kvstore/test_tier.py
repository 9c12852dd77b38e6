"""Tests for the compressed second-chance tier (demote-before-drop)."""

import random
import tracemalloc
import zlib
from collections import deque

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.client import KvClient
from repro.kvstore.dict import SoftDict
from repro.kvstore.persist.codec import (
    _decode_value,
    decode_record,
    encode_demote,
    scan_frames,
)
from repro.kvstore.server import KvServer
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import (
    WATERMARK_FRAC,
    TierConfig,
    TierStats,
    deflate_value,
    inflate_value,
)
from repro.kvstore.values import CompressedValue, value_bytes
from repro.kvstore.wire import U32
from repro.loadgen.driver import drive
from repro.loadgen.engine import OperationStream
from repro.loadgen.spec import preset

from tests.core.test_tier_moves import SpyDaemon, page_state
from tests.kvstore.test_dict_census import squeezed_store

TIER = TierConfig(enabled=True)


@pytest.fixture
def store():
    sma = SoftMemoryAllocator(name="tier-test", request_batch_pages=1)
    return DataStore(sma, StoreConfig(tier=TIER))


def identity_holds(soft_dict):
    ts = soft_dict.tier_stats
    return ts.demotions == (
        ts.promotions
        + ts.second_chance_drops
        + ts.displacements
        + soft_dict.compressed_entries
    )


# ----------------------------------------------------------------------
# deflate / inflate round-trips
# ----------------------------------------------------------------------


class TestDeflateInflate:
    def test_string_round_trip(self):
        value = b"x" * 500
        cv = deflate_value(value, TIER)
        assert cv is not None
        assert cv.original_bytes == 500
        assert len(cv.data) < 500
        assert inflate_value(cv) == value

    def test_hash_round_trip(self):
        value = {b"f" * 40: b"v" * 200, b"g" * 40: b"w" * 200}
        cv = deflate_value(value, TIER)
        assert cv is not None
        assert cv.original_bytes == value_bytes(value)
        restored = inflate_value(cv)
        assert restored == value
        assert isinstance(restored, dict)

    def test_list_round_trip(self):
        from collections import deque

        value = deque([b"item" * 30, b"item" * 30, b"other" * 20])
        cv = deflate_value(value, TIER)
        assert cv is not None
        restored = inflate_value(cv)
        assert list(restored) == list(value)

    def test_too_small_declined(self):
        assert deflate_value(b"tiny", TIER) is None

    def test_incompressible_declined(self):
        import random

        noise = random.Random(7).randbytes(4096)
        assert deflate_value(noise, TIER) is None

    def test_already_compressed_declined(self):
        cv = deflate_value(b"y" * 300, TIER)
        assert deflate_value(cv, TIER) is None

    def test_compressed_value_charged_at_compressed_size(self):
        cv = deflate_value(b"z" * 1000, TIER)
        assert value_bytes(cv) == len(cv.data) < 1000


def codec_inflate(compressed):
    """``inflate_value`` as it was before its string fast path: every
    plaintext decoded by the persistence codec."""
    plain = zlib.decompress(compressed.data)
    value, offset = _decode_value(plain, 0)
    if offset != len(plain):
        raise ValueError("trailing bytes in compressed value")
    return value


def outcome(inflate, compressed):
    """What ``inflate`` makes of ``compressed``: its value, or the type
    and message of what it raised."""
    try:
        value = inflate(compressed)
    except Exception as exc:
        return type(exc), str(exc)
    if type(value) is CompressedValue:  # compares by identity
        return value.data, value.original_bytes, value.kind
    return value


def envelope(plain: bytes, original_bytes=None, kind=b"S"):
    if original_bytes is None:
        original_bytes = len(plain)
    return CompressedValue(zlib.compress(plain, 1), original_bytes, kind)


class TestInflateFastPath:
    """A string stub inflates to one slice; nothing else changes."""

    @pytest.mark.parametrize(
        "size", [64, 65, 100, 511, 512, 1000, 2048, 4095, 4096, 8192]
    )
    def test_a_string_inflates_as_the_codec_does(self, size):
        noise = random.Random(size).randbytes(size // 10)
        value = (noise + b"v" * size)[:size]
        cv = deflate_value(value, TIER)
        assert cv is not None and cv.kind == b"S"
        restored = inflate_value(cv)
        assert type(restored) is bytes
        assert restored == codec_inflate(cv) == value

    @pytest.mark.parametrize(
        "value",
        [
            {b"f" * 40: b"v" * 200, b"g" * 40: b"w" * 200},
            {b"S" * 40: b"\x00" * 300},
            deque([b"item" * 30, b"item" * 30, b"other" * 20]),
            deque([b"S" * 100] * 4),
        ],
        ids=["hash", "hash-of-S", "list", "list-of-S"],
    )
    def test_hashes_and_lists_inflate_through_the_codec(self, value):
        cv = deflate_value(value, TIER)
        assert cv is not None and cv.kind != b"S"
        restored = inflate_value(cv)
        assert type(restored) is type(value)
        assert restored == codec_inflate(cv) == value

    @pytest.mark.parametrize(
        "plain, original_bytes, kind",
        [
            # wrong original_bytes: the value is what the bytes say
            (b"S" + U32.pack(300) + b"s" * 300, 1, b"S"),
            (b"S" + U32.pack(300) + b"s" * 300, 10**6, b"S"),
            # the envelope's kind is not the plaintext's tag
            (b"S" + U32.pack(300) + b"s" * 300, 300, b"H"),
            (b"L" + U32.pack(1) + U32.pack(3) + b"abc", 3, b"S"),
            # a wrong tag
            (b"X" + U32.pack(300) + b"s" * 300, 300, b"S"),
            (b"s" + U32.pack(300) + b"s" * 300, 300, b"S"),
            (b"C" + U32.pack(300) + b"S" + U32.pack(3) + b"abc", 300, b"S"),
            # a length field past the end, or short of it
            (b"S" + U32.pack(301) + b"s" * 300, 300, b"S"),
            (b"S" + U32.pack(299) + b"s" * 300, 300, b"S"),
            (b"S" + U32.pack(2**32 - 1) + b"s" * 300, 300, b"S"),
            (b"S" + U32.pack(0), 0, b"S"),
            # too short to hold the length field, or empty
            (b"S\x01\x00\x00", 1, b"S"),
            (b"S", 1, b"S"),
            (b"", 1, b"S"),
        ],
    )
    def test_a_bad_envelope_gives_what_the_codec_gives(
        self, plain, original_bytes, kind
    ):
        cv = envelope(plain, original_bytes, kind)
        assert outcome(inflate_value, cv) == outcome(codec_inflate, cv)

    def test_original_bytes_is_never_a_buffer_size(self):
        """``original_bytes`` arrives in snapshots and full syncs: a stub
        claiming 4 GiB over 300 bytes inflates to 300 bytes, and the
        inflate allocates nothing near the claim."""
        cv = envelope(b"S" + U32.pack(300) + b"s" * 300, 2**32 - 1)
        inflate_value(cv)  # warm: imports and caches allocate once
        tracemalloc.start()
        try:
            value = inflate_value(cv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == b"s" * 300
        assert peak < 64 * 1024, peak


class TestTierConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_value_bytes": -1},
            {"min_ratio": 0.0},
            {"min_ratio": 1.5},
            {"watermark_frac": 0.0},
            {"watermark_frac": 2.0},
            {"compress_level": 10},
            {"compress_level": -1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        """Out of range is a ValueError; the three the policy fixed as
        constants are no longer fields at all."""
        gone = kwargs.keys() - TierConfig.__dataclass_fields__.keys()
        with pytest.raises(TypeError if gone else ValueError):
            TierConfig(**kwargs)

    def test_disabled_by_default(self):
        assert TierConfig().enabled is False
        assert StoreConfig().tier.enabled is False


# ----------------------------------------------------------------------
# codec: C value tag and M demote record
# ----------------------------------------------------------------------


class TestCodec:
    def test_demote_record_round_trip(self):
        buf = bytearray()
        encode_demote(buf, b"the-key")
        payloads, valid = scan_frames(bytes(buf))
        assert valid == len(buf) and len(payloads) == 1
        assert decode_record(payloads[0]) == ("M", b"the-key")

    def test_compressed_value_survives_write_record(self):
        from repro.kvstore.persist.codec import encode_write, EXP_NONE

        cv = deflate_value(b"q" * 400, TIER)
        buf = bytearray()
        encode_write(buf, b"k", cv, EXP_NONE)
        payloads, valid = scan_frames(bytes(buf))
        assert valid == len(buf) and len(payloads) == 1
        record = decode_record(payloads[0])
        kind, key, value = record[0], record[1], record[2]
        assert (kind, key) == ("W", b"k")
        assert type(value) is CompressedValue
        assert value.data == cv.data
        assert value.original_bytes == 400
        assert inflate_value(value) == b"q" * 400


# ----------------------------------------------------------------------
# demote / promote / drop via the store
# ----------------------------------------------------------------------


class TestDemotePromote:
    def fill(self, store, n=20, size=2000):
        for i in range(n):
            store.set(f"k{i}".encode(), b"A" * size)

    def test_pressure_demotes_instead_of_dropping(self, store):
        self.fill(store)
        stats = store.sma.reclaim(4)
        assert stats.allocations_demoted > 0
        assert stats.bytes_demoted > 0
        assert stats.allocations_freed == 0
        assert store.stats.reclaimed_keys == 0
        assert len(store.keyspace) == 20  # every key still present
        assert store._dict.compressed_entries == stats.allocations_demoted
        assert identity_holds(store._dict)
        store.sma.check_invariants()

    def test_demotion_frees_real_budget(self, store):
        self.fill(store)
        held_before = store.sma.budget.held
        live_before = store.sma.live_bytes
        store.sma.reclaim(4)
        assert store.sma.live_bytes < live_before
        assert store.sma.budget.held <= held_before

    def test_read_promotes_and_stays_a_hit(self, store):
        self.fill(store)
        store.sma.reclaim(4)
        demoted = store._dict.compressed_entries
        assert demoted > 0
        hits_before = store.stats.hits
        for i in range(20):
            assert store.get(f"k{i}".encode()) == b"A" * 2000
        assert store.stats.hits == hits_before + 20
        # every demoted key was served from its stub; it went back to
        # residency only where the heap already owned the room
        ts = store._dict.tier_stats
        assert ts.promotions + ts.promotion_denials == demoted
        assert store._dict.compressed_entries == demoted - ts.promotions
        assert identity_holds(store._dict)
        store.sma.check_invariants()

    def test_second_wave_drops_compressed_before_new_victims(self, store):
        # exhaust residents so only compressed entries remain, then
        # push again: the tier's own entries must go (second chance over)
        self.fill(store, n=8)
        for _ in range(64):
            if not store._dict.evict_one():
                break
        ts = store._dict.tier_stats
        assert ts.second_chance_drops > 0
        assert store._dict.compressed_entries == 0
        assert len(store.keyspace) == 0
        assert identity_holds(store._dict)
        store.sma.check_invariants()

    def test_second_chance_drop_counts_as_reclaimed_key(self, store):
        self.fill(store, n=4)
        while store._dict.evict_one():
            pass
        assert store.stats.reclaimed_keys == 4
        for i in range(4):
            assert store.get(f"k{i}".encode()) is None

    def test_watermark_caps_the_tier(self, store):
        sma = SoftMemoryAllocator(name="wm-test", request_batch_pages=1)
        store = DataStore(sma, StoreConfig(tier=TIER))
        self.fill(store, n=16)
        for _ in range(12):  # half the keyspace demotes, then it drops
            store._dict.evict_one()
        dct = store._dict
        total = len(dct)
        assert dct.compressed_entries <= max(
            1, int(WATERMARK_FRAC * total) + 1
        )
        assert dct.tier_stats.second_chance_drops > 0
        assert identity_holds(dct)

    def test_incompressible_victim_drops_outright(self):
        import random

        sma = SoftMemoryAllocator(name="noise-test", request_batch_pages=1)
        store = DataStore(sma, StoreConfig(tier=TIER))
        rng = random.Random(3)
        for i in range(6):
            store.set(f"n{i}".encode(), rng.randbytes(2000))
        before = len(store.keyspace)
        assert store._dict.evict_one()
        assert store._dict.tier_stats.incompressible == 1
        assert store._dict.tier_stats.demotions == 0
        assert len(store.keyspace) == before - 1

    def test_delete_of_demoted_entry_is_a_displacement(self, store):
        self.fill(store)
        store.sma.reclaim(4)
        # find one demoted key by peeking at the raw dict
        demoted_keys = [
            k
            for k, v in store._dict.items()
            if type(v) is CompressedValue
        ]
        assert demoted_keys
        assert store.delete(demoted_keys[0]) == 1
        assert store._dict.tier_stats.displacements == 1
        assert identity_holds(store._dict)
        store.sma.check_invariants()

    def test_overwrite_of_demoted_entry_is_a_displacement(self, store):
        self.fill(store)
        store.sma.reclaim(4)
        demoted_keys = [
            k
            for k, v in store._dict.items()
            if type(v) is CompressedValue
        ]
        assert demoted_keys
        store.set(demoted_keys[0], b"B" * 2000)
        dct = store._dict
        assert dct.tier_stats.displacements == 1
        assert store.get(demoted_keys[0]) == b"B" * 2000
        assert identity_holds(dct)
        store.sma.check_invariants()

    def test_ledger_charges_compressed_size(self, store):
        self.fill(store, n=10)
        trad_before = store.traditional_bytes
        store.sma.reclaim(2)
        ts = store._dict.tier_stats
        assert ts.demotions > 0
        assert store.traditional_bytes == trad_before - ts.bytes_saved
        # a read served from the stub leaves the accounting alone; one
        # that promotes restores it (deleting the newest key opens a
        # hole inside the placer's scan window)
        assert store.delete(b"k9") == 1
        trad_before -= len(b"k9") + 2000
        for k, v in list(store._dict.items()):
            if type(v) is CompressedValue:
                store.get(k)
        assert ts.promotions > 0 and ts.promotion_denials > 0
        still_saved = sum(
            v.original_bytes - len(v.data)
            for __, v in store._dict.items()
            if type(v) is CompressedValue
        )
        assert store.traditional_bytes == trad_before - still_saved
        store.sma.check_invariants()

    def test_tier_off_reproduces_plain_drop(self):
        sma = SoftMemoryAllocator(name="plain-test", request_batch_pages=1)
        store = DataStore(sma)  # default StoreConfig: tier disabled
        for i in range(10):
            store.set(f"k{i}".encode(), b"A" * 2000)
        stats = sma.reclaim(2)
        assert stats.allocations_demoted == 0
        assert stats.allocations_freed > 0
        assert store.stats.reclaimed_keys == stats.allocations_freed
        assert store._dict.compressed_entries == 0

    def test_info_exposes_tier_gauges(self, store):
        self.fill(store, n=6)
        store.sma.reclaim(2)
        info = store.info()
        assert info["compressed_entries"] == store._dict.compressed_entries
        assert info["compressed_bytes"] == store._dict.compressed_bytes
        snapshot = store.obs.registry.snapshot()
        assert snapshot["tier.demotions"] == store._dict.tier_stats.demotions
        assert snapshot["tier.enabled"] == 1
        assert "tier.promote_latency.p99" in snapshot

    def test_promote_latency_histogram_observes(self, store):
        self.fill(store, n=6)
        store.sma.reclaim(2)
        for k, v in list(store._dict.items()):
            if type(v) is CompressedValue:
                store.get(k)
        snapshot = store.obs.registry.snapshot()
        assert snapshot["tier.promote_latency.count"] >= 1


def test_an_unpressured_tier_never_reaches_the_codec(store, monkeypatch):
    """The tier is free when idle, structurally: with the tier on and no
    reclamation, a served read-mostly stream never calls the codec and
    moves no tier counter — all that is left on the command path is the
    ``type(value) is`` branch."""

    def codec_reached(*args):
        raise AssertionError("tier codec called with no pressure")

    monkeypatch.setattr("repro.kvstore.dict.deflate_value", codec_reached)
    monkeypatch.setattr("repro.kvstore.dict.inflate_value", codec_reached)
    client = KvClient(KvServer(store))
    spec = preset(
        "ycsb-b", keyspace=1024,
        value_dist="uniform", value_lo=512, value_hi=2048,
    )
    stream = OperationStream(spec, 11)
    drive(client, stream.prefill_batches(), max_ops=spec.keyspace)
    report = drive(client, stream.batches(), max_ops=4000)
    assert report.errors == 0
    assert store.stats.hits > 0 and store.stats.misses == 0
    assert store.keyspace.tier_stats == TierStats()
    assert store.keyspace.compressed_entries == 0


def test_every_demote_attempt_is_accounted(store, monkeypatch):
    """attempts == demotions + incompressible: there is no third outcome.

    A seeded pressure run: mixed-size values, a fifth of them random
    bytes, a quarter of the pages reclaimed after every write burst. A
    victim demotes or is refused by the codec; once its value
    compresses, placing the stub cannot fail.
    """
    import random

    attempts = []
    demote_or_drop = SoftDict._demote_or_drop
    monkeypatch.setattr(
        SoftDict,
        "_demote_or_drop",
        lambda self, key, ptr: (
            attempts.append(key) or demote_or_drop(self, key, ptr)
        ),
    )
    rng = random.Random(7)
    for _ in range(4):
        for _ in range(400):
            size = rng.randint(64, 2048)
            noise = size if rng.random() < 0.2 else size // 10
            value = rng.randbytes(noise) + b"z" * (size - noise)
            store.set(b"key:%04d" % rng.randrange(1024), value)
        for _ in range(200):
            store.get(b"key:%04d" % rng.randrange(1024))
        store.sma.reclaim(store.soft_pages // 4)
    ts = store.keyspace.tier_stats
    assert attempts
    assert len(attempts) == ts.demotions + ts.incompressible
    assert min(ts.demotions, ts.incompressible) > 0
    assert "tier.demote_swap_lost" not in store.obs.registry.snapshot()
    assert identity_holds(store.keyspace)
    store.sma.check_invariants()


class TestAReadNeverProvisions:
    """Promotion happens only inside pages the heap already owns."""

    @pytest.fixture
    def squeezed(self):
        """40 one-to-a-page entries, the oldest demoted by a wave that
        took its pages: the budget is taut and no hole fits an entry."""
        daemon = SpyDaemon()
        store, demoted = squeezed_store(daemon)
        sma = store.sma
        assert sma.budget.granted == sma.budget.held == store.soft_pages
        assert sma.pool.page_count == 0
        assert len(demoted) >= 8
        return store, daemon, demoted

    def test_reads_of_demoted_keys_cost_no_daemon_traffic(self, squeezed):
        store, daemon, demoted = squeezed
        ts = store._dict.tier_stats
        before = page_state(store.sma, daemon)
        hits = store.stats.hits
        for n in range(1000):
            key = demoted[n % len(demoted)]
            assert store.get(key) == bytes([65 + int(key[1:]) % 26]) * 2000
        assert page_state(store.sma, daemon) == before
        assert (ts.promotions, ts.promotion_denials) == (0, 1000)
        assert store.stats.hits == hits + 1000
        assert store._dict.compressed_entries == len(demoted)
        assert identity_holds(store._dict)
        store.sma.check_invariants()

    def test_the_same_read_promotes_into_a_fitting_hole(self, squeezed):
        store, daemon, demoted = squeezed
        dct, ts = store._dict, store._dict.tier_stats
        key = demoted[0]
        ptr = dct._find(key)
        compressed = dct.get(key)
        compressed_bytes = dct.compressed_bytes
        trad = store.traditional_bytes
        # a freed extent inside the scan window is room the heap owns
        assert store.delete(b"k39") == 1
        trad -= len(b"k39") + 2000
        before = page_state(store.sma, daemon)
        value = bytes([65 + int(key[1:]) % 26]) * 2000
        assert store.get(key) == value
        assert page_state(store.sma, daemon) == before
        assert (ts.promotions, ts.promotion_denials) == (1, 0)
        assert dct._find(key) is ptr  # the handle survived
        assert ptr.size == store._entry_size(key, value)
        assert dct._index[key] is ptr
        assert key not in dct._compressed_age
        assert list(dct._index)[-1] == key  # newest resident
        assert dct.compressed_entries == len(demoted) - 1
        assert dct.compressed_bytes == compressed_bytes - len(compressed.data)
        assert store.traditional_bytes == trad + 2000 - len(compressed.data)
        assert identity_holds(dct)
        store.sma.check_invariants()
        # the hole is spent: the next demoted key is served from its stub
        assert store.get(demoted[1]) is not None
        assert (ts.promotions, ts.promotion_denials) == (1, 1)


def test_wave_over_a_full_heap_meets_its_quota_without_a_drop(store):
    """Every victim compresses, so under the watermark every victim is a
    demotion: the stubs pack into dense pages, the pages the victims
    leave free wholly, and the wave is paid in full with no key lost."""
    import random

    rng = random.Random(11)
    for i in range(400):
        size = rng.randint(512, 2048)
        store.set(b"key:%04d" % i, bytes([97 + i % 26]) * size)
    dct, sma = store._dict, store.sma
    assert sma.budget.unused == 0 and sma.pool.page_count == 0
    assert dct.context.heap.free_page_count < 4  # a full heap
    quota = store.soft_pages // 4
    stats = sma.reclaim(quota)
    assert stats.pages_from_sds == quota  # met from live data alone
    assert stats.allocations_freed == 0
    assert stats.allocations_demoted == dct.tier_stats.demotions > 0
    assert store.stats.reclaimed_keys == 0
    assert dct.tier_stats.second_chance_drops == 0
    assert dct.tier_stats.incompressible == 0
    assert len(dct) == 400
    assert dct.compressed_entries < WATERMARK_FRAC * len(dct)
    assert identity_holds(dct)
    sma.check_invariants()


class TestRegisterCompressed:
    def test_adopts_inserted_compressed_value(self, store):
        cv = deflate_value(b"r" * 800, TIER)
        size = 80 + len(b"rk") + value_bytes(cv)
        store._dict.put(b"rk", cv, size)
        assert store._dict.register_compressed(b"rk")
        dct = store._dict
        assert dct.compressed_entries == 1
        assert dct.tier_stats.demotions == 1
        assert identity_holds(dct)
        # idempotent
        assert dct.register_compressed(b"rk")
        assert dct.tier_stats.demotions == 1

    def test_rejects_resident_or_absent(self, store):
        store.set(b"res", b"A" * 200)
        assert not store._dict.register_compressed(b"res")
        assert not store._dict.register_compressed(b"ghost")


class TestSoftDemotePrimitive:
    def test_demote_relocates_without_budget_traffic(self):
        sma = SoftMemoryAllocator(name="sd-test")
        context = sma.create_context("c")
        ptr = sma.soft_malloc(3000, context, "payload")
        alloc_id = ptr.alloc_id
        requests_before = sma.stats.daemon_requests
        mapped_before = sma.stats.pages_mapped
        assert sma.soft_demote(ptr, 300, "small") is ptr  # handle survives
        assert ptr.valid and ptr.alloc_id == alloc_id
        assert ptr.size == 300
        assert ptr.deref() == "small"
        assert sma.stats.daemon_requests == requests_before
        assert sma.stats.pages_mapped == mapped_before
        assert sma.stats.demotions == 1
        assert sma.live_bytes == 300
        sma.check_invariants()

    def test_demote_to_larger_size_rejected(self):
        sma = SoftMemoryAllocator(name="sd-test2")
        context = sma.create_context("c")
        ptr = sma.soft_malloc(100, context, "p")
        with pytest.raises(ValueError):
            sma.soft_demote(ptr, 100)
        with pytest.raises(ValueError):
            sma.soft_demote(ptr, 200)
