"""Quiver-style informed cache over soft memory.

Quiver's key insight (cited as [11] in the paper): ML training does not
need *specific* samples, it needs *random, unique-per-epoch* samples.
So a cache can serve **substitutable hits** — any cached sample that
has not yet been consumed this epoch counts as a hit — which makes even
a partial cache extremely effective.

The cache body is a :class:`~repro.sds.base.SoftDataStructure`: every
cached sample is a soft allocation, so memory pressure elsewhere on the
machine shrinks the cache (training slows) instead of failing anything.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.context import ReclaimCallback
from repro.core.pointer import SoftPtr
from repro.core.sma import SoftMemoryAllocator
from repro.mlcache.dataset import SyntheticDataset
from repro.sds.base import SoftDataStructure


class InformedCache(SoftDataStructure):
    """Substitutable-hit sample cache with soft storage.

    ``target_fraction`` bounds how much of the dataset the cache tries
    to hold (1.0 = everything, memory permitting). Reclamation evicts
    the samples *already consumed this epoch* first — they are the
    cheapest to lose.
    """

    def __init__(
        self,
        sma: SoftMemoryAllocator,
        dataset: SyntheticDataset,
        name: str = "ml-cache",
        priority: int = 0,
        callback: ReclaimCallback | None = None,
        target_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(sma, name, priority, callback)
        if not 0.0 < target_fraction <= 1.0:
            raise ValueError("target_fraction must be in (0, 1]")
        self.dataset = dataset
        self.target_fraction = target_fraction
        self._rng = random.Random(seed)
        #: sample index -> soft pointer
        self._cached: dict[int, SoftPtr] = {}
        #: sample indices consumed in the current epoch
        self._used_this_epoch: set[int] = set()
        self.hits = 0
        self.misses = 0

    # -- capacity -----------------------------------------------------------

    @property
    def target_samples(self) -> int:
        return int(self.dataset.sample_count * self.target_fraction)

    @property
    def cached_samples(self) -> int:
        return len(self._cached)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- epoch protocol ------------------------------------------------------

    def start_epoch(self) -> None:
        self._used_this_epoch.clear()

    def draw_batch(self, batch_size: int) -> tuple[int, int]:
        """Consume one batch; returns (cache_hits, storage_fetches).

        Serves substitutable hits first: any cached, not-yet-used sample
        satisfies a batch slot. Remaining slots fetch uncached samples
        from storage and insert them (admission), evicting used samples
        if the cache is at target.
        """
        remaining = self.dataset.sample_count - len(self._used_this_epoch)
        batch_size = min(batch_size, remaining)
        if batch_size <= 0:
            return 0, 0
        hits = 0
        served: list[int] = []
        for index in self._cached:
            if len(served) == batch_size:
                break
            if index not in self._used_this_epoch:
                served.append(index)
                hits += 1
        fetches = batch_size - hits
        if fetches:
            served.extend(self._fetch_uncached(fetches))
        self._used_this_epoch.update(served)
        self.hits += hits
        self.misses += fetches
        return hits, fetches

    def _fetch_uncached(self, count: int) -> Iterator[int]:
        """Fetch ``count`` unused, uncached samples; admit them."""
        fetched: list[int] = []
        # Deterministic scan with random start keeps selection unbiased
        # without materializing the full unused set every batch.
        n = self.dataset.sample_count
        start = self._rng.randrange(n)
        index = start
        while len(fetched) < count:
            if index not in self._used_this_epoch and index not in self._cached:
                fetched.append(index)
                self._admit(index)
            index = (index + 1) % n
            if index == start:
                break
        return iter(fetched)

    def _admit(self, index: int) -> None:
        if len(self._cached) >= self.target_samples:
            if not self._evict_used_sample():
                return  # cache full of un-consumed samples; skip admission
        ptr = self._alloc(
            self.dataset.sample_bytes, self.dataset.sample_payload(index)
        )
        self._cached[index] = ptr

    def _evict_used_sample(self) -> bool:
        """Capacity eviction: prefer samples already consumed this epoch."""
        for index, ptr in self._cached.items():
            if index in self._used_this_epoch:
                del self._cached[index]
                self._free(ptr)
                return True
        return False

    # -- reclaim contract: consumed samples first ------------------------------

    def evict_one(self) -> bool:
        victim: int | None = None
        for index, ptr in self._cached.items():
            if ptr.pinned:
                continue
            if index in self._used_this_epoch:
                victim = index
                break
            if victim is None:
                victim = index
        if victim is None:
            return False
        ptr = self._cached.pop(victim)
        self._reclaim_ptr(ptr)
        return True

    def __repr__(self) -> str:
        return (
            f"<InformedCache {self.cached_samples}/{self.target_samples} "
            f"hit_rate={self.hit_rate:.2f}>"
        )
