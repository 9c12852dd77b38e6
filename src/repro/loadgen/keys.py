"""Key-choosing distributions: which key does the next operation touch?

Every chooser is a pure function of its parameters plus the
``random.Random`` instance the engine hands it — no hidden state, no
wall clock — so one seed reproduces one key sequence forever.

The Zipfian sampler is the YCSB / Gray et al. ("Quickly Generating
Billion-Record Synthetic Databases") constant-time rejection form:
an O(n) zeta precomputation once, then O(1) per sample. Rank 0 is the
hottest key; ``p(rank) ∝ 1 / (rank+1)^theta``. The scrambled variant
hashes ranks through FNV-1a so the hot keys spread across the key
space (and therefore across cluster hash slots) instead of clumping at
the low ids.
"""

from __future__ import annotations

import random

__all__ = [
    "HotKeyChooser",
    "KeyChooser",
    "LatestChooser",
    "ScrambledZipfianChooser",
    "UniformChooser",
    "ZipfianChooser",
    "zeta",
]

#: zeta sums are O(n); memoized so every stream over the same keyspace
#: shares one precomputation
_ZETA_CACHE: dict[tuple[int, float], float] = {}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def zeta(n: int, theta: float) -> float:
    """``sum_{i=1..n} 1/i^theta`` (the generalized harmonic number)."""
    key = (n, theta)
    cached = _ZETA_CACHE.get(key)
    if cached is None:
        cached = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        if len(_ZETA_CACHE) > 64:
            _ZETA_CACHE.clear()
        _ZETA_CACHE[key] = cached
    return cached


def fnv1a_64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value``."""
    digest = _FNV_OFFSET
    for _ in range(8):
        digest ^= value & 0xFF
        digest = (digest * _FNV_PRIME) & _MASK64
        value >>= 8
    return digest


class KeyChooser:
    """One key id in ``[0, space)`` per :meth:`choose` call."""

    def __init__(self, space: int) -> None:
        if space <= 0:
            raise ValueError(f"key space must be positive, got {space}")
        self.space = space

    def choose(self, rng: random.Random) -> int:
        raise NotImplementedError


class UniformChooser(KeyChooser):
    """Every key equally likely — the baseline the skews are against."""

    def choose(self, rng: random.Random) -> int:
        return rng.randrange(self.space)


class ZipfianChooser(KeyChooser):
    """YCSB-style Zipfian over ranks ``0..space-1`` (0 hottest)."""

    def __init__(self, space: int, theta: float = 0.99) -> None:
        super().__init__(space)
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.theta = theta
        self._zetan = zeta(space, theta)
        self._alpha = 1.0 / (1.0 - theta)
        if space > 2:
            zeta2 = zeta(2, theta)
            self._eta = (1.0 - (2.0 / space) ** (1.0 - theta)) / (
                1.0 - zeta2 / self._zetan
            )
        else:
            # space <= 2: choose() resolves entirely through the rank-0
            # and rank-1 thresholds below (u*zetan < 1 + 0.5^theta
            # always), and the eta formula divides by zero at space=2
            self._eta = 0.0
        self._half_pow = 1.0 + 0.5 ** theta

    def choose(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._half_pow:
            return 1
        rank = int(self.space * (self._eta * u - self._eta + 1.0)
                   ** self._alpha)
        return min(rank, self.space - 1)


class ScrambledZipfianChooser(ZipfianChooser):
    """Zipfian popularity, hot ranks scattered across the id space."""

    def choose(self, rng: random.Random) -> int:
        return fnv1a_64(super().choose(rng)) % self.space


class HotKeyChooser(KeyChooser):
    """A hot set gets most of the traffic (YCSB ``hotspot``).

    ``hot_fraction`` of the key space receives ``hot_weight`` of the
    operations; both hot and cold halves are uniform internally.
    """

    def __init__(
        self,
        space: int,
        hot_fraction: float = 0.1,
        hot_weight: float = 0.9,
    ) -> None:
        super().__init__(space)
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction out of (0,1]: {hot_fraction}")
        if not 0.0 <= hot_weight <= 1.0:
            raise ValueError(f"hot_weight out of [0,1]: {hot_weight}")
        self.hot_fraction = hot_fraction
        self.hot_weight = hot_weight
        self._hot_count = max(1, int(space * hot_fraction))

    def choose(self, rng: random.Random) -> int:
        if rng.random() < self.hot_weight:
            return rng.randrange(self._hot_count)
        if self._hot_count >= self.space:
            return rng.randrange(self.space)
        return rng.randrange(self._hot_count, self.space)


class LatestChooser(KeyChooser):
    """Recently-inserted keys are hottest (YCSB workload D).

    The engine advances :attr:`horizon` as it inserts; a Zipfian rank
    is drawn over the *current* horizon and subtracted from the newest
    id, so key ``horizon-1`` (the latest insert) is the hottest.
    """

    def __init__(self, space: int, theta: float = 0.99) -> None:
        super().__init__(space)
        self.theta = theta
        self.horizon = space  # pre-loaded keys count as inserted
        self._zipf = ZipfianChooser(space, theta)

    def note_insert(self, key_id: int) -> None:
        if key_id >= self.horizon:
            self.horizon = min(key_id + 1, self.space)

    def choose(self, rng: random.Random) -> int:
        rank = self._zipf.choose(rng)
        if rank >= self.horizon:
            rank = rank % self.horizon
        return self.horizon - 1 - rank
