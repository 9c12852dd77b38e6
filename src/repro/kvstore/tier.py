"""The compressed second-chance tier: demote-before-drop machinery.

The paper's reclamation protocol is binary — a victim entry is either
resident or gone. This module adds the state in between: *demotion*
zlib-compresses the value bytes and re-admits the entry at compressed
size, so the reclamation wave still frees real budget (the extent
shrinks) while the data stays recoverable. Only a later pressure wave,
or the compressed-tier watermark, truly drops it; a read in between is
served from the stub, which *promotes* (goes back to residency) only
into room the heap already owns.

Wire format: the plaintext fed to zlib is the persistence codec's typed
value serialization (tag + chunks), so deflate/inflate round-trips all
three client-visible types with one shared codec and a demoted entry
can be written to snapshots/AOF without re-inflating.

Policy knobs live in :class:`TierConfig`; counters in
:class:`TierStats`. Both are dependency-free so `core` and `daemon`
layers can reason about the tier without importing the kvstore.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.kvstore.values import CompressedValue, Value
from repro.kvstore.wire import U32

__all__ = [
    "TierConfig",
    "TierStats",
    "deflate_value",
    "inflate_value",
]


#: values smaller than this are not worth a deflate call
MIN_VALUE_BYTES = 64
#: compressed bytes must be at most this fraction of the original, else
#: the victim is judged incompressible and dropped outright
MIN_RATIO = 0.75
#: the tier's bound: once more than this fraction of a dict's entries
#: are compressed, an eviction drops the oldest compressed entry (a
#: second-chance drop) instead of demoting yet another resident
WATERMARK_FRAC = 0.5


@dataclass(frozen=True)
class TierConfig:
    """Second-chance tier policy.

    ``enabled`` gates the whole mechanism (off reproduces the paper's
    plain keep/drop); ``compress_level`` is zlib's. What the policy
    fixes is the three constants above.
    """

    enabled: bool = False
    compress_level: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.compress_level <= 9:
            raise ValueError(
                f"compress_level must be 0..9: {self.compress_level}"
            )


@dataclass
class TierStats:
    """Lifecycle counters for one dict's second-chance tier.

    The conservation identity the oracle asserts after every step::

        demotions == promotions + second_chance_drops
                     + displacements + still-compressed entries

    ``displacements`` covers compressed entries removed by the *client*
    (DEL, overwrite, expiry, FLUSHALL) rather than by pressure.
    """

    demotions: int = 0
    promotions: int = 0
    second_chance_drops: int = 0
    displacements: int = 0
    #: deflate declined (too small / incompressible) — victim dropped
    incompressible: int = 0
    #: reads served from the stub because the heap owned no room for
    #: the full size: a transient inflation, the entry stays compressed
    promotion_denials: int = 0
    bytes_saved: int = 0  # original − compressed, summed over demotions


def _serialize(value: Value) -> tuple[bytes, bytes]:
    """Flatten a typed value to ``(codec kind tag, plaintext bytes)``."""
    # imported lazily to keep tier importable without the persist plane
    from repro.kvstore.persist.codec import _value_parts

    parts = _value_parts(value)
    return parts[0], b"".join(parts)


def deflate_value(value: Value, config: TierConfig) -> CompressedValue | None:
    """Compress ``value`` for demotion, or ``None`` if not worth it.

    ``None`` means the caller should fall back to dropping the victim:
    the value is below :data:`MIN_VALUE_BYTES`, compresses worse than
    :data:`MIN_RATIO`, or is already compressed.
    """
    from repro.kvstore.values import value_bytes

    if type(value) is CompressedValue:
        return None
    original = value_bytes(value)
    if original < MIN_VALUE_BYTES:
        return None
    kind, plain = _serialize(value)
    data = zlib.compress(plain, config.compress_level)
    if len(data) > original * MIN_RATIO:
        return None
    return CompressedValue(data, original, kind)


def inflate_value(compressed: CompressedValue) -> Value:
    """Decompress a demoted value back to its resident form.

    A string's plaintext is ``S``, a u32 length and the bytes: when the
    tag is ``S`` and the length field is exactly what follows it — the
    two checks the codec makes of a string — the value is one slice of
    the one ``zlib.decompress``. Hashes, lists and any plaintext that
    fails either check are decoded by the codec, with its result or its
    exception. ``original_bytes`` is never a buffer size here: a
    snapshot or a master's full sync supplies it, so it is outside
    input, and zlib grows its output to what the data inflates to.
    """
    plain = zlib.decompress(compressed.data)
    if plain[:1] == b"S" and len(plain) >= 5:
        if U32.unpack_from(plain, 1)[0] == len(plain) - 5:
            return plain[5:]
    from repro.kvstore.persist.codec import _decode_value

    value, offset = _decode_value(plain, 0)
    if offset != len(plain):
        raise ValueError("trailing bytes in compressed value")
    return value
