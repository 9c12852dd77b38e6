"""The operation stream: spec + seed → deterministic RESP commands.

:class:`OperationStream` turns a :class:`~repro.loadgen.spec.WorkloadSpec`
and an integer seed into an endless sequence of parsed-command tuples
(``(b"SET", b"user:00000042", b"xx...")``) grouped into pipeline
batches. The stream is a pure function of (spec, seed):

* the RNG is ``random.Random(f"{spec_json}:{seed}")`` — string seeds
  hash through SHA-512 in CPython, so the sequence is stable across
  processes and ``PYTHONHASHSEED`` values;
* no wall clock, no I/O — two streams built from the same (spec, seed)
  yield byte-identical operations forever (asserted by the property
  tests and the golden stream digests in ``tests/loadgen``).

Verb semantics (the YCSB translation):

``get``     GET of a chosen key.
``set``     SET of a chosen key; carries ``EX ttl`` for a
            ``ttl_fraction`` of writes.
``insert``  SET of the *next unwritten* key id (wraps around the key
            space); advances the ``latest`` distribution's horizon.
``del``     DEL of a chosen key.
``incr``    INCR of a per-stream counter key (small integer churn).
``rmw``     read-modify-write: GET then SET of the same key — two
            operations in the same batch (YCSB F).
``mget``    MGET of a sequential key run starting at a chosen key.
``scan``    alias for ``mget`` (YCSB E's scan over a run).
``mset``    MSET over a sequential key run.
``expire``  EXPIRE of a chosen key with a sampled ttl.

Sequential runs (`mget`/`scan`/`mset`) stay inside one key *group* when
``spec.hash_tags`` is set: keys format as ``{<prefix>.g<gid>}:<id>`` so
the whole run shares a cluster hash slot. Without tags the run crosses
slot boundaries — exactly the shape that must surface CROSSSLOT errors
from a cluster shard.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Iterator

from repro.loadgen.keys import LatestChooser
from repro.loadgen.spec import WorkloadSpec
from repro.loadgen.values import payload

__all__ = ["Op", "OperationStream", "stream_digest"]

#: one parsed command: a tuple of bytes argv
Op = tuple[bytes, ...]


class OperationStream:
    """Deterministic generator of operation batches for one workload."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        material = json.dumps(spec.to_dict(), sort_keys=True)
        self.rng = random.Random(f"{material}:{seed}")
        self._keys = spec.make_key_chooser()
        self._sizer = spec.make_value_sizer()
        verbs, weights = zip(*spec.mix)
        self._verbs = verbs
        self._verb_weights = list(itertools.accumulate(weights))
        depths, dweights = zip(*spec.depths)
        self._depths = depths
        self._depth_weights = list(itertools.accumulate(dweights))
        self._next_insert = spec.keyspace  # wraps modulo keyspace
        self._counter_keys = max(1, min(16, spec.keyspace // 64))
        self.ops_generated = 0

    # -- key formatting -------------------------------------------------

    def key(self, key_id: int) -> bytes:
        """Wire bytes for one key id (stable across the stream)."""
        spec = self.spec
        if spec.hash_tags:
            gid = key_id // spec.multi_keys
            return (
                f"{{{spec.key_prefix}.g{gid}}}:{key_id:08d}".encode()
            )
        return f"{spec.key_prefix}:{key_id:08d}".encode()

    def _run_keys(self, start_id: int) -> list[bytes]:
        """A sequential run of ``multi_keys`` keys starting at start_id.

        With hash tags the run is aligned to its group so every key
        shares one tag (one slot); without tags it may cross slots.
        """
        spec = self.spec
        count = spec.multi_keys
        if spec.hash_tags:
            start_id = (start_id // count) * count
        return [
            self.key((start_id + i) % spec.keyspace) for i in range(count)
        ]

    # -- op synthesis ---------------------------------------------------

    def _value(self) -> bytes:
        size = self._sizer.size(self.rng)
        return payload(size, self.rng, self.spec.compressibility)

    def _maybe_ttl(self) -> tuple[bytes, ...]:
        spec = self.spec
        if spec.ttl_fraction and self.rng.random() < spec.ttl_fraction:
            ttl = self.rng.randint(spec.ttl_lo, spec.ttl_hi)
            return (b"EX", b"%d" % ttl)
        return ()

    def _emit(self, verb: str, out: list[Op]) -> None:
        rng = self.rng
        keys = self._keys
        if verb == "get":
            out.append((b"GET", self.key(keys.choose(rng))))
        elif verb == "set":
            out.append(
                (b"SET", self.key(keys.choose(rng)), self._value())
                + self._maybe_ttl()
            )
        elif verb == "insert":
            key_id = self._next_insert % self.spec.keyspace
            self._next_insert += 1
            if isinstance(keys, LatestChooser):
                keys.note_insert(key_id)
            out.append(
                (b"SET", self.key(key_id), self._value())
                + self._maybe_ttl()
            )
        elif verb == "del":
            out.append((b"DEL", self.key(keys.choose(rng))))
        elif verb == "incr":
            out.append(
                (b"INCR", b"%s:ctr:%d" % (
                    self.spec.key_prefix.encode(),
                    rng.randrange(self._counter_keys),
                ))
            )
        elif verb == "rmw":
            key = self.key(keys.choose(rng))
            out.append((b"GET", key))
            out.append((b"SET", key, self._value()) + self._maybe_ttl())
        elif verb in ("mget", "scan"):
            out.append(
                (b"MGET", *self._run_keys(keys.choose(rng)))
            )
        elif verb == "mset":
            pairs: list[bytes] = []
            for key in self._run_keys(keys.choose(rng)):
                pairs.append(key)
                pairs.append(self._value())
            out.append((b"MSET", *pairs))
        elif verb == "expire":
            ttl = rng.randint(self.spec.ttl_lo, self.spec.ttl_hi)
            out.append(
                (b"EXPIRE", self.key(keys.choose(rng)), b"%d" % ttl)
            )
        else:  # pragma: no cover - spec validation rejects these
            raise ValueError(f"unknown verb {verb!r}")

    def _pick(self, cumulative: list[float], choices: tuple) -> object:
        point = self.rng.random() * cumulative[-1]
        for weight, choice in zip(cumulative, choices):
            if point < weight:
                return choice
        return choices[-1]

    # -- the stream -----------------------------------------------------

    def batches(self) -> Iterator[list[Op]]:
        """Endless pipeline batches, depth drawn from the depth mix.

        ``rmw`` emits two ops, so a batch may exceed its drawn depth by
        at most one op — the depth is a floor, not an exact count.
        """
        while True:
            depth = self._pick(self._depth_weights, self._depths)
            batch: list[Op] = []
            while len(batch) < depth:
                verb = self._pick(self._verb_weights, self._verbs)
                self._emit(verb, batch)
            self.ops_generated += len(batch)
            yield batch

    def ops(self) -> Iterator[Op]:
        """The same stream flattened to single operations."""
        for batch in self.batches():
            yield from batch

    def prefill_batches(self, batch_size: int = 64) -> Iterator[list[Op]]:
        """The YCSB load phase: one SET per key id, in id order.

        Deterministic like everything else (value bytes come from the
        stream RNG), so a prefilled store's contents are a function of
        (spec, seed) too. Intended to run *before* :meth:`batches`.
        """
        batch: list[Op] = []
        for key_id in range(self.spec.keyspace):
            batch.append((b"SET", self.key(key_id), self._value()))
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch


def stream_digest(
    spec: WorkloadSpec, seed: int, op_count: int = 2048
) -> str:
    """SHA-256 over the first ``op_count`` encoded operations.

    Two runs that report the same digest generated byte-identical
    operation streams — the determinism receipt every ``benchmarks/e2e``
    result carries and ``tests/loadgen`` pins as goldens.
    """
    from repro.kvstore.resp import encode_command

    stream = OperationStream(spec, seed)
    digest = hashlib.sha256()
    for op in itertools.islice(stream.ops(), op_count):
        digest.update(encode_command(*op))
    return digest.hexdigest()
