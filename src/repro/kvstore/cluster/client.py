"""Cluster-aware RESP client: slot routing, MOVED chasing, pipelines.

:class:`ClusterKvClient` exposes the same ``execute`` /
``execute_pipeline`` API as :class:`~repro.kvstore.client.TcpKvClient`, so
every existing bench, soak, and harness can run against a cluster
unchanged. Internally it keeps:

* a slot→node map, bootstrapped from ``CLUSTER SLOTS`` against any
  reachable startup node and kept fresh from ``MOVED`` replies (a MOVED
  triggers one full map refresh, falling back to learning just that
  slot when the refresh fails);
* one pooled, pipelined :class:`TcpKvClient` connection per shard,
  dialed lazily and redialed after connection errors;
* per-destination pipeline splitting: a pipelined batch is grouped by
  owning shard, each group travels as one pipelined burst on that
  shard's connection, and the replies are stitched back into the
  caller's original command order.

Pointing the client at a *non*-cluster server degrades gracefully:
``CLUSTER SLOTS`` answers an empty array, the map stays empty, and
every command routes to the startup node, one pipelined burst per
batch — ``tests/kvstore/test_cluster.py`` counts it.
"""

from __future__ import annotations

from typing import Any

from repro.kvstore.client import TcpKvClient
from repro.kvstore.cluster.slots import SLOT_COUNT, key_hash_slot
from repro.kvstore.cluster.state import parse_moved
from repro.kvstore.commands import lookup
from repro.kvstore.resp import RespError

Address = tuple[str, int]


def _key_bytes(value: Any) -> bytes:
    """Mirror ``encode_command``'s coercion so routing hashes exactly
    the bytes that will travel on the wire."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, memoryview):
        return bytes(value)
    if isinstance(value, str):
        return value.encode()
    return str(value).encode()


class ClusterKvClient:
    """Slot-routing client over one pooled connection per shard."""

    def __init__(
        self,
        startup_nodes: list[Address],
        *,
        timeout: float = 5.0,
        connect_timeout: float | None = None,
        max_redirects: int = 5,
    ) -> None:
        if not startup_nodes:
            raise ValueError("need at least one startup node")
        self._startup = [(host, int(port)) for host, port in startup_nodes]
        self._timeout = timeout
        self._connect_timeout = connect_timeout
        self._max_redirects = max_redirects
        self._conns: dict[Address, TcpKvClient] = {}
        #: slot -> owning address; None routes to the default node
        self._slots: list[Address | None] = [None] * SLOT_COUNT
        # key -> slot. A slot is a pure function of the key bytes, so
        # this never goes stale — topology changes move slot->address,
        # not key->slot. Bounded: wiped wholesale when full.
        self._slot_cache: dict[bytes, int] = {}
        self._default: Address = self._startup[0]
        self._closed = False
        self.moved_redirects = 0
        self.slot_map_refreshes = 0
        self.commands_sent = 0
        self.refresh_slot_map()

    # -- topology ------------------------------------------------------

    def known_nodes(self) -> list[Address]:
        """Every distinct shard address the slot map currently names."""
        seen: dict[Address, None] = {self._default: None}
        for addr in self._slots:
            if addr is not None:
                seen[addr] = None
        return list(seen)

    def refresh_slot_map(self) -> bool:
        """Rebuild the slot map from ``CLUSTER SLOTS``.

        Tries the pooled/startup nodes in turn; returns ``True`` when a
        node answered (an *empty* answer counts — it means the server
        is not a cluster and the default node serves everything).
        """
        for addr in [*self.known_nodes(), *self._startup]:
            try:
                reply = self._conn(addr).execute(b"CLUSTER", b"SLOTS")
            except (OSError, RespError, ConnectionError):
                self._drop_conn(addr)
                continue
            if not isinstance(reply, list):
                continue
            slots: list[Address | None] = [None] * SLOT_COUNT
            for entry in reply:
                try:
                    start, end, node = entry[0], entry[1], entry[2]
                    host = node[0]
                    owner = (
                        host.decode() if isinstance(host, bytes) else host,
                        int(node[1]),
                    )
                except (TypeError, IndexError, ValueError):
                    continue
                for slot in range(int(start), int(end) + 1):
                    slots[slot] = owner
            self._slots = slots
            self.slot_map_refreshes += 1
            return True
        return False

    def _addr_for(self, command: tuple) -> Address:
        # route by the first key the server's own command table names;
        # keyless, unknown and too-short commands go to the default
        # node, whose reply (an error, for the last two) is the answer
        name = command[0] if command else b""
        row = lookup(name if isinstance(name, bytes) else _key_bytes(name))
        if row is None or row.keys is None:
            return self._default
        keys = command[row.keys]
        if not keys:
            return self._default
        key = keys[0]
        if not isinstance(key, bytes):
            key = _key_bytes(key)
        slot = self._slot_cache.get(key)
        if slot is None:
            slot = key_hash_slot(key)
            if len(self._slot_cache) >= 65536:
                self._slot_cache.clear()
            self._slot_cache[key] = slot
        return self._slots[slot] or self._default

    # -- connection pool -----------------------------------------------

    def _conn(self, addr: Address) -> TcpKvClient:
        client = self._conns.get(addr)
        if client is None:
            client = TcpKvClient(
                addr,
                timeout=self._timeout,
                connect_timeout=self._connect_timeout,
            )
            self._conns[addr] = client
        return client

    def _drop_conn(self, addr: Address) -> None:
        client = self._conns.pop(addr, None)
        if client is not None:
            client.close()

    def _note_moved(self, message: str) -> Address | None:
        """Account one MOVED reply and update the slot map."""
        moved = parse_moved(message)
        if moved is None:
            return None
        slot, addr = moved
        self.moved_redirects += 1
        # a MOVED means the map is stale wholesale (a shard moved or the
        # map was never learned): refresh everything in one round trip,
        # falling back to pinning just the slot we were told about
        if not self.refresh_slot_map() or self._slots[slot] != addr:
            self._slots[slot] = addr
        return addr

    # -- the TcpKvClient API -------------------------------------------

    def execute(self, *args: Any) -> Any:
        """Send one command to its owning shard, chasing redirects."""
        addr = self._addr_for(args)
        redialed: set[Address] = set()
        for _ in range(self._max_redirects + 1):
            self.commands_sent += 1
            try:
                return self._conn(addr).execute(*args)
            except RespError as exc:
                target = self._note_moved(exc.message)
                if target is None:
                    raise
                addr = target
            except (OSError, ConnectionError):
                # a dead pooled socket usually means the shard process
                # restarted on its address: redial once before giving up
                self._drop_conn(addr)
                if addr in redialed:
                    raise
                redialed.add(addr)
        raise RespError(f"ERR too many cluster redirects for {args[:1]!r}")

    def execute_pipeline(self, *commands: tuple) -> list[Any]:
        """Pipeline a batch, split per destination shard.

        Commands are grouped by owning shard preserving their original
        indices, each group travels as one pipelined burst, and the
        reply list comes back in the caller's order. MOVED replies
        inside a burst are chased individually (they refresh the map
        first, so a stale map costs one refresh plus the strays — not a
        burst per slot). Like ``TcpKvClient.execute_pipeline``, error
        replies are returned in place, never raised.
        """
        if not commands:
            return []
        groups: dict[Address, list[int]] = {}
        for index, command in enumerate(commands):
            groups.setdefault(self._addr_for(command), []).append(index)
        replies: list[Any] = [None] * len(commands)
        strays: list[tuple[int, str]] = []
        for addr, indices in groups.items():
            self.commands_sent += len(indices)
            try:
                burst = self._conn(addr).execute_pipeline(
                    *(commands[i] for i in indices)
                )
            except (OSError, ConnectionError):
                # shard restarted on its address: redial once and resend
                # the burst — pipelined batches are the loadgen hot path
                # and must survive a mid-run shard bounce. A second
                # failure propagates: the shard is really down.
                self._drop_conn(addr)
                burst = self._conn(addr).execute_pipeline(
                    *(commands[i] for i in indices)
                )
            for i, reply in zip(indices, burst):
                if isinstance(reply, RespError) and reply.message.startswith(
                    "MOVED "
                ):
                    strays.append((i, reply.message))
                else:
                    replies[i] = reply
        if strays:
            # every MOVED counts toward the redirect rate, but one map
            # refresh covers the whole stale batch; the re-executes then
            # route on the fresh map (chasing further individually only
            # if the refresh under-delivered)
            self._note_moved(strays[0][1])
            self.moved_redirects += len(strays) - 1
            for i, __ in strays:
                try:
                    replies[i] = self.execute(*commands[i])
                except RespError as exc:
                    replies[i] = exc
        return replies

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for addr in list(self._conns):
            self._drop_conn(addr)

    def __enter__(self) -> "ClusterKvClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
