"""The command table: everything the server knows about a command.

:data:`COMMANDS` maps each command name to one :class:`Command` row —
handler, arity, key positions, write flag, zero-copy audit, transport
ownership — the way Redis keeps one ``redisCommandTable``. Everything
that needs to know something about a command reads a column:
:func:`dispatch` (arity, then the cluster and replica gates), the
cluster client (which argument routes), ``KvServer.pump`` (which argv
may keep ``memoryview`` payloads, which names the TCP transport
serves). No other module keeps a list of command names.

Each handler takes the store and the argument list (bytes, excluding
the command name, already arity-checked) and returns a reply value for
:func:`repro.kvstore.resp.encode_reply`. Errors are returned as
:class:`~repro.kvstore.resp.RespError` values, never raised, matching
how a Redis server answers a bad command without dying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.errors import SoftMemoryDenied
from repro.kvstore.cluster.slots import SLOT_COUNT, key_hash_slot
from repro.kvstore.resp import OK, PONG, RespError, SimpleString
from repro.kvstore.store import DataStore, _glob_regex
from repro.kvstore.values import WrongTypeError

Handler = Callable[[DataStore, list[bytes]], Any]

# OK / PONG are the interned singletons from ``repro.kvstore.resp``:
# ``encode_reply_into`` recognizes those exact objects by identity and
# appends pre-encoded wire bytes, so handlers must return *these*, not
# fresh SimpleString("OK") instances


def _wrong_args(name: str) -> RespError:
    return RespError(f"ERR wrong number of arguments for '{name}' command")


def _parse_int(raw: bytes) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError("value is not an integer or out of range") from None


def cmd_ping(store: DataStore, args: list[bytes]) -> Any:
    if not args:
        return PONG
    if len(args) == 1:
        return args[0]
    return _wrong_args("ping")


def cmd_echo(store: DataStore, args: list[bytes]) -> Any:
    return args[0]


def cmd_set(store: DataStore, args: list[bytes]) -> Any:
    if len(args) == 2:  # plain SET key value: skip option scanning
        store.set(args[0], args[1])
        return OK
    key, value, *opts = args
    ex: float | None = None
    keep_ttl = False
    i = 0
    while i < len(opts):
        opt = opts[i].upper()
        if opt == b"EX" and i + 1 < len(opts):
            ex = _parse_int(opts[i + 1])
            i += 2
        elif opt == b"PX" and i + 1 < len(opts):
            ex = _parse_int(opts[i + 1]) / 1000.0
            i += 2
        elif opt == b"KEEPTTL":
            keep_ttl = True
            i += 1
        else:
            return RespError("ERR syntax error")
    store.set(key, value, ex=ex, keep_ttl=keep_ttl)
    return OK


def cmd_setnx(store: DataStore, args: list[bytes]) -> Any:
    key, value = args
    if store.exists(key):
        return 0
    store.set(key, value)
    return 1


def cmd_get(store: DataStore, args: list[bytes]) -> Any:
    return store.get(args[0])


def cmd_getset(store: DataStore, args: list[bytes]) -> Any:
    old = store.get(args[0])
    store.set(args[0], args[1])
    return old


def cmd_mget(store: DataStore, args: list[bytes]) -> Any:
    return [store.get(key) for key in args]


def cmd_mset(store: DataStore, args: list[bytes]) -> Any:
    if len(args) % 2:  # arity says "at least one pair"; parity is ours
        return _wrong_args("mset")
    for i in range(0, len(args), 2):
        store.set(args[i], args[i + 1])
    return OK


def cmd_del(store: DataStore, args: list[bytes]) -> Any:
    return store.delete(*args)


def cmd_exists(store: DataStore, args: list[bytes]) -> Any:
    return store.exists(*args)


def cmd_expire(store: DataStore, args: list[bytes]) -> Any:
    return int(store.expire(args[0], _parse_int(args[1])))


def cmd_ttl(store: DataStore, args: list[bytes]) -> Any:
    return store.ttl(args[0])


def cmd_persist(store: DataStore, args: list[bytes]) -> Any:
    return int(store.persist(args[0]))


def cmd_incr(store: DataStore, args: list[bytes]) -> Any:
    return store.incrby(args[0], 1)


def cmd_decr(store: DataStore, args: list[bytes]) -> Any:
    return store.incrby(args[0], -1)


def cmd_incrby(store: DataStore, args: list[bytes]) -> Any:
    return store.incrby(args[0], _parse_int(args[1]))


def cmd_decrby(store: DataStore, args: list[bytes]) -> Any:
    return store.incrby(args[0], -_parse_int(args[1]))


def cmd_append(store: DataStore, args: list[bytes]) -> Any:
    return store.append(args[0], args[1])


def cmd_strlen(store: DataStore, args: list[bytes]) -> Any:
    return store.strlen(args[0])


def cmd_keys(store: DataStore, args: list[bytes]) -> Any:
    return store.keys(args[0])


def cmd_dbsize(store: DataStore, args: list[bytes]) -> Any:
    return store.dbsize()


def cmd_flushall(store: DataStore, args: list[bytes]) -> Any:
    store.flushall()
    return OK


_NO_PERSISTENCE = RespError(
    "ERR persistence is not configured (start the server with a data dir)"
)


def cmd_save(store: DataStore, args: list[bytes]) -> Any:
    """SAVE: synchronous checkpoint (snapshot + AOF rotation); a failed
    snapshot write is an error reply, as in Redis."""
    persist = store.persistence
    if persist is None:
        return _NO_PERSISTENCE
    if persist.bgsave_in_progress:
        return RespError("ERR Background save already in progress")
    persist.checkpoint()
    if persist.last_bgsave_error is not None:
        return RespError(f"ERR {persist.last_bgsave_error}")
    return OK


def cmd_bgsave(store: DataStore, args: list[bytes]) -> Any:
    """BGSAVE: switch the log here, fork a child that writes the
    snapshot from its copy-on-write image; the loop reaps it."""
    persist = store.persistence
    if persist is None:
        return _NO_PERSISTENCE
    if persist.bgsave_in_progress:
        return RespError("ERR Background save already in progress")
    persist.checkpoint(background=True)
    return SimpleString("Background saving started")


def cmd_bgrewriteaof(store: DataStore, args: list[bytes]) -> Any:
    """BGREWRITEAOF: a checkpoint *is* the rewrite — the new base
    snapshot carries exactly the live keys and the fresh incremental
    log starts empty, so the on-disk footprint is proportional to the
    keyspace again no matter how much history the old log held."""
    persist = store.persistence
    if persist is None:
        return _NO_PERSISTENCE
    if persist.bgsave_in_progress:
        return RespError("ERR Background append only file rewriting "
                         "already in progress")
    persist.checkpoint(background=True)
    return SimpleString("Background append only file rewriting started")


def cmd_lastsave(store: DataStore, args: list[bytes]) -> Any:
    persist = store.persistence
    if persist is None:
        return _NO_PERSISTENCE
    return persist.stats.rdb_last_save_time


def _fmt_metric(value: Any) -> Any:
    if isinstance(value, float):
        return f"{value:.6g}"
    return value


def _info_sections(store: DataStore) -> list[tuple[str, list[str]]]:
    """Build INFO as ``(section, lines)`` pairs (Redis section shape).

    The legacy flat ``store.info()`` keys lead the Keyspace section
    unchanged, so pre-section consumers that grep for ``keys:`` or
    ``reclaimed_keys:`` keep working; everything observability-shaped
    reads from the store's metrics registry snapshot.
    """
    obs = store.obs
    snapshot = obs.registry.snapshot()

    server = [
        f"name:{store.name}",
        f"commands_processed:{obs.commands}",
        f"protocol_errors:{obs.protocol_errors}",
        f"protocol_dropped_bytes:{obs.protocol_dropped_bytes}",
        f"slowlog_len:{len(obs.slowlog)}",
        f"slowlog_total:{obs.slowlog.total_logged}",
        f"slowlog_threshold_us:{obs.slowlog.threshold_us}",
    ]
    keyspace = [f"{k}:{v}" for k, v in store.info().items()]
    keyspace.append(f"oom_denials:{store.stats.oom_denials}")

    soft_prefixes = ("sma.", "smd.", "rpc.", "tier.")
    soft = [
        f"{name}:{_fmt_metric(value)}"
        for name, value in sorted(snapshot.items())
        if name.startswith(soft_prefixes)
    ]
    stats = [
        f"{name}:{_fmt_metric(value)}"
        for name, value in sorted(snapshot.items())
        if name.startswith(("store.", "server."))
    ]
    stats.append(f"gauge_errors:{obs.registry.gauge_errors}")
    latency: list[str] = []
    for name, snap in sorted(obs.command_stats().items()):
        latency.append(f"cmd.{name}.count:{snap.count}")
        latency.append(f"cmd.{name}.mean_us:{snap.mean * 1e6:.1f}")
        latency.append(f"cmd.{name}.p50_us:{snap.quantile(0.5) * 1e6:.1f}")
        latency.append(f"cmd.{name}.p99_us:{snap.quantile(0.99) * 1e6:.1f}")
        latency.append(f"cmd.{name}.max_us:{snap.vmax * 1e6:.1f}")
    persist = store.persistence
    if persist is None:
        persistence = ["enabled:0", "aof_enabled:0"]
    else:
        persistence = [
            "enabled:1",
            f"aof_enabled:{int(persist.aof_enabled)}",
            f"appendfsync:{persist.config.appendfsync}",
            f"dir:{persist.config.dir}",
            f"generation:{persist.generation}",
            f"aof_size:{persist.aof_size}",
            f"aof_pending_bytes:{persist.aof_pending_bytes}",
            f"rdb_bgsave_in_progress:{int(persist.bgsave_in_progress)}",
            f"rdb_last_bgsave_status:"
            f"{'err' if persist.last_bgsave_error else 'ok'}",
            f"fsync_errors:{persist.fsync_errors}",
            f"write_errors:{persist.write_errors}",
        ]
        persistence.extend(
            f"{name}:{value}"
            for name, value in persist.stats.as_dict().items()
        )
    repl = store.repl
    if repl is None:
        # a never-replicating server still answers the section, so lag
        # dashboards can poll any node with one parser
        replication = [
            "role:master",
            "connected_replicas:0",
            "master_repl_offset:0",
        ]
    else:
        replication = repl.info_lines()
    state = store.cluster
    if state is None:
        cluster = ["cluster_enabled:0"]
    else:
        node = state.myself
        cluster = [
            "cluster_enabled:1",
            f"cluster_shard_id:{state.shard_index}",
            f"cluster_node_id:{state.node_id}",
            f"cluster_known_nodes:{len(state.nodes)}",
            f"cluster_slots_owned:{node.slot_count}",
            f"cluster_slot_range:{node.start}-{node.end}",
            f"cluster_moved_replies:{state.moved_replies}",
            f"cluster_crossslot_replies:{state.crossslot_replies}",
        ]
    return [
        ("Server", server),
        ("Keyspace", keyspace),
        ("Persistence", persistence),
        ("Replication", replication),
        ("Cluster", cluster),
        ("SoftMemory", soft),
        ("Stats", stats),
        ("Latency", latency),
    ]


def cmd_info(store: DataStore, args: list[bytes]) -> Any:
    if len(args) > 1:
        return _wrong_args("info")
    sections = _info_sections(store)
    if args:
        want = args[0].lower()
        sections = [
            (name, lines)
            for name, lines in sections
            if name.lower().encode() == want
        ]
        if not sections:
            return b"\r\n"
    parts: list[str] = []
    for name, lines in sections:
        parts.append(f"# {name}")
        parts.extend(lines)
        parts.append("")
    return ("\r\n".join(parts) + "\r\n").encode()


def cmd_slowlog(store: DataStore, args: list[bytes]) -> Any:
    """SLOWLOG GET [count] | LEN | RESET | HELP (Redis reply shape)."""
    sub = args[0].upper()
    slowlog = store.obs.slowlog
    if sub == b"GET":
        if len(args) > 2:
            return _wrong_args("slowlog get")
        count = _parse_int(args[1]) if len(args) == 2 else 10
        if count < 0:
            count = len(slowlog)
        return [
            [
                entry.entry_id,
                int(entry.timestamp),
                entry.duration_us,
                list(entry.argv),
            ]
            for entry in slowlog.entries(count)
        ]
    if sub == b"LEN":
        return len(slowlog)
    if sub == b"RESET":
        slowlog.reset()
        return OK
    if sub == b"HELP":
        return [
            b"SLOWLOG GET [count] -- return the <count> newest entries",
            b"SLOWLOG LEN -- number of retained entries",
            b"SLOWLOG RESET -- clear the log (total_logged survives)",
        ]
    return RespError(
        f"ERR unknown SLOWLOG subcommand "
        f"{sub.decode(errors='backslashreplace')!r}"
    )


#: CONFIG parameters we implement: slowlog and persistence knobs
_CONFIG_PARAMS = (
    b"appendfsync",
    b"appendonly",
    b"dir",
    b"slowlog-log-slower-than",
    b"slowlog-max-len",
)


def cmd_config(store: DataStore, args: list[bytes]) -> Any:
    """CONFIG GET/SET for the slowlog and persistence knobs."""
    sub = args[0].upper()
    obs = store.obs
    persist = store.persistence
    if sub == b"GET":
        pattern = args[1].lower()
        flat: list[bytes] = []
        values: dict[bytes, Any] = {
            b"slowlog-log-slower-than": obs.slowlog_threshold_us,
            b"slowlog-max-len": obs.slowlog.max_len,
            b"appendonly": "no",
            b"appendfsync": "everysec",
            b"dir": "",
        }
        if persist is not None:
            values[b"appendonly"] = (
                "yes" if persist.config.appendonly else "no"
            )
            values[b"appendfsync"] = persist.config.appendfsync
            values[b"dir"] = persist.config.dir
        regex = _glob_regex(pattern)
        for param in _CONFIG_PARAMS:
            if regex is None or regex.match(param):
                flat.append(param)
                flat.append(str(values[param]).encode())
        return flat
    if sub == b"SET":
        if len(args) != 3:
            return _wrong_args("config set")
        param = args[1].lower()
        if param == b"slowlog-log-slower-than":
            obs.set_slowlog_threshold_us(_parse_int(args[2]))
            return OK
        if param == b"slowlog-max-len":
            value = _parse_int(args[2])
            if value < 1:
                return RespError(
                    "ERR CONFIG SET failed - argument must be positive"
                )
            obs.slowlog.set_max_len(value)
            return OK
        if param == b"appendonly":
            if persist is None:
                return _NO_PERSISTENCE
            flag = args[2].lower()
            if flag not in (b"yes", b"no"):
                return RespError(
                    "ERR CONFIG SET failed - argument must be 'yes' or 'no'"
                )
            persist.set_appendonly(flag == b"yes")
            return OK
        if param == b"appendfsync":
            if persist is None:
                return _NO_PERSISTENCE
            try:
                persist.set_appendfsync(args[2].lower().decode("ascii"))
            except (ValueError, UnicodeDecodeError):
                return RespError(
                    "ERR CONFIG SET failed - argument must be one of "
                    "'always', 'everysec', 'no'"
                )
            return OK
        if param == b"dir":
            # the data dir anchors recovery; moving it mid-flight would
            # orphan the generation chain, so it is fixed at startup
            return RespError(
                "ERR CONFIG SET dir is not supported at runtime - "
                "pass the data dir at startup"
            )
        return RespError(
            f"ERR Unknown option or number of arguments for CONFIG SET - "
            f"'{param.decode(errors='backslashreplace')}'"
        )
    return RespError(
        f"ERR unknown CONFIG subcommand "
        f"{sub.decode(errors='backslashreplace')!r}"
    )


def cmd_memory(store: DataStore, args: list[bytes]) -> Any:
    sub = args[0].upper()
    if sub == b"USAGE":
        if len(args) != 2:
            return _wrong_args("memory usage")
        return store.memory_usage(args[1])
    if sub == b"STATS":
        info = store.info()
        flat: list[Any] = []
        for key, value in info.items():
            flat.append(key.encode())
            flat.append(value if isinstance(value, int) else str(value).encode())
        return flat
    if sub == b"PURGE":
        # voluntarily shed N pages worth of keyspace bytes through the
        # eviction policy (Listing 1's reclaim(sz); demote-before-drop
        # when the tier is on). Budget ledgers are untouched — only the
        # daemon revokes grants — so this is safe under a live SMD.
        # Crash harnesses and benchmarks use it to apply pressure
        # deterministically without a second process.
        if len(args) > 2:
            return _wrong_args("memory purge")
        pages = 1
        if len(args) == 2:
            try:
                pages = int(args[1])
            except ValueError:
                return RespError("ERR value is not an integer")
            if pages < 1:
                return RespError("ERR pages must be positive")
        from repro.util.units import PAGE_SIZE

        return store.keyspace.reclaim(pages * PAGE_SIZE)
    return RespError(f"ERR unknown MEMORY subcommand {sub.decode()!r}")


_CLUSTER_DISABLED = RespError(
    "ERR This instance has cluster support disabled"
)


def cmd_cluster(store: DataStore, args: list[bytes]) -> Any:
    """CLUSTER KEYSLOT/SLOTS/SHARDS/MYID/INFO (static-topology shapes).

    ``KEYSLOT`` answers on any server (the hash is topology-free);
    ``SLOTS``/``SHARDS`` answer the empty array on a standalone server
    so cluster clients can probe any node and degrade gracefully.
    """
    sub = args[0].upper()
    state = store.cluster
    if sub == b"KEYSLOT":
        if len(args) != 2:
            return _wrong_args("cluster keyslot")
        return key_hash_slot(args[1])
    if sub == b"SLOTS":
        if len(args) != 1:
            return _wrong_args("cluster slots")
        if state is None:
            return []
        return [
            [
                node.start,
                node.end,
                [node.host.encode(), node.port, node.node_id.encode()],
            ]
            for node in state.nodes
        ]
    if sub == b"SHARDS":
        if len(args) != 1:
            return _wrong_args("cluster shards")
        if state is None:
            return []
        return [
            [
                b"slots", [node.start, node.end],
                b"nodes", [[
                    b"id", node.node_id.encode(),
                    b"endpoint", node.host.encode(),
                    b"port", node.port,
                    b"role", b"master",
                    b"health", b"online",
                ]],
            ]
            for node in state.nodes
        ]
    if sub == b"MYID":
        if len(args) != 1:
            return _wrong_args("cluster myid")
        if state is None:
            return _CLUSTER_DISABLED
        return state.node_id.encode()
    if sub == b"INFO":
        if len(args) != 1:
            return _wrong_args("cluster info")
        if state is None:
            lines = ["cluster_enabled:0", "cluster_state:ok"]
        else:
            lines = [
                "cluster_enabled:1",
                "cluster_state:ok",
                f"cluster_slots_assigned:{SLOT_COUNT}",
                f"cluster_known_nodes:{len(state.nodes)}",
                f"cluster_size:{len(state.nodes)}",
            ]
        return ("\r\n".join(lines) + "\r\n").encode()
    return RespError(
        f"ERR unknown CLUSTER subcommand "
        f"{sub.decode(errors='backslashreplace')!r}"
    )


def cmd_type(store: DataStore, args: list[bytes]) -> Any:
    name = store.type_of(args[0])
    return SimpleString((name or b"none").decode())


def cmd_getdel(store: DataStore, args: list[bytes]) -> Any:
    return store.getdel(args[0])


def cmd_getrange(store: DataStore, args: list[bytes]) -> Any:
    return store.getrange(args[0], _parse_int(args[1]), _parse_int(args[2]))


def cmd_setrange(store: DataStore, args: list[bytes]) -> Any:
    return store.setrange(args[0], _parse_int(args[1]), args[2])


def cmd_setex(store: DataStore, args: list[bytes]) -> Any:
    store.set(args[0], args[2], ex=_parse_int(args[1]))
    return OK


def cmd_psetex(store: DataStore, args: list[bytes]) -> Any:
    store.set(args[0], args[2], ex=_parse_int(args[1]) / 1000.0)
    return OK


def cmd_rename(store: DataStore, args: list[bytes]) -> Any:
    try:
        store.rename(args[0], args[1])
    except KeyError:
        return RespError("ERR no such key")
    return OK


def cmd_renamenx(store: DataStore, args: list[bytes]) -> Any:
    try:
        return int(store.renamenx(args[0], args[1]))
    except KeyError:
        return RespError("ERR no such key")


def cmd_randomkey(store: DataStore, args: list[bytes]) -> Any:
    return store.randomkey()


def cmd_scan(store: DataStore, args: list[bytes]) -> Any:
    cursor = _parse_int(args[0])
    match: bytes | None = None
    count = 10
    i = 1
    while i < len(args):
        opt = args[i].upper()
        if opt == b"MATCH" and i + 1 < len(args):
            match = args[i + 1]
            i += 2
        elif opt == b"COUNT" and i + 1 < len(args):
            count = _parse_int(args[i + 1])
            i += 2
        else:
            return RespError("ERR syntax error")
    next_cursor, keys = store.scan(cursor, match=match, count=count)
    return [str(next_cursor).encode(), keys]


def cmd_expireat(store: DataStore, args: list[bytes]) -> Any:
    return int(store.expireat(args[0], _parse_int(args[1])))


def cmd_pttl(store: DataStore, args: list[bytes]) -> Any:
    return store.pttl(args[0])


def cmd_hset(store: DataStore, args: list[bytes]) -> Any:
    if len(args) % 2 == 0:  # key, then whole field/value pairs
        return _wrong_args("hset")
    mapping = dict(zip(args[1::2], args[2::2]))
    return store.hset(args[0], mapping)


def cmd_hget(store: DataStore, args: list[bytes]) -> Any:
    return store.hget(args[0], args[1])


def cmd_hdel(store: DataStore, args: list[bytes]) -> Any:
    return store.hdel(args[0], *args[1:])


def cmd_hlen(store: DataStore, args: list[bytes]) -> Any:
    return store.hlen(args[0])


def cmd_hkeys(store: DataStore, args: list[bytes]) -> Any:
    return store.hkeys(args[0])


def cmd_hvals(store: DataStore, args: list[bytes]) -> Any:
    return store.hvals(args[0])


def cmd_hgetall(store: DataStore, args: list[bytes]) -> Any:
    flat: list[bytes] = []
    for fld, value in store.hgetall(args[0]).items():
        flat.append(fld)
        flat.append(value)
    return flat


def cmd_hexists(store: DataStore, args: list[bytes]) -> Any:
    return int(store.hexists(args[0], args[1]))


def cmd_hincrby(store: DataStore, args: list[bytes]) -> Any:
    return store.hincrby(args[0], args[1], _parse_int(args[2]))


def cmd_lpush(store: DataStore, args: list[bytes]) -> Any:
    return store.lpush(args[0], *args[1:])


def cmd_rpush(store: DataStore, args: list[bytes]) -> Any:
    return store.rpush(args[0], *args[1:])


def cmd_lpop(store: DataStore, args: list[bytes]) -> Any:
    return store.lpop(args[0])


def cmd_rpop(store: DataStore, args: list[bytes]) -> Any:
    return store.rpop(args[0])


def cmd_llen(store: DataStore, args: list[bytes]) -> Any:
    return store.llen(args[0])


def cmd_lrange(store: DataStore, args: list[bytes]) -> Any:
    return store.lrange(args[0], _parse_int(args[1]), _parse_int(args[2]))


def cmd_lindex(store: DataStore, args: list[bytes]) -> Any:
    return store.lindex(args[0], _parse_int(args[1]))


# ----------------------------------------------------------------------
# replication
# ----------------------------------------------------------------------

#: what a read-only replica answers a write (exact Redis wording — typed
#: clients key off the READONLY prefix)
READONLY_MESSAGE = "READONLY You can't write against a read only replica."
_READONLY = RespError(READONLY_MESSAGE)


def cmd_replicaof(store: DataStore, args: list[bytes]) -> Any:
    # role changes need a transport's feed/link machinery; the TCP
    # server intercepts this command, raw dispatch cannot host it
    return RespError("ERR REPLICAOF requires a TCP server")


def cmd_psync(store: DataStore, args: list[bytes]) -> Any:
    return RespError("ERR PSYNC requires a TCP server")


def cmd_replconf(store: DataStore, args: list[bytes]) -> Any:
    return OK


def cmd_wait(store: DataStore, args: list[bytes]) -> Any:
    """WAIT fallback: the already-acked count, without blocking.

    The TCP server intercepts WAIT and actually waits on the feed
    sockets; this handler serves raw dispatch (an in-process
    ``KvServer``), where no feeds exist, and answers with what is
    known right now.
    """
    _parse_int(args[0])
    _parse_int(args[1])
    repl = store.repl
    if repl is None:
        return 0
    return repl.acked_by(repl.master_repl_offset)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Command:
    """One row of the table (Redis: of ``redisCommandTable``)."""

    handler: Handler
    #: argv length including the name; negative means "at least" (:func:`fits`)
    arity: int
    #: the slice of argv that holds the keys; ``None`` for a keyless
    #: command, which a cluster shard never redirects
    keys: slice | None = None
    #: can mutate the keyspace: a read-only replica refuses it
    write: bool = False
    #: the argv length (same convention) at which the handler is
    #: audited to sink payload ``memoryview``s — it hands them straight
    #: to ``DataStore.set``, which materialises, and calls no ``bytes``
    #: method on them. 0: the server materialises every argument first.
    views: int = 0
    #: needs the event loop's sockets (feed registration, deferred
    #: PSYNC replies, blocking WAIT): the TCP server's ``repl_hook``
    #: serves it, the handler here is the raw-dispatch fallback
    transport: bool = False


def fits(shape: int, argc: int) -> bool:
    """Does an argv of ``argc`` elements (name included) fit ``shape`` —
    an exact length or, negative, a minimum one? Redis's arity
    convention; the ``arity`` and ``views`` columns both use it."""
    return argc == shape or (shape < 0 and argc >= -shape)


_KEY = slice(1, 2)  # the single-key family: argv[1]
_KEYS = slice(1, None)  # every argument is a key
_PAIRS = slice(1, None, 2)  # key value key value ...
_TWO = slice(1, 3)  # source and destination

COMMANDS: dict[bytes, Command] = {
    b"PING": Command(cmd_ping, -1),
    b"ECHO": Command(cmd_echo, 2),
    b"SET": Command(cmd_set, -3, _KEY, write=True, views=3),
    b"SETNX": Command(cmd_setnx, 3, _KEY, write=True, views=3),
    b"GET": Command(cmd_get, 2, _KEY),
    b"GETSET": Command(cmd_getset, 3, _KEY, write=True, views=3),
    b"MGET": Command(cmd_mget, -2, _KEYS),
    b"MSET": Command(cmd_mset, -3, _PAIRS, write=True, views=-3),
    b"DEL": Command(cmd_del, -2, _KEYS, write=True),
    b"EXISTS": Command(cmd_exists, -2, _KEYS),
    b"EXPIRE": Command(cmd_expire, 3, _KEY, write=True),
    b"TTL": Command(cmd_ttl, 2, _KEY),
    b"PERSIST": Command(cmd_persist, 2, _KEY, write=True),
    b"INCR": Command(cmd_incr, 2, _KEY, write=True),
    b"DECR": Command(cmd_decr, 2, _KEY, write=True),
    b"INCRBY": Command(cmd_incrby, 3, _KEY, write=True),
    b"DECRBY": Command(cmd_decrby, 3, _KEY, write=True),
    b"APPEND": Command(cmd_append, 3, _KEY, write=True),
    b"STRLEN": Command(cmd_strlen, 2, _KEY),
    b"KEYS": Command(cmd_keys, 2),
    b"DBSIZE": Command(cmd_dbsize, 1),
    b"FLUSHALL": Command(cmd_flushall, -1, write=True),
    b"SAVE": Command(cmd_save, 1),
    b"BGSAVE": Command(cmd_bgsave, 1),
    b"BGREWRITEAOF": Command(cmd_bgrewriteaof, 1),
    b"LASTSAVE": Command(cmd_lastsave, 1),
    b"INFO": Command(cmd_info, -1),
    b"SLOWLOG": Command(cmd_slowlog, -2),
    b"CONFIG": Command(cmd_config, -3),
    b"MEMORY": Command(cmd_memory, -2),
    b"CLUSTER": Command(cmd_cluster, -2),
    b"TYPE": Command(cmd_type, 2, _KEY),
    b"GETDEL": Command(cmd_getdel, 2, _KEY, write=True),
    b"GETRANGE": Command(cmd_getrange, 4, _KEY),
    b"SETRANGE": Command(cmd_setrange, 4, _KEY, write=True),
    b"SETEX": Command(cmd_setex, 4, _KEY, write=True, views=4),
    b"PSETEX": Command(cmd_psetex, 4, _KEY, write=True, views=4),
    b"RENAME": Command(cmd_rename, 3, _TWO, write=True),
    b"RENAMENX": Command(cmd_renamenx, 3, _TWO, write=True),
    b"RANDOMKEY": Command(cmd_randomkey, 1),
    b"SCAN": Command(cmd_scan, -2),
    b"EXPIREAT": Command(cmd_expireat, 3, _KEY, write=True),
    b"PTTL": Command(cmd_pttl, 2, _KEY),
    b"HSET": Command(cmd_hset, -4, _KEY, write=True),
    b"HGET": Command(cmd_hget, 3, _KEY),
    b"HDEL": Command(cmd_hdel, -3, _KEY, write=True),
    b"HLEN": Command(cmd_hlen, 2, _KEY),
    b"HKEYS": Command(cmd_hkeys, 2, _KEY),
    b"HVALS": Command(cmd_hvals, 2, _KEY),
    b"HGETALL": Command(cmd_hgetall, 2, _KEY),
    b"HEXISTS": Command(cmd_hexists, 3, _KEY),
    b"HINCRBY": Command(cmd_hincrby, 4, _KEY, write=True),
    b"LPUSH": Command(cmd_lpush, -3, _KEY, write=True),
    b"RPUSH": Command(cmd_rpush, -3, _KEY, write=True),
    b"LPOP": Command(cmd_lpop, 2, _KEY, write=True),
    b"RPOP": Command(cmd_rpop, 2, _KEY, write=True),
    b"LLEN": Command(cmd_llen, 2, _KEY),
    b"LRANGE": Command(cmd_lrange, 4, _KEY),
    b"LINDEX": Command(cmd_lindex, 3, _KEY),
    b"REPLICAOF": Command(cmd_replicaof, 3, transport=True),
    b"PSYNC": Command(cmd_psync, 3, transport=True),
    b"REPLCONF": Command(cmd_replconf, -1, transport=True),
    b"WAIT": Command(cmd_wait, 3, transport=True),
}


# Exact-bytes lookup: clients overwhelmingly send a command name in one
# fixed case, so resolving it through `.upper()` allocates a fresh bytes
# object per command. The cache is seeded with the canonical upper and
# lower spellings and learns other casings on first sight (bounded, and
# only for names that resolve — garbage can't grow it).
_SPELLINGS: dict[bytes, Command] = {
    spelling: command
    for name, command in COMMANDS.items()
    for spelling in (name, name.lower())
}
_SPELLINGS_MAX = 4 * len(_SPELLINGS)


def lookup(name: bytes) -> Command | None:
    """Resolve a command name (any casing) to its table row."""
    command = _SPELLINGS.get(name)
    if command is None:
        command = COMMANDS.get(name.upper())
        if command is not None and len(_SPELLINGS) < _SPELLINGS_MAX:
            _SPELLINGS[name] = command
    return command


_EMPTY_CMD = RespError("ERR empty command")


def dispatch(store: DataStore, argv: list[bytes]) -> Any:
    """Execute one parsed command vector against the store.

    Refusals come in the order of Redis's ``processCommand``: unknown
    command, wrong arity, ``MOVED``/``CROSSSLOT`` (a cluster shard asked
    about keys it does not own), ``READONLY`` (a replica asked to
    write) — then the handler runs.
    """
    if not argv:
        return _EMPTY_CMD
    name = argv[0]
    # the two gates: a store that is neither a cluster shard nor a
    # replica pays one attribute load and a None check for each
    cluster = store.cluster
    repl = store.repl
    replica = repl is not None and repl.role == "replica"
    try:
        # GET/SET dominate cache workloads; where no gate can refuse
        # them, their common shapes skip the table probe, the handler
        # indirection and the argv[1:] slice entirely (still inside the
        # try so WRONGTYPE/OOM containment is identical)
        if cluster is None:
            if name == b"GET":
                if len(argv) == 2:
                    return store.get(argv[1])
            elif name == b"SET" and len(argv) == 3 and not replica:
                store.set(argv[1], argv[2])
                return OK
        command = _SPELLINGS.get(name) or lookup(name)
        if command is None:
            return RespError(
                f"ERR unknown command "
                f"'{name.decode(errors='backslashreplace')}'"
            )
        if not fits(command.arity, len(argv)):
            return _wrong_args(name.decode().lower())
        if cluster is not None and command.keys is not None:
            redirect = cluster.check(argv[command.keys])
            if redirect is not None:
                return redirect
        if replica and command.write:
            return _READONLY
        return command.handler(store, argv[1:])
    except WrongTypeError as exc:
        return RespError(str(exc))  # Redis sends WRONGTYPE without ERR
    except SoftMemoryDenied:
        # the SMA could not back the write (policy denial, or a local
        # degraded-mode denial); answer like Redis under maxmemory
        # instead of letting the exception kill the serving thread
        store.stats.oom_denials += 1
        return RespError(
            "OOM command not allowed when soft memory cannot be allocated"
        )
    except OverflowError:
        # an integer argument too large for the float it feeds (SETEX k
        # <400 digits> v): Redis's out-of-range reply, not a dead
        # serving thread
        return RespError("ERR value is not an integer or out of range")
    except ValueError as exc:
        return RespError(f"ERR {exc}")
    except TypeError as exc:
        return RespError(f"ERR {exc}")
