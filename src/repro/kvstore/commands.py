"""Command table: RESP argument vectors to store operations.

Each handler takes the store and the argument list (bytes, excluding the
command name) and returns a reply value for
:func:`repro.kvstore.resp.encode_reply`. Errors are returned as
:class:`~repro.kvstore.resp.RespError` values, never raised, matching
how a Redis server answers a bad command without dying.
"""

from __future__ import annotations

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
    if len(args) != 1:
        return _wrong_args("echo")
    return args[0]


def cmd_set(store: DataStore, args: list[bytes]) -> Any:
    if len(args) == 2:  # plain SET key value: skip option scanning
        store.set(args[0], args[1])
        return OK
    if len(args) < 2:
        return _wrong_args("set")
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
    if len(args) != 2:
        return _wrong_args("setnx")
    key, value = args
    if store.exists(key):
        return 0
    store.set(key, value)
    return 1


def cmd_get(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("get")
    return store.get(args[0])


def cmd_getset(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("getset")
    old = store.get(args[0])
    store.set(args[0], args[1])
    return old


def cmd_mget(store: DataStore, args: list[bytes]) -> Any:
    if not args:
        return _wrong_args("mget")
    return [store.get(key) for key in args]


def cmd_mset(store: DataStore, args: list[bytes]) -> Any:
    if not args or len(args) % 2:
        return _wrong_args("mset")
    for i in range(0, len(args), 2):
        store.set(args[i], args[i + 1])
    return OK


def cmd_del(store: DataStore, args: list[bytes]) -> Any:
    if not args:
        return _wrong_args("del")
    return store.delete(*args)


def cmd_exists(store: DataStore, args: list[bytes]) -> Any:
    if not args:
        return _wrong_args("exists")
    return store.exists(*args)


def cmd_expire(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("expire")
    return int(store.expire(args[0], _parse_int(args[1])))


def cmd_ttl(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("ttl")
    return store.ttl(args[0])


def cmd_persist(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("persist")
    return int(store.persist(args[0]))


def cmd_incr(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("incr")
    return store.incrby(args[0], 1)


def cmd_decr(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("decr")
    return store.incrby(args[0], -1)


def cmd_incrby(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("incrby")
    return store.incrby(args[0], _parse_int(args[1]))


def cmd_decrby(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("decrby")
    return store.incrby(args[0], -_parse_int(args[1]))


def cmd_append(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("append")
    return store.append(args[0], args[1])


def cmd_strlen(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("strlen")
    return store.strlen(args[0])


def cmd_keys(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("keys")
    return store.keys(args[0])


def cmd_dbsize(store: DataStore, args: list[bytes]) -> Any:
    if args:
        return _wrong_args("dbsize")
    return store.dbsize()


def cmd_flushall(store: DataStore, args: list[bytes]) -> Any:
    store.flushall()
    return OK


_NO_PERSISTENCE = RespError(
    "ERR persistence is not configured (start the server with a data dir)"
)


def cmd_save(store: DataStore, args: list[bytes]) -> Any:
    """SAVE: synchronous checkpoint (snapshot + AOF rotation)."""
    if args:
        return _wrong_args("save")
    persist = store.persistence
    if persist is None:
        return _NO_PERSISTENCE
    if not persist.checkpoint(background=False):
        return RespError("ERR Background save already in progress")
    return OK


def cmd_bgsave(store: DataStore, args: list[bytes]) -> Any:
    """BGSAVE: materialize under the lock, serialize in a thread."""
    if args:
        return _wrong_args("bgsave")
    persist = store.persistence
    if persist is None:
        return _NO_PERSISTENCE
    if not persist.checkpoint(background=True):
        return RespError("ERR Background save already in progress")
    return SimpleString("Background saving started")


def cmd_bgrewriteaof(store: DataStore, args: list[bytes]) -> Any:
    """BGREWRITEAOF: a checkpoint *is* the rewrite — the new base
    snapshot carries exactly the live keys and the fresh incremental
    log starts empty, so the on-disk footprint is proportional to the
    keyspace again no matter how much history the old log held."""
    if args:
        return _wrong_args("bgrewriteaof")
    persist = store.persistence
    if persist is None:
        return _NO_PERSISTENCE
    if not persist.checkpoint(background=True):
        return RespError("ERR Background append only file rewriting "
                         "already in progress")
    return SimpleString("Background append only file rewriting started")


def cmd_lastsave(store: DataStore, args: list[bytes]) -> Any:
    if args:
        return _wrong_args("lastsave")
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
    if not args:
        return _wrong_args("slowlog")
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
    if len(args) < 2:
        return _wrong_args("config")
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
    if not args:
        return _wrong_args("memory")
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
    if not args:
        return _wrong_args("cluster")
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
    if len(args) != 1:
        return _wrong_args("type")
    name = store.type_of(args[0])
    return SimpleString((name or b"none").decode())


def cmd_getdel(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("getdel")
    return store.getdel(args[0])


def cmd_getrange(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 3:
        return _wrong_args("getrange")
    return store.getrange(args[0], _parse_int(args[1]), _parse_int(args[2]))


def cmd_setrange(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 3:
        return _wrong_args("setrange")
    return store.setrange(args[0], _parse_int(args[1]), args[2])


def cmd_setex(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 3:
        return _wrong_args("setex")
    store.set(args[0], args[2], ex=_parse_int(args[1]))
    return OK


def cmd_psetex(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 3:
        return _wrong_args("psetex")
    store.set(args[0], args[2], ex=_parse_int(args[1]) / 1000.0)
    return OK


def cmd_rename(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("rename")
    try:
        store.rename(args[0], args[1])
    except KeyError:
        return RespError("ERR no such key")
    return OK


def cmd_renamenx(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("renamenx")
    try:
        return int(store.renamenx(args[0], args[1]))
    except KeyError:
        return RespError("ERR no such key")


def cmd_randomkey(store: DataStore, args: list[bytes]) -> Any:
    if args:
        return _wrong_args("randomkey")
    return store.randomkey()


def cmd_scan(store: DataStore, args: list[bytes]) -> Any:
    if not args:
        return _wrong_args("scan")
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
    if len(args) != 2:
        return _wrong_args("expireat")
    return int(store.expireat(args[0], _parse_int(args[1])))


def cmd_pttl(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("pttl")
    return store.pttl(args[0])


def cmd_hset(store: DataStore, args: list[bytes]) -> Any:
    if len(args) < 3 or len(args) % 2 == 0:
        return _wrong_args("hset")
    mapping = dict(zip(args[1::2], args[2::2]))
    return store.hset(args[0], mapping)


def cmd_hget(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("hget")
    return store.hget(args[0], args[1])


def cmd_hdel(store: DataStore, args: list[bytes]) -> Any:
    if len(args) < 2:
        return _wrong_args("hdel")
    return store.hdel(args[0], *args[1:])


def cmd_hlen(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("hlen")
    return store.hlen(args[0])


def cmd_hkeys(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("hkeys")
    return store.hkeys(args[0])


def cmd_hvals(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("hvals")
    return store.hvals(args[0])


def cmd_hgetall(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("hgetall")
    flat: list[bytes] = []
    for fld, value in store.hgetall(args[0]).items():
        flat.append(fld)
        flat.append(value)
    return flat


def cmd_hexists(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("hexists")
    return int(store.hexists(args[0], args[1]))


def cmd_hincrby(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 3:
        return _wrong_args("hincrby")
    return store.hincrby(args[0], args[1], _parse_int(args[2]))


def cmd_lpush(store: DataStore, args: list[bytes]) -> Any:
    if len(args) < 2:
        return _wrong_args("lpush")
    return store.lpush(args[0], *args[1:])


def cmd_rpush(store: DataStore, args: list[bytes]) -> Any:
    if len(args) < 2:
        return _wrong_args("rpush")
    return store.rpush(args[0], *args[1:])


def cmd_lpop(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("lpop")
    return store.lpop(args[0])


def cmd_rpop(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("rpop")
    return store.rpop(args[0])


def cmd_llen(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 1:
        return _wrong_args("llen")
    return store.llen(args[0])


def cmd_lrange(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 3:
        return _wrong_args("lrange")
    return store.lrange(args[0], _parse_int(args[1]), _parse_int(args[2]))


def cmd_lindex(store: DataStore, args: list[bytes]) -> Any:
    if len(args) != 2:
        return _wrong_args("lindex")
    return store.lindex(args[0], _parse_int(args[1]))


# ----------------------------------------------------------------------
# replication
# ----------------------------------------------------------------------

#: commands a read-only replica refuses (exact Redis wording — typed
#: clients key off the READONLY prefix)
READONLY_MESSAGE = "READONLY You can't write against a read only replica."
_READONLY = RespError(READONLY_MESSAGE)

#: every command whose handler can mutate the keyspace; the replica
#: gate checks the upper-cased name against this set
_WRITE_NAMES = frozenset((
    b"SET", b"SETNX", b"GETSET", b"MSET", b"DEL", b"EXPIRE", b"EXPIREAT",
    b"PERSIST", b"INCR", b"DECR", b"INCRBY", b"DECRBY", b"APPEND",
    b"FLUSHALL", b"GETDEL", b"SETRANGE", b"SETEX", b"PSETEX", b"RENAME",
    b"RENAMENX", b"HSET", b"HDEL", b"HINCRBY", b"LPUSH", b"RPUSH",
    b"LPOP", b"RPOP",
))


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
    if len(args) != 2:
        return _wrong_args("wait")
    _parse_int(args[0])
    _parse_int(args[1])
    repl = store.repl
    if repl is None:
        return 0
    return repl.acked_by(repl.master_repl_offset)


COMMANDS: dict[bytes, Handler] = {
    b"PING": cmd_ping,
    b"ECHO": cmd_echo,
    b"SET": cmd_set,
    b"SETNX": cmd_setnx,
    b"GET": cmd_get,
    b"GETSET": cmd_getset,
    b"MGET": cmd_mget,
    b"MSET": cmd_mset,
    b"DEL": cmd_del,
    b"EXISTS": cmd_exists,
    b"EXPIRE": cmd_expire,
    b"TTL": cmd_ttl,
    b"PERSIST": cmd_persist,
    b"INCR": cmd_incr,
    b"DECR": cmd_decr,
    b"INCRBY": cmd_incrby,
    b"DECRBY": cmd_decrby,
    b"APPEND": cmd_append,
    b"STRLEN": cmd_strlen,
    b"KEYS": cmd_keys,
    b"DBSIZE": cmd_dbsize,
    b"FLUSHALL": cmd_flushall,
    b"SAVE": cmd_save,
    b"BGSAVE": cmd_bgsave,
    b"BGREWRITEAOF": cmd_bgrewriteaof,
    b"LASTSAVE": cmd_lastsave,
    b"INFO": cmd_info,
    b"SLOWLOG": cmd_slowlog,
    b"CONFIG": cmd_config,
    b"MEMORY": cmd_memory,
    b"CLUSTER": cmd_cluster,
    b"TYPE": cmd_type,
    b"GETDEL": cmd_getdel,
    b"GETRANGE": cmd_getrange,
    b"SETRANGE": cmd_setrange,
    b"SETEX": cmd_setex,
    b"PSETEX": cmd_psetex,
    b"RENAME": cmd_rename,
    b"RENAMENX": cmd_renamenx,
    b"RANDOMKEY": cmd_randomkey,
    b"SCAN": cmd_scan,
    b"EXPIREAT": cmd_expireat,
    b"PTTL": cmd_pttl,
    b"HSET": cmd_hset,
    b"HGET": cmd_hget,
    b"HDEL": cmd_hdel,
    b"HLEN": cmd_hlen,
    b"HKEYS": cmd_hkeys,
    b"HVALS": cmd_hvals,
    b"HGETALL": cmd_hgetall,
    b"HEXISTS": cmd_hexists,
    b"HINCRBY": cmd_hincrby,
    b"LPUSH": cmd_lpush,
    b"RPUSH": cmd_rpush,
    b"LPOP": cmd_lpop,
    b"RPOP": cmd_rpop,
    b"LLEN": cmd_llen,
    b"LRANGE": cmd_lrange,
    b"LINDEX": cmd_lindex,
    b"REPLICAOF": cmd_replicaof,
    b"PSYNC": cmd_psync,
    b"REPLCONF": cmd_replconf,
    b"WAIT": cmd_wait,
}


# Exact-bytes handler lookup: clients overwhelmingly send a command name
# in one fixed case, so resolving it through `.upper()` allocates a fresh
# bytes object per command. The cache is seeded with the canonical upper
# and lower spellings and learns other casings on first sight (bounded,
# and only for names that resolve — garbage can't grow it).
_HANDLERS: dict[bytes, Handler] = {}
for _name, _handler in COMMANDS.items():
    _HANDLERS[_name] = _handler
    _HANDLERS[_name.lower()] = _handler
_HANDLERS_MAX = 4 * len(_HANDLERS)


def lookup(name: bytes) -> Handler | None:
    """Resolve a command name (any casing) to its handler."""
    handler = _HANDLERS.get(name)
    if handler is None:
        handler = COMMANDS.get(name.upper())
        if handler is not None and len(_HANDLERS) < _HANDLERS_MAX:
            _HANDLERS[name] = handler
    return handler


_EMPTY_CMD = RespError("ERR empty command")


def dispatch(store: DataStore, argv: list[bytes]) -> Any:
    """Execute one parsed command vector against the store."""
    if not argv:
        return _EMPTY_CMD
    # cluster gate: a shard answers MOVED for keys outside its slot
    # range before any execution. Standalone stores pay one attribute
    # load and a None check per command — nothing else.
    if store.cluster is not None:
        redirect = store.cluster.check(argv)
        if redirect is not None:
            return redirect
    name = argv[0]
    # replica gate: a read-only replica refuses writes before any
    # execution. Non-replicating stores pay one attribute load and a
    # None check per command — the same bargain as the cluster gate.
    repl = store.repl
    if repl is not None and repl.role == "replica":
        if name.upper() in _WRITE_NAMES:
            return _READONLY
    try:
        # GET/SET dominate cache workloads; their common shapes skip
        # the handler indirection and argv[1:] slice entirely (still
        # inside the try so WRONGTYPE/OOM containment is identical)
        if name == b"GET":
            if len(argv) == 2:
                return store.get(argv[1])
        elif name == b"SET" and len(argv) == 3:
            store.set(argv[1], argv[2])
            return OK
        handler = _HANDLERS.get(name) or lookup(name)
        if handler is None:
            return RespError(
                f"ERR unknown command "
                f"'{name.decode(errors='backslashreplace')}'"
            )
        return handler(store, argv[1:])
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
    except ValueError as exc:
        return RespError(f"ERR {exc}")
    except TypeError as exc:
        return RespError(f"ERR {exc}")
