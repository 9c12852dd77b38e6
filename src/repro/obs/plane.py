"""The serving-plane observability sink and per-layer metric bindings.

:class:`KvObservability` is the one genuinely hot piece of the
observability plane: ``KvServer.pump`` observes every executed command
inline, so the sink is laid out for minimum per-event cost — one
histogram per command name (resolved on first sight, bounded), found
by one dict probe on the exact name bytes, and a slowlog threshold the
loop compares against a local.  Everything else in this module is
*pull*: ``bind_*`` helpers register gauges whose callables read the
existing stats structs (``SmaStats``, ``AgentStats``, the SMD counters,
server counters) only when a snapshot is taken, adding zero cost to the
allocator and daemon hot paths.

Every :class:`~repro.kvstore.store.DataStore` owns a
``KvObservability`` (``store.obs``) shared by all its server
front-ends, which is what the extended ``INFO`` / ``SLOWLOG`` commands
and the ``repro.tools.metrics_dump`` CLI read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    HistSnapshot,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slowlog import Slowlog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sma import SoftMemoryAllocator
    from repro.daemon.smd import SoftMemoryDaemon
    from repro.kvstore.store import DataStore
    from repro.rpc.agent import SmaAgent

#: pipeline batch-size buckets (commands per readable event)
BATCH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: cap on learned command-name casings (mirrors the dispatch cache)
_MAX_CMD_NAMES = 512


class KvObservability:
    """Per-store observability: command latency, batch sizes, slowlog.

    ``commands`` / ``protocol_errors`` are plain ints because commands
    execute on one thread: the server's event loop.
    """

    def __init__(
        self,
        name: str = "kv",
        registry: MetricsRegistry | None = None,
        *,
        slowlog_max_len: int = 128,
        slowlog_threshold_us: int = 10_000,
        latency_bounds: Iterable[float] | None = None,
    ) -> None:
        self.name = name
        self.registry = registry or MetricsRegistry(name)
        self.slowlog = Slowlog(
            max_len=slowlog_max_len, threshold_us=slowlog_threshold_us
        )
        self._bounds = (
            tuple(latency_bounds)
            if latency_bounds is not None
            else DEFAULT_LATENCY_BOUNDS
        )
        #: exact command-name bytes (any casing) -> that command's
        #: histogram; resolved once per name, then O(1) per event
        self._cmd_hists: dict[bytes, Histogram] = {}
        self._slow_s = slowlog_threshold_us / 1e6
        self.commands = 0
        self.protocol_errors = 0
        #: bytes fed to a parser but discarded by an error quarantine
        #: (the poisoned frame and everything buffered behind it)
        self.protocol_dropped_bytes = 0
        #: commands per readable event; the serving loop bumps its
        #: ``tally`` in place, and a read derives the histogram
        self.batch_hist = self.registry.count_histogram(
            "server.pipeline_batch", bounds=BATCH_BOUNDS
        )

    # -- hot path -------------------------------------------------------

    def _learn_command(self, name: bytes, known: bool) -> Histogram:
        """Resolve a command name to its histogram (first sight).

        All casings of one command share one histogram, registered as
        ``cmd.<NAME>.latency``.  The exact-bytes mapping is bounded so
        hostile random casings cannot grow it without limit (they fall
        back to re-resolving, still correct).  ``known`` is the
        caller's word that the name resolves in the command table: a
        name that does not shares the one ``cmd.UNKNOWN.latency``
        series and is never cached, so garbage cannot grow the
        registry either."""
        canonical = name.upper() if known else b"UNKNOWN"
        label = canonical.decode("ascii", errors="backslashreplace")
        hist = self.registry.histogram(
            f"cmd.{label}.latency", bounds=self._bounds
        )
        if known and len(self._cmd_hists) < _MAX_CMD_NAMES:
            self._cmd_hists[name] = hist
            self._cmd_hists.setdefault(canonical, hist)
        return hist

    # -- slowlog config -------------------------------------------------

    @property
    def slowlog_threshold_us(self) -> int:
        return self.slowlog.threshold_us

    def set_slowlog_threshold_us(self, threshold_us: int) -> None:
        self.slowlog.threshold_us = threshold_us
        self._slow_s = threshold_us / 1e6

    # -- read side ------------------------------------------------------

    def command_stats(self) -> dict[str, HistSnapshot]:
        """``COMMAND-NAME -> latency snapshot`` for every seen command."""
        out: dict[str, HistSnapshot] = {}
        for name in self.registry.names():
            if name.startswith("cmd.") and name.endswith(".latency"):
                hist = self.registry.get(name)
                snap = hist.snapshot()
                if snap.count:
                    out[name[len("cmd."):-len(".latency")]] = snap
        return out

    def __repr__(self) -> str:
        return (
            f"<KvObservability {self.name!r} commands={self.commands} "
            f"metrics={len(self.registry)}>"
        )


# ----------------------------------------------------------------------
# pull-gauge bindings (zero hot-path cost)
# ----------------------------------------------------------------------


def _bind_attrs(
    registry: MetricsRegistry, prefix: str, obj: Any, names: Iterable[str]
) -> None:
    for attr in names:
        registry.gauge(
            f"{prefix}.{attr}", fn=lambda o=obj, a=attr: getattr(o, a)
        )


def bind_sma(
    registry: MetricsRegistry,
    sma: "SoftMemoryAllocator",
    prefix: str = "sma",
) -> None:
    """Expose one SMA's ledgers and lifetime counters as pull gauges."""
    stats = sma.stats
    _bind_attrs(
        registry,
        f"{prefix}.stats",
        stats,
        (
            "allocations",
            "frees",
            "daemon_requests",
            "batch_denials",
            "pages_mapped",
            "pages_released",
            "pages_rebacked",
            "reclamations",
            "degraded_denials",
        ),
    )
    registry.gauge(f"{prefix}.granted_pages", fn=lambda: sma.budget.granted)
    registry.gauge(f"{prefix}.held_pages", fn=lambda: sma.budget.held)
    registry.gauge(f"{prefix}.unused_pages", fn=lambda: sma.budget.unused)
    registry.gauge(f"{prefix}.pool_pages", fn=lambda: sma.pool.page_count)
    registry.gauge(f"{prefix}.live_bytes", fn=lambda: sma.live_bytes)
    registry.gauge(f"{prefix}.heap_bloat", fn=lambda: sma.heap_bloat)
    registry.gauge(
        f"{prefix}.stranded_bytes", fn=lambda: sma.stranded_bytes
    )
    registry.gauge(
        f"{prefix}.live_allocations", fn=lambda: sma.live_allocations
    )
    registry.gauge(f"{prefix}.contexts", fn=lambda: len(sma.contexts))
    registry.gauge(f"{prefix}.degraded", fn=lambda: int(sma.degraded))
    registry.gauge(
        f"{prefix}.callback_errors",
        fn=lambda: sum(c.callback_errors for c in sma.contexts),
    )


def bind_smd(
    registry: MetricsRegistry,
    smd: "SoftMemoryDaemon",
    prefix: str = "smd",
) -> None:
    """Expose the daemon's ledger, counters, and per-process budgets."""
    _bind_attrs(
        registry,
        prefix,
        smd,
        (
            "requests",
            "denials",
            "reclamation_episodes",
            "demands_issued",
            "pages_granted",
            "pages_released",
            "pages_reclaimed",
            "over_reclaimed_pages",
            "capacity_pages",
            "assigned_pages",
            "unassigned_pages",
            "pressure",
        ),
    )
    registry.gauge(f"{prefix}.processes", fn=lambda: len(smd.registry))

    def per_process() -> dict[str, float]:
        out: dict[str, float] = {}
        for record in smd.registry:
            tag = f"{record.name}.{record.pid}"
            out[f"{tag}.granted_pages"] = record.granted_pages
            out[f"{tag}.demands_received"] = record.demands_received
            out[f"{tag}.pages_reclaimed_from"] = record.pages_reclaimed_from
            out[f"{tag}.requests_denied"] = record.requests_denied
        return out

    registry.multi_gauge(f"{prefix}.process", per_process)


def bind_agent(
    registry: MetricsRegistry, agent: "SmaAgent", prefix: str = "rpc"
) -> None:
    """Expose one RPC agent's fault-tolerance counters as pull gauges."""
    _bind_attrs(
        registry,
        prefix,
        agent.stats,
        (
            "round_trips",
            "retries",
            "timeouts",
            "pings_sent",
            "pongs_received",
            "degraded_entries",
            "degraded_seconds",
            "reconnects",
            "resync_pages_shed",
        ),
    )
    registry.gauge(
        f"{prefix}.demands_served", fn=lambda: agent.demands_served
    )
    registry.gauge(f"{prefix}.degraded", fn=lambda: int(agent.degraded))


def bind_store(
    registry: MetricsRegistry, store: "DataStore", prefix: str = "store"
) -> None:
    """Expose the keyspace counters and footprint as pull gauges."""
    _bind_attrs(
        registry,
        f"{prefix}.stats",
        store.stats,
        (
            "hits",
            "misses",
            "keys_set",
            "keys_deleted",
            "expired_keys",
            "reclaimed_keys",
            "oom_denials",
        ),
    )
    registry.gauge(f"{prefix}.keys", fn=lambda: len(store.keyspace))
    registry.gauge(f"{prefix}.soft_bytes", fn=lambda: store.soft_bytes)
    registry.gauge(
        f"{prefix}.traditional_bytes", fn=lambda: store.traditional_bytes
    )


def bind_tier(
    registry: MetricsRegistry, soft_dict: Any, prefix: str = "tier"
) -> Callable[[float], None]:
    """Expose the compressed second-chance tier as pull gauges.

    ``soft_dict`` is a :class:`~repro.kvstore.dict.SoftDict` (typed
    ``Any`` to keep the obs plane import-light).  Returns the
    ``tier.promote_latency`` histogram's ``observe`` — the dict calls
    it with the duration in seconds of each read of a demoted entry
    (inflate, plus re-admission when the heap owns the room), so the
    p99 cost of a stub read is visible next to command latency.
    """
    _bind_attrs(
        registry,
        prefix,
        soft_dict.tier_stats,
        (
            "demotions",
            "promotions",
            "second_chance_drops",
            "displacements",
            "incompressible",
            "promotion_denials",
            "bytes_saved",
        ),
    )
    registry.gauge(
        f"{prefix}.compressed_entries",
        fn=lambda: soft_dict.compressed_entries,
    )
    registry.gauge(
        f"{prefix}.compressed_bytes",
        fn=lambda: soft_dict.compressed_bytes,
    )
    registry.gauge(
        f"{prefix}.enabled", fn=lambda: int(soft_dict.tier.enabled)
    )
    return registry.histogram(
        f"{prefix}.promote_latency", bounds=DEFAULT_LATENCY_BOUNDS
    ).observe


def bind_persistence(
    registry: MetricsRegistry, persist: Any, prefix: str = "persist"
) -> None:
    """Expose the durability plane's counters and ledgers as pull gauges.

    ``persist`` is a :class:`~repro.kvstore.persist.engine.Persistence`
    (typed as ``Any`` to keep the obs plane import-light). The stats
    dataclass fields (``rdb_last_save_time``, ``recovery_truncated_bytes``,
    ...) bind alongside the live properties (``aof_size``,
    ``aof_pending_bytes``, ``fsync_errors``), so INFO and the registry
    snapshot read the same numbers.
    """
    _bind_attrs(
        registry,
        f"{prefix}.stats",
        persist.stats,
        tuple(persist.stats.as_dict()),
    )
    for attr in (
        "aof_size",
        "aof_pending_bytes",
        "fsync_errors",
        "write_errors",
        "generation",
    ):
        registry.gauge(
            f"{prefix}.{attr}", fn=lambda a=attr: getattr(persist, a)
        )
    registry.gauge(
        f"{prefix}.aof_enabled", fn=lambda: int(persist.aof_enabled)
    )
    registry.gauge(
        f"{prefix}.bgsave_in_progress",
        fn=lambda: int(persist.bgsave_in_progress),
    )


def bind_server(
    registry: MetricsRegistry, server: Any, prefix: str = "server"
) -> None:
    """Expose a :class:`~repro.kvstore.tcp.TcpKvServer`'s counters as
    pull gauges.  Rebinding (a new server over the same
    store) points the gauges at the new server.
    """
    _bind_attrs(registry, prefix, server, (
        "connected_clients", "connections_served", "commands_processed",
        "clients_dropped", "batches_executed", "max_batch",
    ))
