"""The Soft Memory Allocator (SMA) — the paper's core contribution.

One SMA runs inside each participating process. It:

* hands each registered Soft Data Structure an isolated heap of pages
  (section 3.1's per-SDS-heap policy that balances frees-per-page against
  space waste);
* maintains the process-global free pool of pages and the soft budget
  granted by the Soft Memory Daemon;
* serves ``soft_malloc``/``soft_free``, growing the budget through the
  daemon when the pool runs dry;
* services reclamation demands with the two-tier protocol: unused budget
  first, then pooled pages, then SDS-chosen allocation frees (lowest
  priority context first), invoking the application's last-chance
  callback on every victim;
* tracks released virtual pages and re-backs them before extending any
  heap, like the prototype (section 4).
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.core.budget import BudgetLedger
from repro.core.context import PlacerFactory, ReclaimCallback, SdsContext
from repro.core.errors import (
    ProtocolError,
    SoftMemoryDegraded,
    SoftMemoryDenied,
)
from repro.core.freepool import FreePool
from repro.core.groups import GroupRegistry
from repro.core.pointer import SoftPtr
from repro.core.reclaim import ReclamationStats
from repro.core.softref import ReferenceQueue, ReferenceRegistry, SoftReference
from repro.mem.page import Page
from repro.mem.physical import PhysicalMemory
from repro.mem.virtual import VirtualAddressSpace
from repro.util.units import PAGE_SIZE, bytes_to_pages


class DaemonClient(Protocol):
    """What the SMA needs from its connection to the daemon.

    ``request`` asks for ``pages`` more budget and returns the granted
    amount (the daemon may over- or under-grant); it raises
    :class:`~repro.core.errors.SoftMemoryDenied` when reclamation could
    not make room. ``notify_release`` tells the daemon the process
    voluntarily gave back budget.
    """

    def request(self, pages: int) -> int: ...

    def notify_release(self, pages: int) -> None: ...


class _UnlimitedDaemon:
    """Stand-in client for standalone use (tests, single-process tools).

    Grants everything: equivalent to a machine with no competing soft
    memory users.
    """

    def request(self, pages: int) -> int:
        return pages

    def notify_release(self, pages: int) -> None:
        return None


class SmaStats:
    """Lifetime counters (consumed by benchmarks and the simulators)."""

    __slots__ = (
        "allocations",
        "frees",
        "daemon_requests",
        "batch_denials",
        "pages_mapped",
        "pages_released",
        "pages_rebacked",
        "reclamations",
        "degraded_denials",
        "demotions",
    )

    def __init__(self) -> None:
        self.allocations = 0
        self.frees = 0
        self.daemon_requests = 0
        #: opportunistic batched asks that were denied and retried exact
        self.batch_denials = 0
        self.pages_mapped = 0
        self.pages_released = 0
        self.pages_rebacked = 0
        self.reclamations = 0
        #: budget asks refused locally while the daemon was unreachable
        self.degraded_denials = 0
        #: allocations relocated at compressed size (second-chance tier)
        self.demotions = 0


class SoftMemoryAllocator:
    """Per-process soft memory allocator.

    Parameters
    ----------
    daemon:
        Client connection to the machine's Soft Memory Daemon. ``None``
        means standalone mode with an unlimited budget.
    physical:
        The machine's frame pool. ``None`` runs without frame accounting
        (pure-speed benchmarking).
    name:
        Debugging tag, usually the process name.
    initial_budget_pages:
        Budget assigned by the SMD at startup (section 3.1).
    request_batch_pages:
        Minimum budget request size. Requests are batched so daemon
        round-trips amortize over many allocations — the effect the
        paper's case (2) measures.
    """

    def __init__(
        self,
        daemon: DaemonClient | None = None,
        *,
        physical: PhysicalMemory | None = None,
        name: str = "proc",
        initial_budget_pages: int = 0,
        request_batch_pages: int = 64,
        placer_factory: PlacerFactory | None = None,
    ) -> None:
        if request_batch_pages < 1:
            raise ValueError("request_batch_pages must be at least 1")
        self.name = name
        #: heap core used by every context (None = textbook PagePlacer;
        #: pass e.g. ``SizeClassPlacer`` for the TCMalloc-style core)
        self._placer_factory = placer_factory
        self._daemon: DaemonClient = daemon or _UnlimitedDaemon()
        self._vas = (
            VirtualAddressSpace(physical, name=name)
            if physical is not None
            else None
        )
        self.budget = BudgetLedger(initial_budget_pages)
        self.pool = FreePool()
        self.groups = GroupRegistry()
        self.refs = ReferenceRegistry()
        self._contexts: list[SdsContext] = []
        self._request_batch = request_batch_pages
        self.stats = SmaStats()
        self._active_stats: ReclamationStats | None = None
        self.last_reclamation: ReclamationStats | None = None
        #: local-only degraded mode: daemon unreachable, no new grants
        self._degraded = False

    def connect_daemon(self, client: DaemonClient) -> None:
        """Attach (or replace) the daemon connection.

        Called by :meth:`repro.daemon.smd.SoftMemoryDaemon.register`;
        must happen before the process allocates any soft memory.
        """
        if self.budget.granted or self.budget.held:
            raise ProtocolError(
                "cannot swap daemon connection after allocating soft memory"
            )
        self._daemon = client

    # ------------------------------------------------------------------
    # degraded mode (daemon unreachable)
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the daemon is unreachable (local-only mode)."""
        return self._degraded

    def mark_degraded(self, degraded: bool) -> None:
        """Flip local-only degraded mode.

        Called by the RPC agent on connection loss/reconnect. While
        degraded, existing soft memory stays fully usable (budget
        headroom and pooled pages included) but asks that would need a
        new daemon grant fail fast with
        :class:`~repro.core.errors.SoftMemoryDegraded` instead of
        touching the dead connection. Deliberately lock-free — the
        transition may happen while an application thread holds the
        allocator lock blocked on the daemon.
        """
        self._degraded = bool(degraded)

    # ------------------------------------------------------------------
    # contexts
    # ------------------------------------------------------------------

    def create_context(
        self,
        name: str,
        priority: int = 0,
        callback: ReclaimCallback | None = None,
    ) -> SdsContext:
        """Register a new SDS with its own heap and priority."""
        context = SdsContext(
            name=name,
            priority=priority,
            callback=callback,
            placer_factory=self._placer_factory,
        )
        self._contexts.append(context)
        return context

    def remove_context(self, context: SdsContext) -> None:
        """Unregister an SDS, pooling its pages (structure destroyed).

        All live allocations in the context must already be freed.
        """
        if context.heap.live_allocations:
            raise ProtocolError(
                f"context {context.name!r} still has "
                f"{context.heap.live_allocations} live allocations"
            )
        self._contexts.remove(context)
        self.pool.put(context.heap.harvest_free_pages())

    @property
    def contexts(self) -> list[SdsContext]:
        return list(self._contexts)

    # ------------------------------------------------------------------
    # allocation API
    # ------------------------------------------------------------------

    def soft_malloc(
        self, size: int, context: SdsContext, payload: Any = None
    ) -> SoftPtr:
        """Allocate ``size`` bytes of soft memory inside ``context``.

        Grows the context's heap from the free pool, then from budget
        headroom, then by requesting more budget from the daemon. Raises
        :class:`~repro.core.errors.SoftMemoryDenied` only when the daemon
        cannot reclaim enough memory machine-wide.
        """
        ptr = context.heap.allocate(size, context, payload)
        if ptr is None:
            self._provision(context, size)
            ptr = context.heap.allocate(size, context, payload)
            if ptr is None:
                raise ProtocolError(
                    f"provisioning did not make room for {size} bytes"
                )
        self.stats.allocations += 1
        return ptr

    def soft_free(self, ptr: SoftPtr) -> None:
        """Free a live soft allocation (normal, application-driven path)."""
        self.groups.forget(ptr)
        self.refs.forget(ptr)
        heap = ptr.context.heap
        heap.free(ptr)
        self.stats.frees += 1
        # Periodic transfer of idle pages back to the global free pool.
        if heap.should_release_slack():
            self.pool.put(heap.harvest_free_pages())

    def soft_resize(
        self, ptr: SoftPtr, new_size: int, payload: Any = None
    ) -> SoftPtr:
        """Resize a live allocation to ``new_size`` holding ``payload``.

        In place when the page has room (:meth:`SdsHeap.resize`), else
        decision-equivalent to :meth:`soft_free` followed by
        :meth:`soft_malloc` in the same context — the old extent is
        freed, idle pages go back to the pool, then the new extent is
        placed, provisioning if it must. Either way it is counted as one
        free and one allocation. What differs is identity: ``ptr``
        survives, so soft references and group membership follow the
        handle to the new contents; where it stands in age order is the
        SDS's to say (``SoftDict.upsert`` makes it its newest).

        If provisioning is denied the exception propagates and the
        allocation is gone, exactly as if the ``soft_malloc`` half had
        failed: ``ptr`` is dead, its references are dropped without
        queue delivery (an explicit free, not a reclamation).
        """
        heap = ptr.context.heap
        placed = heap.resize(ptr, new_size, payload)
        if not placed:
            # the old extent is freed and the allocation unplaced: either
            # slack is due (None) and nothing was tried yet, or the scan
            # window was walked and missed — it is not walked again
            if placed is None:
                self.pool.put(heap.harvest_free_pages())
            if not (placed is None and heap.resize(ptr, new_size, payload)):
                self._provision_unplaced(ptr, new_size)
                if not heap.resize(ptr, new_size, payload):
                    raise ProtocolError(
                        f"provisioning did not make room for {new_size} bytes"
                    )
        self.stats.frees += 1
        self.stats.allocations += 1
        return ptr

    def _provision_unplaced(self, ptr: SoftPtr, new_size: int) -> None:
        """Provision for an allocation a resize holds unplaced."""
        ptr.pins += 1  # the daemon may reclaim from this very heap
        try:
            self._provision(ptr.context, new_size)
        except Exception:
            if ptr.valid:  # nowhere to put it: the allocation is gone
                ptr.context.heap.free(ptr)
            self.groups.forget(ptr)
            self.refs.forget(ptr)
            self.stats.frees += 1
            raise
        finally:
            ptr.pins -= 1

    def soft_demote(
        self, ptr: SoftPtr, new_size: int, payload: Any = None
    ) -> SoftPtr:
        """Second-chance demotion: move a live allocation to a smaller
        extent holding ``payload``. Cannot fail.

        The old extent is freed and the new one placed inside pages the
        heap already owns (:meth:`SdsHeap.relocate`) — no pool draw, no
        budget request, no daemon round-trip — so it is safe inside a
        reclamation handler, where it can only *return* bytes to the
        heap. As with :meth:`soft_resize`, ``ptr`` survives: references
        and groups follow the handle.
        """
        if not ptr.valid:
            raise ProtocolError("demoting a dead allocation")
        if new_size >= ptr.size:
            raise ValueError(
                f"demotion must shrink: {new_size} >= {ptr.size}"
            )
        saved = ptr.size - new_size
        ptr.context.heap.relocate(ptr, new_size, payload)
        self.stats.demotions += 1
        if self._active_stats is not None:
            self._active_stats.allocations_demoted += 1
            self._active_stats.bytes_demoted += saved
        return ptr

    def soft_promote(
        self, ptr: SoftPtr, new_size: int, payload: Any = None
    ) -> bool:
        """Undo a demotion — if the heap owns the room (the read path).

        The mirror of :meth:`soft_demote`: the allocation moves to a
        ``new_size`` extent only where one can be placed without new
        pages. ``False`` means nothing changed: there was no such room,
        or a reclamation on another thread already took the allocation.
        Only writes grow a heap; a read never provisions.
        """
        return ptr.valid and ptr.context.heap.relocate(
            ptr, new_size, payload
        )

    def _provision(self, context: SdsContext, size: int) -> None:
        """Add the pages whose lack made the heap miss ``size`` bytes."""
        needed = context.heap.pages_needed(size)
        pages = self.pool.take(needed)
        shortfall = needed - len(pages)
        if shortfall > 0:
            try:
                self._ensure_budget(shortfall)
            except BaseException:  # denied: the pool keeps what it held
                self.pool.put(pages)
                raise
            pages.extend(self._map_pages(shortfall))
        context.heap.add_pages(pages)

    def _ensure_budget(self, pages: int) -> None:
        """Grow the budget through the daemon until headroom covers ``pages``.

        Asks for a batch to amortize round-trips, but falls back to the
        exact missing amount if the batched ask is denied — near the
        capacity edge the opportunistic batch may not fit even though
        the actual need does, and the daemon is "designed to almost
        never deny".
        """
        missing = pages - self.budget.headroom
        if missing <= 0:
            return
        if self._degraded:
            self.stats.degraded_denials += 1
            raise SoftMemoryDegraded(0, missing)
        ask = max(missing, self._request_batch)
        self.stats.daemon_requests += 1
        try:
            granted = self._daemon.request(ask)
        except SoftMemoryDenied:
            if ask == missing:
                raise
            self.stats.batch_denials += 1
            self.stats.daemon_requests += 1
            granted = self._daemon.request(missing)
        if granted < missing:
            raise SoftMemoryDenied(0, ask, granted)
        self.budget.grant(granted)

    def soft_reference(
        self,
        ptr: SoftPtr,
        queue: "ReferenceQueue | None" = None,
        tag: object = None,
    ) -> SoftReference:
        """Create a managed-language-style reference to ``ptr``.

        ``ref.get()`` returns the payload or ``None`` (never raises);
        if ``queue`` is given, the reference is delivered there when
        reclamation clears it (section 7's language-integration shape).
        """
        return self.refs.create(ptr, queue=queue, tag=tag)

    def reserve_budget(self, pages: int) -> int:
        """Pre-reserve budget headroom from the daemon.

        Useful before a known burst: future allocations draw on the
        headroom without daemon traffic, and until used the headroom is
        reclaimable from this process with zero disturbance. Returns the
        granted amount; raises
        :class:`~repro.core.errors.SoftMemoryDenied` like any request.
        """
        if pages <= 0:
            raise ValueError(f"reservation must be positive: {pages}")
        if self._degraded:
            self.stats.degraded_denials += 1
            raise SoftMemoryDegraded(0, pages)
        self.stats.daemon_requests += 1
        granted = self._daemon.request(pages)
        self.budget.grant(granted)
        return granted

    def _map_pages(self, count: int) -> list[Page]:
        """Back ``count`` new pages with frames, re-backing released pages."""
        self.budget.acquire(count)
        if self._vas is not None:
            rebacked = min(count, self._vas.unbacked_pages)
            self._vas.map_pages(count)
            self.stats.pages_rebacked += rebacked
        self.stats.pages_mapped += count
        return [Page(owner=self.name) for _ in range(count)]

    def _unmap_pages(self, pages: int) -> None:
        """Return ``pages`` frames to the machine and shrink the budget."""
        if self._vas is not None:
            self._vas.release_any(pages)
        self.budget.release(pages)
        self.budget.revoke(pages)
        self.stats.pages_released += pages

    # ------------------------------------------------------------------
    # reclamation (called by the daemon)
    # ------------------------------------------------------------------

    def reclaim(self, demand_pages: int) -> ReclamationStats:
        """Service a reclamation demand from the daemon.

        Ordered per section 3.1: excess budget, then the global free
        pool, then SDS allocation frees from the lowest-priority context
        upward. Returns the accounting of what was surrendered; the
        demand may be under-fulfilled if the process simply does not
        hold enough soft memory.
        """
        if demand_pages < 0:
            raise ValueError(f"demand must be non-negative: {demand_pages}")
        stats = ReclamationStats(demanded_pages=demand_pages)
        self._active_stats = stats
        try:
            remaining = demand_pages
            remaining -= self._surrender_budget(remaining, stats)
            remaining -= self._surrender_pool(remaining, stats)
            if remaining > 0:
                self._surrender_from_sds(remaining, stats)
        finally:
            self._active_stats = None
        self.stats.reclamations += 1
        self.last_reclamation = stats
        return stats

    def reclaim_flexible(self, demand_pages: int) -> ReclamationStats:
        """Zero-disturbance reclamation only: budget and pool, no SDS frees.

        This is what a VM-ballooning-style mechanism can do (section 6);
        the full :meth:`reclaim` continues into live data structures.
        """
        if demand_pages < 0:
            raise ValueError(f"demand must be non-negative: {demand_pages}")
        stats = ReclamationStats(demanded_pages=demand_pages)
        remaining = demand_pages
        remaining -= self._surrender_budget(remaining, stats)
        self._surrender_pool(remaining, stats)
        self.last_reclamation = stats
        return stats

    def _surrender_budget(self, want: int, stats: ReclamationStats) -> int:
        give = min(want, self.budget.unused)
        if give > 0:
            self.budget.revoke(give)
            stats.pages_from_budget = give
        return give

    def _surrender_pool(self, want: int, stats: ReclamationStats) -> int:
        pages = self.pool.take(want) if want > 0 else []
        if pages:
            self._unmap_pages(len(pages))
            stats.pages_from_pool = len(pages)
        return len(pages)

    def _surrender_from_sds(self, want: int, stats: ReclamationStats) -> int:
        """Draft SDSs lowest-priority-first until the quota is met.

        Adaptive rather than statically planned: a context may yield
        less than its page count suggests (no reclaim handler installed,
        pinned allocations, fragmentation), and whatever it falls short
        by spills over to the next context.
        """
        surrendered = 0
        ordered = sorted(
            self._contexts, key=lambda c: (c.priority, c.context_id)
        )
        for context in ordered:
            if surrendered >= want:
                break
            if context.reclaimable_pages == 0:
                continue
            got = self._reclaim_from_context(
                context, want - surrendered, stats
            )
            surrendered += got
        return surrendered

    def _reclaim_from_context(
        self, context: SdsContext, quota: int, stats: ReclamationStats
    ) -> int:
        """Harvest up to ``quota`` whole pages from one context."""
        context.reclaim_demands += 1
        stats.contexts_touched += 1
        harvested = context.heap.harvest_free_pages(quota)
        shortfall = quota - len(harvested)
        if shortfall > 0 and context.reclaim_handler is not None:
            context.reclaim_handler(shortfall)
            harvested.extend(
                context.heap.harvest_free_pages(shortfall)
            )
        if harvested:
            self._unmap_pages(len(harvested))
            stats.pages_from_sds += len(harvested)
            stats.per_context.append((context.name, len(harvested)))
        return len(harvested)

    def reclaim_free(self, ptr: SoftPtr) -> None:
        """Free an allocation on the reclamation path.

        Differs from :meth:`soft_free` in that the application's
        last-chance callback fires first ("Before a list element is
        freed, the SMA invokes a developer-defined callback on the
        memory") and grouped companion allocations die too.
        A dead ``ptr`` is left alone.
        """
        if not ptr.valid:
            return
        companions = self.groups.companions(ptr)
        self._reclaim_one(ptr)
        for other in companions:
            self._reclaim_one(other)

    def _reclaim_one(self, ptr: SoftPtr) -> None:
        context = ptr.context
        if context.callback is not None:
            # A buggy callback in the victim must not abort reclamation:
            # the daemon (and through it some other process's allocation)
            # is waiting on these pages. Contain, count, continue.
            try:
                context.callback(ptr.payload)
            except Exception:
                context.callback_errors += 1
                if self._active_stats is not None:
                    self._active_stats.callback_errors += 1
            if self._active_stats is not None:
                self._active_stats.callbacks_invoked += 1
        self.groups.forget(ptr)
        size = ptr.size
        context.heap.free(ptr)
        self.refs.notify_reclaimed(ptr)
        context.allocations_reclaimed += 1
        if self._active_stats is not None:
            self._active_stats.allocations_freed += 1
            self._active_stats.bytes_freed += size

    # ------------------------------------------------------------------
    # voluntary shrink and inspection
    # ------------------------------------------------------------------

    def return_excess(self, keep_pool_pages: int = 0) -> int:
        """Voluntarily hand pooled pages and unused budget back.

        Returns the number of budget pages surrendered. Keeping the
        machine's unassigned soft capacity high lets the daemon approve
        other processes' requests with zero disturbance.
        """
        for context in self._contexts:
            self.pool.put(context.heap.harvest_free_pages())
        surplus_pool = max(0, self.pool.page_count - keep_pool_pages)
        pages = self.pool.take(surplus_pool)
        if pages:
            self._unmap_pages(len(pages))
        unused = self.budget.unused
        if unused:
            self.budget.revoke(unused)
        total = len(pages) + unused
        if total:
            self._daemon.notify_release(total)
        return total

    def destroy(self) -> None:
        """Process-exit teardown: drop every frame without callbacks.

        A killed process does not get last-chance callbacks — its memory
        simply vanishes (which is why the paper prefers reclamation).
        The SMA must not be used afterwards.
        """
        if self._vas is not None:
            self._vas.destroy()
        self.budget.release(self.budget.held)
        self.budget.revoke(self.budget.granted)
        self._contexts.clear()
        self.pool.drain()

    @property
    def held_pages(self) -> int:
        """Soft pages currently held (heap + pool)."""
        return self.budget.held

    @property
    def soft_bytes(self) -> int:
        """Physical bytes of soft memory held."""
        return self.budget.held * PAGE_SIZE

    @property
    def live_bytes(self) -> int:
        """Bytes inside live allocations (excludes page slack)."""
        return sum(c.heap.live_bytes for c in self._contexts)

    @property
    def heap_bloat(self) -> float:
        """Heap pages x page size / live bytes (0 with nothing live):
        how many bytes of page the heaps hold per byte they place."""
        live = self.live_bytes
        if not live:
            return 0.0
        pages = sum(c.heap.page_count for c in self._contexts)
        return pages * PAGE_SIZE / live

    @property
    def stranded_bytes(self) -> int:
        """Free bytes in heap pages that hold a live allocation: room no
        reclamation can hand back as a page."""
        return sum(c.heap.stranded_bytes for c in self._contexts)

    @property
    def compressed_bytes(self) -> int:
        """Live bytes held in compressed second-chance tiers."""
        return sum(c.compressed_bytes for c in self._contexts)

    @property
    def compressed_pages(self) -> int:
        """Whole-page equivalent of the compressed tiers (rounded up).

        The daemon's compressed-aware weighting prefers targets whose
        soft footprint is already compressed — those pages surrender
        bytes with the least disturbance.
        """
        return bytes_to_pages(self.compressed_bytes)

    @property
    def live_allocations(self) -> int:
        return sum(c.heap.live_allocations for c in self._contexts)

    def reclaimable_pages(self) -> int:
        """Everything a maximal demand could extract from this process."""
        return self.budget.unused + self.budget.held

    def flexibility(self) -> int:
        """Pages surrenderable with zero disturbance (budget + pool).

        The daemon biases reclamation toward flexible targets
        (section 4: it prefers processes "in a more flexible memory
        state").
        """
        return self.budget.unused + self.pool.page_count

    def check_invariants(self) -> None:
        held = self.pool.page_count + sum(
            c.heap.page_count for c in self._contexts
        )
        assert held == self.budget.held, (
            f"held pages {held} != ledger {self.budget.held}"
        )
        assert self.budget.held <= self.budget.granted
        for context in self._contexts:
            context.heap.check_invariants()

    def __repr__(self) -> str:
        return (
            f"<SMA {self.name!r} held={self.budget.held}p "
            f"granted={self.budget.granted}p contexts={len(self._contexts)}>"
        )
