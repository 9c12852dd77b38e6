"""The Soft Memory Daemon.

Machine-wide arbiter of soft memory (section 3.3). The daemon owns the
soft capacity ledger: the sum of all processes' granted budgets can
never exceed the machine's soft capacity. Requests are approved from
unassigned capacity when possible; otherwise the daemon runs the
reclamation episode described in sections 3.3-4:

1. rank candidate targets by descending reclamation weight,
2. bias toward targets in a flexible memory state (unused budget or
   pooled pages — little or no disturbance),
3. demand an over-reclaimed amount from each target in turn,
4. stop at the target cap; deny the request if the quota was not met.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator

from repro.core.errors import ProtocolError, SoftMemoryDenied
from repro.daemon.ipc import Channel, SmaDaemonClient
from repro.daemon.policy import (
    SelectionConfig,
    demand_size,
    order_targets,
    proportional_demands,
)
from repro.daemon.registry import ProcessRecord, Registry
from repro.util.eventlog import EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.reclaim import ReclamationStats
    from repro.core.sma import SoftMemoryAllocator

#: a continuation: it yields each demand as ``(target, pages)``, is sent
#: the target's stats and returns the pages granted or surrendered
Steps = Generator[tuple[ProcessRecord, int], "ReclamationStats", int]


def _drive(steps: Steps) -> int:
    """Run ``steps`` to its end; each target answers with its ``reclaim``."""
    try:
        record, pages = next(steps)
        while True:
            record, pages = steps.send(record.sma.reclaim(pages))
    except StopIteration as done:
        return done.value


@dataclass(frozen=True)
class SmdConfig:
    """Daemon configuration; selection knobs live in ``selection``."""

    selection: SelectionConfig = field(default_factory=SelectionConfig)
    #: budget handed to each process at registration (section 3.1 says
    #: the SMA "has a soft memory budget assigned by the SMD upon startup")
    startup_budget_pages: int = 0


class SoftMemoryDaemon:
    """Per-machine soft memory manager."""

    def __init__(
        self,
        soft_capacity_pages: int,
        config: SmdConfig | None = None,
        *,
        event_log: EventLog | None = None,
        time_fn: Callable[[], float] | None = None,
    ) -> None:
        if soft_capacity_pages < 0:
            raise ValueError(
                f"capacity must be non-negative: {soft_capacity_pages}"
            )
        self.capacity_pages = soft_capacity_pages
        self.config = config or SmdConfig()
        self.registry = Registry()
        self.log = event_log if event_log is not None else EventLog()
        self._time_fn = time_fn or (lambda: 0.0)
        # lifetime counters
        self.requests = 0
        self.denials = 0
        self.reclamation_episodes = 0
        self.demands_issued = 0
        #: pages handed out (startup budgets + approved requests)
        self.pages_granted = 0
        #: pages voluntarily returned via release
        self.pages_released = 0
        #: pages surrendered to reclamation demands (incl. trims)
        self.pages_reclaimed = 0
        #: pages reclaimed beyond what an episode actually needed —
        #: the cost of the over-reclaim bias (section 4)
        self.over_reclaimed_pages = 0
        #: budget that evaporated with exiting processes (deregister)
        self.pages_forfeited = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(
        self,
        sma: "SoftMemoryAllocator",
        *,
        traditional_pages: int = 0,
        channel: Channel | None = None,
    ) -> ProcessRecord:
        """Attach a process's SMA to this daemon.

        Wires the SMA's daemon client, applies the startup budget, and
        returns the daemon-side record (whose ``traditional_pages`` the
        caller may update as the process's footprint changes).
        """
        if sma.budget.granted or sma.budget.held:
            raise ProtocolError(
                "SMA must be registered before it allocates soft memory"
            )
        record = ProcessRecord(
            name=sma.name,
            sma=sma,
            channel=channel or Channel(),
            traditional_pages=traditional_pages,
        )
        self.registry.add(record)
        sma.connect_daemon(SmaDaemonClient(self, record.pid, record.channel))
        startup = min(
            self.config.startup_budget_pages, self.unassigned_pages
        )
        if startup > 0:
            record.granted_pages += startup
            sma.budget.grant(startup)
            self.pages_granted += startup
        self.log.record(
            self._time_fn(),
            "register",
            pid=record.pid,
            name=record.name,
            startup=startup,
        )
        return record

    def deregister(self, pid: int) -> None:
        """Detach a process (exit); its budget returns to the pool."""
        record = self.registry.remove(pid)
        self.pages_forfeited += record.granted_pages
        self.log.record(
            self._time_fn(),
            "deregister",
            pid=pid,
            forfeited=record.granted_pages,
        )

    # ------------------------------------------------------------------
    # capacity accounting
    # ------------------------------------------------------------------

    @property
    def assigned_pages(self) -> int:
        return self.registry.total_granted()

    @property
    def unassigned_pages(self) -> int:
        """Soft capacity not granted to anyone — free to hand out."""
        return self.capacity_pages - self.assigned_pages

    @property
    def pressure(self) -> float:
        """Fraction of soft capacity currently assigned, in [0, 1]."""
        if self.capacity_pages == 0:
            return 1.0
        return self.assigned_pages / self.capacity_pages

    def trim_flexible(self, pid: int, pages: int) -> int:
        """Take up to ``pages`` of zero-disturbance memory from ``pid``.

        Only unused budget and pooled pages move — no data structure is
        touched. Used by proactive reclamation
        (:class:`~repro.daemon.proactive.ProactiveReclaimer`) to keep
        headroom without disturbing anyone.
        """
        record = self.registry.get(pid)
        stats = record.sma.reclaim_flexible(pages)
        surrendered = stats.pages_reclaimed
        record.granted_pages -= surrendered
        self.pages_reclaimed += surrendered
        self.log.record(
            self._time_fn(),
            "trim",
            pid=pid,
            pages=surrendered,
        )
        return surrendered

    def adopt_granted(self, pid: int, pages: int) -> None:
        """Resync: adopt a reconnected process's reported budget ledger.

        After a daemon restart or a disconnect window the client's
        local ledger is the only surviving truth. Adopting it may
        transiently oversubscribe capacity (``unassigned_pages`` goes
        negative); subsequent request episodes reclaim the machine back
        under its cap, so the invariant is restored by pressure rather
        than by failing the reconnect.
        """
        if pages < 0:
            raise ValueError(f"granted pages must be non-negative: {pages}")
        record = self.registry.get(pid)
        delta = pages - record.granted_pages
        # fold the resync delta into the conservation counters so
        # ``assigned == granted - released - reclaimed - forfeited``
        # stays an exact identity across reconnects
        if delta >= 0:
            self.pages_granted += delta
        else:
            self.pages_released += -delta
        record.granted_pages = pages
        self.log.record(
            self._time_fn(),
            "resync",
            pid=pid,
            granted=pages,
            over_capacity=max(0, self.assigned_pages - self.capacity_pages),
        )

    def issue_demand(self, pid: int, pages: int) -> int:
        """Issue a full reclamation demand outside a request episode.

        The aggressive proactive mode uses this; it goes through the
        same settlement as pressure-triggered demands.
        """
        return _drive(self._demand(self.registry.get(pid), pages))

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    def handle_request(self, pid: int, pages: int) -> int:
        """Approve (possibly after reclamation) or deny a budget request.

        Returns the granted page count; raises
        :class:`~repro.core.errors.SoftMemoryDenied` on denial, in which
        case *no* budget changes hands (partial reclamation results stay
        reclaimed — the machine is simply less pressured afterwards).
        """
        return _drive(self.request_steps(pid, pages))

    def request_steps(self, pid: int, pages: int) -> Steps:
        """:meth:`handle_request` as a continuation (:data:`Steps`)."""
        if pages <= 0:
            raise ValueError(f"request must be positive: {pages}")
        self.requests += 1
        now = self._time_fn()
        record = self.registry.get(pid)
        self.log.record(now, "request", pid=pid, name=record.name, pages=pages)
        shortfall = pages - self.unassigned_pages
        if shortfall > 0:
            reclaimed = yield from self._reclaim_episode(shortfall, record)
            if reclaimed < shortfall:
                self.denials += 1
                record.requests_denied += 1
                self.log.record(
                    self._time_fn(),
                    "deny",
                    pid=pid,
                    pages=pages,
                    reclaimed=reclaimed,
                )
                raise SoftMemoryDenied(pid, pages, reclaimed)
        record.granted_pages += pages
        record.requests_approved += 1
        self.pages_granted += pages
        self.log.record(self._time_fn(), "grant", pid=pid, pages=pages)
        return pages

    def handle_release(self, pid: int, pages: int) -> None:
        """A process voluntarily returned budget (and any held pages)."""
        record = self.registry.get(pid)
        if pages > record.granted_pages:
            raise ProtocolError(
                f"process {pid} released {pages} pages "
                f"but only {record.granted_pages} were granted"
            )
        record.granted_pages -= pages
        self.pages_released += pages
        self.log.record(self._time_fn(), "release", pid=pid, pages=pages)

    # ------------------------------------------------------------------
    # reclamation episode
    # ------------------------------------------------------------------

    def _reclaim_episode(self, needed: int, requester: ProcessRecord) -> Steps:
        """Demand pages from targets until ``needed`` capacity is free."""
        self.reclamation_episodes += 1
        sel = self.config.selection
        candidates = [
            r
            for r in self.registry
            if sel.allow_self_reclaim or r.pid != requester.pid
        ]
        targets = order_targets(candidates, needed, sel)
        self.log.record(
            self._time_fn(),
            "reclaim.start",
            needed=needed,
            requester=requester.pid,
            targets=[t.pid for t in targets[: sel.target_cap]],
        )
        total = 0
        if sel.distribution == "proportional":
            plan = proportional_demands(targets[: sel.target_cap], needed, sel)
            for record, demand in plan:
                if total >= needed:
                    break
                total += yield from self._demand(record, demand)
        else:
            for record in targets[: sel.target_cap]:
                if total >= needed:
                    break
                demand = demand_size(record, needed - total, sel)
                if demand <= 0:
                    continue
                total += yield from self._demand(record, demand)
        if total > needed:
            self.over_reclaimed_pages += total - needed
        self.log.record(
            self._time_fn(), "reclaim.done", needed=needed, reclaimed=total
        )
        return total

    def _demand(self, record: ProcessRecord, pages: int) -> Steps:
        """Issue one reclamation demand and settle the ledgers."""
        self.demands_issued += 1
        record.demands_received += 1
        record.channel.round_trip()
        self.log.record(
            self._time_fn(), "demand", pid=record.pid, pages=pages
        )
        stats = yield record, pages
        surrendered = stats.pages_reclaimed
        if surrendered > record.granted_pages:
            raise ProtocolError(
                f"process {record.pid} surrendered {surrendered} pages "
                f"over its granted {record.granted_pages}"
            )
        record.granted_pages -= surrendered
        record.pages_reclaimed_from += surrendered
        self.pages_reclaimed += surrendered
        self.log.record(
            self._time_fn(),
            "demand.done",
            pid=record.pid,
            pages=surrendered,
            allocations_freed=stats.allocations_freed,
            callbacks=stats.callbacks_invoked,
        )
        return surrendered

    def __repr__(self) -> str:
        return (
            f"<SoftMemoryDaemon capacity={self.capacity_pages}p "
            f"assigned={self.assigned_pages}p "
            f"processes={len(self.registry)}>"
        )
