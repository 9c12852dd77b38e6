"""The pressured machine ``bench_tier`` and ``bench_scenarios`` share:
its boot and the :class:`Antagonist` that leans on it."""

from __future__ import annotations

import threading
import time

from repro.core.errors import SoftMemoryDenied
from repro.core.locking import LockedSoftMemoryAllocator
from repro.daemon.policy import SelectionConfig
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon
from repro.kvstore.persist.engine import Persistence
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tcp import EventLoopKvServer
from repro.kvstore.tier import TierConfig
from repro.obs.plane import bind_smd
from repro.util.units import PAGE_SIZE

#: soft capacity handed to the SMD per machine (pages) — identical
#: budgets across arms and cells, that is the point
CAPACITY_PAGES = 512
#: budget each SMA receives at registration
STARTUP_BUDGET_PAGES = 32


def boot_machine(
    name: str, tier: TierConfig, persist: Persistence | None = None
) -> tuple[
    EventLoopKvServer, LockedSoftMemoryAllocator, LockedSoftMemoryAllocator
]:
    """A fresh machine: ``(started server, store SMA, antagonist SMA)``,
    both SMAs registered with one in-process SMD. Stopping the server
    and closing ``persist`` stay with the caller."""
    smd = SoftMemoryDaemon(
        CAPACITY_PAGES,
        SmdConfig(
            selection=SelectionConfig(target_cap=3),
            startup_budget_pages=STARTUP_BUDGET_PAGES,
        ),
    )
    sma = LockedSoftMemoryAllocator(name=name)
    smd.register(sma)
    antagonist_sma = LockedSoftMemoryAllocator(name=f"{name}-antagonist")
    smd.register(antagonist_sma)
    store = DataStore(sma, StoreConfig(tier=tier), name=name)
    if persist is not None:
        store.attach_persistence(persist)
    bind_smd(store.obs.registry, smd)
    return EventLoopKvServer(store).start(), sma, antagonist_sma


class Antagonist(threading.Thread):
    """Waves of competing soft allocations during the measured run.

    Allocates chunk after chunk (under the server's execution lock,
    like any out-of-band reclamation source) until the daemon denies or
    ``high_water_pages`` is reached, then frees everything and starts
    the next wave — repeated reclamation pressure instead of one
    saturating push.
    """

    def __init__(
        self,
        server: EventLoopKvServer,
        sma: LockedSoftMemoryAllocator,
        *,
        high_water_pages: int,
        chunk_pages: int = 8,
    ) -> None:
        super().__init__(name="antagonist", daemon=True)
        self._server = server
        self._sma = sma
        self._chunk = chunk_pages
        self._high_water = high_water_pages
        self._halt = threading.Event()
        self.waves = 0
        self.denials = 0

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10)

    def run(self) -> None:
        ctx = self._sma.create_context(name="blob", priority=10)
        ptrs: list[object] = []
        held = 0
        try:
            while not self._halt.is_set():
                size = self._chunk * PAGE_SIZE - 64
                try:
                    with self._server._lock:
                        ptr = self._sma.soft_malloc(size, ctx, payload=b"x")
                except SoftMemoryDenied:
                    self.denials += 1
                    held = self._high_water  # saturated: end the wave
                else:
                    ptrs.append(ptr)
                    held += self._chunk
                if held >= self._high_water:
                    with self._server._lock:
                        for ptr in ptrs:
                            self._sma.soft_free(ptr)
                    ptrs.clear()
                    held = 0
                    self.waves += 1
                    time.sleep(0.002)  # let the keyspace re-admit
        finally:
            with self._server._lock:
                for ptr in ptrs:
                    self._sma.soft_free(ptr)
