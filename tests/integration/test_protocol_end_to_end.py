"""End-to-end test of the Figure 1 reclamation protocol.

Walks the full sequence the paper's design figure draws: Process B's
soft memory request hits a pressured daemon; the daemon weight-ranks
targets, demands reclamation from Process A; A's SMA exhausts budget,
then pool, then instructs its SDSs; the SDS frees elements (callback
first); pages transfer; B's request is granted.
"""

import pytest

from repro.core.errors import SoftMemoryDenied
from repro.core.sma import SoftMemoryAllocator
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon
from repro.daemon.policy import SelectionConfig
from repro.mem.physical import PhysicalMemory
from repro.sds.soft_linked_list import SoftLinkedList
from repro.util.units import MIB, PAGE_SIZE


class TestFigure1Protocol:
    def setup_method(self):
        self.physical = PhysicalMemory(64 * MIB)
        self.smd = SoftMemoryDaemon(
            soft_capacity_pages=100,
            config=SmdConfig(
                selection=SelectionConfig(over_reclaim_frac=0.0)
            ),
        )
        self.freed_payloads = []
        self.a = SoftMemoryAllocator(
            name="A", physical=self.physical, request_batch_pages=1
        )
        self.b = SoftMemoryAllocator(
            name="B", physical=self.physical, request_batch_pages=1
        )
        self.rec_a = self.smd.register(self.a, traditional_pages=500)
        self.rec_b = self.smd.register(self.b, traditional_pages=100)
        self.sds_a = SoftLinkedList(
            self.a,
            name="A-cache",
            element_size=2048,
            callback=self.freed_payloads.append,
        )
        # A fills the whole machine's soft capacity: 200 elements = 100 pages
        self.ptrs_a = [self.sds_a.append(f"A-{i}") for i in range(200)]

    def test_full_protocol_sequence(self):
        sds_b = SoftLinkedList(self.b, name="B-data", element_size=2048)
        # B inserts an element: triggers request -> pressure -> demand
        # -> SDS reclaim -> transfer -> grant.
        sds_b.append("B-0")

        # B got its memory.
        assert len(sds_b) == 1
        assert self.b.budget.granted == 1
        # A gave up exactly one page = two 2 KiB elements, oldest first.
        assert len(self.sds_a) == 198
        assert self.freed_payloads == ["A-0", "A-1"]
        assert list(self.sds_a)[0] == "A-2"
        # Ledgers agree everywhere.
        assert self.rec_a.granted_pages == self.a.budget.granted == 99
        assert self.smd.assigned_pages == 100
        # Physical soft frames conserved: the page moved, total stays 100.
        assert self.physical.used_frames == 100
        self.a.check_invariants()
        self.b.check_invariants()

    def test_event_log_tells_the_story(self):
        sds_b = SoftLinkedList(self.b, name="B-data", element_size=2048)
        sds_b.append("B-0")
        kinds = [e.kind for e in self.smd.log]
        # The pressured request's episode must appear in protocol order
        # (searching forward past the unpressured setup grants).
        pos = kinds.index("reclaim.start")
        assert "request" in kinds[:pos]
        for step in ["demand", "demand.done", "reclaim.done", "grant"]:
            pos = kinds.index(step, pos)

    def test_weight_ranking_picks_heavier_process(self):
        # C holds some soft memory and lots of traditional -> heaviest.
        c = SoftMemoryAllocator(
            name="C", physical=self.physical, request_batch_pages=1
        )
        self.smd.register(c, traditional_pages=2000)
        sds_c = SoftLinkedList(c, name="C-cache", element_size=2048)
        for i in range(40):  # takes 20 pages (reclaimed from A)
            sds_c.append(i)
        rec_c = next(r for r in self.smd.registry if r.name == "C")
        a_before = self.rec_a.pages_reclaimed_from
        c_before = rec_c.pages_reclaimed_from

        b_list = SoftLinkedList(self.b, name="B-data", element_size=2048)
        b_list.append("B-0")
        # C outweighs A (2000 vs ~540), so B's request drafted C only.
        assert rec_c.pages_reclaimed_from > c_before
        assert self.rec_a.pages_reclaimed_from == a_before

    def test_denial_leaves_consistent_state(self):
        for alloc in self.ptrs_a:
            alloc.pins += 1  # A refuses to give anything up
        sds_b = SoftLinkedList(self.b, name="B-data", element_size=2048)
        with pytest.raises(SoftMemoryDenied):
            sds_b.append("B-0")
        assert len(sds_b) == 0
        assert self.b.budget.granted == 0
        assert self.smd.assigned_pages == 100
        self.a.check_invariants()
        self.b.check_invariants()

    def test_budget_tier_spares_data_structures(self):
        # A voluntarily shrinks, returns the capacity, then re-reserves
        # it as *unused budget*; B's request must come from there
        # without disturbing A's cache again.
        self.sds_a.reclaim(20 * PAGE_SIZE)
        self.a.return_excess()
        self.a.reserve_budget(20)  # headroom, unheld
        elements_before = len(self.sds_a)
        freed_before = list(self.freed_payloads)

        sds_b = SoftLinkedList(self.b, name="B-data", element_size=2048)
        sds_b.append("B-0")
        assert len(self.sds_a) == elements_before  # untouched this time
        assert self.freed_payloads == freed_before
        assert self.a.budget.unused == 19  # one page of headroom moved
