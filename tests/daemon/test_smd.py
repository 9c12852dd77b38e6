"""Tests for the Soft Memory Daemon's request/reclaim protocol."""

import pytest

from repro.core.errors import ProtocolError, SoftMemoryDenied
from repro.core.sma import SoftMemoryAllocator
from repro.daemon.policy import SelectionConfig
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon
from repro.sds.soft_linked_list import SoftLinkedList
from repro.util.units import PAGE_SIZE


def daemon(capacity=100, **selection_kwargs) -> SoftMemoryDaemon:
    cfg = SmdConfig(selection=SelectionConfig(**selection_kwargs))
    return SoftMemoryDaemon(soft_capacity_pages=capacity, config=cfg)


def attach(smd, name, traditional=0, batch=1) -> SoftMemoryAllocator:
    sma = SoftMemoryAllocator(name=name, request_batch_pages=batch)
    smd.register(sma, traditional_pages=traditional)
    return sma


def fill(sma, pages, priority=0):
    lst = SoftLinkedList(
        sma, name=f"fill-{priority}", priority=priority,
        element_size=PAGE_SIZE,
    )
    for i in range(pages):
        lst.append(i)
    return lst


class TestRegistration:
    def test_register_wires_client(self):
        smd = daemon()
        sma = attach(smd, "a")
        fill(sma, 3)
        assert smd.assigned_pages == 3

    def test_startup_budget(self):
        smd = SoftMemoryDaemon(
            soft_capacity_pages=100,
            config=SmdConfig(startup_budget_pages=10),
        )
        sma = SoftMemoryAllocator(name="a")
        smd.register(sma)
        assert sma.budget.granted == 10
        assert smd.assigned_pages == 10

    def test_startup_budget_capped_by_capacity(self):
        smd = SoftMemoryDaemon(
            soft_capacity_pages=5, config=SmdConfig(startup_budget_pages=10)
        )
        sma = SoftMemoryAllocator(name="a")
        smd.register(sma)
        assert sma.budget.granted == 5

    def test_register_used_sma_rejected(self):
        smd = daemon()
        sma = SoftMemoryAllocator(name="a")
        ctx = sma.create_context("c")
        sma.soft_malloc(8, ctx)
        with pytest.raises(ProtocolError):
            smd.register(sma)

    def test_deregister_frees_capacity(self):
        smd = daemon(capacity=10)
        sma = attach(smd, "a")
        record = smd.registry.get(smd.registry.all()[0].pid)
        fill(sma, 10)
        smd.deregister(record.pid)
        assert smd.unassigned_pages == 10


class TestRequestPath:
    def test_grant_from_unassigned_capacity(self):
        smd = daemon(capacity=100)
        sma = attach(smd, "a")
        fill(sma, 10)
        assert smd.assigned_pages == 10
        assert smd.unassigned_pages == 90
        assert smd.denials == 0

    def test_capacity_is_hard_limit(self):
        smd = daemon(capacity=10)
        sma = attach(smd, "a")
        with pytest.raises(SoftMemoryDenied):
            fill(sma, 11)

    def test_invalid_request_rejected(self):
        smd = daemon()
        attach(smd, "a")
        pid = smd.registry.all()[0].pid
        with pytest.raises(ValueError):
            smd.handle_request(pid, 0)

    def test_reclaims_to_satisfy(self):
        smd = daemon(capacity=20)
        a = attach(smd, "a", traditional=100)
        fill(a, 15)
        b = attach(smd, "b", traditional=10)
        fill(b, 10)  # needs 5 pages from a
        assert smd.reclamation_episodes >= 1
        assert a.budget.granted < 15
        assert b.budget.granted == 10

    def test_denies_when_nothing_reclaimable(self):
        smd = daemon(capacity=10)
        a = attach(smd, "a")
        lst = SoftLinkedList(a, element_size=PAGE_SIZE)
        held = [lst.append(i) for i in range(10)]
        # Pin everything in a, making its memory unreclaimable.
        b = attach(smd, "b")
        for alloc in held:
            alloc.pins += 1
        with pytest.raises(SoftMemoryDenied):
            fill(b, 5)
        for alloc in held:
            alloc.pins -= 1

    def test_denial_counted_and_logged(self):
        smd = daemon(capacity=5)
        a = attach(smd, "a")
        with pytest.raises(SoftMemoryDenied):
            fill(a, 50)
        assert smd.denials == 1
        assert smd.log.last("deny") is not None

    def test_release_returns_capacity(self):
        smd = daemon(capacity=10)
        a = attach(smd, "a")
        lst = fill(a, 10)
        while lst:
            lst.pop_front()
        a.return_excess()
        assert smd.unassigned_pages == 10

    def test_over_release_detected(self):
        smd = daemon(capacity=10)
        attach(smd, "a")
        pid = smd.registry.all()[0].pid
        with pytest.raises(ProtocolError):
            smd.handle_release(pid, 5)


class TestReclamationEpisode:
    def test_weight_ranked_victims(self):
        """The heavier (more traditional memory) process is drafted."""
        smd = daemon(capacity=20)
        heavy = attach(smd, "heavy", traditional=1000)
        light = attach(smd, "light", traditional=10)
        fill(heavy, 8)
        fill(light, 8)
        newcomer = attach(smd, "new", traditional=10)
        fill(newcomer, 6)  # 4 free + 2 reclaimed
        heavy_rec = next(r for r in smd.registry if r.name == "heavy")
        light_rec = next(r for r in smd.registry if r.name == "light")
        assert heavy_rec.pages_reclaimed_from > 0
        assert light_rec.pages_reclaimed_from == 0

    def test_target_cap_limits_disturbance(self):
        """One request may disturb at most target_cap processes; if the
        capped set cannot cover the quota, the request is denied."""
        smd = daemon(capacity=20, target_cap=1, over_reclaim_frac=0.0)
        procs = [attach(smd, f"p{i}", traditional=10 + i) for i in range(4)]
        for p in procs:
            fill(p, 5)
        newcomer = attach(smd, "new")
        pid = next(r for r in smd.registry if r.name == "new").pid
        with pytest.raises(SoftMemoryDenied):
            smd.handle_request(pid, 8)  # one target can only yield 5
        disturbed = [r for r in smd.registry if r.demands_received > 0]
        assert len(disturbed) == 1

    def test_over_reclaim_grabs_extra(self):
        smd = daemon(capacity=20, over_reclaim_frac=0.5)
        a = attach(smd, "a", traditional=100)
        fill(a, 20)
        b = attach(smd, "b")
        fill(b, 1)
        # demand was max(1, 0.5 * 20) = 10
        a_rec = next(r for r in smd.registry if r.name == "a")
        assert a_rec.pages_reclaimed_from == 10

    def test_no_self_reclaim_by_default(self):
        smd = daemon(capacity=10)
        a = attach(smd, "a")
        fill(a, 10)
        with pytest.raises(SoftMemoryDenied):
            fill(a, 5)

    def test_self_reclaim_when_enabled(self):
        smd = daemon(capacity=10, allow_self_reclaim=True)
        a = attach(smd, "a")
        lst = fill(a, 10)
        fill(a, 5)  # reclaims a's own oldest pages
        assert len(lst) < 10
        assert smd.denials == 0

    def test_failed_episode_keeps_partial_reclamation(self):
        """A denial does not roll back pages already reclaimed — the
        machine is simply less pressured afterwards."""
        smd = daemon(capacity=20, target_cap=1, over_reclaim_frac=0.0)
        a = attach(smd, "a", traditional=100)
        fill(a, 5)
        b = attach(smd, "b", traditional=10)
        fill(b, 15)
        c = attach(smd, "c")
        pid = next(r for r in smd.registry if r.name == "c").pid
        with pytest.raises(SoftMemoryDenied):
            smd.handle_request(pid, 20)  # single target yields only 5
        assert smd.unassigned_pages == 5  # partial reclamation persists

    def test_event_log_sequence(self):
        smd = daemon(capacity=10)
        a = attach(smd, "a", traditional=50)
        fill(a, 10)
        b = attach(smd, "b")
        fill(b, 3)
        kinds = [e.kind for e in smd.log]
        assert "request" in kinds
        assert "reclaim.start" in kinds
        assert "demand" in kinds
        assert "demand.done" in kinds
        assert "reclaim.done" in kinds
        assert "grant" in kinds
        # protocol order for the pressured request
        assert kinds.index("reclaim.start") < kinds.index("demand")
        assert kinds.index("demand.done") < kinds.index("reclaim.done")


class TestAccountingConsistency:
    def test_daemon_mirrors_sma_ledgers(self):
        smd = daemon(capacity=50)
        procs = [attach(smd, f"p{i}", traditional=10 * i) for i in range(3)]
        for i, p in enumerate(procs):
            fill(p, 5 * (i + 1))
        attach(smd, "presser")
        for record in smd.registry:
            assert record.granted_pages == record.sma.budget.granted

    def test_mirror_survives_reclamation(self):
        smd = daemon(capacity=20)
        a = attach(smd, "a", traditional=100)
        fill(a, 15)
        b = attach(smd, "b")
        fill(b, 10)
        for record in smd.registry:
            assert record.granted_pages == record.sma.budget.granted
            record.sma.check_invariants()

    def test_assigned_never_exceeds_capacity(self):
        smd = daemon(capacity=25)
        for i in range(4):
            p = attach(smd, f"p{i}", traditional=10)
            try:
                fill(p, 10)
            except SoftMemoryDenied:
                pass
            assert smd.assigned_pages <= smd.capacity_pages
