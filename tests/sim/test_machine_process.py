"""Tests for the simulated machine and processes."""

import pytest

from repro.core.errors import SoftMemoryDenied
from repro.mem.errors import OutOfMemoryError
from repro.sds.soft_linked_list import SoftLinkedList
from repro.sim.machine import Machine, MachineConfig
from repro.util.units import MIB, PAGE_SIZE


class TestSpawnAndFootprint:
    def test_spawn_takes_traditional_frames(self, machine):
        proc = machine.spawn("svc", traditional_pages=100)
        assert machine.physical.used_frames == 100
        assert proc.traditional_bytes == 100 * PAGE_SIZE
        assert proc.footprint_bytes == proc.traditional_bytes

    def test_soft_allocations_add_to_footprint(self, machine):
        proc = machine.spawn("svc")
        lst = SoftLinkedList(proc.sma, element_size=PAGE_SIZE)
        for i in range(10):
            lst.append(i)
        assert proc.soft_bytes == 10 * PAGE_SIZE
        assert machine.physical.used_frames == 10

    def test_traditional_oom(self):
        machine = Machine(MachineConfig(total_memory_bytes=MIB))
        with pytest.raises(OutOfMemoryError):
            machine.spawn("hog", traditional_pages=1000)


class TestSoftArbitration:
    def test_soft_capacity_shared(self, machine):
        a = machine.spawn("a")
        b = machine.spawn("b")
        la = SoftLinkedList(a.sma, element_size=PAGE_SIZE)
        for i in range(3500):  # ~13.7 MiB of the 20 MiB
            la.append(i)
        lb = SoftLinkedList(b.sma, element_size=PAGE_SIZE)
        for i in range(2000):  # forces reclamation from a
            lb.append(i)
        assert machine.smd.reclamation_episodes >= 1
        assert a.alive and b.alive
        assert len(la) < 3500

    def test_denial_when_both_rigid(self):
        machine = Machine(MachineConfig(soft_capacity_bytes=MIB))
        a = machine.spawn("a")
        lst = SoftLinkedList(a.sma, element_size=PAGE_SIZE)
        held = [lst.append(i) for i in range(256)]
        for alloc in held:
            alloc.pins += 1  # nothing reclaimable
        b = machine.spawn("b")
        lb = SoftLinkedList(b.sma, element_size=PAGE_SIZE)
        with pytest.raises(SoftMemoryDenied):
            for i in range(10):
                lb.append(i)

    def test_ipc_advances_clock(self, machine):
        proc = machine.spawn("svc")
        lst = SoftLinkedList(proc.sma, element_size=PAGE_SIZE)
        lst.append(0)
        assert machine.clock.now > 0  # the budget request cost time

    def test_reclamation_charges_time(self, machine):
        a = machine.spawn("a")
        la = SoftLinkedList(a.sma, element_size=PAGE_SIZE)
        for i in range(4500):
            la.append(i)
        t_before = machine.clock.now
        b = machine.spawn("b")
        lb = SoftLinkedList(b.sma, element_size=PAGE_SIZE)
        for i in range(1000):
            lb.append(i)
        elapsed = machine.clock.now - t_before
        stats = a.sma.last_reclamation
        assert stats is not None
        assert elapsed >= machine.costs.reclamation_time(stats)


class TestTimelines:
    def test_footprint_sampling(self, machine):
        a = machine.spawn("a", traditional_pages=10)
        machine.sample_footprints()
        lst = SoftLinkedList(a.sma, element_size=PAGE_SIZE)
        for i in range(5):
            lst.append(i)
        machine.clock.advance(1.0)
        machine.sample_footprints()
        series = machine.footprint_series("a")
        assert len(series) == 2
        assert series[1][1] > series[0][1]
        assert series[1][0] > series[0][0]

    def test_kill_releases_everything(self, machine):
        proc = machine.spawn("victim", traditional_pages=50)
        lst = SoftLinkedList(proc.sma, element_size=PAGE_SIZE)
        for i in range(20):
            lst.append(i)
        assert machine.physical.used_frames == 70
        proc.kill()
        assert machine.physical.used_frames == 0
        assert not proc.alive
        assert machine.smd.assigned_pages == 0
        assert machine.log.last("process.kill") is not None

    def test_kill_idempotent(self, machine):
        proc = machine.spawn("victim")
        proc.kill()
        proc.kill()
        assert proc.kills == 1

    def test_alive_processes(self, machine):
        a = machine.spawn("a")
        machine.spawn("b")
        a.kill()
        assert [p.name for p in machine.alive_processes] == ["b"]
