"""The paper's deployment model: separate OS processes, one daemon.

These tests run the SMA↔SMD protocol across *real* process boundaries:
the daemon lives in the test process (threaded server on a unix
socket), clients are `multiprocessing` children with their own SMAs
and soft data structures. What crosses the wire is the protocol —
budgets, demands, reports — exactly like the prototype's deployment.
"""

import multiprocessing as mp
import os
import tempfile
import time

import pytest

from repro.core.errors import SoftMemoryDenied
from repro.core.locking import LockedSoftMemoryAllocator
from repro.rpc import RpcDaemonServer, SmaAgent
from repro.sds.soft_linked_list import SoftLinkedList
from repro.util.units import PAGE_SIZE


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "smd.sock")


def hog_worker(socket_path, pages, started, release, results):
    """Child process: fill ``pages`` of soft memory, then wait serving
    demands until told to exit."""
    dropped = mp.Value("i", 0)  # local count; reported via results

    sma = LockedSoftMemoryAllocator(name="hog", request_batch_pages=8)
    agent = SmaAgent.connect(socket_path, sma, traditional_pages=500)
    count = 0

    def on_drop(payload):
        nonlocal count
        count += 1

    cache = SoftLinkedList(sma, element_size=PAGE_SIZE, callback=on_drop)
    for i in range(pages):
        cache.append(i)
    started.set()
    release.wait(timeout=30)
    results.put({
        "survivors": len(cache),
        "dropped": count,
        "demands_served": agent.demands_served,
        "held": sma.held_pages,
    })
    agent.close()


def taker_worker(socket_path, pages, results):
    """Child process: allocate ``pages``, forcing cross-process reclaim."""
    sma = LockedSoftMemoryAllocator(name="taker", request_batch_pages=8)
    agent = SmaAgent.connect(socket_path, sma, traditional_pages=10)
    scratch = SoftLinkedList(sma, element_size=PAGE_SIZE)
    denied = 0
    for i in range(pages):
        try:
            scratch.append(i)
        except SoftMemoryDenied:
            denied += 1
    results.put({"held": sma.held_pages, "denied": denied})
    agent.close()


class TestCrossProcess:
    def test_reclamation_across_real_processes(self, socket_path):
        with RpcDaemonServer(socket_path, soft_capacity_pages=100) as srv:
            started = mp.Event()
            release = mp.Event()
            results: "mp.Queue" = mp.Queue()
            hog = mp.Process(
                target=hog_worker,
                args=(socket_path, 100, started, release, results),
            )
            hog.start()
            assert started.wait(timeout=30), "hog never filled its cache"
            assert srv.smd.assigned_pages == 100

            taker = mp.Process(
                target=taker_worker, args=(socket_path, 30, results)
            )
            taker.start()
            taker.join(timeout=60)
            assert taker.exitcode == 0

            release.set()
            hog.join(timeout=60)
            assert hog.exitcode == 0

            outcomes = [results.get(timeout=10) for _ in range(2)]
            hog_result = next(o for o in outcomes if "survivors" in o)
            taker_result = next(o for o in outcomes if "denied" in o)
            # the taker got its 30 pages without any denial...
            assert taker_result["held"] >= 30
            assert taker_result["denied"] == 0
            # ...because the hog's cache was reclaimed over the wire
            assert hog_result["survivors"] < 100
            assert hog_result["dropped"] > 0
            assert hog_result["demands_served"] >= 1
            assert srv.smd.reclamation_episodes >= 1

    def test_client_death_returns_budget(self, socket_path):
        with RpcDaemonServer(socket_path, soft_capacity_pages=50) as srv:
            started = mp.Event()
            release = mp.Event()
            results: "mp.Queue" = mp.Queue()
            hog = mp.Process(
                target=hog_worker,
                args=(socket_path, 50, started, release, results),
            )
            hog.start()
            assert started.wait(timeout=30)
            assert srv.smd.assigned_pages == 50
            release.set()
            hog.join(timeout=30)
            deadline = time.monotonic() + 10
            while srv.smd.assigned_pages and time.monotonic() < deadline:
                time.sleep(0.05)
            assert srv.smd.assigned_pages == 0
            assert len(srv.smd.registry) == 0

    def test_denial_crosses_the_wire(self, socket_path):
        """A machine-wide denial arrives in the child as the same
        SoftMemoryDenied it would see in-process."""
        with RpcDaemonServer(socket_path, soft_capacity_pages=20):
            sma = LockedSoftMemoryAllocator(name="local",
                                            request_batch_pages=4)
            agent = SmaAgent.connect(socket_path, sma)
            lst = SoftLinkedList(sma, element_size=PAGE_SIZE)
            held = [lst.append(i) for i in range(20)]
            # pin everything: nothing is reclaimable anywhere
            for alloc in held:
                alloc.pins += 1
            sma2 = LockedSoftMemoryAllocator(name="greedy",
                                             request_batch_pages=4)
            agent2 = SmaAgent.connect(socket_path, sma2)
            lst2 = SoftLinkedList(sma2, element_size=PAGE_SIZE)
            with pytest.raises(SoftMemoryDenied):
                for i in range(10):
                    lst2.append(i)
            agent.close()
            agent2.close()

    def test_many_concurrent_clients(self, socket_path):
        """Six processes churning against a shared 120-page region:
        everyone completes; the capacity bound holds throughout."""
        def churn(socket_path, idx, results):
            sma = LockedSoftMemoryAllocator(
                name=f"churn{idx}", request_batch_pages=4
            )
            agent = SmaAgent.connect(socket_path, sma,
                                     traditional_pages=idx * 10)
            lst = SoftLinkedList(sma, element_size=PAGE_SIZE)
            completed = 0
            for i in range(60):
                try:
                    lst.append(i)
                    completed += 1
                except SoftMemoryDenied:
                    pass
                if len(lst) > 20:
                    lst.pop_front()
            results.put({"idx": idx, "completed": completed})
            agent.close()

        with RpcDaemonServer(socket_path, soft_capacity_pages=120) as srv:
            results: "mp.Queue" = mp.Queue()
            workers = [
                mp.Process(target=churn, args=(socket_path, i, results))
                for i in range(6)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
                assert w.exitcode == 0
            outcomes = [results.get(timeout=10) for _ in range(6)]
            assert all(o["completed"] > 0 for o in outcomes)
            assert srv.smd.assigned_pages <= srv.smd.capacity_pages
