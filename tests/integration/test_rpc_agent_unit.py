"""Unit tests for the client agent against a scripted fake daemon."""

import contextlib
import dataclasses
import socket
import threading
import time

import pytest

from repro.core.errors import SoftMemoryDegraded, SoftMemoryDenied
from repro.core.locking import LockedSoftMemoryAllocator
from repro.rpc.agent import SmaAgent
from repro.rpc.config import RetryPolicy, RpcConfig
from repro.rpc.framing import FrameStream

# scripted-daemon tests assert on exact frame sequences, so the agent
# must not interleave heartbeat pings into them
SCRIPTED_CONFIG = RpcConfig(
    heartbeat_interval=0.0,
    demand_lock_timeout=0.2,
    request_retry=RetryPolicy(attempts=1),
)


@contextlib.contextmanager
def wired(config=SCRIPTED_CONFIG, **agent_kwargs):
    """An agent wired to a scripted daemon end of a socketpair."""
    client_sock, daemon_sock = socket.socketpair(
        socket.AF_UNIX, socket.SOCK_STREAM
    )
    daemon = FrameStream(daemon_sock)
    sma = LockedSoftMemoryAllocator(name="unit", request_batch_pages=4)

    agent_holder = {}

    def build_agent():
        agent_holder["agent"] = SmaAgent(
            FrameStream(client_sock), sma, name="unit",
            config=config, **agent_kwargs,
        )

    builder = threading.Thread(target=build_agent)
    builder.start()
    hello = daemon.recv()
    assert hello["op"] == "hello"
    daemon.send({"op": "welcome", "pid": 42, "startup_budget": 0})
    builder.join(timeout=5)
    agent = agent_holder["agent"]
    yield agent, sma, daemon
    agent.close()
    daemon.close()


@pytest.fixture
def harness():
    with wired() as parts:
        yield parts


class TestBackoff:
    def test_delay_saturates_instead_of_overflowing(self):
        policy = RetryPolicy(attempts=0)
        assert policy.delay(0) == policy.base_delay
        assert policy.delay(3) == 8 * policy.base_delay
        assert policy.delay(10**6) == policy.max_delay

    def test_monitor_outlives_a_long_daemon_outage(self, monkeypatch):
        """The unlimited redial loop counts tries for as long as the
        daemon is down; try 1,024 used to raise OverflowError outside
        the loop's ``try`` and leave the process degraded for good."""
        dials = []

        def refuse(path, config, wrapper):
            dials.append(path)
            raise ConnectionRefusedError(path)

        monkeypatch.setattr(SmaAgent, "_dial", staticmethod(refuse))
        no_wait = RetryPolicy(attempts=0, base_delay=0.0, max_delay=0.0)
        config = dataclasses.replace(SCRIPTED_CONFIG, reconnect_backoff=no_wait)
        with wired(config, socket_path="/nonexistent/smd.sock") as parts:
            agent, __, daemon = parts
            daemon.close()
            deadline = time.monotonic() + 30
            while len(dials) <= 1100 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(dials) > 1100
            assert agent.degraded and agent._monitor.is_alive()


class TestAgentRequests:
    def test_grant_flow(self, harness):
        agent, sma, daemon = harness

        def daemon_side():
            frame = daemon.recv()
            assert frame["op"] == "request"
            assert frame["pages"] == 6
            daemon.send({"op": "grant", "id": frame["id"], "pages": 6})

        t = threading.Thread(target=daemon_side)
        t.start()
        assert agent.request(6) == 6
        t.join(timeout=5)

    def test_deny_flow(self, harness):
        agent, sma, daemon = harness

        def daemon_side():
            frame = daemon.recv()
            daemon.send({"op": "deny", "id": frame["id"], "reclaimed": 2})

        t = threading.Thread(target=daemon_side)
        t.start()
        with pytest.raises(SoftMemoryDenied) as exc:
            agent.request(10)
        assert exc.value.reclaimed == 2
        t.join(timeout=5)

    def test_state_piggybacked(self, harness):
        agent, sma, daemon = harness
        sma.budget.grant(3)

        def daemon_side():
            frame = daemon.recv()
            assert frame["granted"] == 3
            assert frame["held"] == 0
            assert frame["flexibility"] == 3
            daemon.send({"op": "grant", "id": frame["id"], "pages": 1})

        t = threading.Thread(target=daemon_side)
        t.start()
        agent.request(1)
        t.join(timeout=5)


class TestAgentDemands:
    def test_demand_served_with_report(self, harness):
        agent, sma, daemon = harness
        ctx = sma.create_context("c")
        sma.budget.grant(10)
        ptrs = [sma.soft_malloc(4096, ctx, i) for i in range(5)]
        daemon.send({"op": "demand", "id": 7, "pages": 2})
        report = daemon.recv()
        assert report["op"] == "report"
        assert report["id"] == 7
        assert report["pages_reclaimed"] == 2  # headroom covered it
        assert report["pages_from_budget"] == 2
        assert agent.demands_served == 1
        del ptrs

    def test_demand_while_lock_held_reports_busy(self, harness):
        """The deadlock backstop: a demand arriving while the app
        thread holds the SMA lock answers zero pages with busy=True."""
        agent, sma, daemon = harness
        sma.budget.grant(5)
        acquired = threading.Event()
        release = threading.Event()

        def hold_lock():
            with sma._lock:
                acquired.set()
                release.wait(timeout=10)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        acquired.wait(timeout=5)
        daemon.send({"op": "demand", "id": 9, "pages": 3})
        report = daemon.recv()
        release.set()
        holder.join(timeout=5)
        assert report["op"] == "report"
        assert report["pages_reclaimed"] == 0
        assert report.get("busy") is True
        assert agent.demands_served == 0

    def test_daemon_disconnect_unblocks_requester(self, harness):
        agent, sma, daemon = harness
        result = {}

        def do_request():
            try:
                agent.request(4)
            except Exception as exc:
                result["error"] = exc

        t = threading.Thread(target=do_request)
        t.start()
        daemon.recv()  # the request frame
        daemon.close()  # daemon dies without answering
        t.join(timeout=10)
        # a dead daemon is NOT a policy denial: the app sees the
        # distinct degraded-mode error (still a SoftMemoryDenied
        # subclass, so existing best-effort handlers keep working)
        assert isinstance(result.get("error"), SoftMemoryDegraded)
        assert isinstance(result.get("error"), SoftMemoryDenied)
        assert agent.degraded
        assert sma.degraded
