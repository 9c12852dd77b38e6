"""Chaos tests: the RPC plane under injected faults and dead peers.

The contract under test (ISSUE: harden the cross-process RPC plane):
with frames dropped, delayed, duplicated, or connections torn down, an
``SmaAgent``-backed workload never raises an unhandled error into
application code; a dead daemon flips the SMA into degraded mode (a
*distinct*, still-catchable error — not a bogus policy denial); and a
reconnect re-registers the process and resyncs the budget ledger.
"""

import dataclasses
import socket
import sys
import threading
import time

import pytest

import repro.rpc.agent
from repro.core.errors import (
    SoftMemoryDegraded,
    SoftMemoryDenied,
)
from repro.core.locking import LockedSoftMemoryAllocator
from repro.daemon.smd import SmdConfig
from repro.kvstore import TcpKvClient
from repro.obs.oracle import check_smd
from repro.rpc import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    RpcConfig,
    RpcDaemonServer,
    SmaAgent,
)
from repro.rpc.framing import FrameClosed, FrameStream
from repro.sds.soft_linked_list import SoftLinkedList
from repro.tools.kv_server import build_server
from repro.util.units import PAGE_SIZE

# Tight time constants so fault paths resolve in test time.
FAST = RpcConfig(
    connect_timeout=2.0,
    request_timeout=0.3,
    request_retry=RetryPolicy(attempts=4, base_delay=0.02, max_delay=0.2),
    demand_timeout=1.0,
    demand_lock_timeout=0.5,
    heartbeat_interval=0.1,
    heartbeat_timeout=0.6,
    reconnect_backoff=RetryPolicy(attempts=0, base_delay=0.02, max_delay=0.2),
)


def wait_until(predicate, timeout=8.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "smd.sock")


def hello(socket_path, name, **state):
    """A scripted client, welcomed: its stream (reads wait up to 10 s)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(socket_path)
    stream = FrameStream(sock)
    stream.send({"op": "hello", "name": name, **state})
    assert stream.recv()["op"] == "welcome"
    return stream


def request(stream, request_id, pages):
    """One REQUEST from a scripted client: the daemon's reply."""
    stream.send({"op": "request", "id": request_id, "pages": pages})
    return stream.recv()


def park_an_episode(srv, socket_path):
    """A victim holding all 40 pages of ``srv`` and an asker whose
    REQUEST for 20 parks an episode on it: (victim, asker, DEMAND)."""
    victim = hello(socket_path, "victim", held=40, granted=40,
                   flexibility=40, reclaimable=40)
    victim.send({"op": "resync", "granted": 40})
    assert wait_until(lambda: srv.smd.unassigned_pages == 0)
    asker = hello(socket_path, "asker", held=0, granted=0)
    asker.send({"op": "request", "id": 1, "pages": 20})
    demand = victim.recv()
    assert demand["op"] == "demand"
    return victim, asker, demand


class DepthPoller:
    """A ``select.poll`` that records its caller's stack depth per call."""

    def __init__(self, poller):
        self._poller = poller
        self.depths = []

    def __getattr__(self, name):  # register, unregister
        return getattr(self._poller, name)

    def poll(self, *timeout):
        frame, depth = sys._getframe(1), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        self.depths.append(depth)
        return self._poller.poll(*timeout)


def churn_workload(sma, rounds, keep=30):
    """Append/pop against soft memory, absorbing denials like a real
    best-effort cache would. Periodically returns excess so budget
    traffic keeps crossing the wire. Returns (completed, denied, lst).
    """
    lst = SoftLinkedList(sma, element_size=PAGE_SIZE)
    completed = denied = 0
    for i in range(rounds):
        try:
            lst.append(i)
            completed += 1
        except SoftMemoryDenied:
            denied += 1
        if len(lst) > keep:
            lst.pop_front()
        if i % 13 == 12:
            sma.return_excess()
    return completed, denied, lst


class TestFaultyStream:
    def setup_method(self):
        self._sockets: list[socket.socket] = []

    def teardown_method(self):
        for sock in self._sockets:
            sock.close()

    def _socketpair(self):
        """A connected pair, closed when the test ends."""
        pair = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sockets.extend(pair)
        return pair

    def _pair(self, plan):
        a, b = self._socketpair()
        injector = FaultInjector(plan)
        return injector.wrap(FrameStream(a)), FrameStream(b), injector

    def test_drop_swallows_send(self):
        left, right, injector = self._pair(FaultPlan(drop=1.0))
        left.send({"op": "ping"})
        assert injector.stats.dropped == 1
        right._sock.settimeout(0.2)
        with pytest.raises(OSError):
            right.recv()  # nothing ever hit the wire

    def test_duplicate_doubles_the_frame(self):
        left, right, injector = self._pair(FaultPlan(duplicate=1.0))
        left.send({"n": 1})
        assert right.recv() == {"n": 1}
        assert right.recv() == {"n": 1}
        assert injector.stats.duplicated == 1

    def test_disconnect_closes_for_real(self):
        left, right, injector = self._pair(FaultPlan(disconnect=1.0))
        with pytest.raises(FrameClosed):
            left.send({"op": "ping"})
        assert injector.stats.disconnects == 1
        with pytest.raises((FrameClosed, OSError)):
            right.recv()

    def test_after_frames_warmup_passes_clean(self):
        left, right, injector = self._pair(
            FaultPlan(drop=1.0, after_frames=2)
        )
        left.send({"n": 1})
        left.send({"n": 2})
        assert right.recv() == {"n": 1}
        assert right.recv() == {"n": 2}
        left.send({"n": 3})  # warmup over: swallowed
        assert injector.stats.dropped == 1

    def test_recv_side_duplicate(self):
        a, b = self._socketpair()
        injector = FaultInjector(FaultPlan(duplicate=1.0))
        left, right = FrameStream(a), injector.wrap(FrameStream(b))
        left.send({"n": 7})
        assert right.recv() == {"n": 7}
        assert right.recv() == {"n": 7}  # replayed without new bytes


class TestChaosWorkloads:
    """Acceptance: workloads complete under every fault profile."""

    def _run_profile(self, socket_path, plan, rounds=120, capacity=400):
        injector = FaultInjector(plan)
        with RpcDaemonServer(
            socket_path, soft_capacity_pages=capacity, rpc_config=FAST
        ) as srv:
            sma = LockedSoftMemoryAllocator(
                name="chaos", request_batch_pages=1
            )
            agent = SmaAgent.connect(
                socket_path, sma, config=FAST, stream_wrapper=injector.wrap
            )
            completed, denied, lst = churn_workload(sma, rounds)
            # quiesce: if a fault window left us degraded, the monitor
            # must reconnect and resync on its own
            assert wait_until(lambda: not agent.degraded), (
                f"agent stuck degraded: {agent.stats.as_dict()}"
            )
            record = srv.smd.registry.get(agent.pid)
            assert wait_until(
                lambda: record.granted_pages == sma.budget.granted
            ), "ledger did not resync"
            assert srv.smd.assigned_pages <= srv.smd.capacity_pages
            agent.close()
            return completed, denied, injector, agent

    def test_frame_drops_and_delays(self, socket_path):
        plan = FaultPlan(
            drop=0.06, delay=0.10, delay_s=0.002, after_frames=4, seed=3
        )
        completed, denied, injector, agent = self._run_profile(
            socket_path, plan
        )
        assert completed > 0
        assert injector.stats.dropped > 0, "profile never fired"
        # lost frames were absorbed by retries, not surfaced as errors
        assert agent.stats.retries > 0 or denied == 0

    def test_duplicated_frames_no_double_grant(self, socket_path):
        plan = FaultPlan(duplicate=0.4, after_frames=4, seed=5)
        completed, denied, injector, agent = self._run_profile(
            socket_path, plan
        )
        assert completed > 0
        assert injector.stats.duplicated > 0, "profile never fired"
        # the ledger equality asserted in _run_profile is the real
        # check: duplicates answered from the reply cache, not re-run

    def test_injected_disconnects_reconnect_and_resync(self, socket_path):
        plan = FaultPlan(disconnect=0.02, after_frames=6, seed=11)
        completed, denied, injector, agent = self._run_profile(
            socket_path, plan, rounds=200
        )
        assert completed > 0
        assert injector.stats.disconnects > 0, "profile never fired"
        assert agent.stats.reconnects >= 1
        assert agent.stats.degraded_seconds > 0


class TestDaemonDeath:
    def test_degrades_then_reconnects_and_resyncs(self, socket_path):
        srv = RpcDaemonServer(
            socket_path, soft_capacity_pages=200, rpc_config=FAST
        ).start()
        sma = LockedSoftMemoryAllocator(name="victim", request_batch_pages=8)
        agent = SmaAgent.connect(socket_path, sma, config=FAST)
        lst = SoftLinkedList(sma, element_size=PAGE_SIZE)
        for i in range(30):
            lst.append(i)
        granted_before = sma.budget.granted
        assert granted_before >= 30

        srv.stop()  # the daemon dies
        assert wait_until(lambda: agent.degraded), "never entered degraded"
        assert sma.degraded

        # existing soft memory stays fully usable...
        assert len(lst) == 30
        assert list(lst)[0] == 0
        # ...but an ask needing a NEW grant fails fast with the
        # distinct degraded error (still a SoftMemoryDenied, so
        # best-effort callers keep working), never a hang or a
        # transport exception
        with pytest.raises(SoftMemoryDegraded):
            for i in range(300):
                lst.append(1000 + i)
        while len(lst) > 30:
            lst.pop_front()
        assert sma.stats.degraded_denials >= 1

        # daemon comes back: the agent re-registers and resyncs alone
        srv2 = RpcDaemonServer(
            socket_path, soft_capacity_pages=200, rpc_config=FAST
        ).start()
        try:
            assert wait_until(lambda: not agent.degraded), "no reconnect"
            assert not sma.degraded
            record = srv2.smd.registry.get(agent.pid)
            assert wait_until(
                lambda: record.granted_pages == sma.budget.granted
            ), "ledger did not resync"
            assert record.resyncs == 1
            # and new grants flow again
            for i in range(20):
                lst.append(2000 + i)
            assert agent.stats.reconnects >= 1
            assert agent.stats.degraded_seconds > 0
        finally:
            agent.close()
            srv2.stop()

    def test_resync_sheds_overdraft_into_smaller_daemon(self, socket_path):
        """The daemon restarts with less capacity than the client still
        holds: the resync sheds the overdraft (callbacks fire) instead
        of silently oversubscribing forever."""
        srv = RpcDaemonServer(
            socket_path, soft_capacity_pages=100, rpc_config=FAST
        ).start()
        sma = LockedSoftMemoryAllocator(name="big", request_batch_pages=8)
        agent = SmaAgent.connect(socket_path, sma, config=FAST)
        dropped = []
        lst = SoftLinkedList(
            sma, element_size=PAGE_SIZE, callback=dropped.append
        )
        for i in range(60):
            lst.append(i)
        assert sma.budget.granted >= 60
        srv.stop()
        assert wait_until(lambda: agent.degraded)

        srv2 = RpcDaemonServer(
            socket_path, soft_capacity_pages=30, rpc_config=FAST
        ).start()
        try:
            assert wait_until(lambda: not agent.degraded)
            record = srv2.smd.registry.get(agent.pid)
            assert wait_until(
                lambda: record.granted_pages == sma.budget.granted
            )
            assert sma.budget.granted <= 30
            assert srv2.smd.assigned_pages <= srv2.smd.capacity_pages
            assert len(dropped) > 0  # SDS tier paid for the shrink
            assert agent.stats.resync_pages_shed > 0
        finally:
            agent.close()
            srv2.stop()


class TestDrivers:
    def test_a_threaded_tenant_runs_one_agent_thread(self, socket_path):
        """Reads, heartbeats and redials share the agent's one thread."""
        with RpcDaemonServer(socket_path, 50, rpc_config=FAST):
            before = set(threading.enumerate())
            sma = LockedSoftMemoryAllocator(name="one")
            agent = SmaAgent.connect(socket_path, sma, config=FAST)
            started = [t.name for t in threading.enumerate()
                       if t not in before and t.name.startswith("sma-agent")]
            agent.close()
        assert started == ["sma-agent-one"]

    def test_a_hung_daemon_never_stalls_the_loop_and_a_new_one_heals_it(
        self, socket_path, monkeypatch
    ):
        """A ``kv_server --smd-socket`` store's agent redials from its
        event loop: while the socket's listener never answers HELLO the
        loop keeps serving, and a daemon that comes back is rejoined,
        its ledger matching the SMA's."""
        monkeypatch.setattr(
            repro.rpc.agent, "DEFAULT_RPC_CONFIG",
            dataclasses.replace(FAST, connect_timeout=5.0),
        )
        srv = RpcDaemonServer(socket_path, 200, rpc_config=FAST).start()
        store, __, server = build_server(smd_socket=socket_path)
        server.start()
        agent = store.smd_agent
        try:
            with TcpKvClient(server.address, timeout=2.0) as client:
                srv.stop()
                assert wait_until(lambda: agent.degraded)
                hung = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                hung.bind(socket_path)
                hung.listen(64)  # queues every HELLO, answers none
                try:
                    for __ in range(40):  # each well inside connect_timeout
                        assert client.execute("PING") == "PONG"
                        time.sleep(0.05)
                    assert agent.degraded
                    hung.setblocking(False)
                    parked, __ = hung.accept()  # a redial awaits its WELCOME
                    assert FrameStream(parked).recv()["op"] == "hello"
                    parked.close()
                finally:
                    hung.close()
                srv = RpcDaemonServer(socket_path, 200, rpc_config=FAST).start()
                assert wait_until(lambda: not agent.degraded), "no reconnect"
                assert client.execute("SET", "k", "v" * 5000) == "OK"
                record = srv.smd.registry.get(agent.pid)
                assert wait_until(
                    lambda: record.granted_pages == store.sma.budget.granted
                )
                assert agent.stats.reconnects == 1
                # the loop watches the redialed socket: a DEMAND that a
                # second tenant's REQUEST sends is served (a SET larger
                # than the first grant asks again, and that REQUEST
                # reports the pages the first SET left it)
                assert client.execute("SET", "k2", "v" * 300_000) == "OK"
                tenant = hello(socket_path, "tenant")
                reply = request(tenant, 1, srv.smd.unassigned_pages + 1)
                assert reply["op"] in ("grant", "deny")
                assert agent.demands_served == 1
                tenant.close()
        finally:
            server.stop()
            agent.close()
            srv.stop()


class TestHeartbeats:
    def test_agent_detects_silent_daemon(self):
        """A daemon that stops responding (without closing the socket)
        is declared dead by heartbeat silence, not a 60 s hang."""
        client_sock, daemon_sock = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        daemon = FrameStream(daemon_sock)
        sma = LockedSoftMemoryAllocator(name="hb", request_batch_pages=4)
        holder = {}

        def build():
            holder["agent"] = SmaAgent(
                FrameStream(client_sock), sma, name="hb", config=FAST
            )

        builder = threading.Thread(target=build)
        builder.start()
        assert daemon.recv()["op"] == "hello"
        daemon.send({"op": "welcome", "pid": 1, "startup_budget": 0})
        builder.join(timeout=5)
        agent = holder["agent"]
        # the daemon now goes catatonic: socket open, no replies
        assert wait_until(lambda: agent.degraded, timeout=5.0), (
            "heartbeat silence never detected"
        )
        with pytest.raises(SoftMemoryDegraded):
            agent.request(4)
        agent.close()
        daemon.close()

    def test_server_reaps_silent_client(self, socket_path):
        with RpcDaemonServer(
            socket_path, soft_capacity_pages=50, rpc_config=FAST
        ) as srv:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5)
            sock.connect(socket_path)
            stream = FrameStream(sock)
            stream.send({"op": "hello", "name": "ghost",
                         "held": 0, "granted": 0})
            assert stream.recv()["op"] == "welcome"
            assert len(srv.smd.registry) == 1
            stream.send({"op": "ping", "t": 0})
            assert stream.recv()["op"] == "pong"
            # ...and then the client freezes (no close, no frames)
            assert wait_until(lambda: len(srv.smd.registry) == 0), (
                "silent client never reaped"
            )
            assert srv.clients_reaped >= 1
            assert srv.smd.assigned_pages == 0
            stream.close()

    def test_server_tolerates_client_without_heartbeats(self, socket_path):
        """A client that never pings opted out: it must NOT be reaped
        no matter how long it idles."""
        quiet = RpcConfig(
            heartbeat_interval=0.0, heartbeat_timeout=0.3,
            request_retry=RetryPolicy(attempts=1),
        )
        with RpcDaemonServer(
            socket_path, soft_capacity_pages=50, rpc_config=quiet
        ) as srv:
            sma = LockedSoftMemoryAllocator(name="idle")
            agent = SmaAgent.connect(socket_path, sma, config=quiet)
            time.sleep(1.0)  # several heartbeat_timeouts of silence
            assert len(srv.smd.registry) == 1
            assert not agent.degraded
            agent.close()


class TestRetryMachinery:
    def _scripted(self, config):
        client_sock, daemon_sock = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        daemon = FrameStream(daemon_sock)
        sma = LockedSoftMemoryAllocator(name="retry", request_batch_pages=4)
        holder = {}

        def build():
            holder["agent"] = SmaAgent(
                FrameStream(client_sock), sma, name="retry", config=config
            )

        builder = threading.Thread(target=build)
        builder.start()
        assert daemon.recv()["op"] == "hello"
        daemon.send({"op": "welcome", "pid": 9, "startup_budget": 0})
        builder.join(timeout=5)
        return holder["agent"], sma, daemon

    def test_retry_recovers_from_lost_reply(self):
        config = RpcConfig(
            heartbeat_interval=0.0, request_timeout=0.15,
            request_retry=RetryPolicy(attempts=3, base_delay=0.01),
        )
        agent, sma, daemon = self._scripted(config)
        result = {}

        def do_request():
            result["granted"] = agent.request(6)

        t = threading.Thread(target=do_request)
        t.start()
        first = daemon.recv()
        assert first["op"] == "request"
        # simulate the reply being lost: ignore the first attempt, then
        # answer the retry — which must carry the SAME id
        second = daemon.recv()
        assert second["op"] == "request"
        assert second["id"] == first["id"]
        daemon.send({"op": "grant", "id": second["id"], "pages": 6})
        t.join(timeout=5)
        assert result["granted"] == 6
        assert agent.stats.retries >= 1
        assert agent.stats.timeouts >= 1
        agent.close()
        daemon.close()

    def test_pending_maps_cleaned_after_timeout(self):
        """Satellite: a timed-out round-trip must not strand its
        pending/reply entries (the old unbounded-growth leak)."""
        config = RpcConfig(
            heartbeat_interval=0.0, request_timeout=0.05,
            request_retry=RetryPolicy(attempts=2, base_delay=0.01),
        )
        agent, sma, daemon = self._scripted(config)
        with pytest.raises(SoftMemoryDenied):
            agent.request(4)  # daemon never answers
        assert agent._pending == {}
        assert agent._replies == {}
        assert agent.degraded  # unresponsive == unreachable
        agent.close()
        daemon.close()

    def test_late_report_after_demand_timeout_not_stranded(self, socket_path):
        """Satellite: a REPORT landing after the daemon's DEMAND wait
        timed out is dropped: the victim's next DEMAND is answered by
        its own REPORT, not by the stale one."""
        slow = RpcConfig(
            heartbeat_interval=0.0, demand_timeout=0.3,
            request_retry=RetryPolicy(attempts=1),
            request_timeout=5.0,
        )
        with RpcDaemonServer(
            socket_path, soft_capacity_pages=40, rpc_config=slow
        ) as srv:
            # scripted victim claiming plenty of reclaimable pages
            victim = hello(
                socket_path, "victim", held=40, granted=40,
                flexibility=40, reclaimable=40,
            )
            # mirror the claim into the daemon ledger so an episode
            # will target this victim
            record = srv.connections()[0].record
            srv.smd.adopt_granted(record.pid, 40)

            # a real requester forces an episode -> DEMAND to victim
            sma = LockedSoftMemoryAllocator(name="asker",
                                            request_batch_pages=4)
            agent = SmaAgent.connect(socket_path, sma, config=slow)
            result = {}

            def ask():
                try:
                    result["granted"] = agent.request(20)
                except SoftMemoryDenied as exc:
                    result["denied"] = exc

            t = threading.Thread(target=ask)
            t.start()
            demand = victim.recv()
            assert demand["op"] == "demand"
            time.sleep(slow.demand_timeout + 0.3)  # let the wait expire
            victim.send({  # the late report
                "op": "report", "id": demand["id"],
                "pages_reclaimed": 40, "pages_from_budget": 40,
                "held": 0, "granted": 0,
            })
            t.join(timeout=10)
            assert "denied" in result  # the episode saw nothing in time
            assert srv.smd.pages_reclaimed == 0  # the late report: dropped

            t = threading.Thread(target=ask)
            t.start()
            again = victim.recv()
            assert again["op"] == "demand" and again["id"] != demand["id"]
            victim.send({
                "op": "report", "id": again["id"],
                "pages_reclaimed": 20, "pages_from_budget": 20,
                "held": 20, "granted": 20,
            })
            t.join(timeout=10)
            assert result["granted"] == 20
            assert srv.smd.pages_reclaimed == 20  # its own REPORT, only
            assert record.granted_pages == 20
            agent.close()
            victim.close()

    def test_a_welcomed_client_is_already_listed(self, socket_path):
        """A connection reads its first frame only once ``connections()``
        lists it: whoever holds a ``welcome`` finds its record there.
        The handler records what the list said when the hello ran."""
        listed = []

        class Recording(RpcDaemonServer):
            def handle_frame(self, connection, frame):
                if frame.get("op") == "hello":
                    listed.append(connection in self.connections())
                super().handle_frame(connection, frame)

        with Recording(socket_path, soft_capacity_pages=4):
            hello(socket_path, "early", held=0).close()
        assert listed == [True]


class TestDaemonLoop:
    """One thread serves every client; a client that breaks the
    protocol or stops reading costs only itself."""

    @pytest.mark.parametrize("frame", [
        {"op": "request", "id": 2, "pages": "five"},
        {"op": "request", "id": 2},
    ], ids=["pages-not-a-count", "pages-missing"])
    def test_a_malformed_frame_drops_its_sender_and_frees_its_budget(
        self, socket_path, frame
    ):
        with RpcDaemonServer(socket_path, soft_capacity_pages=20) as srv:
            client = hello(socket_path, "garbled", held=0, granted=0)
            assert request(client, 1, 5) == {
                "op": "grant", "id": 1, "pages": 5,
            }
            assert srv.smd.assigned_pages == 5
            client.send(frame)
            assert client.recv()["op"] == "error"
            with pytest.raises(FrameClosed):  # the daemon closed it
                client.recv()
            client.close()
            assert wait_until(lambda: not srv.smd.registry)
            assert srv.smd.assigned_pages == 0

    def test_a_bad_report_drops_the_victim_not_the_requester(
        self, socket_path
    ):
        with RpcDaemonServer(socket_path, soft_capacity_pages=40) as srv:
            victim = hello(
                socket_path, "victim", held=40, granted=40,
                flexibility=40, reclaimable=40,
            )
            srv.smd.adopt_granted(srv.connections()[0].record.pid, 40)
            asker = hello(socket_path, "asker", held=0, granted=0)
            asker.send({"op": "request", "id": 1, "pages": 20})
            demand = victim.recv()
            assert demand["op"] == "demand"
            victim.send({"op": "report", "id": demand["id"],
                         "pages_from_budget": "lots"})
            assert victim.recv()["op"] == "error"
            with pytest.raises(FrameClosed):
                victim.recv()
            assert asker.recv() == {"op": "deny", "id": 1, "reclaimed": 0}
            assert wait_until(lambda: len(srv.smd.registry) == 1)
            assert srv.smd.assigned_pages == 0
            assert request(asker, 2, 20)["op"] == "grant"  # still served
            asker.close()
            victim.close()

    def test_a_second_hello_is_refused_and_strands_nothing(
        self, socket_path
    ):
        with RpcDaemonServer(
            socket_path, 50, SmdConfig(startup_budget_pages=4)
        ) as srv:
            client = hello(socket_path, "twice", held=0, granted=0)
            assert srv.smd.assigned_pages == 4
            client.send({"op": "hello", "name": "twice", "held": 0})
            assert client.recv()["op"] == "error"
            with pytest.raises(FrameClosed):
                client.recv()
            client.close()
            assert wait_until(lambda: not srv.smd.registry)
            assert srv.smd.assigned_pages == 0

    def test_a_fresh_hello_into_an_oversubscribed_pool_gets_no_budget(
        self, socket_path
    ):
        """A resync may adopt more than the pool holds; a HELLO that
        follows is welcomed with a startup budget of 0, not a negative
        one its agent would refuse."""
        with RpcDaemonServer(
            socket_path, 20, SmdConfig(startup_budget_pages=4)
        ) as srv:
            smd = srv.smd
            hog = hello(socket_path, "hog", held=0, granted=0)
            hog.send({"op": "resync", "granted": 30})
            assert wait_until(lambda: smd.unassigned_pages == -10)
            sma = LockedSoftMemoryAllocator(name="late", request_batch_pages=1)
            agent = SmaAgent.connect(socket_path, sma, config=FAST)
            assert sma.budget.granted == 0
            assert smd.registry.get(agent.pid).granted_pages == 0
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10)
            sock.connect(socket_path)
            fresh = FrameStream(sock)
            fresh.send({"op": "hello", "name": "fresh", "held": 0})
            assert fresh.recv()["startup_budget"] == 0
            assert [r.granted_pages for r in smd.registry] == [30, 0, 0]
            assert smd.assigned_pages == (
                smd.pages_granted - smd.pages_released
                - smd.pages_reclaimed - smd.pages_forfeited
            ) == 30
            agent.close()
            fresh.close()
            hog.close()

    def test_eight_clients_and_an_episode_run_one_thread(self, socket_path):
        """The thread guard: the daemon adds exactly one thread however
        many clients it serves, mid-episode included."""
        before = set(threading.enumerate())

        def started():
            return [t for t in threading.enumerate() if t not in before]

        with RpcDaemonServer(
            socket_path, 16, SmdConfig(startup_budget_pages=2)
        ) as srv:
            clients = [
                hello(socket_path, f"c{i}", held=0, granted=2,
                      flexibility=2 * (i == 1), reclaimable=2 * (i == 1))
                for i in range(8)
            ]
            assert srv.smd.unassigned_pages == 0
            asker, victim = clients[0], clients[1]
            asker.send({"op": "request", "id": 1, "pages": 1})
            demand = victim.recv()  # the episode waits for the REPORT
            assert demand["op"] == "demand"
            assert len(started()) == 1
            victim.send({"op": "report", "id": demand["id"],
                         "pages_from_budget": 1, "granted": 1})
            assert asker.recv() == {"op": "grant", "id": 1, "pages": 1}
            assert len(started()) == 1
            for client in clients:
                client.close()

    def test_an_episode_waits_at_the_loop_s_one_poll(self, socket_path):
        """The poll-depth guard: every ``poll`` the daemon makes is made
        at one stack depth, mid-episode included — a wait nested in the
        episode would poll deeper. Counted, no clock read."""
        srv = RpcDaemonServer(socket_path, 40)
        srv._poller = poller = DepthPoller(srv._poller)
        with srv:
            victim, asker, demand = park_an_episode(srv, socket_path)
            before = len(poller.depths)
            for t in range(3):  # the REPORT is late; PINGs are served
                victim.send({"op": "ping", "t": t})
                assert victim.recv() == {"op": "pong", "t": t}
            victim.send({"op": "report", "id": demand["id"],
                         "pages_from_budget": 20, "granted": 20})
            assert asker.recv() == {"op": "grant", "id": 1, "pages": 20}
            assert len(poller.depths) - before >= 3
            victim.close()
            asker.close()
        assert len(set(poller.depths)) == 1, set(poller.depths)

    def test_a_silent_client_is_reaped_while_an_episode_waits(
        self, socket_path
    ):
        quick_reaper = RpcConfig(heartbeat_timeout=0.3, demand_timeout=60.0)
        with RpcDaemonServer(socket_path, 40, rpc_config=quick_reaper) as srv:
            ghost = hello(socket_path, "ghost", held=0, granted=0)
            victim, asker, demand = park_an_episode(srv, socket_path)
            ghost.send({"op": "ping", "t": 0})
            assert ghost.recv()["op"] == "pong"
            # ...and then the ghost freezes while the victim holds its
            # REPORT: the reaper closes it (reads wait up to 10 s)
            with pytest.raises(FrameClosed):
                ghost.recv()
            assert srv.clients_reaped == 1
            # its deregistration waits behind the parked episode
            assert len(srv.smd.registry) == 3
            victim.send({"op": "report", "id": demand["id"],
                         "pages_from_budget": 20, "granted": 20})
            assert asker.recv() == {"op": "grant", "id": 1, "pages": 20}
            assert wait_until(lambda: len(srv.smd.registry) == 2)
            check_smd(srv.smd)
            for client in (ghost, victim, asker):
                client.close()

    def test_a_victim_that_closes_mid_episode_ends_it_at_once(
        self, socket_path
    ):
        """The requester's reply comes within its 10 s read, long
        before ``demand_timeout``."""
        patient = RpcConfig(demand_timeout=60.0)
        with RpcDaemonServer(socket_path, 40, rpc_config=patient) as srv:
            victim, asker, __ = park_an_episode(srv, socket_path)
            victim.close()
            assert asker.recv() == {"op": "deny", "id": 1, "reclaimed": 0}
            assert wait_until(lambda: len(srv.smd.registry) == 1)
            check_smd(srv.smd)
            assert srv.smd.assigned_pages == 0
            asker.close()

    def test_stop_with_an_episode_parked_keeps_the_ledger(self, socket_path):
        srv = RpcDaemonServer(socket_path, 40).start()
        victim, asker, __ = park_an_episode(srv, socket_path)
        srv.stop()
        assert not srv._thread.is_alive()
        check_smd(srv.smd)
        assert srv.smd.assigned_pages == 40  # nothing was surrendered
        victim.close()
        asker.close()

    def test_a_client_that_stops_reading_is_dropped_alone(self, socket_path):
        """The slow-reader guard: one client floods PINGs and reads no
        PONG; the daemon drops it and keeps welcoming others."""
        with RpcDaemonServer(socket_path, 50, rpc_config=FAST) as srv:
            flooder = hello(socket_path, "flooder", held=0)
            flooder._sock.setblocking(False)
            ping = b'{"op":"ping","t":0}\n'
            for __ in range(1_000_000):  # until its socket fills, or drops
                try:
                    flooder._sock.send(ping)
                except OSError:
                    break
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(3.0)
            sock.connect(socket_path)
            other = FrameStream(sock)
            other.send({"op": "hello", "name": "other", "held": 0})
            assert other.recv()["op"] == "welcome"
            assert wait_until(lambda: [
                r.name for r in srv.smd.registry
            ] == ["other"]), "the flooder was never dropped"
            other.close()
            flooder.close()
