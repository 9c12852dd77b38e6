"""The fleet harness: kv nodes, one step vocabulary, the oracle after
every step.

A :class:`Fleet` runs its nodes in this process (``build_server``), as
``kv_server`` subprocesses (``spawn_kv_server``, the CLI's own path) or
as the shards of a :class:`ClusterSupervisor`, under one soft memory
daemon it hosts (or the supervisor's). ``fleet.run(*steps)`` takes a
step list — a method name, or ``(name, argument)`` — and after every
step :meth:`Fleet.check` runs :class:`repro.obs.oracle.Oracle` over
every node's ``INFO`` once, :func:`~repro.obs.oracle.check_fleet` until
the ledgers that cross a socket settle, and the acked-prefix model over
every node's keys. ``nodes[0]`` is the master; a replica follows it.
The old soak, crash, failover and cluster scripts are pinned step lists
over this vocabulary; ``tests/obs/test_fleet.py`` draws new ones.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import socket
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.errors import SoftMemoryDenied
from repro.core.locking import LockedSoftMemoryAllocator
from repro.daemon.smd import SmdConfig
from repro.kvstore import TcpKvClient
from repro.kvstore.cluster import ClusterKvClient
from repro.kvstore.cluster.supervisor import ClusterSupervisor, spawn_kv_server
from repro.kvstore.persist.codec import EXP_NONE, encode_write
from repro.kvstore.resp import PIPELINE_MORE, ProtocolError, RespError, RespParser
from repro.obs.oracle import Oracle, check_acked, check_fleet, flat_info
from repro.rpc import SmaAgent
from repro.rpc.server import RpcDaemonServer
from repro.sds.soft_linked_list import SoftLinkedList
from repro.tools.kv_server import GracefulShutdown, build_server
from repro.util.units import PAGE_SIZE

POISONS = [
    b"*2\r\n$3\r\nGET\r\n$-5\r\nxx\r\n",  # invalid bulk length
    b"*1\r\n$2\r\nxyZZ\r\n",  # bulk not CRLF-terminated
    b"!weird\r\n",  # unknown type byte
    b"*-7\r\n",  # invalid array length
]


def rounds(default: int) -> range:
    """``FLEET_ROUNDS`` (env) rounds, else ``default``: CI runs every
    round-scaled schedule 25 deep."""
    return range(int(os.environ.get("FLEET_ROUNDS", default)))


def settle(check, timeout: float = 15.0):
    """``check()`` until it stops failing: ledgers that cross a socket
    (RPC grants, replica offsets) balance once traffic is quiescent."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return check()
        except AssertionError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def together(fn, items) -> None:
    """``fn`` over ``items`` on threads at once: process spawns and exits
    overlap instead of queueing (the first failure re-raises)."""
    with ThreadPoolExecutor() as pool:
        list(pool.map(fn, items))


def expected_drop(poison: bytes) -> int:
    """Bytes a server parser quarantines for ``poison``, derived by
    replaying it through a scratch parser the way the server pump does."""
    scratch = RespParser()
    scratch.feed(poison)
    try:
        while scratch.parse_pipeline([]) != PIPELINE_MORE:
            if scratch.parse_one() is None:
                return 0
        return 0
    except ProtocolError:
        return scratch.last_error_dropped


class Client(TcpKvClient):
    """Counts the commands it sends."""

    sent = 0

    def execute(self, *args):
        self.sent += 1
        return super().execute(*args)

    def execute_pipeline(self, *commands):
        self.sent += len(commands)
        return super().execute_pipeline(*commands)


class Node:
    """One kv node: a ``thread`` (in this process), a ``process``, or a
    supervised ``shard``. ``server`` holds ``build_server`` keywords,
    which a process receives as the same CLI flags."""

    def __init__(self, name, workdir, kind="thread", durable=False, **server):
        self.name, self.kind, self.server = name, kind, server
        self.stderr = os.path.join(workdir, f"{name}.stderr")
        if durable:  # ``always``: a SIGKILL loses nothing acked; in this
            # process a crash is a stop between rounds, which writes it all
            server.update(data_dir=os.path.join(workdir, name),
                          appendfsync="always" if kind == "process" else "everysec")
            os.makedirs(server["data_dir"], exist_ok=True)
        self.port = server.pop("port", 0)
        self.lives = 0
        self.tenant = kind == "shard" or "smd_socket" in server
        self.process = self.parts = self.client = None

    @property
    def key(self) -> str:
        """The oracle's name for this incarnation."""
        return f"{self.name}#{self.lives}"

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    def start(self) -> "Node":
        if self.kind == "process":
            args = [f"--port={self.port}"]
            for k, v in self.server.items():
                v = ("on" if v else "off") if isinstance(v, bool) else v
                args.append(f"--{'dir' if k == 'data_dir' else k.replace('_', '-')}={v}")
            self.process, address = spawn_kv_server(args, self.stderr, 30.0)
            self.port = address[1]
        elif self.kind == "thread":
            self.parts = build_server(port=self.port, **self.server)
            self.port = self.parts[2].start().address[1]
        self.lives += 1
        self.poisoned = [0, 0]  # frames sent, bytes a parser dropped
        self.infos = 0  # the harness's own INFO calls
        self.client = Client(self.address, timeout=30.0)
        return self

    def down(self, graceful: bool) -> None:
        """SIGTERM or SIGKILL; in this process the same shutdown with or
        without the closing snapshot."""
        self.client.close()
        if self.process is not None:
            self.process.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            code = self.process.wait(timeout=30)
            assert code == (0 if graceful else -signal.SIGKILL), code
            self.process.stdout.close()
            self.process = None
        elif self.parts is not None:
            store, persistence, server = self.parts
            if graceful:
                GracefulShutdown(server, persistence, store.smd_agent).run()
            else:
                server.stop()
                if persistence is not None:
                    persistence.close()
                if store.smd_agent is not None:
                    store.smd_agent.close()
            self.parts = None

    def call(self, *args):
        """One command; an error reply is returned, not raised."""
        try:
            return self.client.execute(*args)
        except RespError as exc:
            return exc

    def info(self) -> dict:
        self.infos += 1
        return flat_info(self.client.execute(b"INFO"))

    @property
    def traffic(self) -> int:
        """Commands this incarnation was sent, the harness's INFOs aside."""
        return self.client.sent - self.infos


class Fleet:
    """Nodes under one daemon, an antagonist tenant, the acked model."""

    def __init__(self, workdir, *, seed=0, capacity_pages=192, startup_pages=16,
                 shards=0):
        self.workdir = str(workdir)
        self.rng = random.Random(seed)
        self.oracle = Oracle()
        self.nodes: list[Node] = []
        self.born = 0
        self.acked: dict[bytes, bytes] = {}  # burst key -> last acked value
        self.gone: set[bytes] = set()  # acked keys the budget took
        self.inflight: set[bytes] = set()  # writes a kill cut off
        self.may_miss = 0
        self.learn = False  # the last step could reclaim acked keys
        self.seq = 0
        self.rival = None
        self.supervisor = None
        self.sockdir = tempfile.mkdtemp(prefix="fleet-")  # unix paths are short
        if shards:
            self.supervisor = ClusterSupervisor(
                shards, soft_capacity_pages=capacity_pages,
                startup_budget_pages=startup_pages, health_interval=1.0,
                workdir=self.sockdir,
            ).start()
            self.daemon = self.supervisor.daemon
            for host, port in self.supervisor.addresses:
                self.add("shard", port=port)
            self.client = ClusterKvClient(self.supervisor.addresses)
        else:
            self.daemon = RpcDaemonServer(
                os.path.join(self.sockdir, "smd.sock"), capacity_pages,
                SmdConfig(startup_budget_pages=startup_pages),
            )
            self.daemon.start()

    @property
    def smd(self):
        return self.daemon.smd

    @property
    def master(self) -> Node:
        return self.nodes[0]

    def add(self, kind="thread", *, copies=1, tenant=False, replica=False,
            **server) -> None:
        """Start ``copies`` more nodes at once (replicas follow the master)."""
        if tenant:
            server["smd_socket"] = self.daemon.socket_path
        if replica:
            server["replicaof"] = "%s:%d" % self.master.address
        nodes = [Node(f"n{self.born + i}", self.workdir, kind, **dict(server))
                 for i in range(copies)]
        self.born += copies
        together(Node.start, nodes)
        self.nodes += nodes
        if replica:  # part of the topology once its first sync is done
            self.wait_links()
        if not self.supervisor and len(self.nodes) == copies:
            self.client = self.master.client

    # -- the oracle after every step -----------------------------------

    def run(self, *steps) -> None:
        for step in steps:
            name, *arg = step if isinstance(step, tuple) else (step,)
            getattr(self, name)(*arg)
            self.check()

    def check(self) -> None:
        self.wait()  # every byte the step streamed is in each replica's AOF
        infos = {n.key: n.info() for n in self.nodes}
        self.oracle.check(infos)  # each node's own books: once, no retry
        for node in self.nodes:
            info = infos[node.key]
            assert [info["protocol_errors"], info["protocol_dropped_bytes"]] == node.poisoned
            if self.born == 1:  # one client sent it all, this INFO aside
                assert info["commands_processed"] == node.client.sent - 1, (
                    f"{node.key}: INFO counts {info['commands_processed']} "
                    f"commands, its client sent {node.client.sent - 1}")
            if node.parts is not None:  # in this process: the SMA's own books
                # off the loop, yet unraced: the loop mutates its SMA
                # for a client or a DEMAND, and between steps no client
                # sends and no tenant asks the daemon (``press`` joins
                # its thread), so no DEMAND is in flight
                node.parts[0].sma.check_invariants()
        if self.rival is not None:
            self.rival[0].check_invariants()
        settle(self._check_fleet)  # grants and offsets cross a socket
        sweeps = ({"cluster": self.client} if self.supervisor
                  else {n.key: n.client for n in self.nodes})
        for i, (name, client) in enumerate(sweeps.items()):
            present = dict(zip(sorted(self.acked), client.execute_pipeline(
                *((b"GET", k) for k in sorted(self.acked)))))
            if i == 0 and self.learn:  # the master's sweep teaches the model
                self.gone |= {k for k in self.acked if present[k] is None}
            check_acked(name, present, self.acked, self.gone,
                        inflight=self.inflight, may_miss=self.may_miss)
        self.learn, self.inflight, self.may_miss = False, set(), 0

    def _check_fleet(self) -> None:
        check_fleet(
            {n.key: n.info() for n in self.nodes}, smd=self.smd,
            tenants=[n.key for n in self.nodes if n.tenant],
            other_granted=self.rival[0].budget.granted if self.rival else 0,
            master=self.master.key
            if self.supervisor is None and len(self.nodes) > 1 else None,
        )

    # -- traffic -------------------------------------------------------

    def fill(self, keys=400, size=1024) -> None:
        """Pipelined SETs that chew through soft capacity."""
        batch = [(b"SET", b"fill:%d" % i, bytes([self.rng.randrange(256)]) * size)
                 for i in range(keys)]
        for at in range(0, keys, 32):
            self.client.execute_pipeline(*batch[at:at + 32])

    def churn(self, ops=600) -> None:
        """A seeded mix over strings, hashes and lists; OOM tolerated."""
        rng = self.rng
        for _ in range(ops):
            key = b"churn:%d" % rng.randrange(80)
            command = [
                (b"GET", key), (b"GET", key), (b"GET", key),
                (b"SET", key, b"v" * rng.randrange(16, 512)),
                (b"SET", key, b"v" * rng.randrange(16, 512)),
                (b"DEL", key), (b"INCR", b"counter:%d" % rng.randrange(8)),
                (b"HSET", b"h:" + key, b"f%d" % rng.randrange(4), b"x"),
                (b"LPUSH", b"l:" + key, b"item"), (b"EXPIRE", key, b"100"),
            ][rng.randrange(10)]
            self.client.execute_pipeline(command)

    def burst(self, n=80, rewrite=False) -> None:
        """Sequential acked SETs (then ``WAIT`` for every replica).

        ``rewrite``: one pipelined batch instead re-writes every other key
        the budget took, purges, and re-writes them again — a key
        re-written in the very batch that reclaims it.
        """
        if rewrite:
            keys = sorted(self.gone)[::2]
            replies = self.client.execute_pipeline(
                *((b"SET", k, b"a" + k) for k in keys), (b"MEMORY", b"PURGE", b"64"),
                *((b"SET", k, b"b" + k) for k in keys))
            for key, reply in zip(keys, replies[len(keys) + 1:]):
                self.gone.discard(key)
                if reply == "OK":
                    self.acked[key] = b"b" + key
                else:  # denied: the model no longer knows what it holds
                    del self.acked[key]
            self.learn = True
        for __ in range(0 if rewrite else n):
            key = b"seq-%06d" % self.seq
            self.seq += 1
            value = b"val-%d-" % self.seq + b"x" * 40
            assert self.client.execute(b"SET", key, value) == "OK"
            self.acked[key] = value
        self.wait()

    def wait(self) -> None:
        replicas = len(self.nodes) - 1
        if replicas and not self.supervisor:
            assert self.master.call(b"WAIT", replicas, 15000) == replicas

    def purge(self, pages=24, deep=True) -> None:
        """A ``MEMORY PURGE`` wave, reads of half the keyspace (promoted,
        or served from their stubs), then a twice-as-deep wave that
        spills the tier itself."""
        targets = self.nodes if self.supervisor else self.nodes[:1]
        for wave in (pages, pages * 2)[:1 + deep]:
            for node in targets:
                node.call(b"MEMORY", b"PURGE", b"%d" % wave)
            if wave == pages:
                keys = sorted(set(self.client.execute(b"KEYS", b"*")))
                replies = self.client.execute_pipeline(*((b"GET", k) for k in keys[::2]))
                assert None not in replies, "a demoted key read back as missing"
        self.learn = True
        self.wait()

    def antagonist(self, pages=96) -> None:
        """A tenant that is not a node allocates until the daemon denies
        it three times, forcing reclamation through the nodes' caches."""
        self._rival_allocates(pages)
        self.learn = True
        self.wait()

    def press(self, pages=96, n=80) -> None:
        """The antagonist allocates on a thread while a burst of SETs
        runs against the master, so DEMANDs land mid-traffic; a SET the
        budget refuses is not acked."""
        with ThreadPoolExecutor(1) as pool:
            allocating = pool.submit(self._rival_allocates, pages)
            for __ in range(n):
                key = b"seq-%06d" % self.seq
                self.seq += 1
                value = b"val-%d-" % self.seq + b"x" * 40
                try:
                    assert self.client.execute(b"SET", key, value) == "OK"
                except RespError:
                    continue
                self.acked[key] = value
            allocating.result()
        self.learn = True
        self.wait()

    def _rival_allocates(self, pages) -> None:
        if self.rival is None:
            sma = LockedSoftMemoryAllocator(name="antagonist", request_batch_pages=8)
            agent = SmaAgent.connect(self.daemon.socket_path, sma)
            self.rival = (sma, agent, SoftLinkedList(sma, element_size=PAGE_SIZE))
        sma, __, scratch = self.rival
        got = denials = 0
        while denials < 3 and got < pages:
            try:
                scratch.append(got)
                got += 1
            except SoftMemoryDenied:
                denials += 1

    def deregister(self) -> None:
        """The antagonist exits; the daemon forfeits what it held."""
        if self.rival is not None:
            tenants = len(self.smd.registry)
            self.rival[1].close()
            self.rival = None
            settle(lambda: self._assert(len(self.smd.registry) < tenants))

    def degraded(self, ops=120) -> None:
        """Traffic while the master's SMA cannot reach its daemon (a
        no-op on a process master: its SMA is out of reach)."""
        if self.master.parts is None:
            return
        sma = self.master.parts[0].sma
        sma.mark_degraded(True)
        try:
            for i in range(ops):
                self.master.call(b"SET", b"degraded:%d" % i,
                                 b"d" * self.rng.randrange(512, 4096))
                if i % 3 == 0:
                    self.master.call(b"GET", b"fill:%d" % self.rng.randrange(64))
        finally:
            sma.mark_degraded(False)
        self.wait()

    def poison(self, frames=4) -> None:
        """Malformed RESP on throwaway connections; the master survives."""
        for i in range(frames):
            frame = POISONS[i % len(POISONS)]
            with socket.create_connection(self.master.address, timeout=10) as sock:
                sock.sendall(frame)
                parser = RespParser()
                parser.feed(sock.recv(65536))
                assert isinstance(parser.parse_one(), RespError)
            self.master.poisoned[0] += 1
            self.master.poisoned[1] += expected_drop(frame)

    # -- faults --------------------------------------------------------

    def kill(self, kill_at=40) -> None:
        """SIGKILL the master ``kill_at`` acked writes into a burst, then
        recover it over the same directory and port. Only a process
        master really crashes; one in this process stops between writes."""
        node = self.master
        node.call(b"SET", b"lease", b"v", b"EX", b"600")
        lease = node.call(b"TTL", b"lease")
        frame = None
        for i in range(kill_at + 3):
            key = b"seq-%06d" % self.seq
            self.seq += 1
            value = b"val-%d-" % self.seq + b"x" * 40
            if i > kill_at:  # sent after the kill: at most one may land
                self.inflight.add(key)
                if frame is None:
                    frame = bytearray()
                    encode_write(frame, key, value, EXP_NONE)
            try:
                assert node.client.execute(b"SET", key, value) == "OK"
                self.acked[key] = value
            except (ConnectionError, OSError):
                break  # the socket dying mid-burst is the point
            if i == kill_at:
                if node.process is None:
                    break  # in this process a crash lands between rounds
                node.process.kill()  # no flush, no atexit
        node.down(graceful=False)
        self._restart(node)
        info = node.info()
        # a torn tail is at most the one record frame in flight
        assert info["recovery_truncated_bytes"] <= (len(frame) if frame else 0)
        assert 0 < node.call(b"TTL", b"lease") <= lease, "a lease grew back"

    def term(self, exact=False) -> None:
        """SIGTERM the master: cold recovery equals the live keyspace,
        unless the budget refused to re-admit some of it (``exact``:
        it may not)."""
        node = self.master
        keys = set(node.call(b"KEYS", b"*"))
        compressed = node.info()["compressed_entries"]
        node.down(graceful=True)
        self._restart(node)
        info = node.info()
        assert info["recovery_truncated_bytes"] == 0
        assert not (exact and info["recovery_admission_denied"]), info["recovery_admission_denied"]
        if not info["recovery_admission_denied"]:
            assert set(node.call(b"KEYS", b"*")) == keys
            assert info["compressed_entries"] == compressed

    def _restart(self, node: Node) -> None:
        node.start()
        if node is self.master and not self.supervisor:
            self.client = node.client
        self.may_miss = node.info()["recovery_admission_denied"]
        self.wait_links()

    def wait_links(self) -> None:
        for replica in self.nodes[1:]:
            settle(lambda: self._assert(replica.info()["master_link_status"] == "up"))

    def failover(self) -> None:
        """SIGKILL the master, promote the first replica, repoint the rest
        (a master with no replica left stays up)."""
        if len(self.nodes) < 2:
            return
        dead = self.nodes.pop(0)
        dead.down(graceful=False)
        promoted = self.master
        assert promoted.call(b"REPLICAOF", b"NO", b"ONE") == "OK"
        del promoted.server["replicaof"]  # and restarts as a master
        self.client = promoted.client
        full = promoted.info().get("sync_full", 0)
        for replica in self.nodes[1:]:
            host, port = promoted.address
            assert replica.call(b"REPLICAOF", host, str(port)) == "OK"
            replica.server["replicaof"] = "%s:%d" % promoted.address
        self.wait_links()
        info = promoted.info()
        assert info["role"] == "master"
        assert info.get("sync_partial_ok", 0) >= len(self.nodes) - 1
        assert info.get("sync_full", 0) == full, "a sibling re-transferred the keyspace"

    def bounce(self) -> None:
        """Every replica is sent ``REPLICAOF`` its own master: each link
        closes, redials and resumes from the master's backlog."""
        if len(self.nodes) < 2 or self.supervisor:
            return
        before = self.master.info()
        host, port = self.master.address
        for replica in self.nodes[1:]:
            assert replica.call(b"REPLICAOF", host, str(port)) == "OK"
        self.wait_links()
        info = self.master.info()
        assert info["sync_partial_ok"] == (
            before["sync_partial_ok"] + len(self.nodes) - 1
        ), "a bounced replica did not resume from the backlog"
        assert info["sync_full"] == before["sync_full"]

    def newborn(self, **server) -> None:
        """A fresh replica has no stream position: full sync only."""
        full = self.master.info().get("sync_full", 0)
        self.add(self.master.kind, replica=True, durable=True, **server)
        assert self.master.info().get("sync_full", 0) == full + 1

    @staticmethod
    def _assert(condition: bool) -> None:
        assert condition

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self.rival is not None:
            self.rival[1].close()
        if self.supervisor is not None:
            self.client.close()
            self.supervisor.stop()
        together(lambda node: node.down(graceful=node.kind != "shard"), self.nodes)
        if self.supervisor is None:
            self.daemon.stop()
        shutil.rmtree(self.sockdir, ignore_errors=True)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
