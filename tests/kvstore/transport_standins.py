"""Counting stand-ins for what the serving loop touches in the kernel.

Shared by ``test_round_guard.py`` (counts per round, real ``poll``) and
``test_transport_edges.py`` (rounds the test writes itself). Nothing
here reads a clock: a test counts calls, or scripts what they return.
:class:`ScriptedDaemon` stands in for the soft memory daemon at the
other end of a kv process's ``--smd-socket``.
"""

from __future__ import annotations

import contextlib
import queue
import select
import socket
import threading
from collections import Counter

from repro.rpc.framing import FrameStream


class CountingSocket:
    """A socket that counts ``recv_into``, ``recv``, ``send`` and
    ``sendall``: an accepted one, or a replica's link to its master.

    ``script`` holds the next ``send`` outcomes: an ``int`` is how many
    bytes the kernel takes, an exception class is raised instead; when
    it runs out the real socket answers.
    """

    def __init__(self, sock, counts: Counter) -> None:
        self._sock = sock
        self.counts = Counter()  # this socket's own
        self._totals = counts  # every socket of the server
        self.script: list = []

    def _count(self, call: str) -> None:
        self.counts[call] += 1
        self._totals[call] += 1

    def recv_into(self, buffer) -> int:
        self._count("recv_into")
        return self._sock.recv_into(buffer)

    def recv(self, size: int, *flags: int) -> bytes:
        self._count("recv")
        return self._sock.recv(size, *flags)

    def sendall(self, data) -> None:
        self._count("sendall")
        self._sock.sendall(data)

    def send(self, data) -> int:
        self._count("send")
        if self.script:
            step = self.script.pop(0)
            if not isinstance(step, int):
                raise step
            data = bytes(data[:step])
        return self._sock.send(data)

    def __getattr__(self, name):  # fileno, close, setsockopt, ...
        return getattr(self._sock, name)


class CountingListener:
    """The server's listener, handing out :class:`CountingSocket`."""

    def __init__(self, listener, counts: Counter) -> None:
        self._listener = listener
        self._counts = counts
        self.accepted: list[CountingSocket] = []

    def accept(self):
        sock, peer = self._listener.accept()
        self.accepted.append(CountingSocket(sock, self._counts))
        return self.accepted[-1], peer

    def __getattr__(self, name):
        return getattr(self._listener, name)


class CountingPoll:
    """A real poll object that counts what the loop asks of it.

    A ``poll`` counts when it *returns*: an idle loop is parked inside
    its next call, so the count is still while nothing arrives.
    """

    def __init__(self, real, counts: Counter) -> None:
        self._real = real
        self._counts = counts
        self.masks: list[int] = []  # what each ``modify`` asked for

    def poll(self, *args):
        events = self._real.poll(*args)
        self._counts["poll"] += 1
        return events

    def modify(self, fd, mask) -> None:
        self._counts["modify"] += 1
        self.masks.append(mask)
        self._real.modify(fd, mask)

    def __getattr__(self, name):  # register, unregister, close, fileno
        return getattr(self._real, name)


class ScriptedPoll:
    """The loop's poll object, with the test's rounds for the kernel's.

    Each round is a callable, run when the loop polls — the moment
    another thread could act between the kernel's answer and the loop
    reading it — that returns the round's ``[(fd, mask)]``. After the
    last one the server is stopped, so the loop ends in its shutdown.
    ``timeouts`` is what the loop asked each poll to block for.
    """

    def __init__(self, server, *rounds) -> None:
        self._real = server._poller
        self._server = server
        self._rounds = list(rounds)
        self.timeouts: list = []

    def poll(self, timeout=None):
        self.timeouts.append(timeout)
        if not self._rounds:
            self._server.stop()  # no loop thread to join: returns at once
            return []
        return self._rounds.pop(0)()

    def __getattr__(self, name):
        return getattr(self._real, name)


def drive(server, *rounds) -> None:
    """Run ``server``'s loop on this thread: ``rounds``, then shutdown."""
    server._poller = ScriptedPoll(server, *rounds)
    server._loop()


def readable(fd: int) -> None:
    """Block until the kernel has something (bytes, EOF) on ``fd``."""
    waiter = select.poll()
    waiter.register(fd, select.POLLIN)
    assert waiter.poll(5000), f"nothing arrived on fd {fd}"


class ScriptedDaemon:
    """The soft memory daemon at the other end of one agent's socket.

    ``build_server(smd_socket=daemon.path)`` blocks on the WELCOME, so
    it runs inside :meth:`welcoming`, whose helper thread answers the
    handshake and is joined on exit. Then the test scripts the socket
    with :meth:`send` and :meth:`recv`, or :meth:`serve` grants every
    REQUEST on a thread and queues what else arrives for :meth:`expect`.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(1)
        self.stream: FrameStream | None = None
        self._send_lock = threading.Lock()  # serve() and the test both send
        self._frames: queue.Queue = queue.Queue()
        self._server: threading.Thread | None = None

    @contextlib.contextmanager
    def welcoming(self, startup_pages: int = 0):
        def handshake():
            sock, __ = self._listener.accept()
            sock.settimeout(10)
            self.stream = FrameStream(sock)
            assert self.stream.recv()["op"] == "hello"
            self.send({"op": "welcome", "pid": 1,
                       "startup_budget": startup_pages})

        helper = threading.Thread(target=handshake)
        helper.start()
        try:
            yield self
        finally:
            helper.join(10)

    def send(self, frame: dict) -> None:
        with self._send_lock:
            self.stream.send(frame)

    def recv(self) -> dict:
        return self.stream.recv()

    def serve(self) -> None:
        def answer():
            while True:
                try:
                    frame = self.stream.recv()
                except (OSError, ValueError):
                    return  # closed
                if frame["op"] == "request":
                    self.send({"op": "grant", "id": frame["id"],
                               "pages": frame["pages"]})
                elif frame["op"] == "release":
                    self.send({"op": "ok", "id": frame["id"]})
                else:
                    self._frames.put(frame)

        self.stream.settimeout(None)
        self._server = threading.Thread(target=answer, name="scripted-smd")
        self._server.start()

    def expect(self, op: str, timeout: float) -> dict | None:
        """The next queued ``op`` frame, or None after ``timeout``."""
        try:
            while True:
                frame = self._frames.get(timeout=timeout)
                if frame["op"] == op:
                    return frame
        except queue.Empty:
            return None

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()
        self._listener.close()
        if self._server is not None:
            self._server.join(10)
