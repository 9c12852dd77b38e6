"""The two clients: in-process over a session, blocking over a socket.

:class:`KvClient` drives a :class:`~repro.kvstore.server.KvServer`
directly; :class:`TcpKvClient` is the blocking client that matches
:class:`~repro.kvstore.tcp.TcpKvServer`. Both encode commands through
the real RESP codec and decode real RESP replies, so every call
exercises the full wire path both ways, and both share one contract:
``execute`` raises an error reply, ``execute_pipeline`` returns them
in place.
"""

from __future__ import annotations

import select
import socket
from collections import deque
from typing import Any

from repro.kvstore.resp import RespError, RespParser, encode_command
from repro.kvstore.server import KvServer

_RECV_SIZE = 65536


class KvClient:
    """Synchronous client; raises :class:`RespError` on error replies."""

    def __init__(self, server: KvServer) -> None:
        self._server = server
        self._parser = RespParser()

    def execute(self, *args: Any) -> Any:
        """Send one command and return its decoded reply."""
        raw = self._server.feed(encode_command(*args))
        self._parser.feed(raw)
        replies = self._parser.parse_all()
        if len(replies) != 1:
            raise RuntimeError(
                f"expected one reply, got {len(replies)}: {replies!r}"
            )
        reply = replies[0]
        if isinstance(reply, RespError):
            raise reply
        return reply

    def execute_pipeline(self, *commands: tuple) -> list[Any]:
        """Run several commands as one batch through ``feed_batch``.

        Error replies come back in-place (not raised), matching the TCP
        client's pipelining contract: one failed command must not
        discard the replies that follow it.
        """
        if not commands:
            return []
        request = bytearray()
        for command in commands:
            request += encode_command(*command)
        out = bytearray()
        self._server.feed_batch(request, out)
        self._parser.feed(out)
        replies = self._parser.parse_all()
        if len(replies) != len(commands):
            raise RuntimeError(
                f"expected {len(commands)} replies, got {len(replies)}"
            )
        return replies

    # -- sugar ---------------------------------------------------------

    def ping(self) -> str:
        return str(self.execute("PING"))

    def set(self, key: str, value: str | bytes, ex: int | None = None) -> bool:
        if ex is None:
            return str(self.execute("SET", key, value)) == "OK"
        return str(self.execute("SET", key, value, "EX", ex)) == "OK"

    def get(self, key: str) -> bytes | None:
        return self.execute("GET", key)

    def delete(self, *keys: str) -> int:
        return self.execute("DEL", *keys)

    def exists(self, *keys: str) -> int:
        return self.execute("EXISTS", *keys)

    def expire(self, key: str, seconds: int) -> bool:
        return bool(self.execute("EXPIRE", key, seconds))

    def ttl(self, key: str) -> int:
        return self.execute("TTL", key)

    def incr(self, key: str) -> int:
        return self.execute("INCR", key)

    def dbsize(self) -> int:
        return self.execute("DBSIZE")

    def flushall(self) -> bool:
        return str(self.execute("FLUSHALL")) == "OK"

    def keys(self, pattern: str = "*") -> list[bytes]:
        return self.execute("KEYS", pattern)

    def info(self) -> dict[str, str]:
        raw: bytes = self.execute("INFO")
        out: dict[str, str] = {}
        for line in raw.decode().splitlines():
            if ":" in line:
                key, __, value = line.partition(":")
                out[key] = value
        return out


class TcpKvClient:
    """Blocking RESP client over a real socket.

    Replies are consumed strictly in FIFO order through an internal
    queue: when one ``recv`` delivers several parsed replies (batched
    or pipelined), the extras are kept for the following calls instead
    of being discarded. A call that fails mid-exchange (any
    ``OSError``: a read timeout, the server closing) closes the client
    before the error propagates — the reply it gave up on may still
    arrive, and a later call must raise rather than take it for its
    own. Together: the client can never desync from the server.

    ``timeout`` bounds every read/write after the connection is up;
    ``connect_timeout`` bounds only the dial (it defaults to
    ``timeout``, but a supervisor health-checking a possibly-dead shard
    wants a short dial bound without throttling data reads).
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float = 5.0,
        connect_timeout: float | None = None,
    ) -> None:
        self._sock = socket.create_connection(
            address,
            timeout=timeout if connect_timeout is None else connect_timeout,
        )
        self._sock.settimeout(timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._parser = RespParser()
        self._replies: deque[Any] = deque()

    def execute(self, *args: Any) -> Any:
        """Send one command, block for its reply."""
        try:
            self._sock.sendall(encode_command(*args))
            return self._next_reply()
        except OSError:
            self.close()
            raise

    def execute_pipeline(self, *commands: tuple) -> list[Any]:
        """Send several commands in one burst, collect all replies.

        RESP errors are returned in-place (not raised), like real
        pipelined clients do — one failed command must not discard the
        replies that follow it. Deep pipelines interleave sending with
        reading: a fire-the-whole-payload ``sendall`` deadlocks once
        both socket buffers fill with replies the client is not yet
        draining, so the payload is pushed with ``poll`` and replies
        are parsed as they arrive.
        """
        if not commands:
            return []
        payload = b"".join(encode_command(*command) for command in commands)
        try:
            self._send_draining(payload)
            return [self._next_reply(raise_errors=False) for _ in commands]
        except OSError:
            self.close()
            raise

    def _send_draining(self, payload: bytes) -> None:
        """Push ``payload`` out, buffering whatever replies come back."""
        sock = self._sock
        timeout = sock.gettimeout()
        wait_ms = None if timeout is None else timeout * 1000
        sent = 0
        sock.setblocking(False)
        both = select.poll()  # any fd number; select() ends at 1023
        both.register(sock, select.POLLIN | select.POLLOUT)
        try:
            with memoryview(payload) as view:
                while sent < len(payload):
                    ready = both.poll(wait_ms)
                    if not ready:
                        raise TimeoutError("pipeline send timed out")
                    mask = ready[0][1]  # the one registered socket's
                    if mask & ~select.POLLOUT:
                        self._recv()  # data, or the error that woke us
                    if mask & select.POLLOUT:
                        try:
                            sent += sock.send(view[sent:])
                        except (BlockingIOError, InterruptedError):
                            pass
        finally:
            sock.settimeout(timeout)

    def _recv(self) -> None:
        """One ``recv`` straight into the parser's buffer."""
        if not self._parser.recv_from(self._sock, _RECV_SIZE):
            raise ConnectionError("server closed the connection")

    def _next_reply(self, *, raise_errors: bool = True) -> Any:
        while not self._replies:
            self._replies.extend(self._parser.parse_all())
            if not self._replies:
                self._recv()
        reply = self._replies.popleft()
        if raise_errors and isinstance(reply, RespError):
            raise reply
        return reply

    def settimeout(self, timeout: float | None) -> None:
        """Rebound the read/write timeout of the live connection."""
        self._sock.settimeout(timeout)

    @property
    def closed(self) -> bool:
        return self._sock.fileno() < 0

    def close(self) -> None:
        """Close the socket; safe to call any number of times."""
        self._sock.close()

    def __enter__(self) -> "TcpKvClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
