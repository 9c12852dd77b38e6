"""TcpKvClient ergonomics: context manager, timeouts, idempotent close."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore.store import DataStore


@pytest.fixture
def server():
    server = TcpKvServer(
        DataStore(SoftMemoryAllocator(name="qol-test")), "127.0.0.1", 0
    )
    server.start()
    yield server
    server.stop()


class TestContextManager:
    def test_closes_on_exit(self, server):
        with TcpKvClient(server.address) as client:
            assert client.execute(b"PING") == "PONG"
            assert not client.closed
        assert client.closed

    def test_closes_on_exception(self, server):
        with pytest.raises(RuntimeError):
            with TcpKvClient(server.address) as client:
                raise RuntimeError("boom")
        assert client.closed


class TestTimeouts:
    def test_default_read_timeout_applied(self, server):
        with TcpKvClient(server.address, timeout=1.25) as client:
            assert client._sock.gettimeout() == 1.25

    def test_settimeout_adjusts_live_socket(self, server):
        with TcpKvClient(server.address) as client:
            client.settimeout(0.5)
            assert client._sock.gettimeout() == 0.5
            assert client.execute(b"PING") == "PONG"

    def test_connect_timeout_is_transient(self, server):
        # the dial runs under connect_timeout; once connected the
        # socket settles on the (longer) read timeout
        with TcpKvClient(
            server.address, timeout=3.0, connect_timeout=0.2
        ) as client:
            assert client._sock.gettimeout() == 3.0
            assert client.execute(b"PING") == "PONG"

    def test_read_timeout_trips_on_silent_server(self):
        # a listener that accepts and never answers
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            client = TcpKvClient(listener.getsockname(), timeout=0.2)
            with pytest.raises((socket.timeout, OSError)):
                client.execute(b"PING")
            assert client.closed
        finally:
            listener.close()

    def test_a_timed_out_client_never_hands_out_the_late_reply(self):
        # a listener that answers the first request only after the
        # client has given up on it: the late ``FIRST`` must not become
        # the reply of the next command
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        answered = threading.Event()

        def answer_late():
            peer, __ = listener.accept()
            with peer:
                peer.recv(4096)
                time.sleep(0.3)
                try:
                    peer.sendall(b"+FIRST\r\n")
                except OSError:
                    pass  # the client has hung up already
                answered.set()

        late = threading.Thread(target=answer_late, daemon=True)
        late.start()
        try:
            client = TcpKvClient(listener.getsockname(), timeout=0.1)
            with pytest.raises(OSError):
                client.execute(b"GET", b"a")
            assert client.closed
            assert answered.wait(5.0)
            with pytest.raises(OSError):
                client.execute(b"PING")
        finally:
            client.close()
            listener.close()
            late.join(5.0)
        assert not late.is_alive()


class TestClose:
    def test_idempotent(self, server):
        client = TcpKvClient(server.address)
        client.close()
        client.close()  # must not raise
        assert client.closed

    def test_execute_after_close_raises(self, server):
        client = TcpKvClient(server.address)
        client.close()
        with pytest.raises(OSError):
            client.execute(b"PING")
