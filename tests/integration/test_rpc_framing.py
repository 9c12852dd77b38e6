"""Unit tests for the wire framing and server edge cases."""

import socket
import threading

import pytest

from repro.core.locking import LockedSoftMemoryAllocator
from repro.rpc.framing import FrameClosed, FrameStream
from repro.rpc.server import RpcDaemonServer
from repro.rpc.agent import SmaAgent


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield FrameStream(a), FrameStream(b)
    a.close()
    b.close()


class TestFrameStream:
    def test_roundtrip(self, pair):
        left, right = pair
        left.send({"op": "ping", "n": 1})
        assert right.recv() == {"op": "ping", "n": 1}

    def test_multiple_frames_one_read(self, pair):
        left, right = pair
        left.send({"a": 1})
        left.send({"b": 2})
        assert right.recv() == {"a": 1}
        assert right.recv() == {"b": 2}

    def test_strings_with_newlines_survive(self, pair):
        left, right = pair
        left.send({"text": "line1\nline2"})
        assert right.recv() == {"text": "line1\nline2"}

    def test_partial_delivery(self):
        a, b = socket.socketpair()
        try:
            stream = FrameStream(b)
            data = b'{"op":"request","pages":8}\n'
            a.sendall(data[:10])
            result = {}

            def reader():
                result["frame"] = stream.recv()

            t = threading.Thread(target=reader)
            t.start()
            a.sendall(data[10:])
            t.join(timeout=5)
            assert result["frame"] == {"op": "request", "pages": 8}
        finally:
            a.close()
            b.close()

    def test_eof_raises_frame_closed(self, pair):
        left, right = pair
        left.close()
        with pytest.raises((FrameClosed, OSError)):
            right.recv()

    def test_non_object_frame_rejected(self, pair):
        left, right = pair
        left._sock.sendall(b"[1,2,3]\n")
        with pytest.raises(ValueError):
            right.recv()

    def test_malformed_json_rejected(self, pair):
        left, right = pair
        left._sock.sendall(b"{not json}\n")
        with pytest.raises(ValueError):
            right.recv()

    def test_frame_split_across_many_chunks(self, pair):
        """A frame trickling in one byte per recv still parses whole."""
        left, right = pair
        data = b'{"op":"request","pages":8,"id":3}\n'
        result = {}

        def reader():
            result["frame"] = right.recv()

        t = threading.Thread(target=reader)
        t.start()
        for i in range(len(data)):
            left._sock.sendall(data[i:i + 1])
        t.join(timeout=5)
        assert result["frame"] == {"op": "request", "pages": 8, "id": 3}

    def test_many_frames_in_one_chunk(self, pair):
        """One TCP segment carrying several frames yields them all."""
        left, right = pair
        left._sock.sendall(b'{"a":1}\n{"b":2}\n{"c":3}\n')
        assert right.recv() == {"a": 1}
        assert right.recv() == {"b": 2}
        assert right.recv() == {"c": 3}

    def test_malformed_line_then_valid_frame(self, pair):
        """A bad line is consumed; the stream recovers on the next."""
        left, right = pair
        left._sock.sendall(b'{broken\n{"ok":true}\n')
        with pytest.raises(ValueError):
            right.recv()
        assert right.recv() == {"ok": True}

    def test_eof_with_partial_frame_buffered(self, pair):
        """EOF mid-frame is a close, not a hang or a parse attempt."""
        left, right = pair
        left._sock.sendall(b'{"op":"request","pages":')  # no newline
        left.close()
        with pytest.raises(FrameClosed):
            right.recv()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            stream = FrameStream(b, max_frame_bytes=1024)
            a.sendall(b"x" * 70000)  # garbage, no terminator
            with pytest.raises(ValueError):
                stream.recv()
        finally:
            a.close()
            b.close()


class TestServerEdgeCases:
    def test_unknown_op_answered_with_error(self, tmp_path):
        path = str(tmp_path / "smd.sock")
        with RpcDaemonServer(path, soft_capacity_pages=10):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5)
            sock.connect(path)
            stream = FrameStream(sock)
            stream.send({"op": "bogus", "id": 1})
            reply = stream.recv()
            assert reply["op"] == "error"
            stream.close()

    def test_request_before_hello_rejected(self, tmp_path):
        path = str(tmp_path / "smd.sock")
        with RpcDaemonServer(path, soft_capacity_pages=10):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5)
            sock.connect(path)
            stream = FrameStream(sock)
            stream.send({"op": "request", "id": 7, "pages": 1})
            reply = stream.recv()
            assert reply["op"] == "error"
            stream.close()

    def test_startup_budget_over_the_wire(self, tmp_path):
        from repro.daemon.smd import SmdConfig

        path = str(tmp_path / "smd.sock")
        with RpcDaemonServer(
            path, soft_capacity_pages=50,
            config=SmdConfig(startup_budget_pages=5),
        ) as server:
            sma = LockedSoftMemoryAllocator(name="c")
            agent = SmaAgent.connect(path, sma)
            assert sma.budget.granted == 5
            assert server.smd.registry.get(agent.pid).granted_pages == 5
            agent.close()

    def test_hosted_daemon_keeps_a_bounded_event_log(self, tmp_path):
        """The RPC host lives as long as the machine and logs every
        request, grant and release: its log must be a ring."""
        from repro.rpc.server import EVENT_LOG_BOUND

        server = RpcDaemonServer(str(tmp_path / "smd.sock"), 10)
        try:
            smd = server.smd
            seen = []
            smd.log.subscribe(lambda event: seen.append(event.kind))
            pid = smd.register(LockedSoftMemoryAllocator(name="c")).pid
            for _ in range(10 * EVENT_LOG_BOUND):
                smd.handle_request(pid, 1)
                smd.handle_release(pid, 1)
            assert smd.requests == 10 * EVENT_LOG_BOUND
            assert len(smd.log) == EVENT_LOG_BOUND
            assert smd.log.last("release") is smd.log[-1]
            assert len(seen) >= 30 * EVENT_LOG_BOUND  # every event observed
        finally:
            server.stop()

    def test_release_settles_ledger(self, tmp_path):
        from repro.sds.soft_linked_list import SoftLinkedList
        from repro.util.units import PAGE_SIZE

        path = str(tmp_path / "smd.sock")
        with RpcDaemonServer(path, soft_capacity_pages=50) as server:
            sma = LockedSoftMemoryAllocator(name="c", request_batch_pages=4)
            agent = SmaAgent.connect(path, sma)
            lst = SoftLinkedList(sma, element_size=PAGE_SIZE)
            for i in range(10):
                lst.append(i)
            while lst:
                lst.pop_front()
            sma.return_excess()
            assert server.smd.assigned_pages == 0
            assert sma.budget.granted == 0
            agent.close()
