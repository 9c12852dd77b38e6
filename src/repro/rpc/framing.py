"""Newline-delimited JSON frames over a stream socket.

The protocol's payloads are small dictionaries (page counts, ids,
stats), so JSON-per-line keeps the wire format debuggable with nothing
but ``socat``. Frames never contain raw newlines because JSON strings
escape them.
"""

from __future__ import annotations

import json
import socket
from typing import Any


class FrameClosed(ConnectionError):
    """The peer closed the stream."""


class FrameStream:
    """Frame reader/writer over a connected socket: :meth:`recv` blocks
    for one frame, :meth:`recv_ready` takes what one read delivers.

    ``max_frame_bytes`` bounds the receive buffer: a peer that streams
    garbage without a newline is detected instead of growing the buffer
    without limit (protocol frames are a few hundred bytes).
    """

    def __init__(
        self, sock: socket.socket, *, max_frame_bytes: int = 1 << 20
    ) -> None:
        if max_frame_bytes < 2:
            raise ValueError(
                f"max_frame_bytes too small: {max_frame_bytes}"
            )
        self._sock = sock
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    def send(self, frame: dict[str, Any]) -> None:
        """Serialize and send one frame (thread-safe per sendall)."""
        data = json.dumps(frame, separators=(",", ":")).encode() + b"\n"
        self._sock.sendall(data)

    def recv(self) -> dict[str, Any]:
        """Block until one complete frame arrives.

        Raises :class:`FrameClosed` on EOF (including EOF with a
        partial frame buffered) and ``ValueError`` on malformed or
        oversized frames; honours the socket's timeout settings
        (``socket.timeout`` propagates).
        """
        while True:
            frame = self._take()
            if frame is not None:
                return frame
            self._fill(self._sock.recv(65536))

    def recv_ready(self) -> list[dict[str, Any]]:
        """Every whole frame buffered after one read that never waits:
        none when nothing arrived. Raises as :meth:`recv` does."""
        try:
            self._fill(self._sock.recv(65536, socket.MSG_DONTWAIT))
        except (BlockingIOError, InterruptedError):
            pass
        frames = []
        while (frame := self._take()) is not None:
            frames.append(frame)
        return frames

    def _take(self) -> dict[str, Any] | None:
        newline = self._buffer.find(b"\n")
        if newline < 0:
            if len(self._buffer) > self._max_frame_bytes:
                raise ValueError(
                    f"frame exceeds {self._max_frame_bytes} bytes "
                    "without a terminator"
                )
            return None
        line = bytes(self._buffer[:newline])
        del self._buffer[:newline + 1]
        frame = json.loads(line)
        if not isinstance(frame, dict):
            raise ValueError(f"frame is not an object: {frame!r}")
        return frame

    def _fill(self, chunk: bytes) -> None:
        if not chunk:
            if self._buffer:
                raise FrameClosed(
                    "peer closed mid-frame "
                    f"({len(self._buffer)} bytes buffered)"
                )
            raise FrameClosed("peer closed the connection")
        self._buffer.extend(chunk)

    def fileno(self) -> int:
        """The socket's number; -1 once it is closed."""
        return self._sock.fileno()

    def settimeout(self, timeout: float | None) -> None:
        """Adjust the underlying socket's timeout (None = blocking)."""
        self._sock.settimeout(timeout)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
