"""The benchmark's reference server: what timings are calibrated against.

A minimal one-connection key-value server with a line protocol
(``G key`` / ``S key value``), a fixed 64Ki-key table and RESP-shaped
replies. It is *not* the program under test and imports nothing from
``src/``: the driver exchanges a fixed script of batches with it right
before and after every measured window, and because that exchange goes
through the same scheduler, loopback sockets and interpreter as the
real one, its duration tracks what the machine is doing to the real
server far better than an in-process spin does (run medians 2-3% apart
where the spin left 3-5%, on this box). No change to the program can
move it.
"""

import socket


def main() -> None:
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    print("READY", *listener.getsockname(), flush=True)
    conn, _ = listener.accept()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    table = {b"key:%08d" % i: b"v" * 128 for i in range(65536)}
    pending = b""
    while True:
        data = conn.recv(65536)
        if not data:
            return
        lines = (pending + data).split(b"\n")
        pending = lines.pop()
        out = []
        for line in lines:
            parts = line.split(b" ", 2)
            if parts[0] == b"G":
                value = table.get(parts[1], b"")
                out.append(b"$%d\r\n%s\r\n" % (len(value), value))
            else:
                table[parts[1]] = parts[2]
                out.append(b"+OK\r\n")
        conn.sendall(b"".join(out))


if __name__ == "__main__":
    main()
