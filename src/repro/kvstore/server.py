"""Bytes-in / bytes-out server front-end.

Like Redis, the server is single-threaded: it consumes a client's RESP
byte stream, executes each complete command against the store, and
emits the RESP replies. Transport is left to the caller (the tests and
examples drive it in-process; the TCP front-end shuttles bytes).

The one execution path is :meth:`KvServer.pump`: the parser tokenises
every complete pipelined command out of its buffer
(:meth:`~repro.kvstore.resp.RespParser.parse_pipeline`), then this
module executes the batch and encodes the replies directly into a
caller-owned output buffer — zero intermediate ``bytes`` copies
between parse, dispatch, and encode. The TCP front-end goes one step
further and ``recv_into``s the parser's buffer, so inbound payload
bytes are copied exactly once off the socket.

Zero-copy argv discipline: the parser hands bulk payloads of at least
:data:`ZERO_COPY_THRESHOLD` bytes (4 KiB, more than its tokeniser's
window holds; smaller ones come out as ``bytes``) as ``memoryview``
slices of its buffer (argv index >= 2 only). Those views die with the
batch — before dispatch, the command table's ``views`` column says at
which argv length a handler is audited to sink them safely (the SET
family materializes inside ``DataStore.set``); every other argv gets
its views materialized to ``bytes`` up front, key positions always do,
and the slowlog always receives materialized argv. See DESIGN.md §7.

Per-command latency feeds the store's observability plane
(``store.obs``) at one clock read per command: the end-of-command
timestamp of command *i* is the start timestamp of command *i+1*, so a
pipelined batch pays ``perf_counter`` once per command, not twice.

A :class:`~repro.kvstore.resp.ProtocolError` quarantines the parser
(commands parsed before the poison still execute and reply), appends
one protocol-error reply, and records the dropped remainder of the
poisoned buffer in ``protocol_errors`` / ``bytes_dropped`` and the obs
plane's ``protocol_dropped_bytes`` — the in-process equivalent of
Redis closing the connection, but with the drop visible in stats.
"""

from __future__ import annotations

from time import perf_counter

from repro.kvstore.commands import COMMANDS, dispatch, fits, lookup
from repro.kvstore.resp import (
    _WINDOW_MAX,
    NULL,
    PIPELINE_FALLBACK,
    PIPELINE_MORE,
    ProtocolError,
    RespError,
    RespParser,
    encode_reply_into,
)
from repro.kvstore.store import DataStore

_BAD_ARGV = RespError("ERR protocol error: expected array of bulk strings")

#: bulk payloads at least this large are parsed zero-copy (memoryview
#: slices of the parser buffer): the tokeniser's widest window, so
#: every payload a window can hold certifies off the token list and
#: only one no window holds is read by position as a view
ZERO_COPY_THRESHOLD = _WINDOW_MAX

# The exact-bytes view audit: spelling -> the one argv length at which
# the table lets that command's payload views through. Only the
# canonical casings clients actually send are seeded; anything else
# (and MSET, whose audited shape is a range) takes the slow path below.
_VIEW_SHAPES = {
    spelling: command.views
    for name, command in COMMANDS.items()
    if command.views > 0
    for spelling in (name, name.lower())
}

# Name lengths of the commands the transport may intercept via
# ``repl_hook`` (the table's ``transport`` column): the length gate
# keeps the table probe off GET/SET and every other name that cannot
# be one of them.
_TRANSPORT_LENS = frozenset(
    len(name) for name, command in COMMANDS.items() if command.transport
)


def _materialize_views(argv: list) -> None:
    """Replace ``argv``'s memoryviews with ``bytes`` copies: all of
    them, or — where the table keeps this shape's payloads zero-copy —
    only those at key positions, so nothing ever hashes a view."""
    command = lookup(argv[0])
    n = len(argv)
    if command is not None and command.views and fits(command.views, n):
        positions = range(n)[command.keys]
    else:
        positions = range(2, n)
    for i in positions:
        if type(argv[i]) is memoryview:
            argv[i] = bytes(argv[i])


def _copy_argv(argv: list) -> list:
    """A retainable copy of ``argv`` (views materialized) for the slowlog."""
    return [bytes(a) if type(a) is memoryview else a for a in argv]


class KvServer:
    """One server instance bound to one :class:`DataStore`."""

    def __init__(self, store: DataStore) -> None:
        self.store = store
        self.obs = store.obs
        self._parser = RespParser(zero_copy_threshold=ZERO_COPY_THRESHOLD)
        self.protocol_errors = 0
        #: bytes fed but discarded by protocol-error quarantines
        self.bytes_dropped = 0
        #: transport-installed interceptor for replication commands
        #: (``hook(argv, out)`` encodes its own reply — or defers it,
        #: as PSYNC does); None costs the hot loop one identity check
        self.repl_hook = None

    @property
    def parser(self) -> RespParser:
        """The session's parser (the TCP front-end ``recv_into``s its buffer)."""
        return self._parser

    @property
    def commands_processed(self) -> int:
        """Commands executed by every session of this store: the obs
        plane's count, the one ``pump`` keeps (``TcpKvServer``'s
        counters are per store too)."""
        return self.obs.commands

    def pump(self, out: bytearray) -> int:
        """Execute every complete buffered command, replies into ``out``.

        The serving hot path: callers land raw client bytes in the
        parser (:meth:`feed_batch`, or zero-copy: the TCP loop's one
        ``parser.recv_from(sock)`` per readable event) and pump.
        Returns the number of commands executed. Incomplete trailing
        commands stay buffered for the next feed — exactly how a
        socket server handles short reads. On a malformed frame the
        commands parsed *before* the poison still execute and reply
        (pipelined clients must not lose completed work), then a
        protocol-error reply is appended and the rest of the poisoned
        buffer dropped — recorded in ``protocol_errors`` /
        ``bytes_dropped`` and the obs plane, never silently.
        """
        parser = self._parser
        store = self.store
        obs = self.obs
        hook = self.repl_hook
        # the observation is inlined because this loop is the serving
        # hot path: with the histogram map and slowlog threshold in
        # locals, the cost per command is one clock read, one dict get
        # and one histogram update.  The threshold is sampled per
        # batch, so a CONFIG SET takes effect from the next readable
        # event.  Nothing else is bound per batch (DESIGN.md §7): a
        # depth-1 batch pays this prologue for a single command.
        hist_of = obs._cmd_hists.get
        slow_s = obs._slow_s
        frames: list[list] = []
        processed = rejected = 0
        while True:
            try:
                status = parser.parse_pipeline(frames)
            except ProtocolError as exc:
                status = exc  # quarantined: the buffer is empty
            if frames:
                if parser.viewed:
                    # the batch carries zero-copy payloads (index >= 2
                    # only): argv outside the table's audited shapes
                    # get bytes up front
                    parser.viewed = False
                    for argv in frames:
                        n = len(argv)
                        if n > 2 and _VIEW_SHAPES.get(argv[0]) != n:
                            _materialize_views(argv)
                start = perf_counter()
                for argv in frames:
                    if (
                        hook is not None
                        and argv
                        and len(argv[0]) in _TRANSPORT_LENS
                        and (command := lookup(argv[0])) is not None
                        and command.transport
                        and fits(command.arity, len(argv))
                    ):
                        hook(argv, out)
                    else:
                        encode_reply_into(out, dispatch(store, argv))
                    end = perf_counter()
                    if argv:
                        hist = hist_of(argv[0])
                        if hist is None:
                            hist = obs._learn_command(
                                argv[0], lookup(argv[0]) is not None
                            )
                        duration = end - start
                        hist.observe(duration)
                        if duration >= slow_s:
                            obs.slowlog.add(_copy_argv(argv), duration)
                    else:  # an empty array: answered, never observed
                        obs.commands -= 1
                    start = end
                processed += len(frames)
            if status == PIPELINE_MORE:
                break
            if status != PIPELINE_FALLBACK:  # the ProtocolError raised
                self._record_error(status, out)
                break
            frames.clear()
            # PIPELINE_FALLBACK: one frame that is not a plain command
            # array (another RESP type, a null, a mixed array) — pop it
            # with the generic parser.  A valid argv joins ``frames``
            # and runs in the loop above, ahead of whatever the next
            # parse_pipeline appends behind it; anything else is
            # answered like Redis would
            try:
                argv = parser.parse_one()
            except ProtocolError as exc:
                self._record_error(exc, out)
                break
            if argv is None:
                break
            if argv is NULL:  # a client sent a RESP null as a "command"
                argv = None
            if type(argv) is list and all(type(a) is bytes for a in argv):
                frames.append(argv)
            else:
                encode_reply_into(out, _BAD_ARGV)
                rejected += 1
        obs.commands += processed
        return processed + rejected

    def _record_error(self, exc: ProtocolError, out: bytearray) -> None:
        """Account one parser quarantine and append its error reply."""
        obs = self.obs
        self.protocol_errors += 1
        obs.protocol_errors += 1
        dropped = self._parser.last_error_dropped
        self.bytes_dropped += dropped
        obs.protocol_dropped_bytes += dropped
        encode_reply_into(out, RespError(f"ERR protocol error: {exc}"))

    def feed_batch(self, data: bytes, out: bytearray) -> int:
        """Process raw client bytes, appending replies to ``out``.

        One copy into the parser buffer, then :meth:`pump`.
        """
        self._parser.feed(data)
        return self.pump(out)

    def feed(self, data: bytes) -> bytes:
        """Process raw client bytes; return the concatenated replies."""
        out = bytearray()
        self.feed_batch(data, out)
        return bytes(out)

    def __repr__(self) -> str:
        return (
            f"<KvServer store={self.store.name!r} "
            f"processed={self.commands_processed}>"
        )
