"""Replayable trace files: record an operation stream, replay it.

Format — one human-greppable header line, then RESP all the way down::

    #repro-loadgen-trace v1 {"spec": {...}, "seed": 7, "batches": N,
                             "ops": M}\\n
    *<batch-len>\\r\\n<command array>...<command array>   (N times)

Each batch is a RESP array whose elements are the batch's command
arrays (arrays of bulk strings) — the exact bytes of every operation
travel in the file, so replay is *byte-identical* by construction:
``record → replay → re-record`` reproduces the original file down to
the last byte (asserted by the property tests). The payload after the
header parses with the repo's own :class:`RespParser`; no second codec
to drift.

Batch boundaries are part of the trace (pipeline depth shapes server
behavior — group commit, batching, slow-client limits — so a faithful
replay must reproduce them, not re-draw them).
"""

from __future__ import annotations

import json
from pathlib import Path
from repro.kvstore.resp import RespParser, encode_command
from repro.loadgen.engine import Op, OperationStream
from repro.loadgen.spec import WorkloadSpec

__all__ = ["TraceError", "read_trace", "record_trace"]

_MAGIC = b"#repro-loadgen-trace v1 "


class TraceError(ValueError):
    """The file is not a valid loadgen trace."""


def record_trace(
    path: str | Path,
    stream: OperationStream,
    *,
    batches: int,
) -> dict:
    """Record ``batches`` pipeline batches of ``stream`` to ``path``.

    Returns the header metadata that was written.
    """
    chunks: list[bytes] = []
    ops = 0
    source = stream.batches()
    for _ in range(batches):
        batch = next(source)
        chunks.append(b"*%d\r\n" % len(batch))
        for op in batch:
            chunks.append(encode_command(*op))
        ops += len(batch)
    meta = {
        "spec": stream.spec.to_dict(),
        "seed": stream.seed,
        "batches": batches,
        "ops": ops,
    }
    header = _MAGIC + json.dumps(
        meta, sort_keys=True, separators=(",", ":")
    ).encode() + b"\n"
    with open(path, "wb") as fh:
        fh.write(header)
        for chunk in chunks:
            fh.write(chunk)
    return meta


def _normalize(frame: object) -> Op:
    """One parsed command array → a tuple of bytes argv."""
    if not isinstance(frame, list) or not frame:
        raise TraceError(f"trace batch element is not a command: {frame!r}")
    argv: list[bytes] = []
    for item in frame:
        if isinstance(item, memoryview):
            item = bytes(item)
        if not isinstance(item, bytes):
            raise TraceError(f"non-bulk argument in trace: {item!r}")
        argv.append(item)
    return tuple(argv)


def read_trace(path: str | Path) -> tuple[dict, list[list[Op]]]:
    """Load a trace file → ``(header_meta, batches)``.

    The whole file is validated on load: the header must carry the
    magic, the payload must parse as exactly ``meta["batches"]``
    batches holding ``meta["ops"]`` operations with no trailing bytes.
    """
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0 or not raw.startswith(_MAGIC):
        raise TraceError(f"{path}: missing loadgen trace header")
    try:
        meta = json.loads(raw[len(_MAGIC):newline])
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: malformed trace header") from exc
    parser = RespParser()
    parser.feed(raw[newline + 1:])
    frames = parser.parse_all()
    if parser.buffered_bytes:
        raise TraceError(
            f"{path}: {parser.buffered_bytes} trailing bytes after the "
            f"last complete batch"
        )
    batches: list[list[Op]] = []
    ops = 0
    for frame in frames:
        if not isinstance(frame, list):
            raise TraceError(f"{path}: batch frame is not an array")
        batch = [_normalize(command) for command in frame]
        ops += len(batch)
        batches.append(batch)
    if len(batches) != meta.get("batches") or ops != meta.get("ops"):
        raise TraceError(
            f"{path}: header promises {meta.get('batches')} batches / "
            f"{meta.get('ops')} ops, file holds {len(batches)} / {ops}"
        )
    return meta, batches


def trace_spec(meta: dict) -> WorkloadSpec:
    """Rebuild the recorded :class:`WorkloadSpec` from a trace header."""
    return WorkloadSpec.from_dict(meta["spec"])
