"""Snapshot (and diff) a live server's observability plane as JSON.

Connects to a running RESP server, issues the extended ``INFO`` and
``SLOWLOG GET``, and emits one JSON document — the machine-readable
twin of the human-readable ``INFO`` text.  Two snapshots taken before
and after an experiment diff into "what happened in between": every
numeric series is subtracted, which is exactly meaningful for the
monotonic counters and histogram counts the invariant oracle relies on.

Repeating ``--addr host:port`` snapshots a whole cluster in one
document: a ``shards`` list with each shard's full snapshot plus a
merged ``# Stats`` section summing the numeric counters across shards
(machine-wide ops, hits, reclaims — the view the single SMD budgets
against).

Usage::

    python -m repro.tools.metrics_dump --port 6379 > before.json
    ... run traffic ...
    python -m repro.tools.metrics_dump --port 6379 > after.json
    python -m repro.tools.metrics_dump --diff before.json after.json
    python -m repro.tools.metrics_dump --addr :7000 --addr :7001
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.kvstore.client import TcpKvClient


def parse_info(payload: bytes) -> dict[str, dict[str, Any]]:
    """Parse sectioned INFO text into ``{section: {key: value}}``.

    Values parse as int, then float, then stay strings.  Lines before
    the first ``# Section`` header land in a ``""`` section (legacy
    flat output).
    """
    sections: dict[str, dict[str, Any]] = {}
    current = sections.setdefault("", {})
    for raw_line in payload.decode(errors="backslashreplace").splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            current = sections.setdefault(line[1:].strip(), {})
            continue
        key, sep, value = line.partition(":")
        if not sep:
            continue
        current[key] = _coerce(value)
    return {name: body for name, body in sections.items() if body}


def _coerce(value: str) -> Any:
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def snapshot(host: str, port: int) -> dict[str, Any]:
    """One observability snapshot of the server at ``host:port``: every
    INFO section and the newest 16 slowlog entries."""
    with TcpKvClient((host, port)) as client:
        info_payload = client.execute(b"INFO")
        slowlog = client.execute(b"SLOWLOG", b"GET", b"16")
    assert isinstance(info_payload, bytes)
    return {
        "address": f"{host}:{port}",
        "info": parse_info(info_payload),
        "slowlog": [
            {
                "id": entry_id,
                "timestamp": timestamp,
                "duration_us": duration_us,
                "argv": [
                    a.decode(errors="backslashreplace") for a in argv
                ],
            }
            for entry_id, timestamp, duration_us, argv in slowlog  # type: ignore[union-attr]
        ],
    }


def parse_addr(spec: str, *, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """``host:port`` (or bare ``:port``) → ``(host, port)``."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        raise ValueError(f"--addr wants host:port, got {spec!r}")
    return (host or default_host, int(port))


#: ``addr -> last # Replication section seen`` — a process-lifetime
#: cache so a shard that stops answering mid-experiment still reports
#: its last-known replication offset (marked stale) instead of the
#: section silently vanishing from the dump
_LAST_REPLICATION: dict[str, dict[str, Any]] = {}


def cluster_snapshot(addresses: list[tuple[str, int]]) -> dict[str, Any]:
    """Per-shard snapshots plus summed machine-wide ``# Stats``.

    Shards that refuse the connection are recorded as
    ``{"address": ..., "error": ...}`` rather than failing the whole
    dump — a cluster mid-restart still yields a useful document. When
    the shard answered earlier in this process's lifetime, its
    last-known ``# Replication`` section rides along under
    ``replication`` with ``replication_stale: true`` — during failover
    triage the dead node's final offset is the whole point.

    ``tier_total`` sums the ``tier.*`` second-chance gauges from each
    shard's ``# SoftMemory`` section (every shard runs its own tier
    over the shared SMD budget, so the machine-wide compressed
    footprint is their sum).
    """
    shards: list[dict[str, Any]] = []
    totals: dict[str, Any] = {}
    tier_totals: dict[str, Any] = {}
    reachable = 0
    for host, port in addresses:
        address = f"{host}:{port}"
        try:
            shard = snapshot(host, port)
        except (OSError, ConnectionError) as exc:
            entry: dict[str, Any] = {"address": address, "error": str(exc)}
            known = _LAST_REPLICATION.get(address)
            if known is not None:
                entry["replication"] = known
                entry["replication_stale"] = True
            shards.append(entry)
            continue
        replication = shard["info"].get("Replication")
        if replication:
            _LAST_REPLICATION[address] = dict(replication)
        shards.append(shard)
        reachable += 1
        for key, value in shard["info"].get("Stats", {}).items():
            if isinstance(value, (int, float)):
                totals[key] = round(totals.get(key, 0) + value, 9)
        for key, value in shard["info"].get("SoftMemory", {}).items():
            if not key.startswith("tier."):
                continue
            if key.endswith((".mean", ".p50", ".p99", ".max")):
                continue  # percentiles don't sum across shards
            if isinstance(value, (int, float)):
                tier_totals[key] = round(tier_totals.get(key, 0) + value, 9)
    return {
        "shards": shards,
        "shard_count": len(addresses),
        "shards_reachable": reachable,
        "stats_total": totals,
        "tier_total": tier_totals,
    }


def diff(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Numeric ``after - before`` over the INFO sections.

    Non-numeric values and keys present on only one side carry the
    ``after`` value verbatim, so the diff is always a complete picture
    of the second snapshot.
    """
    out: dict[str, Any] = {}
    before_info = before.get("info", {})
    for section, body in after.get("info", {}).items():
        prev = before_info.get(section, {})
        delta: dict[str, Any] = {}
        for key, value in body.items():
            old = prev.get(key)
            if isinstance(value, (int, float)) and isinstance(
                old, (int, float)
            ):
                delta[key] = round(value - old, 9)
            else:
                delta[key] = value
        out[section] = delta
    return {"diff": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.metrics_dump",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=6379)
    parser.add_argument(
        "--addr",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="shard address; repeat for a merged multi-shard snapshot",
    )
    parser.add_argument(
        "--diff",
        nargs=2,
        metavar=("BEFORE", "AFTER"),
        help="diff two snapshot files instead of connecting",
    )
    parser.add_argument(
        "-o",
        dest="output",
        default="-",
        help="write JSON here instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.diff:
        with open(args.diff[0]) as fh:
            before = json.load(fh)
        with open(args.diff[1]) as fh:
            after = json.load(fh)
        document = diff(before, after)
    elif args.addr:
        document = cluster_snapshot(
            [parse_addr(spec, default_host=args.host) for spec in args.addr]
        )
    else:
        document = snapshot(args.host, args.port)

    text = json.dumps(document, indent=2, sort_keys=True)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
