"""One invariant oracle: every ledger a fleet of kv nodes must balance.

The paper's contract is a set of ledgers, and each is readable from
outside the process that keeps it: a node's through its ``INFO`` —
the same for an in-process :class:`~repro.kvstore.tcp.TcpKvServer` and
a ``kv_server`` subprocess — and the machine's through the
:class:`~repro.daemon.smd.SoftMemoryDaemon` object when the caller
hosts it.

:meth:`Oracle.check` asserts the ledgers each node balances on its
own. A node renders ``INFO`` under the lock its commands and replicated
writes take, so between two reclamation waves one reply balances, and
a caller checks it once, with no retry:

* per node, ``held == mapped − released``;
* the tier identity, ``demotions == promotions + second-chance drops +
  displacements + compressed entries``;
* ``commands_processed`` equals Σ ``cmd.*.count``, and no monotonic
  series (histogram counts and sums, ``*.stats.*`` counters) of one
  node incarnation decreases between two checks;
* AOF exactness: ``aof_size`` is the size of ``<dir>/incr-<g>.aof``,
  nothing is pending, no write or fsync failed.

:func:`check_fleet` asserts the ledgers that cross a socket, which
balance once traffic is quiescent:

* SMD conservation, ``assigned == granted − released − reclaimed −
  forfeited``, and ``assigned ≤ capacity``;
* SMA↔SMD agreement: the tenants' ``sma.granted_pages`` (plus any
  tenant that is not a node) sum to the daemon's ``assigned_pages``;
* replication agreement: every replica has its master's replid,
  offset and key count over a link that is up.

:func:`check_acked` is the acked-prefix model a caller sweeps keys
for. Every failure is an ``AssertionError`` naming the node.
"""

from __future__ import annotations

import os
from typing import Any, Collection, Iterable, Mapping

from repro.tools.metrics_dump import parse_info

Info = dict[str, Any]


def flat_info(payload: bytes) -> Info:
    """One ``INFO`` reply as a single ``{field: value}`` dict."""
    return {k: v for body in parse_info(payload).values() for k, v in body.items()}


def _monotonic(info: Info) -> dict[str, float]:
    return {
        k: v
        for k, v in info.items()
        if k.endswith((".count", ".sum")) or ".stats." in k
    }


def check_smd(smd, granted: int | None = None) -> None:
    """Conservation and capacity; with ``granted`` (Σ tenants' grants),
    the daemon's ledger must equal the tenants' own."""
    flow = (
        smd.pages_granted
        - smd.pages_released
        - smd.pages_reclaimed
        - smd.pages_forfeited
    )
    assert smd.assigned_pages == flow, (
        f"SMD conservation broken: assigned={smd.assigned_pages} "
        f"granted={smd.pages_granted} released={smd.pages_released} "
        f"reclaimed={smd.pages_reclaimed} forfeited={smd.pages_forfeited}"
    )
    assert smd.assigned_pages <= smd.capacity_pages, "SMD over capacity"
    if granted is not None:
        assert granted == smd.assigned_pages, (
            f"tenants hold {granted} pages, SMD assigned "
            f"{smd.assigned_pages}"
        )


def _check_node(name: str, info: Info) -> None:
    """Every ledger one node balances on its own."""
    held, mapped, released = (
        info["sma.held_pages"],
        info["sma.stats.pages_mapped"],
        info["sma.stats.pages_released"],
    )
    assert 0 <= held == mapped - released, (
        f"{name}: held={held} != mapped={mapped} - released={released}"
    )
    tier = [info.get(f"tier.{k}", 0) for k in (
        "demotions", "promotions", "second_chance_drops", "displacements"
    )]
    assert tier[0] == sum(tier[1:]) + info["compressed_entries"], (
        f"{name}: tier identity broken: demotions/promotions/drops/"
        f"displacements={tier} compressed={info['compressed_entries']}"
    )
    counted = sum(
        v for k, v in info.items() if k.startswith("cmd.") and k.endswith(".count")
    )
    assert info["commands_processed"] == counted, (
        f"{name}: commands_processed={info['commands_processed']} but "
        f"the histograms counted {counted}"
    )
    if info.get("aof_enabled") == 1:
        path = os.path.join(str(info["dir"]), f"incr-{info['generation']}.aof")
        disk = os.path.getsize(path)
        assert info["aof_size"] == disk, (
            f"{name}: aof_size={info['aof_size']} != {disk} on disk"
        )
        assert info["aof_pending_bytes"] == 0, f"{name}: AOF bytes pending"
        assert info["write_errors"] == info["fsync_errors"] == 0, (
            f"{name}: AOF write/fsync errors"
        )


def _check_replication(
    master: tuple[str, Info], replicas: Iterable[tuple[str, Info]]
) -> None:
    """Replicas agree with their master: replid, offset, key count."""
    m_name, m = master
    for name, r in replicas:
        assert r.get("master_link_status") == "up", f"{name}: link down"
        for field in ("replid", "master_repl_offset", "keys"):
            assert r.get(field) == m.get(field), (
                f"{name}: {field}={r.get(field)!r}, master {m_name} has "
                f"{m.get(field)!r}"
            )


def check_acked(
    name: str,
    present: Mapping[bytes, bytes | None],
    acked: Mapping[bytes, bytes],
    gone: Collection[bytes] = (),
    *,
    inflight: Collection[bytes] = (),
    may_miss: int = 0,
) -> None:
    """The acked-prefix model over the keys a caller swept.

    Every acked key the budget did not take (``gone``) is present with
    its last acked value; no key the budget took is present; at most
    one write in flight past the last ack shows up. ``may_miss`` acked
    keys may be absent: recovery the budget refused to re-admit, or a
    key a replica's batch re-wrote after reclaiming it — a miss is
    allowed, a resurrection or a torn value never.
    """
    resurrected = sorted(k for k in gone if present.get(k) is not None)
    assert not resurrected, f"{name}: reclaimed keys resurrected: {resurrected[:5]}"
    torn = sorted(
        k for k, v in acked.items() if present.get(k) not in (None, v)
    )
    assert not torn, f"{name}: acked keys hold other values: {torn[:5]}"
    lost = sorted(
        k for k in acked if k not in gone and present.get(k) is None
    )
    assert len(lost) <= may_miss, (
        f"{name}: {len(lost)} acked keys lost (allowed {may_miss}): {lost[:5]}"
    )
    extra = sorted(k for k in inflight if present.get(k) is not None)
    assert len(extra) <= 1, f"{name}: phantom writes past the last ack: {extra}"


def check_fleet(
    infos: Mapping[str, Info],
    *,
    smd=None,
    tenants: Collection[str] = (),
    other_granted: int = 0,
    master: str | None = None,
) -> None:
    """The ledgers that cross a socket (module docstring).

    ``tenants`` names the nodes whose SMA the daemon ``smd`` budgets;
    ``other_granted`` is what its other tenants hold. ``master`` names
    the node every other one replicates.
    """
    if smd is not None:
        check_smd(
            smd,
            other_granted + sum(infos[n]["sma.granted_pages"] for n in tenants),
        )
    if master is not None:
        _check_replication(
            (master, infos[master]),
            ((n, i) for n, i in infos.items() if n != master),
        )


class Oracle:
    """:meth:`check` over a fleet's ``INFO`` replies; remembers each
    node's monotonic series between checks (name a restarted node
    anew: its counters start over)."""

    def __init__(self) -> None:
        self._seen: dict[str, dict[str, float]] = {}

    def check(self, infos: Mapping[str, Info]) -> None:
        """Every node's own ledgers and monotonic series (module
        docstring)."""
        for name, info in infos.items():
            _check_node(name, info)
        series = {name: _monotonic(info) for name, info in infos.items()}
        for name, now in series.items():
            for key, before in self._seen.get(name, {}).items():
                assert now.get(key, 0) >= before, (
                    f"{name}: monotonic series {key} decreased: "
                    f"{before} -> {now.get(key, 0)}"
                )
        self._seen.update(series)
