"""Cross-process soft memory: the daemon over real sockets.

Everything else in this library runs the SMA↔SMD protocol in one
address space; this package runs it the way the paper deploys it — one
daemon per machine, many client *processes*, talking over a unix domain
socket. The wire protocol is exactly `docs/PROTOCOL.md`: REQUEST /
GRANT / DENY / RELEASE from clients, DEMAND / REPORT initiated by the
daemon, all as newline-delimited JSON frames.

* :class:`~repro.rpc.server.RpcDaemonServer` — wraps a
  :class:`~repro.daemon.smd.SoftMemoryDaemon`, serving many client
  connections; reclamation demands travel *to* clients mid-request.
* :class:`~repro.rpc.agent.SmaAgent` — runs inside a client process:
  implements the SMA's ``DaemonClient`` protocol over the socket and
  services incoming demands on a background thread; its
  :class:`~repro.rpc.agent.LoopAgent` twin has no thread, and a kv
  process's event loop drives it.

The content of soft memory stays process-local (Python cannot map pages
across processes); what crosses the wire is the *protocol* — budgets,
demands, and reports — which is precisely what crosses the wire in the
paper's prototype too.
"""

from repro.rpc.agent import SmaAgent
from repro.rpc.config import ReplyCache, RetryPolicy, RpcConfig
from repro.rpc.faults import FaultInjector, FaultPlan, FaultyStream
from repro.rpc.framing import FrameStream
from repro.rpc.server import RpcDaemonServer

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultyStream",
    "FrameStream",
    "ReplyCache",
    "RetryPolicy",
    "RpcConfig",
    "RpcDaemonServer",
    "SmaAgent",
]
