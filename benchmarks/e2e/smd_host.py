"""The machine-wide Soft Memory Daemon in its own process.

Usage: ``smd_host.py SOCKET CAPACITY_PAGES``. Prints ``READY`` once it
listens; prints its ledger as one JSON line on SIGUSR1, and again on
SIGTERM before it exits.
"""

import json
import signal
import sys

from repro.rpc import RpcDaemonServer

LEDGER = (
    "capacity_pages", "assigned_pages", "requests", "denials",
    "reclamation_episodes", "demands_issued", "pages_granted",
    "pages_released", "pages_reclaimed", "over_reclaimed_pages",
)

if __name__ == "__main__":
    signals = {signal.SIGUSR1, signal.SIGTERM}
    signal.pthread_sigmask(signal.SIG_BLOCK, signals)  # before any thread
    with RpcDaemonServer(sys.argv[1], int(sys.argv[2])) as server:
        print("READY", sys.argv[1], flush=True)
        received = None
        while received != signal.SIGTERM:
            received = signal.sigwait(signals)
            ledger = {name: getattr(server.smd, name) for name in LEDGER}
            print(json.dumps(ledger), flush=True)
