"""Process hygiene, /proc readers and calibrated measurement windows.

Everything the benchmark needs that is *not* about a workload: spawn a
server-side process in its own process group with stderr in a log file
(an orphan holding the caller's stderr pipe hangs the calling shell),
kill every one of them on every exit path, read CPU time and peak RSS
from ``/proc``, and summarise fixed-op-count windows that are bracketed
by a calibration reading, so that a machine-speed regime flip inside a
window discards it and the kept ones are comparable. The one
calibration, for windows driven over TCP and for timings taken inside
this process alike, is ``drive.ReferenceProbe``.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: a window whose two brackets differ by more than this had the machine
#: change state inside it and is discarded (two back-to-back readings of
#: the probe differ by less than 3% half the time, by more than 8% a
#: fifth of the time: 8% keeps 65-80% of the windows)
BRACKET_TOLERANCE = 0.08
#: so is a window measured while the machine ran this many times slower
#: than the reference (the box has spells of 4-5x): open-loop rates are
#: fixed in wall-clock terms at ~0.4 of the reference capacity, so past
#: 1.6x utilisation passes 2/3 and queueing, which no linear scale
#: undoes, sets the latencies
REGIME_LIMIT = 1.6
#: every socket the benchmark opens has this timeout: a short reply is
#: a failed operation and a clear error, never a hang
SOCKET_TIMEOUT_S = 20.0


class BenchError(Exception):
    """A correctness violation or a broken topology: exit non-zero."""


# ---------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------


@dataclass
class Proc:
    name: str
    popen: subprocess.Popen
    log_path: str
    ready: list[str]

    @property
    def pid(self) -> int:
        return self.popen.pid

    @property
    def address(self) -> tuple[str, int]:
        return self.ready[1], int(self.ready[2])

    def read_line(self, timeout: float) -> bytes:
        """The next line the process prints on stdout, or BenchError."""
        stdout = self.popen.stdout
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([stdout], [], [], left)[0]:
                raise BenchError(f"{self.name}: printed nothing in {timeout}s")
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                raise BenchError(
                    f"{self.name}: exited without a line (see {self.log_path})"
                )
            line += chunk
        return line


class Procs:
    """Owns every process the benchmark starts; ``with`` kills them all."""

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self._live: list[Proc] = []
        os.makedirs(run_dir, exist_ok=True)

    def __enter__(self) -> "Procs":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.kill_all()

    def spawn(self, name: str, argv: list[str], timeout: float = 30.0) -> Proc:
        """Start ``python <argv>`` and wait for its ``READY ...`` line.

        The child inherits the driver's CPU affinity (see
        :func:`pin_to_one_cpu`).
        """
        log_path = os.path.join(self.run_dir, f"{name}.log")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        with open(log_path, "ab") as log:
            popen = subprocess.Popen(
                [sys.executable, *argv],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                cwd=ROOT,
                start_new_session=True,  # its own process group
            )
        proc = Proc(name, popen, log_path, [])
        self._live.append(proc)
        line = proc.read_line(timeout)
        proc.ready = line.decode().split()
        if not proc.ready or proc.ready[0] != "READY":
            raise BenchError(f"{name}: expected READY, got {line!r}")
        return proc

    def kill(self, proc: Proc) -> None:
        """SIGKILL the process group and reap it."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.popen.wait(timeout=10)
        if proc.popen.stdout is not None:
            proc.popen.stdout.close()
        if proc in self._live:
            self._live.remove(proc)

    def kill_all(self) -> None:
        for proc in list(reversed(self._live)):
            self.kill(proc)


def pin_to_one_cpu() -> None:
    """Pin the driver — and with it every process it spawns — to one CPU.

    One closed-loop connection never has the driver and the server busy
    at once, so a single CPU loses nothing (3-5% measured), while left
    to the scheduler the pair settles for minutes at a time into either
    a same-CPU hand-off or a cross-CPU one that wakes a halted vCPU per
    message — a 15-35% swing no calibration sees. The replica shares the
    CPU too: on the box's other CPU, where everything else on the box
    runs, its CPU time per op moved 28-36 us between runs (21% spread)
    under a calibration that cannot see that CPU; here it moves 4%, and
    throughput is one over the sum of what master, replica and driver
    cost.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def raise_on_signals() -> None:
    """Turn SIGTERM and SIGINT into an exception so ``with Procs`` cleans
    up (a shell that backgrounds the command leaves SIGINT ignored, so
    the default KeyboardInterrupt cannot be relied on)."""

    def _terminate(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)


# ---------------------------------------------------------------------
# /proc
# ---------------------------------------------------------------------


def cpu_ns(pids: list[int]) -> int:
    """On-CPU nanoseconds of every thread of every pid (schedstat)."""
    total = 0
    for pid in pids:
        task_dir = f"/proc/{pid}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:  # thread exited between the two
                continue
    return total


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------
# calibration and windows
# ---------------------------------------------------------------------


@dataclass
class Window:
    """One measured window: raw readings plus its two brackets."""

    values: dict[str, float]
    calib_before: float
    calib_after: float
    #: what the calibration reads on the quiet machine
    ref_ms: float

    @property
    def calib(self) -> float:
        return (self.calib_before + self.calib_after) / 2.0

    @property
    def kept(self) -> bool:
        lo, hi = sorted((self.calib_before, self.calib_after))
        return (
            hi - lo <= BRACKET_TOLERANCE * lo
            and hi <= REGIME_LIMIT * self.ref_ms
        )

    @property
    def scale(self) -> float:
        """Multiply a duration by this to put it on the reference scale."""
        return self.ref_ms / self.calib


def summarise(
    windows: list[Window], name: str, *, kind: str, min_kept: int
) -> tuple[float, bool]:
    """Median over kept windows of one reading, and whether it resolved.

    ``kind``: "time" scales by the calibration, "rate" by its inverse,
    "count" not at all. With fewer than ``min_kept`` kept windows the
    flag is False; with none the median is over *all* windows."""
    kept = [w for w in windows if w.kept]
    resolved = len(kept) >= max(1, min_kept)
    readings = []
    for window in kept or windows:
        value = window.values[name]
        if kind == "time":
            value *= window.scale
        elif kind == "rate":
            value /= window.scale
        readings.append(value)
    return statistics.median(readings), resolved


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]
