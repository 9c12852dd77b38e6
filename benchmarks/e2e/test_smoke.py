"""Smoke test of the benchmark itself (not collected by tier-1, whose
``testpaths`` is ``tests``): ``pytest benchmarks/e2e/test_smoke.py``.

Runs ``run.py --quick`` — three windows per phase, so every number is
marked unresolved — and checks the contract, not the numbers: every
workload and metric ``BENCHMARK.json`` names is printed with its unit,
names stay inside the allowed alphabet, and no process outlives the
command.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def _children_of_benchmark() -> list[str]:
    """Command lines of live processes the benchmark would have started."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if any(
            name in cmdline
            for name in ("repro.tools.kv_server", "smd_host.py", "calib_server.py")
        ):
            found.append(cmdline)
    return found


def test_quick_run_prints_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    before = _children_of_benchmark()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert _children_of_benchmark() == before, "a server outlived the command"

    sections = re.split(r"^== ", done.stdout, flags=re.M)[1:]
    for workload in spec["workloads"]:
        assert NAME.match(workload["name"])
        for mode, declared in (
            ("untraced", spec["end_to_end"]),
            ("traced", spec["per_layer"]),
        ):
            section = next(
                s for s in sections
                if s.startswith(workload["name"] + " ") and f" {mode} " in s.splitlines()[0]
            )
            for metric in declared:
                assert NAME.match(metric["name"])
                line = re.search(
                    rf"^\s+{re.escape(metric['name'])}\s+(\S+)\s+(\S+)",
                    section, flags=re.M,
                )
                assert line, f"{workload['name']}/{mode}: {metric['name']} not printed"
                float(line.group(1))
                assert line.group(2) == metric["unit"]
        assert os.path.exists(
            os.path.join(HERE, "out", f"trace-{workload['name']}.json")
        )
    assert "unresolved" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only the benchmark: non-zero exit, no result."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            (target / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read()
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "read_pipelined",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


class _FakeKv:
    """Stands in for the connection *and* the server in ``pressure_pass``:
    a dict that executes what it is sent, so reclamation can be staged."""

    def __init__(self, data):
        self.data = dict(data)
        self.sock = self
        self._replies = []

    def sendall(self, request):
        from repro.kvstore.resp import RespParser

        parser = RespParser()
        parser.feed(request)
        for command in parser.parse_all():
            if command[0] == b"GET":
                self._replies.append(self.data.get(command[1]))
            else:
                self.data[command[1]] = command[2]
                self._replies.append("OK")

    def replies(self, count):
        out, self._replies = self._replies[:count], self._replies[count:]
        assert len(out) == count
        return out


def test_refill_does_not_overwrite_a_later_set_of_the_same_key():
    """A missed GET in one batch, a SET of that key in the next: the
    cache-aside refill must land *before* the SET, so the server and the
    oracle agree on the newer value and the GET after it is a hit."""
    import types

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import drive
    from repro.kvstore.resp import encode_command

    batches = [
        [(b"GET", b"k")],
        [(b"GET", b"other"), (b"SET", b"k", b"new")],
        [(b"GET", b"k")],
    ]
    trace = types.SimpleNamespace(
        batches=batches,
        requests=[b"".join(encode_command(*op) for op in b) for b in batches],
    )
    shadow = {b"k": b"old", b"other": b"o"}
    kv = _FakeKv({b"other": b"o"})  # "k" was reclaimed: acknowledged, absent
    idle = types.SimpleNamespace(take=lambda: None, free=lambda: None)
    refills = []
    tally = drive.pressure_pass(
        kv, trace, shadow, idle, drive.WaveSchedule(1000, 10), 3, refills
    )
    assert (tally.failed, tally.gets, tally.hits) == (0, 3, 2)
    assert tally.ops == 5  # four of the trace's own and one refill
    assert kv.data[b"k"] == shadow[b"k"] == b"new"
    assert refills == []
