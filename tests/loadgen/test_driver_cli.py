"""Driver accounting and the ``repro.tools.loadgen`` CLI surface."""

import itertools
import json

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.client import KvClient
from repro.kvstore.resp import RespError
from repro.kvstore.server import KvServer
from repro.kvstore.store import DataStore
from repro.loadgen.driver import DriverReport, drive
from repro.loadgen.engine import OperationStream, stream_digest
from repro.loadgen.spec import PRESETS, preset
from repro.tools import loadgen as cli


class ScriptedClient:
    """Replies from a script; records what it was asked to run."""

    def __init__(self, script):
        self._script = script
        self.batches = []

    def execute_pipeline(self, *commands):
        self.batches.append(commands)
        return [next(self._script) for _ in commands]


def ok_forever():
    while True:
        yield b"OK"


# ----------------------------------------------------------------------
# drive(): bounds, counting, classification
# ----------------------------------------------------------------------


def test_drive_requires_a_bound():
    with pytest.raises(TypeError, match="max_ops"):
        drive(ScriptedClient(ok_forever()), iter([]))


def test_drive_stops_at_max_ops():
    spec = preset("ycsb-b", keyspace=64)
    client = ScriptedClient(ok_forever())
    report = drive(
        client, OperationStream(spec, 1).batches(), max_ops=100
    )
    assert report.ops >= 100
    assert report.ops == sum(len(b) for b in client.batches)
    assert report.batches == len(client.batches)
    assert report.errors == 0
    assert sum(report.verbs.values()) == report.ops


def test_drive_classifies_error_replies_without_raising():
    replies = iter([
        b"OK",
        RespError("OOM command not allowed under soft memory pressure"),
        RespError("MOVED 42 127.0.0.1:7001"),
        RespError("CROSSSLOT Keys in request don't hash to the same slot"),
        RespError("WRONGTYPE Operation against a key"),
        b"OK",
    ])
    batch = [(b"SET", b"k", b"v")] * 6
    report = drive(ScriptedClient(replies), iter([batch]), max_ops=6)
    assert report.errors == 4
    assert report.oom_denials == 1
    assert report.moved_errors == 1
    assert report.crossslot_errors == 1
    assert report.other_errors == 1
    doc = report.as_dict()
    assert doc["oom_denials"] == 1 and doc["errors"] == 4


def test_drive_raises_on_reply_count_desync():
    class Broken:
        def execute_pipeline(self, *commands):
            return [b"OK"]  # always one reply, whatever was asked

    with pytest.raises(RuntimeError, match="desync"):
        drive(Broken(), iter([[(b"GET", b"a"), (b"GET", b"b")]]), max_ops=2)


def test_drive_accumulates_across_phases():
    spec = preset("ycsb-b", keyspace=64)
    report = DriverReport()
    stream = OperationStream(spec, 1)
    drive(ScriptedClient(ok_forever()), stream.prefill_batches(),
          max_ops=64, report=report)
    drive(ScriptedClient(ok_forever()), stream.batches(),
          max_ops=50, report=report)
    assert report.ops >= 114
    assert report.batches > 1


#: the commands a mix verb is sent as, where that is not its own name
COMMANDS_OF = {"insert": {"set"}, "scan": {"mget"}, "rmw": {"get", "set"}}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_drive_against_a_real_store_runs_clean(name):
    store = DataStore(SoftMemoryAllocator(name="loadgen-driver-test"))
    client = KvClient(KvServer(store))
    spec = preset(name, keyspace=128)
    stream = OperationStream(spec, 7)
    prefill = drive(client, stream.prefill_batches(), max_ops=spec.keyspace)
    assert prefill.ops == spec.keyspace and prefill.errors == 0
    report = drive(client, stream.batches(), max_ops=400)
    assert report.ops >= 400
    assert report.errors == 0
    assert report.ops_per_sec > 0
    assert set(report.verbs) == set().union(
        *(COMMANDS_OF.get(verb, {verb}) for verb, _ in spec.mix)
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_dry_run_reports_shape_and_digest(capsys):
    assert cli.main(["--preset", "ycsb-b", "--seed", "7",
                     "--ops", "500"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["preset"] == "ycsb-b"
    assert doc["ops"] >= 500
    assert doc["verbs"]["get"] > doc["verbs"]["set"]
    assert doc["digest"] == stream_digest(preset("ycsb-b"), 7)


def test_cli_dry_run_is_deterministic(capsys):
    cli.main(["--preset", "ttl-churn", "--seed", "3", "--ops", "300"])
    first = capsys.readouterr().out
    cli.main(["--preset", "ttl-churn", "--seed", "3", "--ops", "300"])
    assert capsys.readouterr().out == first


def test_cli_digest_mode(capsys):
    assert cli.main(["--preset", "ycsb-c", "--seed", "11",
                     "--digest"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == stream_digest(preset("ycsb-c"), 11)


def test_cli_record_then_replay_matches_generated(tmp_path, capsys):
    trace = tmp_path / "t.lg"
    assert cli.main(["--preset", "ycsb-a", "--seed", "5",
                     "--ops", "200", "--record", str(trace)]) == 0
    capsys.readouterr()
    assert cli.main(["--replay", str(trace)]) == 0
    replay_doc = json.loads(capsys.readouterr().out)
    assert replay_doc["preset"] == "ycsb-a"
    assert replay_doc["ops"] >= 200
    spec = preset("ycsb-a")
    expected = itertools.islice(
        OperationStream(spec, 5).ops(), replay_doc["ops"]
    )
    assert replay_doc["digest"] == stream_digest(spec, 5)
    assert sum(1 for _ in expected) == replay_doc["ops"]


def test_cli_refuses_the_flags_nobody_passed(capsys):
    """A preset is the whole spec on the command line; ``preset(name,
    keyspace=...)`` is still how code resizes one."""
    for gone in (["--keyspace", "64"], ["--hash-tags"], ["--duration", "1"]):
        with pytest.raises(SystemExit):
            cli.main(["--preset", "ycsb-b", *gone])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_list_presets(capsys):
    assert cli.main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("ycsb-a", "ycsb-f", "hot-key", "ttl-churn"):
        assert name in out
