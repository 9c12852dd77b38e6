"""Every knob names who turns it; every wall-clock gate is on a list.

A *knob* is a defaulted field of a ``@dataclass`` ``*Config`` or
``RetryPolicy``, a defaulted keyword of :data:`CONSTRUCTORS`, a flag of
a ``src/repro/tools`` parser, or a literal ``os.environ`` read under
``src/``, ``tests/`` or ``benchmarks/`` (never ``e2e/``). It is *turned*
by ``src/``, ``examples/`` or ``benchmarks/`` — passed by keyword with a
value other than its default; a flag or env name spelled as a string
outside the file that defines it, in ``ci.yml`` or (flags) the README —
or sits in :data:`NEEDED`. Where a process is deployed
(:data:`DEPLOYMENT`) is exempt by rule. What nothing turns becomes a
constant, and the branch it selected goes with it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONSTRUCTORS = {"TcpKvServer", "build_server"}
DEPLOYMENT = re.compile(
    r"[. -](host|port|(data_)?dir|addr|smd.socket|cluster.nodes|replicaof)$"
)
#: knobs only ``tests/`` turn (or nothing yet), and who needs each one
NEEDED = {
    "StoreConfig.entry_overhead_bytes": "benchmarks/e2e/ledger.py reads it",
    "TierConfig.compress_level": "ROADMAP 7(a) sweeps tier off / 1 / 6 / 9",
    "SelectionConfig.target_cap": "the paper's capped number of targets "
    "(3.3); tests/daemon/test_policy.py sizes it",
    "SelectionConfig.distribution": "paper 7, greedy vs proportional; "
    "tests/daemon/test_proactive.py is its only driver yet",
    "TraceConfig.arrival_pattern": "paper 2's shifting consumption; "
    "tests/cluster/test_trace.py::TestDiurnalArrivals drives 'diurnal'",
    "kv_cluster --capacity": "the box's soft capacity, a fact of the "
    "deployment like --dir; the tool's own usage line sizes it",
}
#: asserts per bench file that compare wall-clock readings; ROADMAP 5
#: converts them, so a count only shrinks (PR 23: bench_rpc_overhead 3 → 0)
WALL_CLOCK_GATES = {
    "bench_allocator_classes.py": 3,
    "bench_cluster.py": 3,
    "bench_resp.py": 2,
}
#: how those files name a timing (``x == 0`` compares no two readings)
_TIMED = r"(?!.* == 0$).*(_n?s'\]|ratio|overhead|scaling|REGRESSION)"


def _sources(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            yield path.relative_to(ROOT), text, ast.parse(text)


def _defaults(owner, args):
    pairs = [  # positional defaults align with the *last* parameters
        *zip(args.args[::-1], args.defaults[::-1]),
        *zip(args.kwonlyargs, args.kw_defaults),
    ]
    return {f"{owner}.{a.arg}": ast.dump(d) for a, d in pairs if d}


def _knobs():
    """Knob → its default's ``ast.dump`` (``None`` for flags and env)."""
    knobs = {}
    for path, text, tree in _sources("src", "benchmarks", "tests"):
        if "e2e" in path.parts:
            continue
        for env in re.findall(r"environ(?:\.get\(|\[)\s*[\"'](\w+)", text):
            knobs[f"{path.stem} ${env}"] = None
        for node in ast.walk(tree):
            match node:
                case ast.ClassDef(name=owner, decorator_list=[_, *_]) if (
                    owner.endswith("Config") or owner == "RetryPolicy"
                ):
                    knobs |= {
                        f"{owner}.{stmt.target.id}": ast.dump(stmt.value)
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and stmt.value
                    }
                case ast.ClassDef(name=owner) if owner in CONSTRUCTORS:
                    for init in node.body:
                        if getattr(init, "name", None) == "__init__":
                            knobs |= _defaults(owner, init.args)
                case ast.FunctionDef(name=owner) if owner in CONSTRUCTORS:
                    knobs |= _defaults(owner, node.args)
                case ast.Call(
                    func=ast.Attribute(attr="add_argument"),
                    args=[*_, ast.Constant(value=str(flag))],
                ) if "tools" in path.parts and flag[0] == "-":
                    knobs[f"{path.stem} {flag}"] = None
    return knobs


def _turned(knobs):
    """The knobs something outside ``tests/`` passes, spells or documents."""
    passed, spelled = set(), {}
    for path, __, tree in _sources("src", "examples", "benchmarks"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                spelled.setdefault(node.value.split("=")[0], set()).add(path)
            if isinstance(node, ast.Call):
                func = node.func  # Config(...), tools.build_server(...)
                owner = getattr(func, "attr", getattr(func, "id", None))
                for kw in node.keywords:
                    if knobs.get(f"{owner}.{kw.arg}", "") != ast.dump(kw.value):
                        passed.add(f"{owner}.{kw.arg}")
    ci = (ROOT / ".github/workflows/ci.yml").read_text()
    readme = (ROOT / "README.md").read_text()
    for knob, default in knobs.items():
        where, __, name = knob.rpartition(" ")
        docs = ci if name[0] == "$" else ci + readme  # README: flags only
        name = name.lstrip("$")
        if knob in passed or default is None and (
            any(p.stem != where for p in spelled.get(name, ()))
            or re.search(rf"(?<![\w-]){name}(?![\w-])", docs)
        ):
            yield knob


def test_every_knob_is_turned_by_someone_outside_the_tests():
    knobs = _knobs()
    turned = set(_turned(knobs))
    exempt = {k for k in knobs if DEPLOYMENT.search(k)}
    idle = sorted(knobs.keys() - turned - exempt - NEEDED.keys())
    assert not idle, f"knobs nobody turns (make them constants): {idle}"
    stale = sorted(k for k in NEEDED if k not in knobs or k in turned | exempt)
    assert not stale, f"NEEDED rows that are gone, or turned after all: {stale}"


def test_wall_clock_gates_only_shrink():
    found = {}
    for path, text, tree in _sources("benchmarks"):
        if "e2e" not in path.parts and "perf_counter" in text:
            asserts = [n for n in ast.walk(tree) if isinstance(n, ast.Assert)]
            tests = [" ".join(ast.unparse(n.test).split()) for n in asserts]
            found[path.name] = sum(bool(re.match(_TIMED, t)) for t in tests)
    found = {name: count for name, count in found.items() if count}
    assert found == WALL_CLOCK_GATES, "convert a gate, then lower its row"
