"""Every knob names who turns it; no bench gates on a clock.

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

A bench under ``benchmarks/`` (never ``e2e/``) may print timings but
assert only counts: no ``assert`` reads a value derived from a clock
(:data:`CLOCKS`, or pytest-benchmark's ``benchmark.stats``).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONSTRUCTORS = {
    "TcpKvServer", "build_server", "ClusterSupervisor", "RpcDaemonServer",
}
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
    "ClusterSupervisor.ports": "tests/integration/test_cluster_processes.py"
    "::test_a_shard_that_never_starts_leaves_nothing_running holds one",
    "ClusterSupervisor.startup_budget_pages": "tests/obs/"
    "test_cluster_soak.py starts each shard with 8 pages",
    "ClusterSupervisor.workdir": "tests/fleet.py keeps the daemon's unix "
    "socket path under the kernel's length limit",
    "ClusterSupervisor.health_interval": "tests/integration/"
    "test_cluster_processes.py checks every 0.2 s, so a SIGKILLed shard "
    "is back within test time",
}
#: calls that read a clock, ``timeit``'s included
CLOCKS = {
    f"{name}{ns}"
    for name in ("perf_counter", "monotonic", "time", "process_time", "thread_time")
    for ns in ("", "_ns")
} | {"timeit", "repeat", "autorange"}
#: calls that put their arguments into the container they are called on
_STORES = {"append", "extend", "add", "insert", "update", "setdefault"}


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


def _called(func):
    """``f`` for ``f(...)`` and ``obj.f(...)``."""
    return getattr(func, "attr", getattr(func, "id", None))


def _root(node):
    """``row`` for ``row``, ``row["k"]``, ``row.k`` and ``row.k(...)``."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return getattr(node, "id", None)


def _returns(function):
    """The values ``function`` returns, not those of functions it nests."""
    todo = list(function.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return) and node.value is not None:
            yield node.value
        elif not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _clock_asserts(tree):
    """The asserts of a module that read a value derived from a clock.

    Taint spreads by name over the whole module until nothing changes:
    from a clock call to whatever is assigned from it, stored into it
    (``samples.append(t)``) or returned by a function holding it — per
    position, for a returned tuple. A constant dict key is judged on
    its own: ``row["wall_s"] = elapsed`` taints ``"wall_s"``, and
    ``{"wall_s": elapsed, "calls": n}`` taints it and clears ``"calls"``,
    so ``row["calls"]`` stays clean while ``row[name]`` does not.
    """
    names, keys, clean, tuples = set(), set(), set(), {}

    def tainted(node):
        match node:
            case ast.Call(func=func) if (
                _called(func) in CLOCKS | names or any(tuples.get(_called(func), ()))
            ):
                return True
            case ast.Attribute(value=ast.Name(id="benchmark"), attr="stats"):
                return True
            case ast.Subscript(value=box, slice=ast.Constant(value=str(key))):
                return key in keys or key not in clean and tainted(box)
            case ast.Name(id=name):
                return name in names
        return any(map(tainted, ast.iter_child_nodes(node)))

    def taint(target):
        match target:
            case ast.Subscript(slice=ast.Constant(value=str(key))):
                keys.add(key)
            case ast.Tuple(elts=elts):
                for each in elts:
                    taint(each)
            case _ if _root(target):
                names.add(_root(target))

    def bind(target, value):
        if not isinstance(target, ast.Tuple):
            hot = [tainted(value)]
            target = ast.Tuple(elts=[target])
        elif isinstance(value, ast.Tuple):
            hot = [tainted(part) for part in value.elts]
        else:  # unpacking a call: per position, where the callee is known
            called = _called(getattr(value, "func", None))
            hot = tuples.get(called) or [tainted(value)] * len(target.elts)
        for each, each_hot in zip(target.elts, hot):
            if each_hot:
                taint(each)

    while True:  # until a pass taints nothing new
        before = len(names), len(keys), len(clean), dict(tuples)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind(target, node.value)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value:
                bind(node.target, node.value)
            elif isinstance(node, (ast.For, ast.comprehension)):
                bind(node.target, node.iter)
            elif isinstance(node, ast.Dict):
                hot = {
                    key.value: tainted(value)
                    for key, value in zip(node.keys, node.values)
                    if isinstance(key, ast.Constant)
                }
                if any(hot.values()):
                    keys.update(key for key, each in hot.items() if each)
                    clean.update(key for key, each in hot.items() if not each)
            elif isinstance(node, ast.Call) and _called(node.func) in _STORES:
                if any(map(tainted, node.args)):
                    taint(node.func)
            elif isinstance(node, ast.FunctionDef):
                for value in _returns(node):
                    if isinstance(value, ast.Tuple):
                        was = tuples.get(node.name, (False,) * len(value.elts))
                        tuples[node.name] = tuple(
                            hot or tainted(part)
                            for hot, part in zip(was, value.elts)
                        )
                    elif tainted(value):
                        names.add(node.name)
        if (len(names), len(keys), len(clean), tuples) == before:
            break
    return [
        " ".join(ast.unparse(node.test).split())
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) and tainted(node.test)
    ]


def test_wall_clock_gates_only_shrink():
    gates = {
        str(path): found
        for path, __, tree in _sources("benchmarks")
        if "e2e" not in path.parts and (found := _clock_asserts(tree))
    }
    assert not gates, "assert on a count; print the timing"


def test_the_clock_census_sees_a_timed_assert_and_only_it():
    planted = ast.parse(
        "import time\n"
        "t0 = time.monotonic()\n"
        "t1 = time.monotonic()\n"
        "assert t1 < t0\n"
    )
    assert _clock_asserts(planted) == ["t1 < t0"]
    mixed = ast.parse(
        "from time import perf_counter\n"
        "def run():\n"
        "    start = perf_counter()\n"
        "    return perf_counter() - start, 7\n"
        "elapsed, calls = run()\n"
        "row = {'wall_s': elapsed, 'calls': calls}\n"
        "assert row['calls'] > 0\n"
        "assert row['wall_s'] < 1.0\n"
        "for key in row:\n"
        "    assert row[key] is not None\n"
    )
    assert _clock_asserts(mixed) == [
        "row['wall_s'] < 1.0",
        "row[key] is not None",
    ]
