"""Nothing public under ``src/`` that only its own tests reach.

Every public function, method and class defined under ``src/repro`` is
named by code in ``src/``, ``examples/`` or ``benchmarks/`` (a name, an
attribute access or an import; f-string fields count, which ``tokenize``
only sees from 3.12), or by ``docs/API.md``, or by :data:`NEEDED`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: public names only ``tests/`` reaches, and who needs each one
NEEDED = {
    "join_bgsave": "the tests' only deterministic wait for a BGSAVE",
    "unsubscribe": "ROADMAP 6's trace-ring subscribers detach with it",
    "aof_path": "tests size, read and corrupt the live log through it",
    "tracked_count": "the proof a freed referent leaves no registry entry",
    "satisfied": "how sma.reclaim()'s caller learns the demand was met",
    "extents": "the free list, read by the placement reference model",
    "incr": "one of KvClient's twelve shorthands; five test files use it",
}

_NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _trees(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path.relative_to(ROOT), ast.parse(path.read_text())


def _public_defs():
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path, tree in _trees("src/repro"):
        for node in ast.walk(tree):
            if isinstance(node, kinds) and not node.name.startswith("_"):
                yield node.name, f"{path}:{node.lineno}"


def test_every_public_name_is_reached_from_outside_its_tests():
    named = set(re.findall(r"\w+", (ROOT / "docs/API.md").read_text()))
    for __, tree in _trees("src", "examples", "benchmarks"):
        for node in ast.walk(tree):
            if type(node) in _NAME_FIELD:
                named.add(getattr(node, _NAME_FIELD[type(node)]))
    defined = dict(_public_defs())
    orphans = {
        n: at for n, at in defined.items() if n not in named | NEEDED.keys()
    }
    assert not orphans, f"public, but only tests reach them: {orphans}"
    stale = [n for n in NEEDED if n not in defined or n in named]
    assert not stale, f"NEEDED rows that are no longer needed: {stale}"
