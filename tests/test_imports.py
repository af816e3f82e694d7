"""Module hygiene lints over src/mtv, since no linter ships with the test
dependencies.

Unused imports: every name a module of mtv imports is read by that module.
A name listed in ``__all__`` or imported on a line that carries
``# noqa: F401`` (a re-export kept on purpose) is exempt.

Run-time module state: a module-level dict or set that a function mutates
is process-wide state, such as a cache.  Only the ones on an allowlist may
exist, so a new cache (say, one keyed by each series length) cannot arrive
unnoticed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mtv"


def unused_imports(source):
    """Names that source imports but never reads, sorted."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(imported) - read - exported)


def test_unused_import_check_flags_only_unread_names():
    source = (
        "import os\n"
        "import os.path\n"
        "import sys  # noqa: F401 -- kept for callers\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "from math import gcd, lcm as least\n"
        "__all__ = ['gcd']\n"
        "print(least(2, 3))\n"
    )
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


# module -> its module-level dicts and sets that functions mutate: the
# one-time gate records, the Bernoulli table and the grow-only series store
RUN_TIME_STATE = {
    "qexp.py": ["_BERNOULLI", "_GATE_DONE", "_SERIES_STORE"],
    "trace.py": ["_FRICKE_ETA_OK"],
}
MUTATORS = {"add", "clear", "difference_update", "discard", "intersection_update", "pop",
            "popitem", "remove", "setdefault", "symmetric_difference_update", "update"}


def _is_container(value):
    if isinstance(value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
        return True
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "set"))


def mutated_module_containers(source):
    """Module-level dicts and sets that some function or lambda mutates, sorted."""
    tree = ast.parse(source)
    containers = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            containers |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and node.value and _is_container(node.value):
            if isinstance(node.target, ast.Name):
                containers.add(node.target.id)
    mutated = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for n in ast.walk(fn):
            if (isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del))
                    and isinstance(n.value, ast.Name)):
                mutated.add(n.value.id)
            elif (isinstance(n, ast.Attribute) and n.attr in MUTATORS
                    and isinstance(n.value, ast.Name)):
                mutated.add(n.value.id)
            elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                mutated.add(n.target.id)
    return sorted(containers & mutated)


def test_mutated_state_check_flags_run_time_mutation_only():
    source = (
        "_CACHE = {}\n"
        "_SEEN = set()\n"
        "_LOG = {1, 2}\n"
        "_TABLE = {1: 2}\n"
        "_TABLE[3] = 4\n"  # at import: a table, not state
        "_ROWS = []\n"
        "def get(k):\n"
        "    global _LOG\n"
        "    local = {}\n"
        "    local[k] = _TABLE[k]\n"
        "    _ROWS.append(k)\n"
        "    _LOG |= {k}\n"
        "    if k not in _CACHE:\n"
        "        _CACHE[k] = local\n"
        "    return (lambda: _SEEN.add(k))()\n"
    )
    assert mutated_module_containers(source) == ["_CACHE", "_LOG", "_SEEN"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_allowlisted_module_state_is_mutated(path):
    assert mutated_module_containers(path.read_text()) == RUN_TIME_STATE.get(path.name, [])
