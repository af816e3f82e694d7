"""Module hygiene lints over src/mtv, since no linter ships with the test
dependencies.

Unused imports: every name a module of mtv imports is read by that module.
A name listed in ``__all__`` or imported on a line that carries
``# noqa: F401`` (a re-export kept on purpose) is exempt.

MatQ: the pipeline's linear algebra is the integer kernel of linalg.py, so
no other module of mtv imports or names the Fraction matrix class.

Unnamed definitions: every module-level function and class of mtv is named
by some module of mtv other than ``__init__.py`` (as a name, an attribute or
an import) or reached by the benchmark in perfbench/ (parsed as
test_benchmark_contract.py parses it), so code the package no longer reaches
cannot stay in src/ unnoticed.  An export in ``mtv.__all__`` and an import
by the tests are no reads: code that only tests reach belongs in
tests/_oracles.py.  A module's own reads count, its own body included.

Unread methods: every method of a module-level class of mtv, dunders aside,
is read as an attribute by some module of mtv or by the acceptance tests.
The (class, method) pairs that the benchmark tracer wraps by name (its
METHODS, parsed from perfbench/tracer.py) and the oracle class ``MatQ`` are
exempt.

No mpmath: no module of mtv imports mpmath at any scope, function bodies
included, so every subcommand finishes in a process where importing mpmath
raises; mpmath is an oracle of the tests only.

Exact factorization: polynomial.py imports neither mpmath nor numerics, so
no path of poly_factor_q can reach floating point.  The helpers of its
certified path (every ``_fp_*`` function, the sieve, the Hensel lift and
Zassenhaus's recombination, the integer gcd and Yun's decomposition) name
neither Fraction nor UniPoly: they work on int lists, and poly_factor_q
converts only at its entry and its result.

Run-time module state: a module-level dict or set that a function mutates
is process-wide state, such as a cache.  Only the ones on an allowlist may
exist, so a new cache (say, one keyed by each series length) cannot arrive
unnoticed.

One q-grid, one coefficient ring: a QSeries is a series in integral powers
of q over Q.  No constructor takes an exponent grid or a coefficient field,
and no slot holds one or a field's component arrays; the one q^(1/N)-series
of the pipeline, route 2's Fricke image, is read as a series in t = q^(1/N),
and a newform orbit over its Hecke field is its Miller coordinates.

One request layer: the command line front end (cli.py) only parses, calls
and emits.  It defines no cap (no module-level ``MAX_*`` name), imports no
underscore-prefixed name from mtv and calls no ``_require_*`` helper, so
every size and cap of a request is worked out in the library.

One Hecke-field type: every newform orbit carries its Hecke field, a
rational orbit the field of degree 1.  No module of mtv compares a
``.field`` attribute with None or tests its truth, and the field functions
``nf_*`` of numfield.py take no int or Fraction in place of an element.

Bounded evaluations: every call of ``eval_qseries`` in mtv passes a
coefficient bound, as its fourth positional argument or as
``coeff_bound``.  Without one the ball holds only the polynomial the series
holds, so every value the package evaluates carries a proven tail.

One truncation rule: every function of mtv that calls ``eval_qseries`` takes
the order of what it evaluates from ``numerics.tail_order``, the least order
whose proven tail meets its target, except the oracle, which evaluates the
order its request names.  The fitted order rules it replaced
(``_order_for``, ``_GATE_ORDER``) are neither defined nor named.
"""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mtv"


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


def names_matq(source):
    """True when source imports MatQ or names it, bare or as an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == "MatQ" for alias in node.names):
                return True
        elif isinstance(node, ast.Name) and node.id == "MatQ":
            return True
        elif isinstance(node, ast.Attribute) and node.attr == "MatQ":
            return True
    return False


def test_matq_check_flags_imports_and_names():
    assert names_matq("from .linalg import MatQ\n")
    assert names_matq("from . import linalg\nm = linalg.MatQ([])\n")
    assert names_matq("def f(MatQ=None):\n    return MatQ\n")
    assert not names_matq("from .linalg import bareiss_solve\n# MatQ in a comment\n")


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_only_linalg_names_matq(path):
    assert not names_matq(path.read_text())


def unbounded_evaluations(source):
    """Line numbers of the eval_qseries calls in source, bare or as an
    attribute, that pass no coefficient bound."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "eval_qseries"
            and len(node.args) < 4 and "coeff_bound" not in {k.arg for k in node.keywords}]


def test_unbounded_evaluation_check_flags_calls_without_a_bound():
    source = (
        "from .numerics import eval_qseries\n"
        "from . import numerics\n"
        "a = eval_qseries(f, tau, 128)\n"
        "b = numerics.eval_qseries(f, tau, prec_bits=128)\n"
        "c = eval_qseries(f, tau, 128, (C, 1))\n"
        "d = numerics.eval_qseries(f, tau, 128, coeff_bound=bound)\n"
        "e = other(f, tau, 128)\n"
    )
    assert unbounded_evaluations(source) == [3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_evaluation_passes_a_coefficient_bound(path):
    assert unbounded_evaluations(path.read_text()) == []


# functions that evaluate a series at the order their caller names
REQUEST_ORDER = {"eisenstein_oracle"}
REMOVED_ORDER_RULES = {"_order_for", "_GATE_ORDER"}


def unsized_evaluations(source):
    """Module-level functions and methods of source, as "name" or
    "Class.name", that call eval_qseries (bare or as an attribute, nested
    calls included) but never tail_order, outside REQUEST_ORDER."""
    def called(node):
        return {getattr(n.func, "id", getattr(n.func, "attr", None))
                for n in ast.walk(node) if isinstance(n, ast.Call)}

    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            defs += [(node.name + "." + m.name, m) for m in node.body
                     if isinstance(m, ast.FunctionDef)]
    return [name for name, node in defs if name not in REQUEST_ORDER
            and "eval_qseries" in called(node) and "tail_order" not in called(node)]


def names_removed_order_rules(source):
    """The removed order rules that source defines, imports or names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return sorted(names & REMOVED_ORDER_RULES)


def test_unsized_evaluation_check_flags_orders_not_from_the_tail():
    source = (
        "from .numerics import eval_qseries, tail_order\n"
        "from . import numerics\n"
        "def sized(f, tau):\n"
        "    T = tail_order(b, y, 224)\n"
        "    return eval_qseries(f(T), tau, 160, b)\n"
        "def nested_sized(f, tau):\n"
        "    T = numerics.tail_order(b, y, 224)\n"
        "    at = lambda t: eval_qseries(f(T), t, 160, b)\n"
        "    return at(tau)\n"
        "def fixed(f, tau):\n"
        "    return eval_qseries(f(64), tau, 160, b)\n"
        "def nested_fixed(f, tau):\n"
        "    at = lambda t: numerics.eval_qseries(f(256), t, 160, b)\n"
        "    return at(tau)\n"
        "class Pair:\n"
        "    def value(self, f):\n"
        "        return eval_qseries(f(48), self.tau, 160, b)\n"
        "def eisenstein_oracle(f, trunc):\n"
        "    return eval_qseries(f(trunc), tau, 160, b)\n"
        "def other(f):\n"
        "    return f(64)\n"
    )
    assert unsized_evaluations(source) == ["fixed", "nested_fixed", "Pair.value"]


def test_removed_order_rule_check_flags_definitions_and_names():
    assert names_removed_order_rules("def _order_for(y, p):\n    return 48\n") == ["_order_for"]
    assert names_removed_order_rules("_GATE_ORDER = 64\n") == ["_GATE_ORDER"]
    assert names_removed_order_rules("from .elliptic import _order_for\n") == ["_order_for"]
    assert names_removed_order_rules("T = qexp._GATE_ORDER\n") == ["_GATE_ORDER"]
    assert names_removed_order_rules("T = tail_order(b, y, 224)  # not _GATE_ORDER\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_evaluation_takes_its_order_from_the_tail(path):
    source = path.read_text()
    assert unsized_evaluations(source) == []
    assert names_removed_order_rules(source) == []


def imported_parts(source):
    """Each dotted part of every module path and name that source imports."""
    parts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            parts.update(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                parts.update(alias.name.split("."))
    return parts


def test_imported_parts_sees_every_import_form():
    assert imported_parts("from .errors import InputError\n") == {"errors", "InputError"}
    for source in ("import mpmath.libmp\n", "from mpmath import mp\n",
                   "def f():\n    import mpmath\n",
                   "from .numerics import to_mpf\n", "from . import numerics as num\n"):
        assert {"mpmath", "numerics"} & imported_parts(source), source


def test_polynomial_imports_no_floating_point():
    parts = imported_parts((SRC / "polynomial.py").read_text())
    assert not {"mpmath", "numerics"} & parts


def import_time_mpmath_imports(source, any_scope=False):
    """Line numbers of the imports of mpmath that run when source is
    imported: every one outside a function body, class bodies and
    module-level if and try blocks included; with any_scope, those in
    function bodies too."""
    hits = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if not any_scope and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                    ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                if any(alias.name.split(".")[0] == "mpmath" for alias in child.names):
                    hits.append(child.lineno)
            elif isinstance(child, ast.ImportFrom):
                if not child.level and (child.module or "").split(".")[0] == "mpmath":
                    hits.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return hits


def test_import_time_mpmath_check_flags_module_level_imports_only():
    assert import_time_mpmath_imports("import mpmath\n") == [1]
    assert import_time_mpmath_imports("import os, mpmath.libmp as lm\n") == [1]
    assert import_time_mpmath_imports("from mpmath import mp, mpf\n") == [1]
    assert import_time_mpmath_imports(
        "try:\n    import mpmath\nexcept ImportError:\n    pass\n") == [2]
    assert import_time_mpmath_imports("class A:\n    from mpmath import mpc\n") == [2]
    assert import_time_mpmath_imports("def f():\n    import mpmath\n") == []
    assert import_time_mpmath_imports(
        "class A:\n    def f(self):\n        from mpmath import mpf\n") == []
    assert import_time_mpmath_imports("from .numerics import to_mpf\nimport mpmathx\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_mpmath_at_module_level(path):
    assert import_time_mpmath_imports(path.read_text()) == []


def test_any_scope_mpmath_check_flags_function_bodies():
    assert import_time_mpmath_imports("def f():\n    import mpmath\n", any_scope=True) == [2]
    assert import_time_mpmath_imports(
        "class A:\n    def f(self):\n        from mpmath import mpf\n", any_scope=True) == [3]
    assert import_time_mpmath_imports("def f():\n    import mpmathx\n", any_scope=True) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_mpmath_at_any_scope(path):
    assert import_time_mpmath_imports(path.read_text(), any_scope=True) == []


@pytest.mark.parametrize("argv, loaded", [
    (["newforms", "--weight", "24"], False),
    (["theorem", "--level", "5", "--eis-weight", "8", "--order", "64"], False),
    (["phi", "--level", "2", "--eis-weight", "4", "--order", "8", "--curve=0,1"], False),
    (["oracle", "--eis-weight", "4", "--level", "2", "--tau=0.21,1.13", "--bound", "24",
      "--series-order", "64"], False),
    (["specialize", "--curve=-2,-5", "--level", "2"], False),
    (["corollary", "--level", "2", "--eis-weight", "4", "--order", "12", "--curve=1,1"], False),
    # a child that loads mpmath itself before the command, so the check can see it
    (["--prec", "64", "specialize", "--curve=0,1"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_exact_subcommands_never_load_mpmath(argv, loaded):
    # a fresh interpreter (the test session has mpmath loaded); the child
    # finds the package through the PYTHONPATH conftest.py sets, and there
    # `import mpmath` raises unless the row loads it first
    code = ("import contextlib, io, sys\n"
            "if %s:\n"
            "    import mpmath\n"
            "else:\n"
            "    sys.modules['mpmath'] = None\n"
            "import mtv.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = mtv.cli.main(sys.argv[1:])\n"
            "print(code, sys.modules.get('mpmath') is not None)\n" % loaded)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout.split() == ["0", str(loaded)], proc.stderr


# the certified-path helpers of polynomial.py besides the _fp_* functions
INT_HELPERS = ("_squarefree_reductions", "_factor_degrees", "_hensel_lift", "_zq_prod",
               "_int_divexact", "_int_gcd", "_int_yun", "_factor_squarefree_monic_int")


def int_helpers_naming_rationals(source):
    """(helpers, offenders): the module-level _fp_* functions and
    INT_HELPERS that source defines, and those among them that name Fraction
    or UniPoly, bare or as an attribute, anywhere in their bodies; sorted."""
    helpers, offenders = set(), set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and (node.name.startswith("_fp_")
                                                  or node.name in INT_HELPERS):
            helpers.add(node.name)
            for n in ast.walk(node):
                if (getattr(n, "id", None) or getattr(n, "attr", None)) in ("Fraction", "UniPoly"):
                    offenders.add(node.name)
    return sorted(helpers), sorted(offenders)


def test_int_helper_check_flags_rational_names_only():
    source = (
        "from fractions import Fraction\n"
        "def _fp_a(f, p):\n"
        "    def inner(x):\n"
        "        return Fraction(x)\n"
        "    return inner\n"
        "def _factor_degrees(P):\n"
        "    return polynomial.UniPoly(P)\n"
        "def _zq_prod(polys, q):\n"
        "    # a Fraction here would be a rational coefficient\n"
        "    return [1]\n"
        "def _primitive(cs):\n"
        "    return Fraction(cs[0])\n"
    )
    assert int_helpers_naming_rationals(source) == (["_factor_degrees", "_fp_a", "_zq_prod"],
                                                    ["_factor_degrees", "_fp_a"])


def test_certified_factoring_helpers_name_no_rationals():
    helpers, offenders = int_helpers_naming_rationals((SRC / "polynomial.py").read_text())
    assert set(INT_HELPERS) <= set(helpers) and len(helpers) > len(INT_HELPERS)
    assert offenders == []


def definitions_and_names(source):
    """(module-level function and class names, every name source reads,
    imports or reads as an attribute)."""
    tree = ast.parse(source)
    defs = {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in n.names}
    return defs, names


def unnamed_definitions(sources, readers=()):
    """(module, name) of each module-level function or class in sources
    (module -> text) that no source but __init__.py names, whose imports are
    re-exports, and that readers (names read from outside) does not list;
    sorted."""
    scanned = {mod: definitions_and_names(text) for mod, text in sources.items()}
    named = set(readers).union(*[names for mod, (_, names) in scanned.items()
                                 if mod != "__init__.py"])
    return sorted((mod, d) for mod, (defs, _) in scanned.items() for d in defs - named)


def test_unnamed_definition_check_flags_only_unreached_code():
    sources = {
        "__init__.py": (
            "from .a import Exported, dead\n"
            "__all__ = ['Exported', 'dead']\n"
        ),
        "a.py": (
            "from .b import used\n"
            "def helper():\n"
            "    return used()\n"
            "def dead():\n"
            "    return helper()\n"
            "class Exported:\n"
            "    pass\n"
            "class Traced:\n"
            "    pass\n"
        ),
        "b.py": (
            "import math\n"
            "def used():\n"
            "    return math.pi\n"
            "def by_attribute():\n"
            "    pass\n"
            "class Node:\n"
            "    def child(self):\n"
            "        return Node()\n"
            "def other():\n"
            "    from . import b\n"
            "    return b.by_attribute\n"
        ),
    }
    # an export alone is no read; a name the benchmark reads is
    assert unnamed_definitions(sources, {"Traced"}) == [
        ("a.py", "Exported"), ("a.py", "dead"), ("b.py", "other")]
    assert unnamed_definitions(sources) == [
        ("a.py", "Exported"), ("a.py", "Traced"), ("a.py", "dead"), ("b.py", "other")]


def perfbench_names():
    """The names of mtv that perfbench/ reaches: the classes of the tracer's
    METHODS, the functions its OBSERVERS key and each mtv.<module>.<name>
    its workloads read."""
    from test_benchmark_contract import observed_keys, workload_calls

    return ({cls for cls, _ in traced_methods()}
            | {key.split(".")[-1] for key in observed_keys()}
            | {name for _, name in workload_calls()})


def test_every_definition_is_named_by_the_package_or_the_benchmark():
    assert {"MatQ", "verify_theorem", "poly_factor_q"} <= perfbench_names()
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unnamed_definitions(sources, perfbench_names()) == []


def methods_and_reads(source):
    """((class, method) for each method of a module-level class of source,
    dunders aside; every attribute name that source reads)."""
    tree = ast.parse(source)
    methods = {(node.name, fn.name) for node in tree.body if isinstance(node, ast.ClassDef)
               for fn in node.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (fn.name.startswith("__") and fn.name.endswith("__"))}
    reads = {n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return methods, reads


def unread_methods(sources, readers=(), exempt=()):
    """(module, class, method) of each method in sources (module -> text)
    whose name neither a source nor a text in readers reads as an attribute,
    and whose class or (class, method) pair exempt does not list; sorted."""
    scanned = {mod: methods_and_reads(text) for mod, text in sources.items()}
    read = set().union(*[reads for _, reads in scanned.values()],
                       *[methods_and_reads(text)[1] for text in readers])
    return sorted((mod, cls, name) for mod, (methods, _) in scanned.items()
                  for cls, name in methods
                  if name not in read and cls not in exempt and (cls, name) not in exempt)


def test_method_check_flags_only_unread_methods():
    sources = {
        "a.py": (
            "class Poly:\n"
            "    def __add__(self, other):\n"
            "        return self.lead()\n"
            "    def lead(self):\n"
            "        return 1\n"
            "    @property\n"
            "    def degree(self):\n"
            "        return 0\n"
            "    def dead(self):\n"
            "        pass\n"
            "    def stored(self):\n"
            "        pass\n"
            "    def traced(self):\n"
            "        pass\n"
            "def helper(p):\n"
            "    p.stored = None  # a store, not a read\n"
            "    return dead  # a bare name, not an attribute\n"
        ),
        "b.py": (
            "class Oracle:\n"
            "    def solve(self):\n"
            "        pass\n"
            "class Helper:\n"
            "    def used(self):\n"
            "        return 1\n"
        ),
    }
    exempt = {"Oracle", ("Poly", "traced")}
    reader = "from a import Poly\nPoly().degree\nHelper().used()\n"
    assert unread_methods(sources, [reader], exempt) == [("a.py", "Poly", "dead"),
                                                         ("a.py", "Poly", "stored")]
    assert unread_methods(sources, [], exempt) == [
        ("a.py", "Poly", "dead"), ("a.py", "Poly", "degree"), ("a.py", "Poly", "stored"),
        ("b.py", "Helper", "used")]


def traced_methods():
    """The (class, method) pairs in the METHODS table of perfbench/tracer.py."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets)]
    return {(cls, meth) for entries in ast.literal_eval(value).values()
            for cls, meth, _ in entries}


def test_every_method_is_read_by_the_package_or_accepted():
    assert ("NumberFieldElem", "inverse") in traced_methods()
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert unread_methods(sources, [acceptance], traced_methods() | {"MatQ"}) == []


# module -> its module-level dicts and sets that functions mutate: the
# one-time gate records, the Bernoulli table, the grow-only series store and
# the integer pi at the most bits asked for
RUN_TIME_STATE = {
    "numerics.py": ["_PI"],
    "qexp.py": ["_BERNOULLI", "_GATE_DONE", "_SERIES_STORE"],
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


def test_qseries_carries_no_exponent_grid():
    from mtv.qexp import QSeries

    builds = [QSeries] + [v.__func__ for v in vars(QSeries).values() if isinstance(v, classmethod)]
    assert QSeries._from_ints.__func__ in builds
    for build in builds:
        params = inspect.signature(build).parameters
        assert "e" not in params and "field" not in params, build
    assert not {"e", "field", "_comps"} & set(QSeries.__slots__)


def front_end_offenders(source):
    """Caps that source defines at module level (MAX_* names), the
    underscore-prefixed names it imports from mtv, and the _require_*
    helpers it reads as attributes, sorted."""
    tree = ast.parse(source)
    out = [t.id for node in tree.body if isinstance(node, ast.Assign)
           for t in node.targets if isinstance(t, ast.Name) and t.id.startswith("MAX_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "mtv"):
            out += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_require"):
            out.append(node.attr)
    return sorted(out)


def test_front_end_check_flags_caps_and_private_names():
    source = (
        "from .qexp import EtaQuotientSpec, _require_prime\n"
        "from mtv.spaces import _stored\n"
        "from os import _exit\n"
        "import mtv.trace as trace\n"
        "MAX_TERMS = 10\n"
        "trace._require_series_terms(1, 'order 1')\n"
        "def f():\n"
        "    MAX_LOCAL = 1\n"
    )
    assert front_end_offenders(source) == [
        "MAX_TERMS", "_require_prime", "_require_series_terms", "_stored"]


def test_cli_defines_no_cap_and_reads_no_private_name():
    assert front_end_offenders((SRC / "cli.py").read_text()) == []


def field_absence_tests(source):
    """Line numbers where source compares a ``.field`` attribute with None
    or tests its truth, and the nf_* functions that call isinstance."""
    def is_field(node):
        return isinstance(node, ast.Attribute) and node.attr == "field"

    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            if any(map(is_field, sides)) and any(
                    isinstance(n, ast.Constant) and n.value is None for n in sides):
                out.append(node.lineno)
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)) and is_field(node.test):
            out.append(node.lineno)
        elif isinstance(node, ast.BoolOp) and any(map(is_field, node.values)):
            out.append(node.lineno)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and is_field(node.operand):
            out.append(node.lineno)
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("nf_") and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "isinstance"
                for n in ast.walk(node)):
            out.append(node.name)
    return out


def test_field_absence_check_flags_none_and_truth_tests():
    source = (
        "a = 1 if nf.field is None else nf.field.degree\n"
        "if f.field != None:\n"
        "    pass\n"
        "b = nf.field and nf.field.power_sums()\n"
        "c = not x.field\n"
        "if nf.field:\n"
        "    pass\n"
        "def nf_trace(e):\n"
        "    return e if isinstance(e, int) else e.trace()\n"
        "d = nf.field.degree == 1\n"
        "e = nf.modulus is None\n"
        "def trace(e):\n"
        "    return isinstance(e, int)\n"
    )
    assert set(field_absence_tests(source)) == {1, 2, 4, 5, 6, "nf_trace"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_tests_for_an_absent_hecke_field(path):
    assert field_absence_tests(path.read_text()) == []
