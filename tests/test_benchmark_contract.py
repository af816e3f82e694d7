"""The names the benchmark in perfbench/ reaches inside mtv still exist.

The benchmark's tracer wraps the methods it lists in METHODS, read from
each class's vars(), observes the calls of the functions it keys in
OBSERVERS, and its workloads call mtv through module attributes.  A
deletion in the package that removes one of those names would break a
traced benchmark run without failing any other test.  perfbench/ is only
parsed here, never imported or written to.
"""

import ast
import importlib
import inspect
from pathlib import Path

from mpmath import mpc

import mtv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _assigned(tree, name):
    """The value node of the one module-level assignment to name in tree."""
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return value


def observed_keys():
    """The "module.name" keys of the tracer's OBSERVERS, the names its
    OBSERVERS.update(... for name in EISENSTEIN) adds included."""
    tree = _tree("tracer.py")
    keys = {ast.literal_eval(k) for k in _assigned(tree, "OBSERVERS").keys}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "OBSERVERS"):
            (gen,) = node.args
            keys |= set(ast.literal_eval(_assigned(tree, gen.generators[0].iter.id)))
    return keys


def workload_calls():
    """(module, name) of each mtv.<module>.<name> that workloads.py reads."""
    return {
        (node.value.attr, node.attr)
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "mtv"
    }


def test_traced_methods_are_in_their_class_vars():
    methods = ast.literal_eval(_assigned(_tree("tracer.py"), "METHODS"))
    assert methods
    for layer, entries in methods.items():
        module = importlib.import_module("mtv." + layer)
        for cls_name, method, _ in entries:
            assert method in vars(getattr(module, cls_name)), (layer, cls_name, method)


def test_observed_functions_resolve():
    methods = {"%s.%s" % (layer, short)
               for layer, entries in ast.literal_eval(_assigned(_tree("tracer.py"),
                                                                "METHODS")).items()
               for _, _, short in entries}
    functions = sorted(observed_keys() - methods)
    assert "polynomial.poly_factor_q" in functions and "qexp.eisenstein_level1" in functions
    for key in functions:
        module, name = key.split(".")
        assert inspect.isfunction(getattr(importlib.import_module("mtv." + module), name)), key
    # the factoring observer reads the degree of the first argument
    p = mtv.polynomial.UniPoly([-2, 0, 1])
    assert mtv.polynomial.poly_factor_q(p) == [(p, 1)] and p.degree == 2


def test_workload_calls_resolve():
    used = workload_calls()
    assert ("trace", "verify_theorem") in used
    for module, name in sorted(used):
        assert hasattr(importlib.import_module("mtv." + module), name), (module, name)
    # the oracle workload passes the trivial character positionally
    inspect.signature(mtv.numerics.lattice_sum_eisenstein).bind(
        4, 2, mpc(0.21, 1.13), 4, None, 128
    )


def test_public_names_resolve():
    for name in mtv.__all__:
        assert hasattr(mtv, name), name
