"""Tests of the benchmark harness itself (not of mtv).

    python3 -m pytest perfbench/test_harness.py -q
"""

import inspect
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert wl.job_list(workload, 7, 4) == wl.job_list(workload, 7, 4)
    assert wl.job_list(workload, 7, 4) != wl.job_list(workload, 8, 4)


def test_hecke_weights_are_dealt_once_per_cycle():
    passes = wl.job_list("hecke-wide", 5, 12)
    for pool, kinds in ((wl.HECKE_DIM7, 6), (wl.HECKE_DIM8, 5)):
        drawn = [j[1] for p in passes for j in p if j[0] == "newforms" and j[1] in pool]
        assert sorted(drawn[:kinds]) == sorted(pool)
        assert drawn[kinds:2 * kinds] == drawn[:kinds]


def test_curve_strata_and_oracle_levels_are_dealt_once_per_cycle():
    strata = wl.newton_strata()
    classes = wl.curves_by_class()
    assert sorted(c for s in strata for c in s) == sorted(classes["edge"] + classes["axis"])
    passes = wl.job_list("curve-oracle", 5, 6)
    pairs = [sorted(next(i for i, s in enumerate(strata) if j[1:3] in s) for j in p
                    if j[0] == "specialize" and wl.curve_class(*j[1:3]) in ("edge", "axis"))
             for p in passes[:4]]
    assert all(lo + hi == len(strata) - 1 for lo, hi in pairs)
    assert sorted(lo for lo, _ in pairs) == list(range(len(strata) // 2))
    for w, levels in ((4, [1, 2, 3]), (6, [1, 5])):
        drawn = [j[2] for p in passes for j in p if j[0] == "oracle" and j[1] == w]
        assert sorted(drawn[:len(levels)]) == levels


def test_every_pass_has_the_same_composition():
    for workload in wl.WORKLOADS:
        shapes = {tuple(sorted(j[0] for j in p)) for p in wl.job_list(workload, 3, 6)}
        assert len(shapes) == 1, workload


def test_curve_classes_cover_the_pool():
    classes = wl.curves_by_class()
    assert sum(len(v) for v in classes.values()) == len(wl.curve_pool()) == 358
    assert wl.curve_class(*wl.ARC_CURVE) == "arc"
    assert wl.curve_class(4, 1) == "axis"      # j = 1728 * 64 / 37
    assert wl.curve_class(1, 1) == "edge"      # j = 1728 / (1 - 27)
    assert wl.curve_class(0, 1) == "special"   # j = 0


def test_corollary_jobs_stay_at_level_2():
    jobs = [j for p in wl.job_list("curve-oracle", 11, 12) for j in p if j[0] == "corollary"]
    assert len(jobs) == 12 and {j[1] for j in jobs} == {wl.COROLLARY_LEVEL} == {2}


# The defect that keeps levels 3 and 5 out of curve-oracle's corollary pool.
# When these calls stop raising, the strict xfail fails: put the levels back.
@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="poly_factor_q: factorization certification failed")
@pytest.mark.parametrize("level, weight, curve", [(5, 6, (-2, -5)), (3, 8, (0, 1))])
def test_known_corollary_defect(level, weight, curve):
    mtv = wl.import_mtv()
    mtv.elliptic.verify_corollary(level, wl.ETA[level], weight, 1,
                                  mtv.elliptic.CurveQ(*curve), order=wl.COROLLARY_ORDER)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def outer():
        clock.now += 1.0          # own work
        inner(2.0)                # a child covering 2.0
        clock.now += 0.5          # own work
        inner(3.0)                # another child covering 3.0

    inner = tr.wrap("layer.leaf", leaf)
    outer = tr.wrap("layer.outer", outer)
    outer()
    agg = tracing.aggregate(tr.spans)
    assert agg["layer.outer"] == {"calls": 1, "incl_s": 6.5, "self_s": 1.5}
    assert agg["layer.leaf"] == {"calls": 2, "incl_s": 5.0, "self_s": 5.0}


def test_observer_work_is_not_a_callers_self_time():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    class Series:
        coeffs = ()

    def mul():
        clock.now += 1.0
        return Series()

    def slow_observer(tracer, span, args, result):
        clock.now += 10.0

    tracing.OBSERVERS["test.mul"] = slow_observer
    try:
        inner = tr.wrap("test.mul", mul)
        outer = tr.wrap("test.outer", lambda: (clock.__setattr__("now", clock.now + 2.0),
                                               inner()))
        outer()
    finally:
        del tracing.OBSERVERS["test.mul"]
    agg = tracing.aggregate(tr.spans)
    assert agg["test.outer"]["self_s"] == 2.0
    assert agg["test.mul"]["self_s"] == 1.0


def test_recursive_calls_count_inclusive_time_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def rec(n):
        clock.now += 1.0
        if n:
            wrapped(n - 1)

    wrapped = tr.wrap("layer.rec", rec)
    wrapped(2)
    agg = tracing.aggregate(tr.spans)
    assert agg["layer.rec"] == {"calls": 3, "incl_s": 3.0, "self_s": 3.0}


def _bindings():
    """Every attribute of every mtv module and traced class, by identity."""
    import mtv  # noqa: F401

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "mtv" or name.startswith("mtv."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
    for layer, methods in tracing.METHODS.items():
        mod = sys.modules["mtv." + layer]
        for cls_name, meth, _ in methods:
            out[(cls_name, meth)] = vars(getattr(mod, cls_name))[meth]
    return out


def _wrapped_bindings():
    return sorted(k for k, v in _bindings().items() if hasattr(v, "__perfbench_original__"))


def test_install_rebinds_imported_names_and_uninstall_restores_all():
    wl.import_mtv()
    import mtv

    before = _bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        # names another module imported are replaced by the same wrapper
        assert mtv.trace.miller_basis is mtv.spaces.miller_basis
        assert hasattr(mtv.trace.miller_basis, "__perfbench_original__")
        assert mtv.elliptic.eval_qseries is mtv.numerics.eval_qseries
        assert hasattr(mtv.elliptic.eval_qseries, "__perfbench_original__")
        assert hasattr(mtv.polynomial.root_cluster, "__perfbench_original__")
        assert hasattr(vars(mtv.qexp.QSeries)["__mul__"], "__perfbench_original__")
        # the skipped per-coefficient helpers stay as they are
        assert not hasattr(mtv.numerics.to_mpf, "__perfbench_original__")
        assert len(_wrapped_bindings()) > 50
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert _wrapped_bindings() == []


def test_traced_call_records_spans_through_imported_names():
    mtv = wl.import_mtv()
    tr = tracing.Tracer()
    tr.install()
    try:
        mtv.spaces.newform_basis_level1(24, 16)
    finally:
        tr.uninstall()
    names = {s[0] for s in tr.spans}
    assert {"spaces.newform_basis_level1", "spaces.miller_basis", "qexp.mul",
            "linalg.nullspace", "polynomial.poly_factor_q",
            "numerics.root_cluster"} <= names
    assert tr.facts["linalg.nullspace"]["max_dim"] == 2


def _probe_runs(monkeypatch, trace):
    """Run one pass of a probe job; report what the probe saw."""
    seen = []

    def probe(mtv, job, clock):
        with clock:
            seen.append(_wrapped_bindings())
        return None

    monkeypatch.setitem(wl.RUNNERS, "probe", probe)
    monkeypatch.setattr(wl, "pass_jobs", lambda workload, seed, index: [("probe",)])
    run = bench.Run("trace-deep", 0, 0.0, trace)
    run.mtv = wl.import_mtv()
    run.measure()
    assert run.failures == []
    return seen


def test_untraced_run_installs_no_wrapper(monkeypatch):
    seen = _probe_runs(monkeypatch, trace=0)
    assert seen and all(w == [] for w in seen)


def test_traced_run_wraps_only_its_traced_passes(monkeypatch):
    seen = _probe_runs(monkeypatch, trace=1)
    assert len(seen) == 2
    assert sorted(bool(w) for w in seen) == [False, True]
    assert _wrapped_bindings() == []


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 41)]
    value, pct, n = wl.percentile_tail(xs)
    assert (value, pct, n) == (30.0, 75.0, 40)
    assert sum(1 for x in xs if x > value) == 10
    assert wl.percentile_tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_lattice_terms_counts_coprime_pairs():
    # level 2, bound 1: c = 2, d in {-1, 0, 1}, coprime: d = +-1 -> 1 + 2
    assert tracing.lattice_terms(2, 1) == 3
    assert tracing.lattice_terms(1, 2) == 1 + 5 + 2  # c=1: all 5 d; c=2: d=+-1


def test_oracle_bounds_visit_equal_term_counts():
    target = tracing.lattice_terms(5, 200)
    for level, bound in wl.ORACLE_BOUND.items():
        assert abs(tracing.lattice_terms(level, bound) / target - 1) < 0.01
        assert tracing.lattice_terms(level, bound - 1) < target <= tracing.lattice_terms(level, bound)


def test_scaling_to_reference_speed():
    ref = wl.REF_SECONDS
    assert wl.scaled(3.0, ref, ref) == pytest.approx(3.0)
    # a core running at half speed doubles the kernel time and the job time
    assert wl.scaled(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    assert wl.scaled(6.0, ref, 3 * ref) == pytest.approx(3.0)


def test_sampled_clock_leaves_out_the_slices():
    sampler = wl.SpeedSampler()
    start = time.perf_counter()
    with wl.Clock(sampler=sampler) as clock:
        while time.perf_counter() - start < 0.35:
            pass
    elapsed = time.perf_counter() - start
    assert len(sampler.wall) >= 4  # start, end and every SAMPLE_PERIOD between
    assert clock.wall == pytest.approx(elapsed - sum(sampler.wall), abs=0.01)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_golden_keys_ignore_the_order():
    assert wl.golden_key(("theorem", 2, 4, 1, 320)) == wl.golden_key(("theorem", 2, 4, 1, 16))
    assert wl.golden_key(("oracle", 4, 2, "0.1", "1.2", 200)) is None


def test_wrapper_keeps_the_signature():
    mtv = wl.import_mtv()
    tr = tracing.Tracer()
    tr.install()
    try:
        sig = inspect.signature(mtv.trace.verify_theorem)
    finally:
        tr.uninstall()
    assert sig == inspect.signature(mtv.trace.verify_theorem)
