"""Seeded workloads for the mtv benchmark: job lists, job runners, checks.

A job is a tuple `(kind, *params)`.  A workload builds one pass of jobs from
a random generator seeded by (seed, pass index), so a run of many passes
draws fresh inputs from the same pools and the same seed always yields the
same jobs.  Each pass has a fixed composition (which kinds of job, and how
many of each cost class), so every pass does comparable work.

The runners call mtv through module attributes (`mtv.trace.verify_theorem`),
never through names bound at import time, so the tracer's wrappers see every
top-level call.  A runner times only the call into mtv; its checks run after
the clock stops and return the report fields that goldens compare.
"""

import gc
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# bundled cusp forms, as in mtv.cli.BUNDLED_ETA
ETA = {2: {1: 8, 2: 8}, 3: {1: 6, 3: 6}, 5: {1: 4, 5: 4}}

# trace-deep: base order per level, so the three levels cost about the same
DEEP_ORDER = {2: 320, 3: 224, 5: 160}
LIGHT_WEIGHTS = (4, 6)
HEAVY_WEIGHTS = (8, 10)

# hecke-wide: level-1 weights whose cusp space has dimension 7 or 8
HECKE_DIM7 = (84, 88, 90, 92, 94, 98)
HECKE_DIM8 = (96, 100, 102, 104, 106)
HECKE_ORDER = 64
HECKE_THEOREM_ORDER = 16

# curve-oracle: the criterion-1 (weight, level) pairs and the sizes it uses
ORACLE_PAIRS = ((4, 1), (6, 1), (4, 2), (4, 3), (6, 5))
# Bound per level near 200 at which the coset sum visits about 40,760 terms
# (level 5 at 200), so a sum costs the same whichever pair the seed draws.
ORACLE_BOUND = {1: 183, 2: 224, 3: 211, 5: 200}
ORACLE_SERIES_ORDER = 128
ORACLE_PREC = 256
SPECIALIZE_PREC = 300
COROLLARY_ORDER = 64
COROLLARY_WEIGHTS = (4, 6, 8, 10)
# verify_corollary runs at level 2 only.  At levels 3 and 5, condition_a's
# poly_factor_q raises AssertionError("factorization certification failed")
# for some curves of the pool: level 3 weight 8 at every curve with g2 = 0,
# level 5 at 4 to 46 of 196 curves per weight, the arc curve among them.
# The benchmark's workloads must run without failing operations, so those
# levels stay out of the pool; test_harness.py pins the defect instead.
# Level 2 passes at every curve of the pool and every weight above.
COROLLARY_LEVEL = 2

CURVE_RANGE = range(-9, 10)
# Curves whose tau lies on the unit-circle arc (0 < j < 1728) cost 0.45 to
# 10.9 s each to invert at 300 bits, as Newton restarts from seed after seed;
# one seeded draw per pass would swing a pass by more than the benchmark's
# bounds.  Every pass therefore runs this one arc curve, whose inversion
# costs about the arc median, next to seeded curves of the other classes.
ARC_CURVE = (-2, -5)
SEEDED_CLASSES = ("special", "edge", "axis")
NEWTON_STRATA = 8


class CheckFailed(Exception):
    """A job's output broke an invariant or differs from its golden."""


def curve_pool():
    """All (g2, g3) with g2, g3 in [-9, 9] and nonzero discriminant."""
    return [(a, b) for a in CURVE_RANGE for b in CURVE_RANGE if a**3 - 27 * b * b]


def curve_class(g2, g3):
    """Where tau sits on the boundary of the fundamental domain, by j.

    j = 1728 g2^3 / (g2^3 - 27 g3^2) is real for a real curve.  'special' is
    j in {0, 1728} (no Newton step); 'arc' is 0 < j < 1728 (|tau| = 1);
    'axis' is j > 1728 (Re tau = 0); 'edge' is j < 0 (Re tau = -1/2).
    """
    if g2 == 0 or g3 == 0:
        return "special"
    j = Fraction(1728 * g2**3, g2**3 - 27 * g3 * g3)
    if j < 0:
        return "edge"
    return "arc" if j < 1728 else "axis"


def curves_by_class():
    out = {}
    for c in curve_pool():
        out.setdefault(curve_class(*c), []).append(c)
    return out


def _tau(rng):
    """A seeded point with |Re| <= 1/2 and 1 <= Im <= 2, as exact decimals."""
    return ("%.2f" % rng.uniform(-0.5, 0.5), "%.2f" % rng.uniform(1.0, 2.0))


def _curve_arg(c):
    return "%d,%d" % c


# -- job lists -----------------------------------------------------------------

def pass_jobs(workload, seed, index):
    """The jobs of pass `index` of `workload` under `seed`."""
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    return MAKE_PASS[workload](rng, lambda pool: dealt(pool, "%s:%d" % (workload, seed), index))


def dealt(pool, key, index):
    """Item `index` of a seeded shuffle of `pool`, cycling: any len(pool)
    consecutive passes draw every item once."""
    order = random.Random("%s:%s" % (key, pool)).sample(pool, len(pool))
    return order[index % len(order)]


def job_list(workload, seed, passes):
    return [pass_jobs(workload, seed, i) for i in range(passes)]


def _trace_deep(rng, deal):
    jobs = []
    for level, base in DEEP_ORDER.items():
        for pool in (LIGHT_WEIGHTS, HEAVY_WEIGHTS):
            jobs.append(("theorem", level, rng.choice(pool), 1,
                         base + rng.randrange(8)))
    rng.shuffle(jobs)
    return jobs


def _hecke_wide(rng, deal):
    # weights are dealt, not drawn: a dimension-8 basis costs 2.6 to 3.3 s
    # here, and a run of four passes drawing only cheap or only dear ones
    # would move the median pass by more than the bounds allow
    jobs = [
        ("newforms", deal(HECKE_DIM7), HECKE_ORDER),
        ("newforms", deal(HECKE_DIM8), HECKE_ORDER),
        # weight 5*(8+4) = 60 or 5*(8+6) = 70: a degree-5 Hecke field
        ("theorem", 2, rng.choice((4, 6)), 5, HECKE_THEOREM_ORDER),
        # weight 6*(8+4) = 72: a degree-6 Hecke field
        ("theorem", 2, 4, 6, HECKE_THEOREM_ORDER),
    ]
    rng.shuffle(jobs)
    return jobs


def _pass_curves(rng):
    """One seeded curve from each well-behaved class, then ARC_CURVE (cli-cold)."""
    classes = curves_by_class()
    return [rng.choice(classes[c]) for c in SEEDED_CLASSES] + [ARC_CURVE]


def newton_strata():
    """The edge and axis curves in NEWTON_STRATA equal slices by Im tau.

    The cost of specializing at 300 bits follows the series order, which
    falls as Im tau grows: 0.23 s at order 56, 0.65 s at order 81.  Near the
    cusp j ~ 1/q + 744 with |q| = exp(-2 pi Im tau), so log|j - 744| orders
    the curves by Im tau without calling mtv.
    """
    classes = curves_by_class()
    pool = sorted(classes["edge"] + classes["axis"], key=lambda c: (
        math.log(abs(Fraction(1728 * c[0]**3, c[0]**3 - 27 * c[1]**2) - 744)), c))
    n = len(pool)
    return tuple(tuple(pool[i * n // NEWTON_STRATA:(i + 1) * n // NEWTON_STRATA])
                 for i in range(NEWTON_STRATA))


def _curve_oracle(rng, deal):
    # Costs are balanced inside each pass, so every pass does about the same
    # work: one oracle of each weight (a weight-6 sum costs 1.2x a weight-4
    # one) and two edge or axis curves from strata i and 7 - i, dealt so any
    # 4 consecutive passes visit every stratum once.  With one oracle and one
    # curve drawn freely, the median pass moved 10-15% from seed to seed.
    special = rng.choice(curves_by_class()["special"])
    strata = newton_strata()
    i = deal(tuple(range(NEWTON_STRATA // 2)))
    newton = [rng.choice(strata[i]), rng.choice(strata[-1 - i])]
    jobs = []
    for w in (4, 6):
        level = deal(tuple(lv for wt, lv in ORACLE_PAIRS if wt == w))
        jobs.append(("oracle", w, level) + _tau(rng) + (ORACLE_BOUND[level],))
    jobs += [("specialize", g2, g3, SPECIALIZE_PREC)
             for g2, g3 in [special] + newton + [ARC_CURVE]]
    # At the special curve, where the j-inversion inside verify_corollary is
    # closed-form: at a Newton curve it added 0.1-0.5 s to the corollary.
    jobs.append(("corollary", COROLLARY_LEVEL, rng.choice(COROLLARY_WEIGHTS), 1)
                + special + (COROLLARY_ORDER,))
    rng.shuffle(jobs)
    return jobs


def _cli_cold(rng, deal):
    special, edge, axis, arc = (_curve_arg(c) for c in _pass_curves(rng))
    tau = "%s,%s" % _tau(rng)
    argvs = [
        ("newforms", "--weight", "24", "--order", "12"),
        ("theorem", "--level", "2", "--eis-weight", "4", "--order", "12"),
        ("theorem", "--level", "3", "--eis-weight", "6", "--order", "12"),
        ("--prec", "128", "corollary", "--level", "2", "--eis-weight", "4",
         "--order", "12", "--curve=" + edge),
        ("phi", "--level", "2", "--eis-weight", "4", "--order", "8",
         "--curve=" + special),
        ("--prec", "128", "oracle", "--eis-weight", "4", "--level", "2",
         "--tau=" + tau, "--bound", "24", "--series-order", "64"),
        ("--prec", "128", "specialize", "--curve=" + arc, "--level", "2"),
        ("theorem", "--level", "5", "--eis-weight", "8", "--order", "64"),
        ("corollary", "--level", "2", "--eis-weight", "4", "--power", "2",
         "--curve=" + axis),
    ]
    jobs = [("cli",) + a for a in argvs]
    rng.shuffle(jobs)
    return jobs


MAKE_PASS = {
    "trace-deep": _trace_deep,
    "hecke-wide": _hecke_wide,
    "curve-oracle": _curve_oracle,
    "cli-cold": _cli_cold,
}
WORKLOADS = tuple(MAKE_PASS)


def warm_keys(workload):
    """(Eisenstein weight, level) pairs whose one-time gates set-up pays.

    Every pair any pass of the workload can draw, so no gate runs while the
    clock is measuring.
    """
    if workload == "trace-deep":
        return [(w, lv) for lv in DEEP_ORDER for w in LIGHT_WEIGHTS + HEAVY_WEIGHTS]
    if workload == "hecke-wide":
        return [(4, 2), (6, 2)]
    if workload == "curve-oracle":
        return sorted(set(ORACLE_PAIRS) | {(w, COROLLARY_LEVEL)
                                            for w in COROLLARY_WEIGHTS})
    return []


def import_mtv():
    """Import the package and its CLI module, as every user of mtv does."""
    import mtv
    import mtv.cli  # noqa: F401

    return mtv


def warm(mtv, workload):
    """One small-order call per (weight, level) in warm_keys: fills the gates."""
    for w, level in warm_keys(workload):
        if level == 1:
            mtv.qexp.eisenstein_level1(w, 8)
        else:
            mtv.trace.verify_theorem(level, ETA[level], w, 1, order=8)


# -- reference speed -----------------------------------------------------------

# The machine's speed drifts by up to 1.7x over tens of seconds when a
# co-tenant loads the core.  A fixed exact-arithmetic kernel, timed around
# every job, measures that drift, and job times are scaled to the speed at
# which the kernel takes REF_SECONDS (its time on an uncontended core of a
# 2-vCPU x86_64 VM under CPython 3.11).
REF_SECONDS = 0.0195
# 4,000 Fractions of up to 250 bits: a working set the size of a series
# product's, so the kernel slows as the workloads do under contention
_REF_DATA = [Fraction(7 ** (i % 90) + i, 3 ** (i % 40) + 1) for i in range(4000)]


KERNEL_STEPS = 3000


def reference_kernel(steps=KERNEL_STEPS):
    s = Fraction(0)
    n = len(_REF_DATA)
    for k in range(steps):
        s += _REF_DATA[k] * _REF_DATA[k * 37 % n]
    return s


def reference_time(reps=3):
    """(wall, CPU) seconds of the kernel, each the shortest of `reps`
    timings, with the collector off.

    CPU times are scaled by the kernel's CPU time: when another process
    shares the core, the kernel's wall time grows but neither its CPU time
    nor a job's does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall = cpu = math.inf
        for _ in range(reps):
            w, c = time.perf_counter(), time.process_time()
            reference_kernel()
            wall = min(wall, time.perf_counter() - w)
            cpu = min(cpu, time.process_time() - c)
        return wall, cpu
    finally:
        if enabled:
            gc.enable()


# Inside an in-process job the kernel's speed is sampled as well: a slice of
# SLICE_STEPS steps every SAMPLE_PERIOD seconds, timed from a SIGALRM
# handler.  Timed only before and after a job, the kernel left the scaled
# time of a 3 s newform basis varying by 13% from call to call (raw: 6%);
# averaged over samples taken during the job, by 2.4%.  Each slice's CPU
# time is kept too, to scale CPU times (see reference_time).
SLICE_STEPS = 300
SLICE_SECONDS = REF_SECONDS * SLICE_STEPS / KERNEL_STEPS  # nominal: REF_SECONDS pro rata
SAMPLE_PERIOD = 0.1


class SpeedSampler:
    """Kernel slices timed at the start and end of a block and every
    SAMPLE_PERIOD seconds within it.  Clock subtracts their time."""

    def __init__(self):
        self.wall = []
        self.cpu = []

    def sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        w, c = time.perf_counter(), time.process_time()
        reference_kernel(SLICE_STEPS)
        self.wall.append(time.perf_counter() - w)
        self.cpu.append(time.process_time() - c)
        if enabled:
            gc.enable()

    def start(self):
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def scaled(self, wall, cpu):
        """(wall, CPU) seconds at reference speed, by the mean slice times."""
        return (wall * SLICE_SECONDS / (sum(self.wall) / len(self.wall)),
                cpu * SLICE_SECONDS / (sum(self.cpu) / len(self.cpu)))

    def kernel_seconds(self):
        """The mean slice time, as the time of the whole kernel."""
        return sum(self.wall) / len(self.wall) * KERNEL_STEPS / SLICE_STEPS


def scaled(raw, ref_before, ref_after):
    """A time measured between two kernel timings, at reference speed."""
    return raw * 2 * REF_SECONDS / (ref_before + ref_after)


def timed_setup(workload, tracer=None):
    """One set-up: (mtv, import seconds, set-up seconds at reference speed,
    raw set-up seconds).  A tracer given here records the warm-up calls."""
    r0 = reference_time()[0]
    t = time.perf_counter()
    mtv = import_mtv()
    import_s = time.perf_counter() - t
    if tracer is not None:
        tracer.install()
    try:
        warm(mtv, workload)
    finally:
        if tracer is not None:
            tracer.uninstall()
    raw = time.perf_counter() - t
    return mtv, import_s, scaled(raw, r0, reference_time()[0]), raw


# -- job runners ---------------------------------------------------------------

class Clock:
    """Wall and CPU time of the block it guards, kept even if the block raises.

    With a tracer, spans are recorded inside the block and nowhere else, so a
    job's checks never show up in the per-layer figures.  With a sampler, the
    kernel slices run inside the block and their time is taken out.
    """

    wall = cpu = 0.0

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.enabled = True
        self._w, self._c = time.perf_counter(), time.process_time()
        if self.sampler is not None:
            self.sampler.start()
        return self

    def __exit__(self, *exc):
        if self.sampler is not None:
            self.sampler.stop()
        self.wall = time.perf_counter() - self._w
        self.cpu = time.process_time() - self._c
        if self.sampler is not None:
            self.wall -= sum(self.sampler.wall)
            self.cpu -= sum(self.sampler.cpu)
        if self.tracer is not None:
            self.tracer.enabled = False
        return False


def golden_key(job):
    kind = job[0]
    if kind == "theorem":
        return "theorem:%d:%d:%d" % job[1:4]
    if kind == "newforms":
        return "newforms:%d" % job[1]
    if kind == "corollary":
        return "corollary:%d:%d:%d:%d:%d" % job[1:6]
    if kind == "cli":
        return "cli:" + " ".join(job[1:])
    return None


def theorem_fields(d):
    """Report fields of a theorem run that no correct change may alter."""
    return {
        "trace_head": d["trace_head"],
        "constant": d["constant"],
        "orbits": [
            {k: o[k] for k in ("hecke_minpoly", "component", "ratio", "ratio_charpoly")}
            for o in d["orbits"]
        ],
    }


def _check_theorem_result(mtv, res, order):
    if res.route_agree_through < order:
        raise CheckFailed("routes agree through %d < order %d"
                          % (res.route_agree_through, order))
    degs = sum(nf.degree for nf in res.orbit_set.orbits)
    dim = mtv.spaces.dim_cusp_level1(res.weight_total)
    if degs != dim:
        raise CheckFailed("orbit degrees sum to %d, cusp dimension is %d" % (degs, dim))
    return theorem_fields(res.to_dict())


def run_theorem(mtv, job, clock):
    _, level, w, power, order = job
    with clock:
        res = mtv.trace.verify_theorem(level, ETA[level], w, power, order=order)
    return _check_theorem_result(mtv, res, order)


def run_newforms(mtv, job, clock):
    _, k, order = job
    with clock:
        orbit_set = mtv.spaces.newform_basis_level1(k, order)
    degs = sum(nf.degree for nf in orbit_set.orbits)
    if degs != mtv.spaces.dim_cusp_level1(k):
        raise CheckFailed("orbit degrees sum to %d at weight %d" % (degs, k))
    fmt = mtv.rational.format_rational
    return {"orbits": [
        {"hecke_minpoly": nf.modulus.serialize(),
         "coefficients": [[fmt(c) for c in getattr(nf.a(n), "coords", (nf.a(n),))]
                          for n in range(8)]}
        for nf in orbit_set.orbits
    ]}


def run_oracle(mtv, job, clock):
    import mpmath

    _, w, level, re, im, bound = job
    tau = mpmath.mpc(re, im)
    with clock:
        ser = mtv.qexp.eisenstein_prime_level(w, level, ORACLE_SERIES_ORDER)
        closed = mtv.numerics.eval_qseries(ser, tau, ORACLE_PREC)
        lat = mtv.numerics.lattice_sum_eisenstein(w, level, tau, bound, None, ORACLE_PREC)
    if not closed.distance(lat) <= closed.err + lat.err:
        raise CheckFailed("closed form and lattice sum differ beyond their errors")
    return None


def run_specialize(mtv, job, clock):
    _, g2, g3, prec = job
    curve = mtv.elliptic.CurveQ(g2, g3)
    with clock:
        pair = mtv.elliptic.tau_from_curve(curve, prec)
        T = pair.order
        got = [
            mtv.elliptic.reconstruct_real(pair.specialize_numeric(ser, wt))
            for ser, wt in ((mtv.qexp.eisenstein_level1(4, T), 4),
                            (mtv.qexp.eisenstein_level1(6, T), 6),
                            (mtv.spaces.delta_series(T), 12))
        ]
    want = [12 * curve.g2, 216 * curve.g3, curve.discriminant]
    if got != want:
        raise CheckFailed("reconstructed %s, expected %s" % (got, want))
    return None


def run_corollary(mtv, job, clock):
    _, level, w, power, g2, g3, order = job
    curve = mtv.elliptic.CurveQ(g2, g3)
    with clock:
        res = mtv.elliptic.verify_corollary(level, ETA[level], w, power, curve,
                                            order=order)
    if not (res.equal and res.lhs == res.rhs):
        raise CheckFailed("specialization identity does not hold")
    fields = _check_theorem_result(mtv, res.theorem, order)
    fields["lhs"] = str(res.lhs)
    fields["rhs"] = str(res.rhs)
    return fields


RUNNERS = {
    "theorem": run_theorem,
    "newforms": run_newforms,
    "oracle": run_oracle,
    "specialize": run_specialize,
    "corollary": run_corollary,
}


# -- the CLI -------------------------------------------------------------------

class ExitStatus(Exception):
    """A CLI process ended with a nonzero exit code."""


def cli_fields(argv, doc):
    """Mathematical fields of a CLI report, after its invariants are checked."""
    cmd = next(a for a in argv if a in CLI_COMMANDS)
    if cmd == "theorem":
        return theorem_fields(doc)
    if cmd == "corollary":
        if doc["identity_holds"] is not True or (
                doc["specialized_trace_lhs"] != doc["newform_side_rhs"]):
            raise CheckFailed("specialization identity does not hold")
        f = theorem_fields(doc["theorem"])
        f["lhs"] = doc["specialized_trace_lhs"]
        f["rhs"] = doc["newform_side_rhs"]
        return f
    if cmd == "newforms":
        return {"orbits": [{"hecke_minpoly": o["hecke_minpoly"],
                            "coefficients": o["coefficients"][:8]}
                           for o in doc["orbits"]]}
    if cmd == "phi":
        return {"symmetric": doc["symmetric"], "specialized": doc["specialized"]}
    if cmd == "oracle":
        if not float(doc["difference"]) <= float(doc["certified_error_sum"]):
            raise CheckFailed("closed form and lattice sum differ beyond their errors")
        return None
    for row in doc["specialized"]:  # specialize
        if row["rational"] != doc["exact_targets"][row["series"]]:
            raise CheckFailed("%s reconstructed as %s" % (row["series"], row["rational"]))
    return None


CLI_COMMANDS = ("newforms", "theorem", "corollary", "phi", "oracle", "specialize")


def run_cli(src, job, clock, spans_file=None):
    """Run one CLI job in a fresh interpreter: `python -m mtv ARGS`, or the
    traced launcher when `spans_file` names where its spans go.

    The clock's CPU time is that of the child process.
    """
    argv = list(job[1:])
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("MTV_PREC_BITS", None)  # each command's precision is its --prec or the default
    if spans_file is None:
        cmd = [sys.executable, "-m", "mtv"] + argv
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file)] + argv
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with clock:
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=170)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    clock.cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        lines = proc.stderr.decode(errors="replace").strip().splitlines()
        raise ExitStatus("exit code %d: %s" % (proc.returncode, lines[-1] if lines else ""))
    try:
        doc = json.loads(proc.stdout)
    except ValueError as exc:
        raise CheckFailed("stdout is not valid JSON") from exc
    return cli_fields(argv, doc)


# -- goldens and statistics ----------------------------------------------------

def compare_golden(goldens, job, fields):
    """Raise CheckFailed when a recorded golden exists and differs."""
    key = golden_key(job)
    if fields is None or key not in goldens:
        return
    if json.loads(json.dumps(fields)) != goldens[key]:
        raise CheckFailed("report fields differ from the golden for %s" % key)


def load_goldens():
    with open(HERE / "goldens.json") as fp:
        return json.load(fp)


def describe(job):
    return " ".join(str(p) for p in job)


def percentile_tail(samples):
    """(value, percentile, count): the highest percentile with at least ten
    samples above it.  Below eleven samples it is the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n
