"""The mtv benchmark: seeded workloads with end-to-end and per-layer metrics.

One workload, one run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload trace-deep --seed 0 --seconds 25 --trace 0

Every workload, untraced then traced, with a summary table:

    python3 perfbench/run.py --all --seed 0 --seconds 25

A run imports mtv from the `src/` directory next to this one.  It measures
set-up, then runs passes over the workload's seeded job list for about
`--seconds` seconds.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it runs each pass plain and traced and prints the per-layer
metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record of the run
(environment, set-up samples, every pass, job and failure) goes to
perfbench/results/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
NPROC = len(os.sched_getaffinity(0))  # before the run pins itself to one core

# End-to-end metrics that BENCHMARK.json bounds; times are at reference
# speed (see workloads.REF_SECONDS).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# Printed and recorded, not bounded: the same times unscaled, the measured
# speed (REF_SECONDS over the kernel's median time), and per-job order
# statistics.  A pass mixes job kinds whose times differ several-fold, so
# order statistics of job times jump from one kind to another as the number
# of jobs in a run changes.  Failures also count in the result's "failed".
INFORMATIONAL = (
    ("raw_setup_s", "s"), ("raw_wall_s", "s"), ("raw_cpu_s", "s"), ("speed", "ratio"),
    ("job_p50_s", "s"), ("job_tail_s", "s"), ("fail_ratio", "ratio"),
)

# Set-up is timed in this interpreter and in fresh ones: at least 3 times,
# and up to 5 while the samples add up to less than 3 s.
SETUP_SAMPLES = (3, 5)
SETUP_BUDGET_S = 3.0

PROBE = (
    "import sys, workloads as wl\n"
    "print(*wl.timed_setup(sys.argv[1])[2:])\n"
)


def probe_setup(workload):
    """(scaled, raw) set-up seconds of a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", PROBE, workload], capture_output=True,
                         text=True, timeout=170, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)])))
    scaled, raw = out.stdout.split()[-2:]
    return float(scaled), float(raw)


def environment(seed):
    import mpmath

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
    }


# -- one run -------------------------------------------------------------------

class Run:
    """State of one run: its passes, jobs, failures and spans."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cli = workload == "cli-cold"
        self.passes = []
        self.jobs = []
        self.failures = []
        self.wrong = False
        self.tracer = tracing.Tracer()
        self.tracer.enabled = False
        self.child_spans = []  # spans from traced CLI processes
        self.child_facts = []
        self.child_import_s = []
        self.first_use_s = 0.0
        self.goldens = wl.load_goldens()
        self.mtv = None

    def setup(self):
        """Median set-up time over several fresh interpreters, this one first."""
        # when tracing, a separate tracer sees the calls that pay the gates
        first = tracing.Tracer()
        self.mtv, self.import_s, scaled, raw = wl.timed_setup(
            self.workload, first if self.trace else None)
        self.first_use_s = first.facts["qexp.eisenstein"].get("first_use_s", 0.0)
        samples = [(scaled, raw)]
        least, most = SETUP_SAMPLES
        while len(samples) < least or (
                len(samples) < most and sum(r for _, r in samples) < SETUP_BUDGET_S):
            samples.append(probe_setup(self.workload))
        self.setup_samples = samples

    def run_job(self, index, job, traced, ref_before):
        """Run, check and record one job; returns the kernel times after it.

        Plain in-process jobs are scaled by kernel slices sampled while they
        run.  Traced jobs, whose spans would take in the slices, and CLI
        jobs, whose child would share its core with them, are scaled by the
        kernel timed before and after.
        """
        sampler = None if traced or self.cli else wl.SpeedSampler()
        clock = wl.Clock(self.tracer if traced and not self.cli else None, sampler)
        spans_file = None
        try:
            if self.cli:
                if traced:
                    spans_file = RESULTS / "tmp" / ("spans-%d.json" % os.getpid())
                fields = wl.run_cli(SRC, job, clock, spans_file)
            else:
                fields = wl.RUNNERS[job[0]](self.mtv, job, clock)
            wl.compare_golden(self.goldens, job, fields)
            ok = True
        except Exception as exc:  # a failed job is counted, never dropped
            ok = False
            self.wrong |= isinstance(exc, wl.CheckFailed)
            self.failures.append({"job": wl.describe(job), "pass": index,
                                  "error": type(exc).__name__, "message": str(exc)[:300]})
        if spans_file is not None and spans_file.exists():
            self.merge_child(spans_file)
        if sampler is None:
            ref_after = wl.reference_time()
            wall_s = wl.scaled(clock.wall, ref_before[0], ref_after[0])
            cpu_s = wl.scaled(clock.cpu, ref_before[1], ref_after[1])
            ref_s = (ref_before[0] + ref_after[0]) / 2
        else:
            ref_after = None
            wall_s, cpu_s = sampler.scaled(clock.wall, clock.cpu)
            ref_s = sampler.kernel_seconds()
        self.jobs.append({
            "job": wl.describe(job), "ok": ok, "traced": traced,
            "wall_s": wall_s, "cpu_s": cpu_s,
            "raw_wall_s": clock.wall, "raw_cpu_s": clock.cpu, "ref_s": ref_s,
        })
        return ref_after

    def merge_child(self, path):
        with open(path) as fp:
            data = json.load(fp)
        path.unlink()
        base = len(self.child_spans)
        for name, parent, start, end, cov in data["spans"]:
            self.child_spans.append([name, parent + base if parent >= 0 else -1,
                                     start, end, cov])
        self.child_facts.append(data["facts"])
        self.child_import_s.append(data["import_s"])

    def run_pass(self, index, traced):
        jobs = wl.pass_jobs(self.workload, self.seed, index)
        if traced and not self.cli:
            self.tracer.install()
        try:
            ref = wl.reference_time() if traced or self.cli else None
            for job in jobs:
                ref = self.run_job(index, job, traced, ref)
        finally:
            self.tracer.uninstall()
        done = self.jobs[-len(jobs):]
        self.passes.append(dict(
            {"index": index, "traced": traced, "jobs": len(jobs)},
            **{k: sum(j[k] for j in done)
               for k in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s")}))

    def measure(self):
        """Closed loop: passes back to back for about `seconds` seconds.

        With tracing, each job list runs twice, plain and traced, in
        alternating order, so the overhead ratio compares equal work.
        """
        start = time.perf_counter()
        lengths = []
        index = 0
        while True:
            t = time.perf_counter()
            if not self.trace:
                modes = (False,)
            else:
                modes = (False, True) if index % 2 == 0 else (True, False)
            for traced in modes:
                self.run_pass(index, traced)
            lengths.append(time.perf_counter() - t)
            index += 1
            # stop when the next pass would end nearer past the deadline than
            # the run ends now before it
            if time.perf_counter() - start + max(lengths[-2:]) / 2 > self.seconds:
                break

    # -- metrics ---------------------------------------------------------------

    def walls(self, traced, key="wall_s"):
        return [p[key] for p in self.passes if p["traced"] == traced]

    def end_to_end(self):
        """(bounded metrics, informational metrics), each name -> (value, unit)."""
        plain = [p for p in self.passes if not p["traced"]]
        job_walls = [j["wall_s"] for j in self.jobs if not j["traced"]]
        tail, pct, count = wl.percentile_tail(job_walls)
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if self.cli else resource.RUSAGE_SELF)
        self.tail_info = {"percentile": pct, "samples": count}
        values = {
            "setup_s": statistics.median(s for s, _ in self.setup_samples),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "raw_setup_s": statistics.median(r for _, r in self.setup_samples),
            "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
            "raw_cpu_s": statistics.median(p["raw_cpu_s"] for p in plain),
            "speed": wl.REF_SECONDS / statistics.median(j["ref_s"] for j in self.jobs),
            "job_p50_s": statistics.median(job_walls),
            "job_tail_s": tail,
            "fail_ratio": len(self.failures) / len(self.jobs),
        }
        return tuple({n: (values[n], u) for n, u in group}
                     for group in (END_TO_END, INFORMATIONAL))

    def per_layer(self):
        spans = self.child_spans if self.cli else self.tracer.spans
        facts = self.child_facts if self.cli else [self.tracer.facts]
        npass = sum(1 for p in self.passes if p["traced"])
        traced_wall = sum(self.walls(True, "raw_wall_s"))
        return layer_metrics(spans, facts, npass, traced_wall, self)


def _fact(facts, bucket, key, combine=max):
    vals = [f.get(bucket, {}).get(key, 0) for f in facts]
    return combine(vals) if vals else 0


def layer_metrics(spans, facts, npass, traced_wall, run):
    """Every per-layer metric, per traced pass unless it is a maximum."""
    agg = tracing.aggregate(spans)

    def per_pass(name, key="self_s"):
        return agg.get(name, {}).get(key, 0.0) / npass

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("qexp.mul.calls", per_pass("qexp.mul", "calls"), "count")
    put("qexp.mul.self_s", per_pass("qexp.mul"), "s")
    put("qexp.mul.max_len", _fact(facts, "qexp.mul", "max_len"), "count")
    put("qexp.mul.max_coeff_bits", _fact(facts, "qexp.mul", "max_coeff_bits"), "bits")
    put("qexp.pow.self_s", per_pass("qexp.pow"), "s")
    put("qexp.eta_quotient.self_s", per_pass("qexp.eta_quotient"), "s")
    put("qexp.eisenstein.self_s", sum(per_pass(n) for n in tracing.EISENSTEIN), "s")
    if run.cli:
        first = _fact(facts, "qexp.eisenstein", "first_use_s", sum) / npass
    else:
        first = run.first_use_s
    put("qexp.eisenstein.first_use_s", first, "s")
    put("trace.verify_theorem.incl_s", per_pass("trace.verify_theorem", "incl_s"), "s")
    for fn in ("transformation_polynomial", "trace_to_level1",
               "power_sums_from_elementary", "expand_in_newforms", "fricke_eta_series"):
        put("trace.%s.self_s" % fn, per_pass("trace." + fn), "s")
    put("spaces.miller_basis.calls", per_pass("spaces.miller_basis", "calls"), "count")
    for fn in ("miller_basis", "expand_in_triangular", "hecke_matrix_level1",
               "newform_basis_level1"):
        put("spaces.%s.self_s" % fn, per_pass("spaces." + fn), "s")
    put("linalg.nullspace.self_s", per_pass("linalg.nullspace"), "s")
    put("linalg.nullspace.max_dim", _fact(facts, "linalg.nullspace", "max_dim"), "count")
    put("linalg.charpoly.self_s", per_pass("linalg.charpoly"), "s")
    put("linalg.solve.self_s", per_pass("linalg.solve"), "s")
    for fn in ("inverse", "nf_trace"):
        put("numfield.%s.calls" % fn, per_pass("numfield." + fn, "calls"), "count")
        put("numfield.%s.self_s" % fn, per_pass("numfield." + fn), "s")
    factor_calls = agg.get("polynomial.poly_factor_q", {}).get("calls", 0)
    put("polynomial.poly_factor_q.calls", factor_calls / npass, "count")
    put("polynomial.poly_factor_q.self_s", per_pass("polynomial.poly_factor_q"), "s")
    put("polynomial.poly_factor_q.incl_s",
        per_pass("polynomial.poly_factor_q", "incl_s"), "s")
    put("polynomial.poly_factor_q.max_degree",
        _fact(facts, "polynomial.poly_factor_q", "max_degree"), "count")
    clusters = tracing.calls_under(spans, "numerics.root_cluster", "polynomial.poly_factor_q")
    put("polynomial.root_cluster_per_factor",
        clusters / factor_calls if factor_calls else 0.0, "ratio")
    put("numerics.eval_qseries.calls", per_pass("numerics.eval_qseries", "calls"), "count")
    put("numerics.eval_qseries.self_s", per_pass("numerics.eval_qseries"), "s")
    put("numerics.lattice_sum_eisenstein.calls",
        per_pass("numerics.lattice_sum_eisenstein", "calls"), "count")
    put("numerics.lattice_sum_eisenstein.self_s",
        per_pass("numerics.lattice_sum_eisenstein"), "s")
    put("numerics.lattice_sum_eisenstein.terms_computed",
        _fact(facts, "numerics.lattice_sum_eisenstein", "terms_computed", sum) / npass,
        "count")
    put("numerics.root_cluster.self_s", per_pass("numerics.root_cluster"), "s")
    put("elliptic.tau_from_curve.calls", per_pass("elliptic.tau_from_curve", "calls"), "count")
    for fn in ("tau_from_curve", "specialize_level1_exact", "condition_a", "reconstruct_real"):
        put("elliptic.%s.self_s" % fn, per_pass("elliptic." + fn), "s")
    cli_walls = [j["wall_s"] for j in run.jobs if not j["traced"]] if run.cli else []
    put("cli.import_s", statistics.median(run.child_import_s) if run.child_import_s else 0.0, "s")
    put("cli.process_s", statistics.median(cli_walls) if cli_walls else 0.0, "s")
    put("cli.exit_nonzero", sum(1 for f in run.failures if f["error"] == "ExitStatus")
        if run.cli else 0, "count")
    for layer in tracing.LAYERS:
        self_s = sum(a["self_s"] for n, a in agg.items() if n.startswith(layer + "."))
        put("layer.%s.share" % layer, self_s / traced_wall if traced_wall else 0.0, "ratio")
    ratios = [t / u for t, u in zip(run.walls(True), run.walls(False))]
    put("trace.overhead_ratio", statistics.median(ratios), "ratio")
    return m


# -- entry points ----------------------------------------------------------------

def run_one(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds, trace)
    run.setup()
    (RESULTS / "tmp").mkdir(parents=True, exist_ok=True)
    run.measure()
    if trace:
        metrics, info = run.per_layer(), {}
    else:
        metrics, info = run.end_to_end()
    attempted = len(run.jobs)
    failed = len(run.failures)
    env = environment(seed)

    print("workload %s  seed %d  trace %d  passes %d  jobs %d"
          % (workload, seed, trace, len(run.passes), attempted))
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print("  %-48s %14.6g %s" % (name, value, unit))
    if not trace:
        print("  job_tail_s is the p%.1f of %d job samples"
              % (run.tail_info["percentile"], run.tail_info["samples"]))
    for f in run.failures:
        print("  FAILED %(job)s: %(error)s: %(message)s" % f)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "setup_samples_s": run.setup_samples,
        "import_s": run.import_s, "passes": run.passes, "jobs": run.jobs,
        "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "informational": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
    }
    if not trace:
        record["job_tail"] = run.tail_info
    path = RESULTS / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as fp:
        json.dump(record, fp, indent=1)

    print(json.dumps({
        "correct": not run.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(seed, seconds):
    """Every workload untraced and traced, each in its own interpreter."""
    summary = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            with open(RESULTS / ("%s-seed%d-trace%d.json" % (workload, seed, trace))) as fp:
                summary[(workload, trace)] = json.load(fp)
    names = END_TO_END + INFORMATIONAL
    print("\nend-to-end (--trace 0)")
    print("%-14s" % "workload" + "".join("%13s" % n for n, _ in names) + "%9s" % "correct")
    for workload in wl.WORKLOADS:
        r = summary[(workload, 0)]
        values = dict(r["metrics"], **r["informational"])
        print("%-14s" % workload + "".join("%13.4g" % values[n]["value"] for n, _ in names)
              + "%9s" % (not any(f["error"] == "CheckFailed" for f in r["failures"])))
    print("units: " + ", ".join("%s %s" % nu for nu in names))
    print("\nlayer shares of traced pass time (--trace 1)")
    print("%-14s" % "workload" + "".join("%11s" % l for l in tracing.LAYERS)
          + "%11s" % "overhead")
    for workload in wl.WORKLOADS:
        m = summary[(workload, 1)]["metrics"]
        print("%-14s" % workload
              + "".join("%11.3f" % m["layer.%s.share" % l]["value"] for l in tracing.LAYERS)
              + "%11.3f" % m["trace.overhead_ratio"]["value"])
    path = RESULTS / ("all-seed%d.json" % seed)
    with open(path, "w") as fp:
        json.dump({"%s/trace%d" % k: v for k, v in summary.items()}, fp, indent=1)
    print("\nwrote %s" % path.relative_to(ROOT))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, both modes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "mtv" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no mtv sources under %s\n" % SRC)
        return 2
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload and --all")
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    if args.all:
        return run_all(args.seed, args.seconds)
    # one core for the run and its children, so the reference kernel times
    # the core the jobs run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
