"""Record the report fields that every benchmark run compares against.

    python3 perfbench/record_goldens.py

Run it on the commit whose answers are the reference.  It writes
perfbench/goldens.json with the mathematical fields of a report (trace
head, orbit minimal polynomials, components, ratios and their
characteristic polynomials, the constant, the two specialized sides), never
fields a correct change may alter (route_agree_through, rankin_status).
It covers every theorem and newform configuration trace-deep and hecke-wide
can draw (the fields do not depend on the order), and the corollary and
CLI jobs of the first 8 passes of the reference seed 0.
"""

import json
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 0
REFERENCE_PASSES = 8


def golden_jobs():
    jobs = [("theorem", level, w, 1, 16)
            for level in wl.DEEP_ORDER
            for w in wl.LIGHT_WEIGHTS + wl.HEAVY_WEIGHTS]
    jobs += [("newforms", k, wl.HECKE_ORDER) for k in wl.HECKE_DIM7 + wl.HECKE_DIM8]
    jobs += [("theorem", 2, 4, 5, wl.HECKE_THEOREM_ORDER),
             ("theorem", 2, 6, 5, wl.HECKE_THEOREM_ORDER),
             ("theorem", 2, 4, 6, wl.HECKE_THEOREM_ORDER)]
    for workload in ("curve-oracle", "cli-cold"):
        for pass_jobs in wl.job_list(workload, REFERENCE_SEED, REFERENCE_PASSES):
            jobs += [j for j in pass_jobs if j[0] in ("corollary", "cli")]
    return jobs


def main():
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    mtv = wl.import_mtv()
    goldens = {}
    for job in golden_jobs():
        key = wl.golden_key(job)
        if key in goldens:
            continue
        clock = wl.Clock()
        try:
            if job[0] == "cli":
                fields = wl.run_cli(src, job, clock)
            else:
                fields = wl.RUNNERS[job[0]](mtv, job, clock)
        except Exception as exc:  # a failing job has no golden; say which
            print("no golden for %s: %s: %s" % (key, type(exc).__name__, exc))
            continue
        if fields is not None:
            goldens[key] = fields
            print("recorded %s (%.2f s)" % (key, clock.wall))
    with open(HERE / "goldens.json", "w") as fp:
        json.dump(goldens, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print("wrote %d goldens" % len(goldens))
    return 0


if __name__ == "__main__":
    sys.exit(main())
