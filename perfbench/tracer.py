"""Spans around mtv's public functions, installed from outside the package.

The tracer replaces each public function of the measured modules (and a few
public methods) with a wrapper that records a span: name, parent span, start
and end.  Where another module imported a function by name, that binding is
replaced too, so `trace.miller_basis` and `spaces.miller_basis` both report.
`uninstall` puts every original object back.

Self time of a span is its duration minus the part of its interval covered
by its child spans.  Work the tracer itself does after a call returns (the
per-call observations) is counted as covered, so it never lands in a
caller's self time.
"""

import functools
import inspect
import math
import sys
import time

LAYERS = (
    "cli", "trace", "qexp", "spaces", "linalg", "numfield", "polynomial",
    "numerics", "elliptic",
)

# Public methods that carry a layer's work; the span name drops the class.
METHODS = {
    "qexp": (("QSeries", "__mul__", "mul"), ("QSeries", "__rmul__", "mul"),
             ("QSeries", "__pow__", "pow")),
    "linalg": (("MatQ", "nullspace", "nullspace"), ("MatQ", "charpoly", "charpoly"),
               ("MatQ", "solve", "solve")),
    "numfield": (("NumberFieldElem", "inverse", "inverse"),),
    "elliptic": (("CurvePair", "specialize_numeric", "specialize_numeric"),),
}

# Conversion helpers called once per coefficient; a span each would cost
# more than the work they do.
SKIP = {"numerics.to_mpf", "numerics.to_mpc", "numerics.kronecker"}


def _coeff_bits(series):
    """Largest numerator or denominator bit length among the coefficients."""
    best = 0
    for c in series.coeffs:
        for v in getattr(c, "coords", (c,)):
            b = max(v.numerator.bit_length(), v.denominator.bit_length())
            if b > best:
                best = b
    return best


def _observe_mul(tracer, span, args, result):
    facts = tracer.facts["qexp.mul"]
    facts["max_len"] = max(facts.get("max_len", 0), len(result.coeffs))
    facts["max_coeff_bits"] = max(facts.get("max_coeff_bits", 0), _coeff_bits(result))


def _observe_nullspace(tracer, span, args, result):
    facts = tracer.facts["linalg.nullspace"]
    facts["max_dim"] = max(facts.get("max_dim", 0), args[0].ncols)


def _observe_factor(tracer, span, args, result):
    facts = tracer.facts["polynomial.poly_factor_q"]
    p = args[0]
    deg = p.degree if hasattr(p, "degree") else len(p) - 1
    facts["max_degree"] = max(facts.get("max_degree", 0), deg)


def lattice_terms(level, bound):
    """Number of terms the coset sum visits at (level, bound): 1 + coprime (c, d)."""
    n = 1
    for c in range(level, bound * level + 1, level):
        n += sum(1 for d in range(-bound, bound + 1) if math.gcd(c, abs(d)) == 1)
    return n


def _observe_lattice(tracer, span, args, result):
    facts = tracer.facts["numerics.lattice_sum_eisenstein"]
    terms = lattice_terms(int(args[1]), int(args[3]))
    facts["terms_computed"] = facts.get("terms_computed", 0) + terms


EISENSTEIN = ("qexp.eisenstein_level1", "qexp.eisenstein_prime_level",
              "qexp.fricke_eisenstein")


def _observe_eisenstein(tracer, span, args, result):
    """First outermost call per (constructor, weight, level) in this process:
    the call that pays the one-time numeric gates."""
    parent = span[1]
    if parent >= 0 and tracer.spans[parent][0] in EISENSTEIN:
        return
    level = int(args[1]) if span[0] != EISENSTEIN[0] and len(args) > 2 else 1
    key = (span[0], int(args[0]), level)
    if key not in tracer.seen:
        tracer.seen.add(key)
        facts = tracer.facts["qexp.eisenstein"]
        facts["first_use_s"] = facts.get("first_use_s", 0.0) + span[3] - span[2]


OBSERVERS = {
    "qexp.mul": _observe_mul,
    "linalg.nullspace": _observe_nullspace,
    "polynomial.poly_factor_q": _observe_factor,
    "numerics.lattice_sum_eisenstein": _observe_lattice,
}
OBSERVERS.update((name, _observe_eisenstein) for name in EISENSTEIN)


class Tracer:
    """Collects spans while installed; `uninstall` restores every binding."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent index or -1, start, end, covered_end]
        self.facts = {"qexp.mul": {}, "linalg.nullspace": {},
                      "polynomial.poly_factor_q": {},
                      "numerics.lattice_sum_eisenstein": {}, "qexp.eisenstein": {}}
        self.seen = set()  # Eisenstein (constructor, weight, level) already used
        self.enabled = True  # False while the benchmark checks a job's output
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- span recording ---------------------------------------------------

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            ok = False
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if ok and observe is not None:
                    observe(self, span, args, result)
                span[4] = clock()

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def targets(self):
        """(span name, owner, attribute) for every binding to replace."""
        mods = {n: m for n, m in sys.modules.items()
                if (n == "mtv" or n.startswith("mtv.")) and m is not None}
        out = []
        originals = {}
        for layer in LAYERS:
            mod = mods.get("mtv." + layer)
            if mod is None:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = "%s.%s" % (layer, attr)
                if name not in SKIP:
                    originals[id(obj)] = (name, obj)
            for cls_name, meth, short in METHODS.get(layer, ()):
                out.append(("%s.%s" % (layer, short), getattr(mod, cls_name), meth))
        # every module-level binding of a wrapped function, in every mtv module
        for mod in mods.values():
            for attr, obj in sorted(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[1] is obj:
                    out.append((hit[0], mod, attr))
        return out

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr in self.targets():
            original = getattr(owner, attr) if inspect.ismodule(owner) else vars(owner)[attr]
            key = (name, id(original))
            if key not in wrappers:
                wrappers[key] = self.wrap(name, original)
            setattr(owner, attr, wrappers[key])
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    Children of one span never overlap (calls nest), so the covered part is
    the sum of each child's interval from its start to its covered end.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end, cov_end in spans:
        if parent >= 0:
            covered[parent] += cov_end - start
    return [max(0.0, s[3] - s[2] - covered[i]) for i, s in enumerate(spans)]


def aggregate(spans):
    """name -> {"calls", "incl_s", "self_s"} over a list of spans.

    incl_s counts a recursive call once, at its outermost span.
    """
    selfs = self_times(spans)
    out = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        a = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            a["incl_s"] += end - start
    return out


def calls_under(spans, name, ancestor):
    """Number of `name` spans that have an `ancestor` span above them."""
    n = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[1]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][1]
        n += p >= 0
    return n
