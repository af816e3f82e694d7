"""Acceptance gate: one test per criterion, one pass/fail line each.

Criterion 1 is expected red, and the test keeps it red honestly: the
truncated coset sum converges like B^(2-weight), so at B=400 the weight-4
defect floor sits near 1e-8 and the literal 1e-12 tolerance is out of
reach (it would need B around 1e6, i.e. ~1e12 terms).  Separately, the
(6,5) pair shrinks FASTER than the model exponent 2-weight in any
affordable range, because the model coefficient carries a factor
~(level*|tau|)^(-weight) that suppresses it below the next-order term
until B ~ 3e4.  The test measures everything, prints the table, and
fails once at the end with the full clause-by-clause account.
Everything else is expected green.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
from mpmath import mp, mpc

from mtv import (
    CurveQ,
    condition_a,
    delta_series,
    dim_cusp_level1,
    eisenstein_level1,
    eisenstein_prime_level,
    eval_qseries,
    hecke_T,
    lattice_sum_eisenstein,
    reconstruct_real,
    specialize_phi,
    tau_from_curve,
    validate_external_newform,
)
from mtv.numfield import nf_charpoly, nf_norm, nf_trace
from mtv.trace import power_sums_from_elementary

from _oracles import mp_err, mp_value


ORACLE_PAIRS = ((4, 1), (6, 1), (4, 2), (4, 3), (6, 5))
ORACLE_TAUS = (mpc("0.21", "1.13"), mpc("-0.37", "1.71"), mpc("0.40", "2.20"))


def test_criterion_1_eisenstein_oracle_tolerance():
    """Closed forms vs the truncated coset sum at B=400, 256 bits: certified
    agreement is a hard assert, then the 1e-12 tolerance and the 2-weight
    doubling exponent are judged together at the end."""
    t0 = time.time()
    defects = {}
    exponents = {}
    with mp.workprec(280):
        for lam, N in ORACLE_PAIRS:
            ser = eisenstein_prime_level(lam, N, 128)
            worst = mpmath.mpf(0)
            closed0 = None
            for tau in ORACLE_TAUS:
                closed = eval_qseries(ser, tau, 256)
                if closed0 is None:
                    closed0 = closed
                lat = lattice_sum_eisenstein(lam, N, tau, 400, None, 256)
                d = abs(mp_value(closed) - mp_value(lat))
                # the truncation defect must sit inside the certificates
                assert d <= mp_err(closed) + mp_err(lat), (lam, N, tau)
                worst = max(worst, d)
            defects[(lam, N)] = worst
            # decay exponent per doubling, averaged over 50->100->200
            d_lo = abs(mp_value(closed0)
                       - mp_value(lattice_sum_eisenstein(lam, N, ORACLE_TAUS[0], 50,
                                                         None, 256)))
            d_hi = abs(mp_value(closed0)
                       - mp_value(lattice_sum_eisenstein(lam, N, ORACLE_TAUS[0], 200,
                                                         None, 256)))
            exponents[(lam, N)] = float(mpmath.log(d_hi / d_lo, 2)) / 2
    elapsed = time.time() - t0
    print("")
    for lam, N in ORACLE_PAIRS:
        print("  weight %d level %d: worst defect %s, doubling exponent %.2f"
              % (lam, N, mpmath.nstr(defects[(lam, N)], 4),
                 exponents[(lam, N)]))
    print("  elapsed %.1f s" % elapsed)
    assert elapsed <= 60.0
    bad = []
    for (lam, N), d in sorted(defects.items()):
        if d > mpmath.mpf("1e-12"):
            bad.append(
                "weight %d level %d: defect %s exceeds 1e-12; the truncated "
                "sum converges like B^(2-%d), so at B=400 this is the honest "
                "floor (1e-12 would need B ~ 1e6, about 1e12 terms)"
                % (lam, N, mpmath.nstr(d, 4), lam))
    for (lam, N), expo in sorted(exponents.items()):
        if abs(expo - (2 - lam)) > 0.5:
            bad.append(
                "weight %d level %d: doubling exponent %.2f not within 0.5 "
                "of %d; the B^(2-%d) coefficient is suppressed by "
                "~(level*|tau|)^(-%d), so below B ~ 3e4 the defect rides the "
                "next-order B^(1-%d) term and shrinks faster than the model"
                % (lam, N, expo, 2 - lam, lam, lam, lam))
    assert not bad, "unmet clauses:\n  " + "\n  ".join(bad)


def test_criterion_2_route_equivalence(theorem_runs):
    """Fricke/U-operator trace equals the symmetric-function power sum,
    exact through order 64, for all four configurations; Newton p_2 equals
    the squared-input trace; within the 120 s budget."""
    total = 0.0
    for (level, lam, mu), (res, elapsed) in theorem_runs.items():
        total += elapsed
        assert res.route_agree_through >= 64, (level, lam, mu)
        print("  level %d weight %d power %d: routes agree through q^%d "
              "(%.1f s)" % (level, lam, mu, res.route_agree_through, elapsed))
    res1, _ = theorem_runs[(2, 4, 1)]
    res2, _ = theorem_runs[(2, 4, 2)]
    p2 = power_sums_from_elementary(res1.phi_symmetric, 2)[1]
    through = min(p2.trunc, res2.trace.trunc, 64)
    assert through >= 64
    assert p2.agrees_through(res2.trace, through)
    print("  total %.1f s" % total)
    assert total <= 120.0


def test_criterion_3_trace_structure(theorem_runs):
    """Every trace is cuspidal, decomposes against the level-1 newform basis
    with zero residual, and the leading constant is exactly 42525/16384 at
    total weight 12."""
    for (level, lam, mu), (res, _) in theorem_runs.items():
        tr = res.trace
        assert tr.coeff(0) == 0, (level, lam, mu)
        # rebuild the series from the decomposition; exact match everywhere
        T = min(tr.trunc, min(nf.trunc for nf in res.orbit_set.orbits))
        for n in range(T + 1):
            acc = Fraction(0)
            for c, nf in zip(res.components, res.orbit_set.orbits):
                an = nf.a(n)
                acc += nf_trace(c * an)
            assert acc == tr.coeff(n), (level, lam, mu, n)
        if res.weight_total == 12:
            assert res.constant == Fraction(42525, 16384)
        else:
            w = res.weight_total
            assert res.constant == (
                Fraction(3) * Fraction(4) ** (1 - w) * math.factorial(w - 2)
            )
    res24, _ = theorem_runs[(2, 4, 2)]
    assert res24.constant == Fraction(6431583754220625, 134217728)


def test_criterion_4_quadratic_field_ratio(theorem_runs):
    """The weight-24 ratio lives in a totally real quadratic field with
    rational trace, norm, and characteristic polynomial."""
    res, _ = theorem_runs[(2, 4, 2)]
    (nf,) = list(res.orbit_set)
    assert nf.degree == 2
    assert nf.field.is_totally_real()
    (xi,) = res.ratios
    tr = nf_trace(xi)
    nm = nf_norm(xi)
    assert isinstance(tr, Fraction) and isinstance(nm, Fraction)
    assert tr == 0
    assert nm == Fraction(
        -281474976710656, 5963589551168169053075396954891015625
    )
    cp = nf_charpoly(xi)
    assert all(isinstance(c, Fraction) for c in cp.coeffs)
    assert cp.degree == 2 and cp.coeffs[-1] == 1
    assert cp.eval(xi).is_zero()


def test_criterion_5_specialization_identity(corollary_runs):
    """At the discriminant-37 curve the specialized trace equals the
    newform-side sum exactly for powers 1 and 2; the irreducibility verdict
    and the single-orbit flag are reported; within the 120 s budget."""
    total = 0.0
    expected_lhs = {1: Fraction(111), 2: Fraction(4107)}
    for mu, (res, elapsed) in corollary_runs.items():
        total += elapsed
        assert res.equal and res.lhs == res.rhs == expected_lhs[mu]
        d = res.to_dict()
        assert d["identity_holds"] is True
        assert "condition_a_irreducible" in d
        assert d["theorem"]["single_orbit"] is True
        phi = specialize_phi(res.theorem.phi_symmetric, res.curve)
        irr, factors = condition_a(phi)
        assert irr is res.condition_a
        assert [(g.serialize(), m) for g, m in factors] == [(["-37", "1"], 3)]
        print("  power %d: both sides %s, verdict %s (%.1f s)"
              % (mu, res.lhs, "irreducible" if irr else "splits as (X-37)^3",
                 elapsed))
    print("  total %.1f s" % total)
    assert total <= 120.0


def test_criterion_6_numeric_specialization_round_trip():
    """The 300-bit lattice path reproduces the exact specializations of E4,
    E6, and the discriminant series at three curves."""
    targets = {
        (4, 1): (48, 216, 37),
        (4, 0): (48, 0, 64),
        (0, 1): (0, 216, -27),
    }
    for (g2, g3), (t4, t6, t12) in targets.items():
        pair = tau_from_curve(CurveQ(g2, g3), 300)
        T = pair.order
        for ser, wt, want in (
            (eisenstein_level1(4, T), 4, t4),
            (eisenstein_level1(6, T), 6, t6),
            (delta_series(T), 12, t12),
        ):
            got = reconstruct_real(pair.specialize_numeric(ser, wt))
            assert got == want, ((g2, g3), wt, got)


def test_criterion_7_newform_machinery(newform_sets):
    """Eigenform count matches the cusp dimension at weights 12-30, every
    orbit satisfies the Hecke recursions through order 64, and T_2 has
    eigenvalue -24 on the weight-12 cusp form."""
    for k, orbs in newform_sets.items():
        assert sum(nf.degree for nf in orbs) == dim_cusp_level1(k), k
        for nf in orbs:
            assert nf.trunc >= 64
            assert validate_external_newform(nf)
    d = delta_series(64)
    t2 = hecke_T(d, 2)
    assert t2.agrees_through(d.scale(-24), t2.trunc)


CLI_COMMANDS = (
    ["newforms", "--weight", "24", "--order", "12"],
    ["theorem", "--level", "2", "--eis-weight", "4", "--order", "12"],
    ["theorem", "--level", "3", "--eis-weight", "6", "--order", "12"],
    ["--prec", "128", "corollary", "--level", "2", "--eis-weight", "4",
     "--order", "12", "--curve", "4,1"],
    ["phi", "--level", "2", "--eis-weight", "4", "--order", "8",
     "--curve", "4,1"],
    ["--prec", "128", "oracle", "--eis-weight", "4", "--level", "2",
     "--tau", "0.21,1.13", "--bound", "24", "--series-order", "64"],
    ["--prec", "128", "specialize", "--curve", "4,1", "--level", "2"],
)


def test_criterion_8_deterministic_reports():
    """Every subcommand produces byte-identical output on repeated runs."""
    env = dict(os.environ)
    for args in CLI_COMMANDS:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "mtv", *args],
                capture_output=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, (args, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], args
        json.loads(outs[0])  # and it is valid JSON
