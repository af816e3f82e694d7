"""Curves, period lattices, exact specialization, and the corollary run."""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from mtv import (
    CurveQ,
    InputError,
    ReconstructionError,
    VerificationError,
    condition_a,
    delta_series,
    eisenstein_level1,
    reconstruct_real,
    specialize_level1_exact,
    specialize_phi,
    tau_from_curve,
    verify_corollary,
)
import mtv.elliptic as elliptic
from mtv.elliptic import j_invariant_numeric
from mtv.numerics import BigComplex, eval_qseries, to_mpc
from mtv.qexp import QSeries

from _oracles import invert_j_newton_ref


# -- curve bookkeeping --------------------------------------------------------

def test_curve_invariants():
    c = CurveQ(4, 1)
    assert c.discriminant == 37
    assert c.j == Fraction(110592, 37)
    assert CurveQ(4, 0).j == 1728
    assert CurveQ(0, 1).j == 0
    with pytest.raises(InputError):
        CurveQ(3, 1)  # g2^3 = 27 g3^2


def test_from_ainvs_conductor37_model():
    # y^2 + y = x^3 - x
    c = CurveQ.from_ainvs(0, 0, 1, -1, 0)
    assert (c.g2, c.g3) == (4, -1)
    assert c.discriminant == 37


def test_curve_serialize_keys():
    d = CurveQ(4, 1).serialize()
    assert d == {"g2": "4", "g3": "1", "discriminant": "37", "j": "110592/37"}


# -- j as a certified numeric -------------------------------------------------

def test_j_at_cm_points():
    j_i = j_invariant_numeric(mpmath.mpc(0, 1), 192)
    assert abs(j_i.value - 1728) <= j_i.err + mpmath.mpf(2) ** -150
    with mpmath.workprec(260):
        # the input itself must carry ~200 correct bits: j is quadratic at rho
        rho = (1 + mpmath.sqrt(-3)) / 2
        j_rho = j_invariant_numeric(rho, 192)
        assert abs(j_rho.value) <= j_rho.err + mpmath.mpf(2) ** -150
    j_2i = j_invariant_numeric(mpmath.mpc(0, 2), 192)
    assert abs(j_2i.value - 287496) <= j_2i.err + mpmath.mpf(2) ** -150


@pytest.mark.parametrize("prec", [128, 192])
def test_j_err_covers_the_rounding_of_the_quotient(prec):
    # tau = i is exact, so the whole defect is the series tail and the
    # rounding of E4^3 / Delta at prec + 16 bits (9.2e-41 at 128 bits)
    j_i = j_invariant_numeric(mpmath.mpc(0, 1), prec)
    assert abs(j_i.value - 1728) <= j_i.err


def test_j_rejects_lower_half_plane():
    with pytest.raises(InputError):
        j_invariant_numeric(mpmath.mpc(1, -1), 128)


# -- lattice recovery ----------------------------------------------------------

def _specialized_exact(pair, weight_series, weight, bound=10**6):
    return reconstruct_real(pair.specialize_numeric(weight_series, weight), bound)


def test_tau_square_lattice():
    pair = tau_from_curve(CurveQ(4, 0), 192)
    assert abs(pair.tau - mpmath.mpc(0, 1)) < mpmath.mpf(2) ** -100
    e4 = eisenstein_level1(4, pair.order)
    e6 = eisenstein_level1(6, pair.order)
    assert _specialized_exact(pair, e4, 4) == 48
    assert _specialized_exact(pair, e6, 6) == 0


def test_tau_hexagonal_lattice():
    pair = tau_from_curve(CurveQ(0, 1), 192)
    # either corner of the fundamental domain is a valid representative
    with mpmath.workprec(220):
        assert abs(abs(pair.tau.real) - mpmath.mpf("0.5")) < mpmath.mpf(2) ** -100
        assert abs(pair.tau.imag - mpmath.sqrt(3) / 2) < mpmath.mpf(2) ** -100
    e4 = eisenstein_level1(4, pair.order)
    e6 = eisenstein_level1(6, pair.order)
    assert _specialized_exact(pair, e4, 4) == 0
    assert _specialized_exact(pair, e6, 6) == 216


def test_tau_discriminant37_curve():
    pair = tau_from_curve(CurveQ(4, 1), 192)
    assert abs(pair.tau.real) < mpmath.mpf(2) ** -90
    assert abs(pair.tau.imag - mpmath.mpf("1.22112736")) < mpmath.mpf("1e-7")
    d = delta_series(pair.order)
    assert _specialized_exact(pair, d, 12) == 37


def test_tau_negative_g3_branch():
    # same j as (4, 1) but the sextic twist flips the g3 sign; the period
    # branch must rotate the scale to land on g3 = -1 exactly
    pair = tau_from_curve(CurveQ(4, -1), 192)
    e6 = eisenstein_level1(6, pair.order)
    d = delta_series(pair.order)
    assert _specialized_exact(pair, e6, 6) == -216
    assert _specialized_exact(pair, d, 12) == 37


def test_tau_negative_discriminant_curve():
    # g2^3 - 27 g3^2 = -26 < 0 puts tau on the boundary Re = 1/2 strip edge
    pair = tau_from_curve(CurveQ(1, 1), 192)
    assert abs(abs(pair.tau.real) - Fraction(1, 2)) < mpmath.mpf("1e-20")
    e4 = eisenstein_level1(4, pair.order)
    e6 = eisenstein_level1(6, pair.order)
    assert _specialized_exact(pair, e4, 4) == 12
    assert _specialized_exact(pair, e6, 6) == 216


def test_tau_rejects_low_precision():
    with pytest.raises(InputError):
        tau_from_curve(CurveQ(4, 1), 32)


# -- the AGM lattice: Newton oracle, branch rule, round trip ---------------------

POOL = [(a, b) for a in range(-9, 10) for b in range(-9, 10) if a**3 - 27 * b * b]


def _tau_class(curve):
    j = curve.j
    if j in (0, 1728):
        return "special"
    return "edge" if j < 0 else ("arc" if j < 1728 else "axis")


def _follows_rule(tau, curve):
    """tau on the boundary piece that j fixes, with Re tau >= 0."""
    j = curve.j
    if j >= 1728 and tau.real != 0:
        return False
    if j <= 0 and tau.real != Fraction(1, 2):
        return False
    if 0 <= j <= 1728 and abs(abs(tau) - 1) > mpmath.mpf(2) ** -100:
        return False
    return tau.real >= 0


def _boundary_distance(tau, ref):
    """Distance from tau to ref up to the boundary identifications."""
    return min(abs(tau - t) for t in (ref, -ref.conjugate(), ref + 1, ref - 1))


def _tau_error_term(pair):
    """About |j(tau) - j(tau*)| for the tau of a pair at prec bits, which
    tau_from_curve computes at prec + 32 bits, so within delta = 2^-(prec+28)
    of the true tau*: twice the first-order term |j'(tau)| delta, with
    j' = -2 pi i E4^2 E6 / Delta.  j's own err covers the evaluation at tau,
    not this; it matters only where j is flat, at j = 0 (cubic at rho)."""
    T, tau, W = pair.order, pair.tau, pair.prec_bits + 16
    e4, e6, dd = (eval_qseries(f, tau, W).value for f in (
        eisenstein_level1(4, T), eisenstein_level1(6, T), delta_series(T)))
    jprime = 2 * mpmath.pi * abs(e4) ** 2 * abs(e6) / abs(dd)
    return 2 * jprime * mpmath.mpf(2) ** -(pair.prec_bits + 28)


def test_agm_tau_matches_newton_oracle():
    by_class = {}
    for c in POOL:
        by_class.setdefault(_tau_class(CurveQ(*c)), []).append(c)
    rng = random.Random(16)
    sample = [c for cls, n in (("special", 2), ("edge", 7), ("axis", 7), ("arc", 8))
              for c in rng.sample(by_class[cls], n)]
    for g2, g3 in sample:
        curve = CurveQ(g2, g3)
        pair = tau_from_curve(curve, 128)
        tau = pair.tau
        assert _follows_rule(tau, curve), (g2, g3)
        with mpmath.workprec(160):
            if curve.j == 0:
                ref = (1 + mpmath.sqrt(-3)) / 2
            elif curve.j == 1728:
                ref = mpmath.mpc(0, 1)
            else:
                ref = invert_j_newton_ref(curve.j, 128)
            assert _boundary_distance(tau, ref) < mpmath.mpf(2) ** -100, (g2, g3)
            jn = j_invariant_numeric(tau, 128)
            assert abs(jn.value - to_mpc(curve.j)) <= jn.err + _tau_error_term(pair), (g2, g3)


def test_every_pool_curve_round_trips_at_128_bits():
    for g2, g3 in POOL:
        curve = CurveQ(g2, g3)
        pair = tau_from_curve(curve, 128)
        assert _follows_rule(pair.tau, curve), (g2, g3)
        T = pair.order
        got = [_specialized_exact(pair, ser, wt) for ser, wt in (
            (eisenstein_level1(4, T), 4),
            (eisenstein_level1(6, T), 6),
            (delta_series(T), 12),
        )]
        assert got == [12 * g2, 216 * g3, curve.discriminant], (g2, g3)


@pytest.mark.parametrize("g2, g3", [(-2, -5), (-3, 1), (-5, -1), (1, 1), (3, -4)])
def test_tau_is_one_representative_at_every_precision(g2, g3):
    # Newton returned tau or -conj(tau) depending on the precision: at
    # (-3, 1), Re tau was -0.2114 at 300 bits and +0.2114 at 1024 bits
    curve = CurveQ(g2, g3)
    taus = [tau_from_curve(curve, prec).tau for prec in (128, 300, 1024)]
    for tau in taus:
        assert _follows_rule(tau, curve)
    with mpmath.workprec(1100):
        assert all(abs(t - taus[-1]) < mpmath.mpf(2) ** -100 for t in taus)


@pytest.mark.parametrize("g2, g3", [
    (3 * 10**6, 10**9 + 1),   # disc = -54000000027: the edge
    (3 * 10**6, 10**9 - 1),   # disc = 53999999973: the axis
    (-3 * 10**6, 10**9),      # j = 864: the arc
])
def test_near_singular_curves_reconstruct(g2, g3):
    curve = CurveQ(g2, g3)
    pair = tau_from_curve(curve, 128)
    T = pair.order
    assert _specialized_exact(pair, eisenstein_level1(4, T), 4) == 12 * g2
    assert _specialized_exact(pair, eisenstein_level1(6, T), 6) == 216 * g3
    assert _specialized_exact(pair, delta_series(T), 12) == curve.discriminant


@pytest.mark.parametrize("g2, g3", [
    (3 * 10**20, 10**30 + 1),
    (3 * 10**20, 10**30 - 1),
    (-3 * 10**20, 10**30),
])
def test_near_singular_curves_pass_the_certificates(g2, g3):
    curve = CurveQ(g2, g3)
    pair = tau_from_curve(curve, 128)
    assert _follows_rule(pair.tau, curve)


@pytest.mark.parametrize("g2, g3", [
    (3 * 10**100, 10**150 + Fraction(1, 10**50)),  # |disc| / g2^3 = 2e-200, edge
    (3 * 10**100, 10**150 - Fraction(1, 10**50)),  # the same on the axis
    (-3 * 10**40, 1),  # the arc 2e-117 from j = 1728: e1 = u + g2 / (12 u) cancels
])
def test_period_tau_holds_the_working_precision_without_guard_bits(g2, g3):
    curve = CurveQ(g2, g3)
    with mpmath.workprec(160):
        tau = elliptic._period_tau(curve)
    with mpmath.workprec(1024):
        ref = elliptic._period_tau(curve)
        assert abs(tau - ref) <= abs(ref) * mpmath.mpf(2) ** -150


# -- exact specialization --------------------------------------------------------

@pytest.mark.parametrize("a,b,c", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (3, 0, 0), (1, 1, 1), (0, 2, 1)])
def test_specialize_monomials(a, b, c):
    T = 24
    curve = CurveQ(Fraction(2, 3), Fraction(-5, 7))
    f = (
        eisenstein_level1(4, T) ** a
        * eisenstein_level1(6, T) ** b
        * delta_series(T) ** c
        if (a, b, c) != (0, 0, 1)
        else delta_series(T)
    )
    got = specialize_level1_exact(f, curve)
    want = (
        (12 * curve.g2) ** a
        * (216 * curve.g3) ** b
        * curve.discriminant ** c
    )
    assert got == want


def test_specialize_weight0_and_guards():
    const = QSeries([Fraction(5, 3)], trunc=6, weight=0)
    assert specialize_level1_exact(const, CurveQ(4, 1)) == Fraction(5, 3)
    bad = QSeries([1, 1], trunc=1, weight=0)
    with pytest.raises(VerificationError):
        specialize_level1_exact(bad, CurveQ(4, 1))
    odd = QSeries([0, 1], trunc=1, weight=11)
    with pytest.raises(InputError):
        specialize_level1_exact(odd, CurveQ(4, 1))
    short = delta_series(24) ** 2  # weight 24 needs three coefficients
    with pytest.raises(InputError):
        specialize_level1_exact(short.truncate(1), CurveQ(4, 1))


def test_specialize_phi_is_cubed_linear_factor(theorem_runs):
    res, _ = theorem_runs[(2, 4, 1)]
    phi = specialize_phi(res.phi_symmetric, CurveQ(4, 1))
    assert phi.serialize() == ["-50653", "4107", "-111", "1"]
    irr, factors = condition_a(phi)
    assert not irr
    assert len(factors) == 1
    g, mult = factors[0]
    assert mult == 3 and g.serialize() == ["-37", "1"]
    # independent factorization of the same integer polynomial
    x = sympy.symbols("x")
    _, sfactors = sympy.factor_list(x**3 - 111 * x**2 + 4107 * x - 50653)
    assert [(sympy.Poly(p, x).degree(), m) for p, m in sfactors] == [(1, 3)]


# -- certified-to-exact reconstruction --------------------------------------------

def test_reconstruct_real_paths():
    half = BigComplex(mpmath.mpc("0.5", 0), mpmath.mpf(2) ** -80)
    assert reconstruct_real(half) == Fraction(1, 2)
    off = BigComplex(mpmath.mpc("0.5", "0.001"), mpmath.mpf(2) ** -80)
    with pytest.raises(VerificationError):
        reconstruct_real(off)
    wide = BigComplex(mpmath.mpc("0.5", 0), mpmath.mpf("0.4"))
    with pytest.raises(ReconstructionError):
        reconstruct_real(wide)


# -- the corollary run --------------------------------------------------------------

def test_corollary_identity_power1(corollary_runs):
    res, _ = corollary_runs[1]
    assert res.equal and res.lhs == res.rhs
    assert res.lhs == 3 * 37  # trace 3*Delta at discriminant 37
    assert res.condition_a is False
    assert res.phi_factor_degrees == [1, 1, 1]
    assert "splits" in res.interpretation
    assert res.pair is not None
    # j at N*tau is certified finite; the report records it
    assert res.j_level_tau is not None and res.j_level_tau.err < 1


def test_corollary_identity_power2(corollary_runs):
    res, _ = corollary_runs[2]
    assert res.equal
    assert res.lhs == 3 * 37 * 37  # trace 3*Delta^2
    d = res.to_dict()
    assert d["identity_holds"] is True
    assert d["specialized_trace_lhs"] == "4107"
    assert d["theorem"]["orbits"][0]["ratio_trace"] == "0"


def test_corollary_report_names_the_missing_lattice(monkeypatch):
    import mtv.elliptic as elliptic
    from mtv import PrecisionError

    args = (2, {1: 8, 2: 8}, 4, 1, CurveQ(4, 1))
    d = verify_corollary(*args, order=16).to_dict()
    assert "lattice" in d and "j_at_level_tau" in d
    assert "missing_sections" not in d

    def boom(*a, **kw):
        raise PrecisionError("planted: no bits left")

    monkeypatch.setattr(elliptic, "tau_from_curve", boom)
    res = verify_corollary(*args, order=16)
    assert res.equal and res.lhs == 3 * 37
    d = res.to_dict()
    assert "lattice" not in d and "j_at_level_tau" not in d
    assert d["missing_sections"] == {"lattice": "planted: no bits left",
                                     "j_at_level_tau": "planted: no bits left"}

    monkeypatch.undo()
    monkeypatch.setattr(elliptic, "j_invariant_numeric", boom)
    d = verify_corollary(*args, order=16).to_dict()
    assert "lattice" in d
    assert d["missing_sections"] == {"j_at_level_tau": "planted: no bits left"}


@pytest.mark.parametrize("level, eta, weight, curve, degrees", [
    # Phi_E = x (x^3 + (4320/41)^3): the numeric factor search on a
    # non-monic part
    (3, {1: 6, 3: 6}, 8, (0, 1), [1, 1, 2]),
    (5, {1: 4, 5: 4}, 6, (-2, -5), [6]),
])
def test_corollary_at_levels_3_and_5(level, eta, weight, curve, degrees):
    res = verify_corollary(level, eta, weight, 1, CurveQ(*curve), order=64)
    assert res.equal and res.lhs == res.rhs
    assert res.phi_factor_degrees == degrees
    assert res.condition_a is (degrees == [level + 1])


def test_corollary_rejects_singular_curve():
    with pytest.raises(InputError):
        CurveQ(0, 0)
