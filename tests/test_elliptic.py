"""Curves, period lattices, exact specialization, and the corollary run."""

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
from mtv.elliptic import j_invariant_numeric
from mtv.numerics import BigComplex
from mtv.qexp import QSeries


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
