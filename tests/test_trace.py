"""Level lowering: Fricke data, coset translates, both trace routes, ratios."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mtv import (
    InputError,
    NonconvergentError,
    UnsupportedScopeError,
    VerificationError,
    delta_series,
    dim_cusp_level1,
    eisenstein_prime_level,
    eta_quotient,
    expand_in_newforms,
    fricke_eisenstein,
    fricke_eta_series,
    main_constant,
    newform_basis_level1,
    trace_to_level1,
    transformation_polynomial,
    verify_theorem,
)
from mtv.polynomial import elementary_from_power_sums, power_sums_from_elementary
from mtv.qexp import EtaQuotientSpec, QSeries
from mtv.trace import CosetData, coset_translates, fricke_eta_data

from conftest import eta_of


# -- Fricke data on eta quotients ---------------------------------------------

@pytest.mark.parametrize(
    "pairs,level,sign",
    [({1: 8, 2: 8}, 2, 1), ({1: 6, 3: 6}, 3, -1), ({1: 4, 5: 4}, 5, 1)],
)
def test_self_dual_eta_signs(pairs, level, sign):
    spec = EtaQuotientSpec(pairs)
    partner, scalar = fricke_eta_data(spec, level)
    assert partner == spec
    assert scalar == sign


def test_discriminant_fricke_scalar_level2():
    partner, scalar = fricke_eta_data({1: 24}, 2)
    assert partner == EtaQuotientSpec({2: 24})
    assert scalar == 64
    # the involution squares to the identity on the scalar
    back, scalar2 = fricke_eta_data(partner, 2)
    assert back == EtaQuotientSpec({1: 24})
    assert scalar * scalar2 == 1


def test_fricke_eta_series_is_scaled_dilation():
    T = 20
    f = fricke_eta_series({1: 24}, 2, T)
    d = eta_quotient({2: 24}, T)
    assert f.agrees_through(d.scale(64), T)


def test_odd_weight_eta_rejected():
    with pytest.raises(UnsupportedScopeError):
        fricke_eta_data({1: 15, 3: 3}, 3)


# -- coset translates ----------------------------------------------------------

def _translate_inputs(level, pairs, lam, T):
    g = eta_quotient(pairs, T, level=level)
    E = eisenstein_prime_level(lam, level, T)
    h = g * E
    hfr = fricke_eta_series(pairs, level, T) * fricke_eisenstein(lam, level, T)
    return h, hfr


@pytest.mark.parametrize("level,pairs,lam", [
    (2, {1: 8, 2: 8}, 4),
    (3, {1: 6, 3: 6}, 6),
    (5, {1: 4, 5: 4}, 8),
])
def test_coset_translate_count_and_entry0(level, pairs, lam):
    T = 4 * level
    h, hfr = _translate_inputs(level, pairs, lam, T)
    trans = coset_translates(h, hfr, level)
    assert len(trans) == level + 1 == CosetData(level).index
    assert trans[0].agrees_through(h, hfr.trunc // level)
    for t in trans[1:]:
        assert t.e == level


@pytest.mark.parametrize("level,pairs,lam", [
    (2, {1: 8, 2: 8}, 4),
    (3, {1: 6, 3: 6}, 6),
    (5, {1: 4, 5: 4}, 8),
])
@pytest.mark.parametrize("m", [1, 2])
def test_translate_sum_sieves(level, pairs, lam, m):
    """Summing the S T^j translates to the m-th power kills every exponent
    not divisible by the level and multiplies the survivors by the level."""
    T = 6 * level
    h, hfr = _translate_inputs(level, pairs, lam, T)
    trans = coset_translates(h, hfr, level)
    w = h.weight
    Tq = hfr.trunc // level
    base = QSeries(
        [c * Fraction(1, level ** (w // 2)) for c in hfr.coeffs[: level * Tq + 1]],
        e=level, trunc=Tq, weight=w, level=level,
    )
    powered = base ** m
    total = None
    for t in trans[1:]:
        tm = t ** m
        total = tm if total is None else total + tm
    K = trans[1].field
    for j in range(level * powered.trunc + 1):
        n = Fraction(j, level)
        want = powered.coeff(n) * level if j % level == 0 else Fraction(0)
        assert total.coeff(n) == K.coerce(want)


def test_translates_reject_odd_weight():
    f = QSeries([0, 1], trunc=1, weight=3, level=2)
    with pytest.raises(InputError):
        coset_translates(f, f, 2)


# -- Newton identities ----------------------------------------------------------

def test_newton_small_example():
    # roots {2, 3}: p = (5, 13), e = (5, 6)
    es = elementary_from_power_sums([Fraction(5), Fraction(13)])
    assert es == [Fraction(5), Fraction(6)]
    ps = power_sums_from_elementary(es, 2)
    assert ps == [Fraction(5), Fraction(13)]


@given(st.lists(st.fractions(max_denominator=30), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_newton_round_trip(p):
    es = elementary_from_power_sums(p)
    assert power_sums_from_elementary(es, len(p)) == p


# -- transformation polynomial ---------------------------------------------------

def test_transformation_polynomial_level2_heads():
    T = 40
    h, hfr = _translate_inputs(2, {1: 8, 2: 8}, 4, T)
    sym = transformation_polynomial(h, hfr, 2)
    assert len(sym) == 3
    d = delta_series(T)
    Tq = T // 2
    assert sym[0].agrees_through(d.scale(3), Tq)
    assert sym[1].agrees_through((d * d).scale(3), Tq)
    assert sym[2].agrees_through(d ** 3, Tq)
    assert [s.weight for s in sym] == [12, 24, 36]


def test_transformation_polynomial_validation_failure():
    # a cusp form alone (no Eisenstein factor) is not Fricke-matched to this
    # partner scaling, so the symmetric functions fail the level-1 expansion
    T = 24
    h = eta_quotient({1: 8, 2: 8}, T, level=2)
    wrong = fricke_eta_series({1: 8, 2: 8}, 2, T).scale(Fraction(1, 3))
    with pytest.raises(VerificationError):
        transformation_polynomial(h, wrong, 2)


# -- traces and the main constant -------------------------------------------------

def test_trace_of_discriminant_from_level2():
    T = 32
    d = delta_series(T)
    dfr = fricke_eta_series({1: 24}, 2, T)
    tr = trace_to_level1(d, dfr, 2)
    assert tr.level == 1
    assert tr.agrees_through(d.scale(3), tr.trunc)


def test_trace_level3_pinned_multiple():
    T = 36
    h, hfr = _translate_inputs(3, {1: 6, 3: 6}, 6, T)
    tr = trace_to_level1(h, hfr, 3)
    assert tr.agrees_through(delta_series(T).scale(Fraction(40, 13)), tr.trunc)


def test_main_constant_values():
    assert main_constant(12, 1) == Fraction(42525, 16384)
    assert main_constant(12, 2) == Fraction(14175, 16384)
    assert main_constant(24, 1) == Fraction(3) * Fraction(4) ** (-23) * 1124000727777607680000
    with pytest.raises(InputError):
        main_constant(3, 1)
    with pytest.raises(InputError):
        main_constant(12, 4)


# -- newform expansion ------------------------------------------------------------

def test_expand_in_newforms_weight12():
    orbs = newform_basis_level1(12, 24)
    tr = delta_series(24).scale(3)
    assert expand_in_newforms(tr, orbs) == [Fraction(3)]


def test_expand_in_newforms_rejects_noncuspidal():
    from mtv import eisenstein_level1

    orbs = newform_basis_level1(12, 20)
    with pytest.raises(VerificationError):
        expand_in_newforms(eisenstein_level1(12, 20), orbs)
    with pytest.raises(InputError):
        expand_in_newforms(delta_series(20), newform_basis_level1(16, 20))


# -- Rankin partial sums ------------------------------------------------------------

def test_rankin_guard_and_value():
    from mtv.trace import rankin_partial_sum

    d = [Fraction(c) for c in delta_series(40).coeffs]
    with pytest.raises(NonconvergentError):
        rankin_partial_sum(d, d, 12, 12, 12)
    with pytest.raises(NonconvergentError):
        rankin_partial_sum(d, d, Fraction(35, 2), 12, 12)
    val = rankin_partial_sum(d, d, 18, 12, 12)
    assert isinstance(val, mpmath.mpf)
    assert val > 1  # n=1 contributes exactly 1 and n=2 adds 576/2^18


# -- the full theorem runs -----------------------------------------------------------

PINNED_RATIOS = {
    (2, 4, 1): Fraction(16384, 14175),
    (3, 6, 1): Fraction(131072, 110565),
    (5, 8, 1): Fraction(1048576, 915525),
}

PINNED_TRACE_MULTIPLE = {
    (2, 4, 1): Fraction(3),
    (3, 6, 1): Fraction(40, 13),
    (5, 8, 1): Fraction(12096, 4069),
}


def test_theorem_weight12_runs(theorem_runs):
    for key, mult in PINNED_TRACE_MULTIPLE.items():
        res, _ = theorem_runs[key]
        assert res.weight_total == 12
        assert res.route_agree_through >= 20
        assert res.trace.agrees_through(
            delta_series(res.trace.trunc).scale(mult), res.trace.trunc
        )
        assert res.components == [mult]
        assert res.ratios == [PINNED_RATIOS[key]]
        assert res.constant == Fraction(42525, 16384)
        assert res.single_orbit
        assert res.conductor == 1
        assert res.admissible_levels == [1, res.level]
        assert res.rankin_status.startswith("nonconvergent at s=12")
        assert len(res.phi_symmetric) == res.level + 1


def test_theorem_high_power_low_order_sizes_inputs_from_cusp_dimension():
    # weight 14*9 = 126 has a 10-dimensional cusp space: order 8 alone would
    # leave the routes at q^9, too short to solve for ten coefficients
    res = verify_theorem(5, {1: 4, 5: 4}, 10, 9, order=8)
    assert res.weight_total == 126
    assert dim_cusp_level1(126) == 10
    assert res.route_agree_through == 10 + 8 + 8 // 5
    assert sum(nf.degree for nf in res.orbit_set) == 10


def test_theorem_power2_quadratic_field(theorem_runs):
    res, _ = theorem_runs[(2, 4, 2)]
    assert res.weight_total == 24
    assert res.power == 2
    # order 64 already covers dim S_24 + 8, so both routes reach
    # q^(order + 8//N) whatever the power
    assert res.route_agree_through == 64 + 8 // 2
    (nf,) = list(res.orbit_set)
    assert nf.degree == 2
    assert nf.modulus.serialize() == ["-20468736", "-1080", "1"]
    (comp,) = res.components
    assert comp.coords == (Fraction(-45, 1153352), Fraction(1, 13840224))
    (xi,) = res.ratios
    assert res.constant == Fraction(6431583754220625, 134217728)
    from mtv.numfield import nf_norm, nf_trace

    assert nf_trace(xi) == 0
    assert nf_norm(xi) == Fraction(
        -281474976710656,
        5963589551168169053075396954891015625,
    )


def test_theorem_input_guards():
    with pytest.raises(InputError):
        verify_theorem(4, {1: 8, 2: 8}, 4, 1)
    with pytest.raises(InputError):
        verify_theorem(2, {1: 8, 2: 8}, 4, 0)
    with pytest.raises(InputError):
        verify_theorem(2, {1: 8, 2: 8}, 4, 1, order=4)
    with pytest.raises(UnsupportedScopeError):
        verify_theorem(2, {1: 16, 2: -8}, 4, 1)


def test_theorem_route2_power_sum_matches_square(theorem_runs):
    # p_2 from the symmetric functions against the squared-input trace route
    res1, _ = theorem_runs[(2, 4, 1)]
    res2, _ = theorem_runs[(2, 4, 2)]
    p2 = power_sums_from_elementary(res1.phi_symmetric, 2)[1]
    through = min(p2.trunc, res2.trace.trunc)
    assert p2.agrees_through(res2.trace, through)
