"""Level lowering: Fricke data, the translate sieve, both trace routes, ratios."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mtv import (
    InputError,
    UnsupportedScopeError,
    VerificationError,
    delta_series,
    dim_cusp_level1,
    dim_modular_level1,
    eisenstein_prime_level,
    eta_quotient,
    expand_in_newforms,
    fricke_eisenstein,
    main_constant,
    miller_basis,
    newform_basis_level1,
    op_U,
    trace_to_level1,
    transformation_polynomial,
    verify_theorem,
)
from mtv.polynomial import elementary_from_power_sums, power_sums_from_elementary
from mtv.qexp import EtaQuotientSpec, QSeries
from mtv import qexp, trace
from mtv.trace import _sieved_product, fricke_eta_data

from _oracles import (cyclo_equal, expand_in_newforms_ref, fricke_eta_series,
                      twisted_translate_power_sum)


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


@pytest.mark.parametrize("pairs, level", [({1: 8, 2: 8}, 2), ({1: 24}, 2), ({1: 4, 5: 4}, 5),
                                          ({2: 16, 1: -8}, 2), ({3: 18, 1: -6}, 3)])
def test_fricke_eta_check_refuses_a_slightly_wrong_scalar(pairs, level):
    """The slash check holds at the true scalar and refuses it scaled by
    1 + 2^-120, which the rounding allowance at 160 bits does not cover;
    negative exponents divide by eta's value, and their partners have
    leading exponent 0."""
    spec = EtaQuotientSpec(pairs)
    partner, scalar = fricke_eta_data(spec, level)
    trace._check_fricke_eta(spec, partner, scalar, level, spec.weight)
    with pytest.raises(VerificationError, match="fails the numeric slash check"):
        trace._check_fricke_eta(spec, partner, scalar * (1 + Fraction(1, 2**120)), level,
                                spec.weight)


@pytest.mark.parametrize("pairs, level", [({1: 8, 2: 8}, 2), ({1: 2, 11: 2}, 11),
                                          ({1: 2, 47: 2}, 47), ({1: 2, 131: 2}, 131),
                                          ({1: 2, 263: 2}, 263), ({1: 2, 311: 2}, 311),
                                          ({1: 2, 383: 2}, 383), ({1: 2, 431: 2}, 431)])
def test_fricke_eta_check_refuses_wrong_scalars_at_large_levels(pairs, level):
    """Both sides are read near the fixed point i/sqrt(N) of w_N, at Im about
    1/sqrt(N); the gate's order grows with sqrt(N), so it holds at the true
    scalar and refuses it times 101/100, 2 and -1 at levels 47 to 431 as at
    2 and 11."""
    spec = EtaQuotientSpec(pairs)
    partner, scalar = fricke_eta_data(spec, level)
    trace._check_fricke_eta(spec, partner, scalar, level, spec.weight)
    for wrong in (Fraction(101, 100), 2, -1):
        with pytest.raises(VerificationError, match="fails the numeric slash check"):
            trace._check_fricke_eta(spec, partner, scalar * wrong, level, spec.weight)


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
    """Phi has one root per coset, N + 1 in all, and the identity coset's
    translate h is one of them: Phi(h) = 0 through the truncation.  The
    certification of the s_i needs q^6 of s_6 at level 5 (dim M_72 = 7)."""
    T = 8 * level
    h, hfr = _translate_inputs(level, pairs, lam, T)
    sym = transformation_polynomial(h, hfr, level)
    assert len(sym) == level + 1
    hT = h.truncate(sym[0].trunc)
    phi = hT ** (level + 1)
    for i, s in enumerate(sym, start=1):
        term = s if i == level + 1 else s * hT ** (level + 1 - i)
        phi = phi + term.scale((-1) ** i)
    assert phi.is_zero()


@pytest.mark.parametrize("level,pairs,lam", [
    (2, {1: 8, 2: 8}, 4),
    (3, {1: 6, 3: 6}, 6),
    (5, {1: 4, 5: 4}, 8),
])
@pytest.mark.parametrize("m", [1, 2])
def test_translate_sum_sieves(level, pairs, lam, m):
    """Summing the S T^j translates to the m-th power kills every exponent
    not divisible by the level and multiplies the survivors by the level.

    The translates are formed over Q(zeta_N) by the reference convolution;
    the package's side is N U_N(F^m), F the scaled Fricke image read as a
    series in t = q^(1/N), as transformation_polynomial builds it."""
    T = 6 * level
    h, hfr = _translate_inputs(level, pairs, lam, T)
    w = h.weight
    Tq = hfr.trunc // level
    b = [c * Fraction(1, level ** (w // 2)) for c in hfr.coeffs[: level * Tq + 1]]
    F = QSeries(b, trunc=level * Tq, weight=w, level=level)
    sieved = op_U(F**m, level).scale(level)
    total = twisted_translate_power_sum(b, level, m)
    assert len(total) == level * sieved.trunc + 1
    for k, t in enumerate(total):
        want = sieved.coeff(k // level) if k % level == 0 else 0
        assert cyclo_equal(t, [want] + [Fraction(0)] * (level - 1)), k


def test_translates_reject_odd_weight():
    f = QSeries([0, 1], trunc=1, weight=3, level=2)
    with pytest.raises(InputError):
        transformation_polynomial(f, f, 2)


def _random_grid_series(rng, e, T, weight):
    """A series in t = q^(1/e) through t^(e T): signed 1- to 400-bit
    numerators, some polyphase parts num[r::e] zeroed, over a random
    denominator."""
    num = []
    for _ in range(e * T + 1):
        bits = rng.randint(1, 400)
        num.append(rng.choice((-1, 1)) * (rng.getrandbits(bits - 1) | 1 << (bits - 1)))
    for r in rng.sample(range(e), rng.randint(0, e - 1)):
        num[r::e] = [0] * len(num[r::e])
    return QSeries._from_ints(num, rng.randint(1, 10**9), e * T, weight, e)


@pytest.mark.parametrize("e", [2, 3, 5, 7])
@pytest.mark.parametrize("seed", range(5))
def test_sieved_product_is_the_integral_part_of_the_full_product(e, seed):
    rng = random.Random(100 * e + seed)
    T = rng.randint(1, 10)
    a = _random_grid_series(rng, e, T, 4)
    b = _random_grid_series(rng, e, T + rng.randint(0, 2), 6)
    for x, y in ((a, b), (b, a), (a, a)):
        want = op_U(x * y, e)
        got = _sieved_product(x, y, e)
        assert got == want
        assert (got.trunc, got.weight, got.level) == (T, x.weight + y.weight, e)
    zero = QSeries._from_ints([0] * (e * T + 1), 1, e * T, 6, e)
    assert _sieved_product(a, zero, e).is_zero()


@pytest.mark.parametrize("level,pairs,lam,order", [
    (2, {1: 8, 2: 8}, 4, 20),
    (3, {1: 6, 3: 6}, 6, 16),
    (5, {1: 4, 5: 4}, 8, 12),
    # not its own Fricke partner: {2: 32, 1: 8} is, with scalar 2^6
    (2, {1: 32, 2: 8}, 4, 16),
])
def test_product_inputs_match_the_full_length_construction(level, pairs, lam, order):
    """h|w_N is the full product at T_in = N*order + 8, and h is the full
    product cut to T_in // N, the part both routes read."""
    T_in = level * order + 8
    h_full, hfr_full = _translate_inputs(level, pairs, lam, T_in)
    h, hfr = trace.product_inputs(level, pairs, lam, order)
    assert hfr == hfr_full
    assert h.trunc == T_in // level
    assert h == h_full.truncate(T_in // level)
    for got, want in ((h, h_full), (hfr, hfr_full)):
        assert (got.weight, got.level) == (want.weight, want.level)


@pytest.mark.parametrize("level,pairs,lam,order", [
    (2, {1: 8, 2: 8}, 4, 20),
    (3, {1: 6, 3: 6}, 6, 16),
    (5, {1: 4, 5: 4}, 8, 12),
])
@pytest.mark.parametrize("power", [2, 3])
def test_fricke_power_is_sieved_on_the_exponents_U_reads(level, pairs, lam, order, power):
    h, hfr = trace.product_inputs(level, pairs, lam, order)
    u = _sieved_product(hfr ** (power - 1), hfr, level)
    want = op_U(hfr**power, level)
    assert u == want
    assert (u.trunc, u.weight, u.level) == (want.trunc, want.weight, want.level)
    got = trace_to_level1(h, hfr, level, power)
    assert got == trace_to_level1(h**power, hfr**power, level)
    assert got.trunc == h.trunc


def test_non_self_partner_theorem_routes_agree():
    res = verify_theorem(2, {1: 32, 2: 8}, 4, 1, order=16)
    assert res.weight_total == 24
    assert res.route_agree_through == 16 + 8 // 2


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


TAIL_INPUTS = {
    2: (2, {1: 8, 2: 8}, 4, 40),
    3: (3, {1: 6, 3: 6}, 6, 45),
    5: (5, {1: 4, 5: 4}, 8, 60),
}


@pytest.mark.parametrize("level", sorted(TAIL_INPUTS))
def test_validation_catches_one_unit_at_the_tail_and_past_the_head(level, monkeypatch,
                                                                  fresh_gates):
    """Adding 1 to one numerator of one s_i at q^T, q^(d-1) or q^d (d the
    dimension of its weight) is caught, and the error names that s_i: from
    an empty series store, and again once every stored Miller basis (the
    cores and factors of the certificate) is longer than the forms."""
    h, hfr = _translate_inputs(*TAIL_INPUTS[level])
    w = h.weight
    sym = transformation_polynomial(h, hfr, level)
    certify = trace.level1_coordinates
    T = max(si.trunc for si in sym)
    for grown in (False, True):
        if grown:
            for kind, k in [key for key in qexp._SERIES_STORE if key[0] == "miller"]:
                miller_basis(k, 2 * T)
        for i, si in enumerate(sym, start=1):
            d = dim_modular_level1(w * i)
            for m in sorted({si.trunc, d - 1, d}):
                num = list(si._num)
                num[m] += 1
                bumped = QSeries._from_ints(num, si._den, si.trunc, si.weight, si.level)

                def planted(forms, i=i, bumped=bumped):
                    forms = list(forms)
                    forms[i - 1] = bumped
                    return certify(forms)

                monkeypatch.setattr(trace, "level1_coordinates", planted)
                with pytest.raises(VerificationError,
                                   match=r"^s_%d is not a level-1 form of weight %d: "
                                         % (i, w * i)):
                    transformation_polynomial(h, hfr, level)
        monkeypatch.undo()
        assert transformation_polynomial(h, hfr, level) == sym
    store = qexp._SERIES_STORE
    cores = [("miller", 12 * (dim_modular_level1(w * i) - 1)) for i in range(1, len(sym) + 1)]
    assert all(len(store[key]) > T + 1 for key in cores)


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
    assert main_constant(12) == Fraction(42525, 16384)
    assert main_constant(24) == Fraction(3) * Fraction(4) ** (-23) * 1124000727777607680000
    with pytest.raises(InputError):
        main_constant(3)


# -- newform expansion ------------------------------------------------------------

def test_expand_in_newforms_weight12():
    orbs = newform_basis_level1(12, 24)
    tr = delta_series(24).scale(3)
    assert expand_in_newforms(tr, orbs) == [Fraction(3)]


@pytest.mark.parametrize("weight", [12, 24])
def test_expand_in_newforms_names_the_first_residual(weight):
    """A cusp form with one coefficient bumped past the solved head is
    refused, naming the first q-power where the residual is nonzero; over
    Q at weight 12 and over a quadratic Hecke field at weight 24."""
    from mtv import eisenstein_level1

    T = 20
    orbs = newform_basis_level1(weight, T)
    f = delta_series(T)
    if weight == 24:
        f = f * eisenstein_level1(4, T) ** 3
    comps = expand_in_newforms(f, orbs)
    assert len(comps) == 1
    for m in (3, 11, T):
        num = list(f._num)
        num[m] += 1
        bumped = QSeries._from_ints(num, f._den, T, weight, 1)
        with pytest.raises(VerificationError,
                           match=r"^newform expansion residual is nonzero first at q\^%d$" % m):
            expand_in_newforms(bumped, orbs)


@pytest.mark.parametrize("weight", [12, 24])
def test_expansion_certificate_catches_a_wrong_solve(weight, monkeypatch):
    """One wrong entry of the solution of A X = D b is refused by the
    certificate at every coefficient."""
    from mtv import eisenstein_level1

    T = 20
    orbs = newform_basis_level1(weight, T)
    f = delta_series(T)
    if weight == 24:
        f = f * eisenstein_level1(4, T) ** 3
    real = trace.bareiss_solve

    def off_by_one(A, B):
        D, X = real(A, B)
        X[-1][0] += 1
        return D, X

    monkeypatch.setattr(trace, "bareiss_solve", off_by_one)
    with pytest.raises(VerificationError, match="newform expansion residual is nonzero"):
        expand_in_newforms(f, orbs)


def test_expand_in_newforms_rejects_noncuspidal():
    from mtv import eisenstein_level1

    orbs = newform_basis_level1(12, 20)
    with pytest.raises(VerificationError):
        expand_in_newforms(eisenstein_level1(12, 20), orbs)
    with pytest.raises(InputError):
        expand_in_newforms(delta_series(20), newform_basis_level1(16, 20))


@pytest.mark.parametrize("weight", [12, 24, 60, 72, 192])
def test_integer_expansion_matches_the_fraction_solve(weight):
    """Fields of degree 1, 2, 5, 6 and 16: a random rational cusp form
    expands to the same coefficients as one Fraction solve over the trace
    forms of theta^j."""
    T = dim_cusp_level1(weight) + 8
    orbs = newform_basis_level1(weight, T)
    rng = random.Random("expand:%d" % weight)
    f = None
    for b in miller_basis(weight, T)[1:]:
        term = b.scale(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999)))
        f = term if f is None else f + term
    got = expand_in_newforms(f, orbs)
    assert got == expand_in_newforms_ref(f, orbs)
    assert [c.field for c in got] == [nf.field for nf in orbs]


def test_expansion_over_orbits_with_their_own_denominators():
    """Every level-1 orbit set computed so far is one orbit, so several orbits,
    each over its own denominator, are checked on an artificial set: an
    orbit over the degree-1 field over 7 and an orbit over Q(sqrt 2) over 5,
    each given by its Miller coordinates."""
    from mtv import GaloisOrbitSet, Newform
    from mtv.numfield import NumberField
    from mtv.polynomial import UniPoly

    weight, T = 36, 12
    b = miller_basis(weight, T)[1:]
    # the orbits are artificial, so any degree-1 field serves: Q[x]/(x)
    Q, K = NumberField(UniPoly([0, 1])), NumberField(UniPoly([-2, 0, 1]))
    # b_1 / 7 over Q and (b_2 + sqrt 2 b_3) / 5 over Q(sqrt 2), as Miller coordinates
    f7 = Newform(weight, Q, [[1], [0], [0]], 7, b)
    g = Newform(weight, K, [[0, 0], [1, 0], [0, 1]], 5, b)
    assert f7.a(2) == Q.elem([b[0].coeff(2) / 7])
    assert g.a(3) == K.elem([b[1].coeff(3) / 5, Fraction(1, 5)])
    orbs = GaloisOrbitSet(weight, [f7, g], 3)
    # Tr((x + y sqrt 2) g) = (2x b_2 + 4y b_3) / 5
    f = b[0].scale(3) + b[1].scale(Fraction(-2, 9)) + b[2].scale(11)
    want = [Q.elem([21]), K.elem([Fraction(-5, 9), Fraction(55, 4)])]
    assert expand_in_newforms(f, orbs) == want == expand_in_newforms_ref(f, orbs)
    num = list(f._num)
    num[7] += 1
    bumped = QSeries._from_ints(num, f._den, T, weight, 1)
    with pytest.raises(VerificationError, match=r"nonzero first at q\^7$"):
        expand_in_newforms(bumped, orbs)


# sha256 of the sorted-key JSON of each report, recorded with the Fraction
# solve over per-coefficient field elements that the integer layout replaced;
# the corollary digest was re-recorded when j_at_level_tau.err took in the
# rounding of E4^3 / Delta (8.98e-56 in place of 1.36e-61, nothing else moved),
# and again when j_at_level_tau came to be read at N tau itself, not at N tau
# rounded to 53 bits, with a ball's proven error (re 4617205.18345990563264602771987
# and err 3.65e-62 in place of 4617205.18345991166379808726053 and 8.98e-56), and
# again when a rounded ball's radius took in the midpoint's move of at most
# sqrt(2)/2 of a unit in place of a whole unit (err 1.95e-62, nothing else moved),
# and again when E4 and Delta came to be read through the least order whose
# proven tail meets the target, with fewer guard bits (err 1.27e-61, nothing
# else moved)
THEOREM_DIGESTS = {
    (4, 5): "dc9dc470c6e41c60c8cae8971e62044fad0bc4556cfb0aecf2bd329e934c50c6",
    (6, 5): "b521bd2dbcebf3949c1927f9eb23ee4339f3a1333d3547bbc0451a8120363d9e",
    (4, 6): "a5a6e1014dcdc0735272179c36975c5eda2df3513947154c907c77fd0dc93c40",
}
COROLLARY_DIGEST = "6f57a1fb3e2afa7416e8bed6c114f70fe94074a4a30b0e35e1e21040c6629e98"


def _digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("eis_weight,power", sorted(THEOREM_DIGESTS))
def test_theorem_reports_are_pinned(eis_weight, power):
    res = verify_theorem(2, {1: 8, 2: 8}, eis_weight, power, order=16)
    assert _digest(res.to_dict()) == THEOREM_DIGESTS[eis_weight, power]


def test_corollary_report_is_pinned():
    from mtv import CurveQ, verify_corollary

    res = verify_corollary(2, {1: 8, 2: 8}, 4, 2, CurveQ(4, 1))
    assert _digest(res.to_dict()) == COROLLARY_DIGEST


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
        assert len(res.phi_symmetric) == res.level + 1


def test_theorem_high_power_low_order_sizes_inputs_from_cusp_dimension():
    # weight 14*9 = 126 has a 10-dimensional cusp space: order 8 alone would
    # leave the routes at q^9, too short to solve for ten coefficients
    res = verify_theorem(5, {1: 4, 5: 4}, 10, 9, order=8)
    assert res.weight_total == 126
    assert dim_cusp_level1(126) == 10
    assert res.route_agree_through == 10 + 8 + 8 // 5
    assert sum(nf.degree for nf in res.orbit_set) == 10


@pytest.mark.parametrize("power", [5, 6])
def test_report_norm_is_the_signed_charpoly_constant(power):
    # weights 60 and 72: one orbit whose Hecke field has degree 5 or 6
    from mtv.rational import format_rational

    from _oracles import nf_norm

    res = verify_theorem(2, {1: 8, 2: 8}, 4, power, order=16)
    (nf,) = list(res.orbit_set)
    (xi,) = res.ratios
    (orbit,) = res.to_dict()["orbits"]
    assert nf.degree == power
    assert orbit["ratio_norm"] == format_rational(nf_norm(xi))


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
    from mtv.numfield import nf_trace

    from _oracles import nf_norm

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
