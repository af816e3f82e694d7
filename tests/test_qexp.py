"""q-expansion layer: series semantics, Eisenstein series, eta quotients, operators."""

from fractions import Fraction

import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mtv import (
    EtaQuotientSpec,
    InputError,
    QSeries,
    ResourceLimitError,
    TruncationError,
    UnsupportedScopeError,
    VerificationError,
    eisenstein_level1,
    eisenstein_prime_level,
    eta_quotient,
    fricke_eisenstein,
    hecke_T,
    op_U,
)
import mtv.numerics as numerics
import mtv.polynomial as polynomial
import mtv.qexp as qexp_mod

from _oracles import (delta_ref, eis_ref, eta_power_ref, euler_power_ref, hecke_ref, mul_trunc,
                      sigma)


# -- QSeries semantics -------------------------------------------------------

def test_coeff_addressing():
    f = QSeries([1, 2, 3, 4], trunc=3)
    assert f.coeff(0) == 1
    assert f.coeff(3) == 4
    with pytest.raises(TruncationError):
        f.coeff(4)
    with pytest.raises(InputError):
        f.coeff(-1)


def test_truncate_shrinks_only():
    f = QSeries([1, 1, 1, 1], trunc=3)
    g = f.truncate(2)
    assert g.trunc == 2 and len(g.coeffs) == 3
    with pytest.raises(TruncationError):
        f.truncate(5)


def test_add_weight_conflict():
    e4 = eisenstein_level1(4, 6)
    e6 = eisenstein_level1(6, 6)
    with pytest.raises(InputError):
        e4 + e6


def test_scalar_ops():
    f = QSeries([1, -3, 2], trunc=2)
    assert (f.scale(Fraction(1, 2))).coeffs == (Fraction(1, 2), Fraction(-3, 2), Fraction(1))
    assert (2 * f).coeffs == (2, -6, 4)
    assert (f - f).is_zero()


@given(
    a=st.lists(st.fractions(max_denominator=40), min_size=1, max_size=9),
    b=st.lists(st.fractions(max_denominator=40), min_size=1, max_size=9),
)
@settings(max_examples=60, deadline=None)
def test_mul_matches_naive_convolution(a, b):
    T = min(len(a), len(b)) - 1
    fa = QSeries(a, trunc=len(a) - 1)
    fb = QSeries(b, trunc=len(b) - 1)
    prod = fa * fb
    ref = mul_trunc(a, b, T)
    assert prod.trunc == T
    assert list(prod.coeffs) == ref


def test_pow_square_and_unit():
    f = QSeries([1, 1], trunc=1)
    assert (f ** 2).coeffs == (1, 2)
    assert f ** 1 is f
    for n in (0, -1):
        with pytest.raises(InputError):
            f ** n



# -- integer core and Kronecker products ---------------------------------------

def _random_ints(rng, n, bits, density=1.0):
    top = 1 << bits
    return [rng.randrange(-top + 1, top) if rng.random() < density else 0 for _ in range(n)]


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 63, 64, 65, 300, 2000])
@pytest.mark.parametrize("seed", range(3))
def test_kron_mul_matches_naive_convolution(bits, seed):
    rng = random.Random("kron:%d:%d" % (bits, seed))
    la, lb = rng.randint(1, 40), rng.randint(1, 40)
    a = _random_ints(rng, la, bits, density=rng.choice([1.0, 0.3, 0.05]))
    b = _random_ints(rng, lb, bits)
    full = la + lb - 1
    for out_len in (0, 1, min(la, lb), full - 1, full, full + 7):
        assert qexp_mod._kron_mul(a, b, out_len) == mul_trunc(a, b, out_len - 1)
    assert qexp_mod._kron_mul(a, a, full) == mul_trunc(a, a, full - 1)


@pytest.mark.parametrize("bits", [1, 8, 64, 2000])
def test_kron_mul_worst_case_slot_width(bits):
    # every coefficient at the largest magnitude of its bit length, one sign:
    # each product coefficient reaches the bound the slot width is sized for;
    # at n = 255 and 8 or 64 bits the width has no slack from byte rounding
    top = (1 << bits) - 1
    for n in (1, 2, 3, 31, 32, 33, 255):
        for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
            a = [sa * top] * n
            b = [sb * top] * (n + 5)
            got = qexp_mod._kron_mul(a, b, 2 * n + 4)
            assert got == mul_trunc(a, b, 2 * n + 3)
            assert max(map(abs, got)) == n * top * top


def test_kron_mul_degenerate_inputs():
    assert qexp_mod._kron_mul([], [1, 2], 3) == [0, 0, 0]
    assert qexp_mod._kron_mul([0, 0, 0], [5, -7], 4) == [0, 0, 0, 0]
    assert qexp_mod._kron_mul([3], [-2], 1) == [-6]
    assert qexp_mod._kron_mul([0, 0, 0, 1], [1, -1], 6) == [0, 0, 0, 1, -1, 0]
    assert qexp_mod._kron_mul([1, 2], [3, 4], 0) == []


def _random_fractions(rng, n, bits=40):
    return [Fraction(rng.randrange(-(1 << bits), 1 << bits), rng.randrange(1, 1 << 12))
            for _ in range(n)]


@pytest.mark.parametrize("ea,eb", [(1, 1), (5, 1), (1, 3), (2, 3), (5, 5)])
def test_fractional_grid_product(ea, eb):
    """Series in q^(1/ea) and q^(1/eb) multiply as series in t = q^(1/e),
    e = lcm(ea, eb), each read with its coefficients at every (e/ea)-th,
    resp. (e/eb)-th, power of t: route 2's reading of q^(1/N)-series."""
    rng = random.Random("grid:%d:%d" % (ea, eb))
    T = 6
    a = _random_fractions(rng, ea * T + 1)
    b = _random_fractions(rng, eb * (T + 1) + 1)
    e = math.lcm(ea, eb)

    def spread(vals, stride):
        out = [Fraction(0)] * (e * T + 1)
        for m, v in enumerate(vals[: (e * T) // stride + 1]):
            out[m * stride] = v
        return out

    ta, tb = spread(a, e // ea), spread(b, e // eb)
    prod = QSeries(ta) * QSeries(tb)
    assert prod.trunc == e * T
    assert list(prod.coeffs) == mul_trunc(ta, tb, e * T)


@pytest.mark.parametrize("r", [1, -1, 4, -4, 24, -24])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_euler_power_matches_repeated_products(d, r):
    T = 30
    assert qexp_mod._euler_power(d, r, T) == euler_power_ref(d, r, T)


@pytest.mark.parametrize("pairs", [
    {1: 24}, {1: 16, 2: -8}, {2: 24, 1: -24}, {5: 24, 1: -24}, {1: 5, 5: -1},
    {1: 8, 2: 8}, {1: 4, 5: 4}, {2: 4, 4: 4}, {1: 6, 2: -6, 3: 6, 6: 2},
])
def test_eta_quotient_matches_repeated_products(pairs):
    T = 30
    spec = EtaQuotientSpec(pairs)
    v = spec.leading_exponent
    f = eta_quotient(spec, T)
    acc = [Fraction(1)] + [Fraction(0)] * T
    for d, r in spec.pairs:
        acc = mul_trunc(acc, euler_power_ref(d, r, T), T)
    assert list(f.coeffs) == [Fraction(0)] * v + acc[: T - v + 1]


# -- the series store -----------------------------------------------------------

# key -> (read through q^T from the store, independent reference through q^T)
STORE_KEYS = {
    ("sigma", 3): (lambda T: qexp_mod._sigma_list(3, T),
                   lambda T: [0] + [sigma(n, 3) for n in range(1, T + 1)]),
    ("sigma", 11): (lambda T: qexp_mod._sigma_list(11, T),
                    lambda T: [0] + [sigma(n, 11) for n in range(1, T + 1)]),
    ("euler", 24): (lambda T: qexp_mod._euler_power(1, 24, T),
                    lambda T: euler_power_ref(1, 24, T)),
    ("euler", -8): (lambda T: qexp_mod._euler_power(1, -8, T),
                    lambda T: euler_power_ref(1, -8, T)),
}


@pytest.mark.parametrize("key", sorted(STORE_KEYS), ids=str)
def test_store_reads_equal_fresh_builds(fresh_gates, key):
    read, ref = STORE_KEYS[key]
    store = qexp_mod._SERIES_STORE
    T = 40
    fresh = read(T)
    assert fresh == ref(T) and len(store[key]) == T + 1
    for before in (2 * T, T, T // 2):
        store.clear()
        read(before)
        assert read(T) == fresh
        assert len(store[key]) == max(before, T) + 1


def test_store_reads_are_fresh_lists(fresh_gates):
    for key, (read, _) in STORE_KEYS.items():
        want = read(12)
        got = read(12)
        got[3] += 1
        got.append(7)
        assert read(12) == want
        assert read(20)[:13] == want


def test_store_holds_one_array_per_key(fresh_gates):
    lengths = [(37 * i) % 61 + 8 for i in range(20)]
    for T in lengths:
        eisenstein_level1(4, T)
        eta_quotient({1: 8, 2: 8}, T)  # eta(z)^8 eta(2z)^8 = q (1 + ...)
        eta_quotient({1: 24}, T)
    store = qexp_mod._SERIES_STORE
    assert sorted(store) == [("euler", 8), ("euler", 24), ("sigma", 3)]
    # the longest read sets each length: sigma through q^T, the Euler
    # powers through q^(T - 1) past the leading q
    top = max(lengths)
    assert [len(store[k]) for k in sorted(store)] == [top, top, top + 1]


def test_eta_factors_sharing_an_exponent_share_one_pass(fresh_gates):
    # eta(z)^4 eta(5z)^4: the d = 5 factor regrids a prefix of the d = 1 pass
    f = eta_quotient({1: 4, 5: 4}, 40)
    assert list(qexp_mod._SERIES_STORE) == [("euler", 4)]
    acc = mul_trunc(euler_power_ref(1, 4, 39), euler_power_ref(5, 4, 39), 39)
    assert list(f.coeffs) == [0] + acc


def test_power_rule_remainder_raises():
    # a half-integral power of 1 + 2q is not integral at q^2
    with pytest.raises(VerificationError):
        qexp_mod._unit_series_power([(1, 2)], Fraction(1, 2), 4)


def _canonical(f):
    return f._den > 0 and math.gcd(f._den, *f._num) == 1


def test_canonical_form_is_construction_independent():
    want = [Fraction(1, 2), Fraction(3, 4), 0, Fraction(-5, 6)]
    built = [
        QSeries(want, trunc=3),
        QSeries([6, 9, 0, -10], trunc=3).scale(Fraction(1, 12)),
        QSeries([1, Fraction(3, 2), 0, Fraction(-5, 3)], trunc=3)
        * QSeries([Fraction(1, 2)], trunc=3),
        QSeries(want + [Fraction(1, 7)], trunc=4).truncate(3),
        QSeries([Fraction(1, 4), Fraction(1, 4), Fraction(1, 3), Fraction(-1, 6)], trunc=3)
        + QSeries([Fraction(1, 4), Fraction(1, 2), Fraction(-1, 3), Fraction(-2, 3)], trunc=3),
    ]
    for f in built:
        assert _canonical(f) and f._den == 12
        assert f == built[0] and hash(f) == hash(built[0])
        assert f.coeffs == tuple(Fraction(c) for c in want)
        assert all(type(c) is Fraction for c in f.coeffs)
    ints = QSeries([3, -6, 9], trunc=2)
    halved = QSeries([6, -12, 18], trunc=2).scale(Fraction(1, 2))
    assert ints == halved and hash(ints) == hash(halved) and halved._den == 1


def test_zero_series_has_unit_denominator():
    f = QSeries([Fraction(1, 3), Fraction(2, 9)], trunc=1)
    for z in (f.scale(0), f - f, QSeries([], trunc=0), QSeries([0, 0], trunc=1),
              f * QSeries([0, 0], trunc=1)):
        assert z.is_zero() and z._den == 1
    assert f.scale(0) == QSeries([0, 0], trunc=1)
    assert hash(f.scale(0)) == hash(QSeries([0, 0], trunc=1))


# -- Eisenstein series -------------------------------------------------------

@pytest.mark.parametrize("weight", [4, 6, 8, 10, 12, 14])
def test_eisenstein_level1_against_reference(weight):
    T = 40
    f = eisenstein_level1(weight, T)
    ref = eis_ref(weight, T)
    assert f.weight == weight and f.level == 1
    assert list(f.coeffs) == ref


def test_eisenstein_ring_identities():
    T = 30
    e4 = eisenstein_level1(4, T)
    e6 = eisenstein_level1(6, T)
    assert (e4 * e4).agrees_through(eisenstein_level1(8, T), T)
    assert (e4 * e6).agrees_through(eisenstein_level1(10, T), T)


@pytest.mark.parametrize("weight,level", [(4, 2), (6, 3), (8, 5)])
def test_prime_level_eisenstein_formula(weight, level):
    # (N^k E_k(Nz) - E_k(z)) / (N^k - 1), assembled straight from reference data
    T = 24
    f = eisenstein_prime_level(weight, level, T)
    ek = eis_ref(weight, T)
    den = level ** weight - 1
    for n in range(T + 1):
        dil = ek[n // level] if n % level == 0 else Fraction(0)
        assert f.coeff(n) == (level ** weight * dil - ek[n]) / den
    assert f.coeff(0) == 1


def test_prime_level_head_pinned():
    f = eisenstein_prime_level(4, 2, 4)
    assert [f.coeff(n) for n in range(5)] == [1, -16, 112, -448, 1136]


@pytest.mark.parametrize(
    "weight,level,head",
    [
        (4, 2, [0, 64, 512, 1792, 4096]),
        (6, 3, [0, Fraction(-243, 13), Fraction(-8019, 13), Fraction(-59049, 13),
                Fraction(-256851, 13)]),
        (8, 5, [0, Fraction(3125, 4069), Fraction(403125, 4069)]),
    ],
)
def test_fricke_eisenstein_heads(weight, level, head):
    f = fricke_eisenstein(weight, level, len(head) - 1)
    assert [f.coeff(n) for n in range(len(head))] == head
    assert f.coeff(0) == 0


def test_eisenstein_rejects_bad_arguments():
    with pytest.raises(InputError):
        eisenstein_level1(5, 10)
    with pytest.raises(InputError):
        eisenstein_level1(2, 10)
    with pytest.raises(InputError):
        eisenstein_prime_level(4, 4, 10)
    # level 1 is accepted and collapses to the level-1 series
    assert eisenstein_prime_level(4, 1, 10) == eisenstein_level1(4, 10)


def test_prime_predicate_matches_sympy():
    import sympy

    is_prime = polynomial._is_prime
    assert all(is_prime(n) == sympy.isprime(n) for n in range(-5, 10**4))
    rng = random.Random(20)
    for _ in range(100):
        n = rng.randrange(10**19, 10**20)
        p = sympy.nextprime(n)
        assert is_prime(n) == sympy.isprime(n)
        assert is_prime(p) and not is_prime(p * 3) and not is_prime(p - 1)
    # strong pseudoprimes to the bases 2 .. 7 and to the bases 2 .. 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_prime_predicate_refuses_past_its_proven_range():
    import sympy

    is_prime = polynomial._is_prime
    limit = polynomial._MR_LIMIT
    p = sympy.nextprime(10**39)
    assert is_prime(sympy.prevprime(limit))
    # the limit is the least strong pseudoprime to all the bases
    for n in (limit, p):
        with pytest.raises(ResourceLimitError):
            is_prime(n)
    # a base that divides n decides n at any size
    assert not is_prime(41 * p)


def test_fricke_gate_catches_corruption(monkeypatch, fresh_gates):
    real = qexp_mod._fricke_eisenstein_raw
    monkeypatch.setattr(
        qexp_mod, "_fricke_eisenstein_raw",
        lambda w, N, T: real(w, N, T).scale(2),
    )
    with pytest.raises(VerificationError):
        fricke_eisenstein(4, 2, 8)


@pytest.mark.parametrize("weight", [200, 278])
def test_fricke_gate_catches_a_one_percent_error_at_high_weight(weight, monkeypatch):
    # the slash side is evaluated at -1/(5 tau), where order 256 leaves a
    # proven tail 15 (weight 200) and 117 (weight 278) times the value; the
    # gate's order follows the weight, so the true image passes and one 1%
    # off fails
    real = qexp_mod._fricke_eisenstein_raw
    qexp_mod._check_fricke(weight, 5)
    monkeypatch.setattr(qexp_mod, "_fricke_eisenstein_raw",
                        lambda w, N, T: real(w, N, T).scale(Fraction(101, 100)))
    with pytest.raises(VerificationError):
        qexp_mod._check_fricke(weight, 5)


def _double_q1(f):
    num = list(f._num)
    num[1] *= 2
    return QSeries._from_ints(num, f._den, f.trunc, f.weight, f.level)


# a +1 on a_1 at weight 4 lies below the gate's tolerance, so it is not one
EISENSTEIN_CORRUPTIONS = {
    "scale2": lambda real, w, N, T: real(w, N, T).scale(2),
    "weight+2": lambda real, w, N, T: real(w + 2, N, T),
    "q1x2": lambda real, w, N, T: _double_q1(real(w, N, T)),
}


@pytest.mark.parametrize("corruption", sorted(EISENSTEIN_CORRUPTIONS))
@pytest.mark.parametrize("weight,level", [(4, 1), (6, 1), (4, 2), (6, 3), (8, 5), (12, 1)])
def test_eisenstein_gate_catches_corruption(monkeypatch, fresh_gates, corruption, weight, level):
    real, corrupt = qexp_mod._eisenstein_prime_level_raw, EISENSTEIN_CORRUPTIONS[corruption]
    monkeypatch.setattr(qexp_mod, "_eisenstein_prime_level_raw",
                        lambda w, N, T: corrupt(real, w, N, T))
    with pytest.raises(VerificationError):
        eisenstein_prime_level(weight, level, 8)


def test_eisenstein_gate_points_are_short_dyadics():
    # exact as floats, so no working precision moves them, and at most 8
    # fractional bits, so the coset-sum kernel's integers stay small
    assert len(qexp_mod._GATE_TAUS) == 2
    for tau in qexp_mod._GATE_TAUS:
        for part in (tau.real, tau.imag):
            assert Fraction(part).denominator <= 2**8


@pytest.mark.parametrize("level", [1, 2, 3, 5])
def test_eisenstein_gate_passes_at_even_weights(fresh_gates, level):
    # from weight 204 on the level-1 tail past q^64 outgrows a fitted
    # majorant; the gate's proven tail covers it
    weights = list(range(4, 42, 2)) + {1: [204, 240, 278], 2: [274], 5: [278]}.get(level, [])
    for w in weights:
        qexp_mod._gate_eisenstein(w, level)
        assert (w, level) in qexp_mod._GATE_DONE


@pytest.mark.parametrize("weight", [4, 202, 204, 240, 278])
@pytest.mark.parametrize("level,fricke", [(1, False), (2, False), (2, True), (5, False),
                                          (5, True)])
def test_proven_eisenstein_tail_covers_the_known_coefficients(weight, level, fricke):
    # the tail of the gate's series past q^64, bounded from C n^(k-1), is
    # never below the sum over the coefficients 65..400 at the gate's points
    build = qexp_mod._fricke_eisenstein_raw if fricke else qexp_mod._eisenstein_prime_level_raw
    ser = build(weight, level, 400)
    bound = qexp_mod._eisenstein_coeff_bound(weight, level, fricke)
    order = qexp_mod._GATE_ORDER
    for tau in qexp_mod._GATE_TAUS:
        with mpmath.workprec(256):
            r = mpmath.exp(-2 * mpmath.pi * tau.imag)
            known = sum(abs(mpmath.mpf(c)) * r**m
                        for m, c in enumerate(ser._num) if m > order) / ser._den
            t, e = numerics._proven_tail(bound, order, float(mpmath.log(r)))
            assert known <= mpmath.mpf((t, e))


# -- eta quotients -----------------------------------------------------------

def test_eta_24_is_discriminant_series():
    T = 48
    d = eta_quotient({1: 24}, T)
    ref = delta_ref(T)
    assert d.weight == 12 and d.coeff(0) == 0
    assert list(d.coeffs) == ref


@pytest.mark.parametrize(
    "pairs,head",
    [
        ({1: 8, 2: 8}, [1, -8, 12, 64, -210]),
        ({1: 6, 3: 6}, [1, -6, 9, 4, 6]),
        ({1: 4, 5: 4}, [1, -4, 2, 8, -5]),
    ],
)
def test_eta_quotient_newform_heads(pairs, head):
    f = eta_quotient(pairs, len(head))
    v = EtaQuotientSpec(pairs).leading_exponent
    assert v == 1
    assert [f.coeff(v + j) for j in range(len(head))] == head


def test_eta_quotient_against_naive_product():
    # every factor rebuilt by explicit Euler-product multiplication
    T = 30
    for pairs in ({1: 8, 2: 8}, {1: 6, 3: 6}, {1: 4, 5: 4}):
        f = eta_quotient(pairs, T)
        v = sum(d * r for d, r in pairs.items()) // 24
        acc = [Fraction(1)] + [Fraction(0)] * T
        for d, r in pairs.items():
            base = eta_power_ref(r, T // d)
            dilated = [
                base[n // d] if n % d == 0 else Fraction(0) for n in range(T + 1)
            ]
            acc = mul_trunc(acc, dilated, T)
        for n in range(T - v + 1):
            assert f.coeff(v + n) == acc[n]


def test_eta_negative_exponents_match_eisenstein():
    # eta(z)^16 / eta(2z)^8 is the weight-4 level-2 Eisenstein series
    T = 40
    f = eta_quotient({1: 16, 2: -8}, T, level=2)
    g = eisenstein_prime_level(4, 2, T)
    assert f.agrees_through(g, T)


def test_eta_spec_invariants():
    with pytest.raises(InputError):
        EtaQuotientSpec({1: 23})
    with pytest.raises(UnsupportedScopeError):
        EtaQuotientSpec({2: 9, 3: 2})  # d*r sums to 24 but the weight is half-integral
    with pytest.raises(InputError):
        EtaQuotientSpec({0: 24})
    spec = EtaQuotientSpec({1: 8, 2: 8})
    assert spec.weight == 8 and spec.leading_exponent == 1
    assert spec.fricke_partner(2) == spec
    assert EtaQuotientSpec({1: 24}).fricke_partner(2) == EtaQuotientSpec({2: 24})
    with pytest.raises(InputError):
        EtaQuotientSpec({1: 16, 2: 4}).fricke_partner(3)


def test_eta_pole_at_infinity_rejected():
    with pytest.raises(UnsupportedScopeError):
        eta_quotient({1: -24}, 10)


# -- operators ---------------------------------------------------------------

def test_u_after_v_is_identity():
    # eta(t z)^24 is V_t Delta = Delta(q^t)
    f = eta_quotient({1: 24}, 12)
    for t in (2, 3, 5):
        g = op_U(eta_quotient({t: 24}, 12 * t), t)
        assert g.agrees_through(f, 12)


def test_u2_of_product_head():
    # eta(z)^24 eta(2z)^24 is Delta V_2 Delta
    prod = eta_quotient({1: 24, 2: 24}, 12)
    u = op_U(prod, 2)
    assert [u.coeff(n) for n in range(4)] == [0, 0, -24, -896]


def test_hecke_eigenvalues_on_discriminant():
    d = eta_quotient({1: 24}, 64)
    t2 = hecke_T(d, 2)
    assert t2.agrees_through(d.scale(-24), t2.trunc)
    t3 = hecke_T(d, 3)
    assert t3.agrees_through(d.scale(252), t3.trunc)


def test_hecke_prime_power_relation_on_non_eigenform():
    # T_4 = T_2^2 - 2^11 on all of weight 12, checked on E4^3: the package
    # builds T_p for a prime p only, so T_4 comes from the divisor-sum oracle
    f = eisenstein_level1(4, 32) ** 3
    lhs = hecke_ref(list(f.coeffs), 4, 12)
    rhs = hecke_T(hecke_T(f, 2), 2) - f.truncate(8).scale(2 ** 11)
    assert rhs.trunc == 8 and list(rhs.coeffs) == lhs


def test_hecke_guards():
    d = eta_quotient({1: 24}, 64)
    with pytest.raises(UnsupportedScopeError):
        hecke_T(eta_quotient({1: 8, 2: 8}, 10), 2)
    with pytest.raises(TruncationError):
        hecke_T(d.truncate(1), 2)
    with pytest.raises(InputError):
        hecke_T(d, 0)
    for n in (1, 4, 6, 9):
        with pytest.raises(UnsupportedScopeError):
            hecke_T(d, n)
    bare = QSeries(list(d.coeffs), trunc=d.trunc)  # no weight metadata
    with pytest.raises(InputError):
        hecke_T(bare, 2)


# -- the canonical layout ------------------------------------------------------

def test_rational_layout_matches_elementwise_arithmetic():
    rng = random.Random("layout:Q")
    T = 12
    a = _random_fractions(rng, T + 1)
    b = _random_fractions(rng, T + 1)
    a[3] = Fraction(0)
    f = QSeries(a, trunc=T, weight=60)
    g = QSeries(b, trunc=T, weight=60)
    s = Fraction(-7, 9)
    cases = [
        (f + g, [x + y for x, y in zip(a, b)]),
        (f - g, [x - y for x, y in zip(a, b)]),
        (f - f, [0] * (T + 1)),
        (f.scale(s), [x * s for x in a]),
        (f * g, mul_trunc(a, b, T)),
        (g * f, mul_trunc(b, a, T)),
        (f.truncate(5), a[:6]),
        (op_U(f, 3), a[::3]),
        (hecke_T(f, 2), hecke_ref(a, 2, 60)),
        (hecke_T(f, 3), hecke_ref(a, 3, 60)),
    ]
    for got, ref in cases:
        assert _canonical(got) and len(got._num) == got.trunc + 1
        assert list(got.coeffs) == ref
    assert (f - f).is_zero() and (f - f)._den == 1
    assert f.agrees_through(QSeries(a[:9], trunc=8), 8)
    assert not f.agrees_through(QSeries(a[:3] + [1], trunc=3), 3)
