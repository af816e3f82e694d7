import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf

import mtv.numerics as numerics
from mtv.errors import InputError, UnsupportedScopeError
from mtv.numerics import (
    BigComplex,
    eval_qseries,
    lattice_sum_eisenstein,
    to_mpc,
)
from mtv.qexp import (
    _GATE_ORDER,
    _GATE_PREC,
    _GATE_TAUS,
    QSeries,
    _eisenstein_prime_level_raw,
    eisenstein_level1,
    eisenstein_prime_level,
)
from mtv.spaces import delta_series

from _oracles import eval_qseries_ref, lattice_kernel_ref, lattice_sum_ref, lattice_tail_formula

F = Fraction


def test_bigcomplex_error_propagation():
    a = BigComplex(mpc(1, 1), mpf("1e-10"))
    b = BigComplex(mpc(2, -1), mpf("1e-12"))
    s = a + b
    assert s.err >= a.err
    p = a * b
    # |a||db| + |b||da| lower-bounds the product error
    assert p.err >= abs(b.value) * a.err
    assert abs((-a).value + a.value) == 0
    assert a.distance(a.value) == 0
    d = a.serialize(digits=10)
    assert set(d) == {"re", "im", "err"}


def test_eval_geometric_series_certified():
    T = 120
    f = QSeries([F(1)] * (T + 1), trunc=T, weight=None, level=1)
    with mpmath.workprec(150):
        tau = mpc("0.1", "0.9")
        got = eval_qseries(f, tau, 128)
        q = mpmath.exp(2j * mpmath.pi * tau)
        want = 1 / (1 - q)
        assert abs(got.value - want) <= got.err + mpf(2) ** -120


def test_eval_honesty_by_doubling_order():
    d1 = delta_series(40)
    d2 = delta_series(80)
    with mpmath.workprec(170):
        tau = mpc("0.3", "0.8")
        v1 = eval_qseries(d1, tau, 160)
        v2 = eval_qseries(d2, tau, 160)
        assert abs(v1.value - v2.value) <= v1.err + v2.err


def test_eval_e6_vanishes_at_i():
    e6 = eisenstein_level1(6, 200)
    v = eval_qseries(e6, mpc(0, 1), 192)
    assert abs(v.value) <= v.err + mpf(2) ** -150


def test_eval_large_weight_gate_series_is_finite():
    # the level-2 Eisenstein gate series at weight 274 (order 64): its
    # rounding sum outgrows a float, and must still give a finite bound, at
    # a decimal point and at the gate's own points
    ser = _eisenstein_prime_level_raw(274, 2, _GATE_ORDER)
    with mpmath.workprec(_GATE_PREC):
        for tau in (mpc("0.21", "1.13"), *_GATE_TAUS):
            r = eval_qseries(ser, tau, _GATE_PREC)
            assert mpmath.isfinite(r.value) and mpmath.isfinite(r.err)
            assert abs(r.value - 1) < mpf(10) ** -90 and 0 < r.err < mpf(10) ** -40


def test_eval_rejects_low_imag_with_short_series():
    f = delta_series(8)
    with pytest.raises(InputError):
        eval_qseries(f, mpc("0.0", "0.001"), 128)


def test_lattice_sum_certified_against_closed_form():
    # the certificate must cover the actual truncation defect
    e4 = eisenstein_level1(4, 64)
    for tau in (mpc(0, 1), mpc("0.21", "1.13")):
        closed = eval_qseries(e4, tau, 160)
        lat = lattice_sum_eisenstein(4, 1, tau, 24, None, 160)
        assert closed.distance(lat) <= closed.err + lat.err


def test_lattice_sum_prime_level():
    from mtv.qexp import eisenstein_prime_level

    ser = eisenstein_prime_level(6, 3, 64)
    tau = mpc("0.11", "1.4")
    closed = eval_qseries(ser, tau, 160)
    lat = lattice_sum_eisenstein(6, 3, tau, 24, None, 160)
    assert closed.distance(lat) <= closed.err + lat.err


def test_lattice_sum_rejects_bad_args():
    with pytest.raises(InputError):
        lattice_sum_eisenstein(2, 1, mpc(0, 1), 16, None, 128)
    with pytest.raises(InputError):
        lattice_sum_eisenstein(4, 1, mpc(0, -1), 16, None, 128)


def test_lattice_sum_quadratic_character():
    # only the trivial character is summed; the fifth positional parameter
    # stays for callers that pass None
    for character in (-4, 1, 5):
        with pytest.raises(UnsupportedScopeError):
            lattice_sum_eisenstein(5, 1, mpc("0.2", "1.1"), 12, character, 160)


def test_to_mpc_fraction_exact():
    with mpmath.workprec(200):
        v = to_mpc(F(1, 3))
        assert abs(v - mpmath.mpf(1) / 3) < mpf(2) ** -190


# -- the fixed-point kernels against the former mpmath loops ---------------------

with mpmath.workprec(300):
    TAU_300_NEG = mpc(-mpmath.sqrt(2) / 5, mpmath.sqrt(3) / 2)
    TAU_300_POS = mpc(mpmath.pi / 10, mpmath.e / 2)
TAU_53_NEG = mpc(-0.37, 1.71)
TAU_53_POS = mpc(0.21, 1.13)
TAU_53_LOW = mpc(-0.49, 0.87)

LATTICE_CASES = [
    # weight, level, tau, bound, character, prec
    (3, 1, TAU_53_NEG, 40, None, 128),
    (4, 1, TAU_53_POS, 1, None, 64),
    (4, 1, TAU_53_LOW, 30, None, 128),
    (5, 1, TAU_300_POS, 12, None, 128),
    (6, 2, TAU_300_NEG, 20, None, 256),
    (7, 3, TAU_53_NEG, 8, None, 96),
    (8, 5, TAU_53_POS, 40, None, 128),
    (9, 2, TAU_53_NEG, 16, None, 128),
    (10, 3, TAU_300_POS, 25, None, 256),
    (4, 5, TAU_300_NEG, 40, None, 200),
    (3, 2, TAU_53_NEG, 2, None, 64),
    (6, 1, TAU_300_NEG, 33, None, 300),
]


@pytest.mark.parametrize("weight, level, tau, bound, character, prec", LATTICE_CASES)
def test_lattice_kernel_matches_reference(monkeypatch, weight, level, tau, bound,
                                          character, prec):
    got = lattice_sum_eisenstein(weight, level, tau, bound, character, prec)
    # the kernel sums the lattice point tau rounds to at prec + 16 bits
    with mpmath.workprec(prec + 16):
        point = mpc(tau)
    want = lattice_sum_ref(weight, level, point, bound, prec + 64)
    with mpmath.workprec(prec + 64):
        diff = abs(got.value - want)
        assert diff <= mpf(2) ** -prec * max(1, abs(want))
        assert diff <= got.err
    # without the truncation tail, what is left is the proven rounding bound
    monkeypatch.setattr(numerics, "_lattice_tail_bound", lambda *a: (0, 0))
    rounding = lattice_sum_eisenstein(weight, level, tau, bound, character, prec)
    assert rounding.value == got.value
    with mpmath.workprec(prec + 64):
        assert diff <= rounding.err


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 12, 13, 24, 100])
def test_lattice_kernel_is_bit_identical_to_the_product_loop(k):
    # powering by squaring must give the very integers of the loop of k/2 - 1
    # products, so the proven rounding bound carries over unchanged; B runs
    # over a Latin square on (N, s), and X alternates in sign
    rng = random.Random(k)
    i = 0
    for j, N in enumerate((1, 2, 3, 5, 7)):
        for si, s in enumerate((0, 7, 55, 176)):
            B = (1, 2, 5, 32)[(si + j) % 4]
            X = (-1) ** i * rng.getrandbits(s + 1)
            Y = rng.getrandbits(s + 1) | 1 << s
            P = rng.randint(40, 200)
            i += 1
            # the reference's 49 products per term take seconds in this corner
            if (k, B, s) == (100, 32, 176):
                continue
            want = lattice_kernel_ref(k, N, B, X, Y, s, P)
            assert numerics._lattice_kernel(k, N, B, X, Y, s, P) == want, (N, B, s, X)


@pytest.mark.parametrize("weight, level, tau, bound, prec", [
    (12, 1, _GATE_TAUS[0], 32, _GATE_PREC),
    (6, 5, TAU_53_POS, 120, 256),
], ids=["12-1-tau0-32-160", "6-5-tau1-120-256"])
def test_lattice_sum_is_unchanged_by_the_kernel(monkeypatch, weight, level, tau, bound, prec):
    got = lattice_sum_eisenstein(weight, level, tau, bound, None, prec)
    monkeypatch.setattr(numerics, "_lattice_kernel", lattice_kernel_ref)
    want = lattice_sum_eisenstein(weight, level, tau, bound, None, prec)
    assert (got.value, got.err) == (want.value, want.err)


def _tail_points(B):
    """(X, Y, s) for tau = (X + iY)/2^s: a gate-like point, one with negative
    real part, tau = i, and one so far left that v = B - c|Re tau| < 1 in
    every row."""
    return ((27, 145, 7), (-47, 222, 7), (0, 1, 0), (-(B << 3) - 5, 9, 3))


@pytest.mark.parametrize("level", [1, 2, 3, 5])
@pytest.mark.parametrize("weight", range(3, 11))
def test_lattice_tail_bound_never_below_the_formula(weight, level):
    # the integer bound against the formula evaluated exactly (even weight)
    # or in mpmath at twice the working precision (odd weight); it may exceed
    # the formula only by its own rounding, a few units of 2^-W relative
    for i, B in enumerate((1, 2, 13, 224 if (weight + level) % 4 == 0 else 57)):
        W = (80, 144, 272)[(i + weight) % 3]
        for X, Y, s in _tail_points(B):
            t, e = numerics._lattice_tail_bound(weight, level, X, Y, s, B, W)
            got = F(t) * F(2) ** e
            if weight % 2 == 0:
                want = lattice_tail_formula(weight, level, F(X, 2**s), F(Y, 2**s), B)
                assert want <= got, (B, X, Y, s)
            else:
                with mpmath.workprec(2 * W):
                    w = lattice_tail_formula(weight, level, mpf(X) / 2**s, mpf(Y) / 2**s, B)
                    want = F(w.man) * F(2) ** w.exp
                assert want * (1 - F(1, 2 ** (2 * W - 16))) <= got, (B, X, Y, s)
            assert got <= want * (1 + F(1, 2 ** (W - 4))), (B, X, Y, s)


def _seeded_fractions(seed, n):
    rng = random.Random(seed)
    return [F(rng.randint(-10**6, 10**6), rng.randint(1, 999)) for _ in range(n)]


EVAL_CASES = [
    # series, e, tau, prec: the series' coefficients read as a series in
    # q^(1/e), evaluated as a series in q at tau / e
    ("E4", lambda: eisenstein_level1(4, 128), 1, TAU_53_NEG, 256),
    ("E6 at i", lambda: eisenstein_level1(6, 200), 1, mpc(0, 1), 192),
    ("Delta", lambda: delta_series(120), 1, TAU_300_NEG, 256),
    ("Delta low", lambda: delta_series(289), 1, TAU_53_LOW, 128),
    ("E4 level 3", lambda: eisenstein_prime_level(4, 3, 100), 1, TAU_300_POS, 300),
    ("E6 level 5", lambda: eisenstein_prime_level(6, 5, 128), 1, TAU_53_POS, 64),
    ("grid e=3", lambda: QSeries(_seeded_fractions(1, 121)), 3, TAU_53_NEG, 200),
    ("grid e=2 valuation 3", lambda: QSeries([0, 0, 0] + _seeded_fractions(2, 78)), 2,
     TAU_300_POS, 128),
    # a series given by its coefficient list alone
    ("coeffs only", lambda: QSeries([3, F(-1, 7), 0, 5, F(22, 9)] + _seeded_fractions(3, 60)),
     2, TAU_53_NEG, 128),
]


@pytest.mark.parametrize("name, build, e, tau, prec", EVAL_CASES,
                         ids=[c[0] for c in EVAL_CASES])
def test_eval_kernel_matches_reference(monkeypatch, name, build, e, tau, prec):
    f = build()
    coeffs = list(f.coeffs)
    # the kernel evaluates at the point tau / e rounds to at its working
    # precision; e times that point is exact at the reference's precision
    with mpmath.workprec(prec + 16 + (len(coeffs) + 1).bit_length()):
        point = mpc(tau) / e
    got = eval_qseries(f, point, prec)
    with mpmath.workprec(prec + 64):
        want = eval_qseries_ref(coeffs, e, point * e, prec + 64)
        q = abs(mpmath.expjpi(2 * point))
        scale = sum(abs(mpf(c.numerator) / c.denominator) * q**m
                    for m, c in enumerate(map(F, coeffs)))
        diff = abs(got.value - want)
        assert diff <= mpf(2) ** -prec * (1 + scale)
        assert diff <= got.err
    # without the fitted tail, what is left is the proven rounding bound
    monkeypatch.setattr(numerics, "_fitted_tail", lambda *a: (0, 0))
    rounding = eval_qseries(f, point, prec)
    assert rounding.value == got.value
    with mpmath.workprec(prec + 64):
        assert diff <= rounding.err


# -- e(tau) in integers against mpmath at twice the bits ---------------------------

def _exp_points():
    """The Eisenstein gate points, -1/(N tau) of the Fricke gate points for
    N in 2, 5, 47, 131, tau = i/131, and points with |Re tau| > 1/2."""
    from mtv.qexp import _FRICKE_GATE_TAUS

    pts = [(F(t.real), F(t.imag)) for t in _GATE_TAUS]
    for N in (2, 5, 47, 131):
        for t in _FRICKE_GATE_TAUS:
            x, y = F(t.real), F(t.imag)
            n2 = N * (x * x + y * y)
            pts.append((-x / n2, y / n2))
    return pts + [(F(0), F(1, 131)), (F(-7, 4), F(3, 5)), (F(23, 10), F(1, 7))]


@pytest.mark.parametrize("bits", [64, 160, 272, 1024, 4096])
def test_integer_e_of_tau_holds_its_proven_bound(bits):
    # the ball's radius holds the true q at every point, and at 2 units of
    # its last place is within a factor 4 of the largest error seen (the
    # midpoint is rounded to nearest, so that error is about half a unit)
    worst = 0
    for x, y in _exp_points():
        qx, qy, r, e = numerics._exp_ball(x, y, bits)
        assert max(abs(qx), abs(qy)).bit_length() == bits and r <= 2
        with mpmath.workprec(2 * bits):
            q = mpmath.expjpi(2 * mpc(mpf(x.numerator) / x.denominator,
                                      mpf(y.numerator) / y.denominator))
            seen = abs(mpc(mpf(qx), mpf(qy)) - q * mpf(2) ** -e)
        assert seen <= r, (x, y)
        worst = max(worst, seen)
    assert r <= 4 * worst
