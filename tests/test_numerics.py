import operator
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mpc, mpf

import mtv.numerics as numerics
from mtv.errors import InputError, UnsupportedScopeError
from mtv.numerics import (
    BigComplex,
    eval_qseries,
    lattice_sum_eisenstein,
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
from mtv.rational import format_decimal
from mtv.spaces import delta_series

from _oracles import (
    eval_qseries_ref,
    lattice_kernel_ref,
    lattice_sum_ref,
    lattice_tail_formula,
    mp_err,
    mp_value,
)

F = Fraction


def test_bigcomplex_error_propagation():
    # 1 + i and 2 - i with radii 2^-33 and 2^-40, midpoints at 2^-60
    a = BigComplex(1 << 60, 1 << 60, 1 << 27, -60)
    b = BigComplex(2 << 60, -1 << 60, 1 << 20, -60)
    s = a + b
    assert s.err >= a.err + b.err
    p = a * b
    # |a||db| + |b||da| lower-bounds the product error, and |b| > 2
    assert (p.real, p.imag) == (3, 1)
    assert p.err >= 2 * a.err
    assert (-a + a).real == 0 and (-a + a).imag == 0
    assert a.distance(a) == 0
    assert (a - 1).real == 0 and (2 * a).imag == 2
    q = (a * b) / b
    assert q.distance(a) <= q.err
    d = a.serialize(digits=10)
    assert set(d) == {"re", "im", "err"}


# -- ball arithmetic against mpmath at four times the bits ------------------------

# a ball: a Gaussian-integer midpoint over 2^-e and a radius, at up to 200 bits
_BALLS = st.builds(BigComplex, st.integers(-2**200, 2**200), st.integers(-2**200, 2**200),
                   st.integers(0, 2**40), st.integers(-260, 20))
# a point of the disc: the midpoint plus t r (3 + 4i)/5 turned by i^s, |(3 + 4i)/5| = 1
_SPOTS = st.tuples(st.fractions(0, 1, max_denominator=97), st.integers(0, 3))


def _mp(v):
    return mpf(v.numerator) / v.denominator


def _spot(ball, spot):
    # shrunk by 2^-200 so that the rounding of 3/5 and 4/5 keeps it inside
    t, s = spot
    turn = mpc(mpf(3) / 5, mpf(4) / 5) * mpc(0, 1) ** s * (1 - mpf(2) ** -200)
    return mpc(_mp(ball.real), _mp(ball.imag)) + _mp(t * ball.err) * turn


def _holds(ball, z):
    return abs(mpc(_mp(ball.real), _mp(ball.imag)) - z) <= _mp(ball.err)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@settings(max_examples=300, deadline=None)
@given(_BALLS, _BALLS, _SPOTS, _SPOTS, st.sampled_from(sorted(_OPS)))
def test_ball_operations_hold_the_exact_result(a, b, sa, sb, op):
    with mpmath.workprec(4 * 260 + 64):
        za, zb = _spot(a, sa), _spot(b, sb)
        if op == "/":
            assume(abs(mpc(_mp(b.real), _mp(b.imag))) > 2 * _mp(b.err))
        assert _holds(_OPS[op](a, b), _OPS[op](za, zb))
        # and with a rational operand on the left, a point
        c = F(a.x % 1000 + 1, 7)
        assert _holds(_OPS[op](c, b), _OPS[op](_mp(c), zb))


@settings(max_examples=300, deadline=None)
@given(_BALLS, st.integers(1, 200))
@example(BigComplex(1 << 60, 0, 1, 0), 53)
def test_ball_round_widens_by_the_midpoint_move_only(a, bits):
    # rounding each part to nearest moves the midpoint by at most sqrt(2)/2
    # of a unit of the new exponent: the radius grows by less than 0.711 of
    # that unit before rounding up, and the rounded ball holds the input ball
    x, y, r, e = numerics._ball_round(a.x, a.y, a.r, a.e, bits)
    s = e - a.e
    if s <= 0:
        assert (x, y, r, e) == (a.x, a.y, a.r, a.e)
        return
    assert max(abs(x), abs(y)).bit_length() <= bits + 1
    assert r <= -(-(a.r + F(711, 1000) * 2**s) // 2**s)
    room = (r << s) - a.r
    assert room >= 0 and ((x << s) - a.x) ** 2 + ((y << s) - a.y) ** 2 <= room * room


@settings(max_examples=200, deadline=None)
@given(_BALLS, _SPOTS, st.sampled_from([2, 4, 6]))
def test_ball_root_holds_the_root_on_its_branch(a, spot, k):
    with mpmath.workprec(4 * 260 + 64):
        mid = mpc(_mp(a.real), _mp(a.imag))
        assume(abs(mid) > 2 * _mp(a.err))
        root = BigComplex(*numerics._ball_root((a.x, a.y, a.r, a.e), k, 200))
        w = mpc(_mp(root.real), _mp(root.imag))
        # the midpoint's principal root
        assert abs(w - mid ** (mpf(1) / k)) <= _mp(root.err)
        z = _spot(a, spot)
        principal = z ** (mpf(1) / k)
        nearest = min((principal * mpmath.expjpi(mpf(2 * j) / k) for j in range(k)),
                      key=lambda r: abs(r - w))
        assert _holds(root, nearest)


@settings(max_examples=300, deadline=None)
@given(_BALLS, st.sampled_from([3, 8, 12, 30]))
def test_formatter_is_nstr_and_parses_back_within_err(a, digits):
    exact = BigComplex(a.x, a.y, 0, a.e)
    with mpmath.workprec(260):
        # at no error it prints what mpmath's nstr prints
        assert exact.text(digits) == mpmath.nstr(mpc(_mp(a.real), _mp(a.imag)), digits)
    # otherwise each part within err of its text, unless `digits` cut it first
    d = a.serialize(digits)
    assert F(d["err"]) >= a.err
    for text, v in ((d["re"], a.real), (d["im"], a.imag)):
        assert abs(F(text) - v) <= max(a.err, abs(v) / 10 ** (digits - 1))
    assert format_decimal(F(0), digits) == "0.0"


def test_eval_geometric_series_certified():
    T = 120
    f = QSeries([F(1)] * (T + 1), trunc=T, weight=None, level=1)
    with mpmath.workprec(150):
        tau = mpc("0.1", "0.9")
        got = eval_qseries(f, tau, 128)
        q = mpmath.exp(2j * mpmath.pi * tau)
        want = 1 / (1 - q)
        assert abs(mp_value(got) - want) <= mp_err(got) + mpf(2) ** -120


def test_eval_honesty_by_doubling_order():
    d1 = delta_series(40)
    d2 = delta_series(80)
    with mpmath.workprec(170):
        tau = mpc("0.3", "0.8")
        v1 = eval_qseries(d1, tau, 160)
        v2 = eval_qseries(d2, tau, 160)
        assert abs(mp_value(v1) - mp_value(v2)) <= mp_err(v1) + mp_err(v2)


def test_eval_e6_vanishes_at_i():
    e6 = eisenstein_level1(6, 200)
    v = eval_qseries(e6, mpc(0, 1), 192)
    with mpmath.workprec(220):
        assert abs(mp_value(v)) <= mp_err(v) + mpf(2) ** -150


def test_eval_large_weight_gate_series_is_finite():
    # the level-2 Eisenstein gate series at weight 274 (order 64): its
    # rounding sum outgrows a float, and must still give a finite bound, at
    # a decimal point and at the gate's own points
    ser = _eisenstein_prime_level_raw(274, 2, _GATE_ORDER)
    with mpmath.workprec(_GATE_PREC):
        for tau in (mpc("0.21", "1.13"), *_GATE_TAUS):
            r = eval_qseries(ser, tau, _GATE_PREC)
            assert mpmath.isfinite(mp_value(r)) and mpmath.isfinite(mp_err(r))
            assert abs(mp_value(r) - 1) < mpf(10) ** -90 and 0 < r.err < F(1, 10**40)


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
        diff = abs(mp_value(got) - want)
        assert diff <= mpf(2) ** -prec * max(1, abs(want))
        assert diff <= mp_err(got)
    # without the truncation tail, what is left is the proven rounding bound
    monkeypatch.setattr(numerics, "_lattice_tail_bound", lambda *a: (0, 0))
    rounding = lattice_sum_eisenstein(weight, level, tau, bound, character, prec)
    assert (rounding.x, rounding.y, rounding.e) == (got.x, got.y, got.e)
    with mpmath.workprec(prec + 64):
        assert diff <= mp_err(rounding)


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
    assert (got.x, got.y, got.r, got.e) == (want.x, want.y, want.r, want.e)


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
        diff = abs(mp_value(got) - want)
        assert diff <= mpf(2) ** -prec * (1 + scale)
        assert diff <= mp_err(got)
    # without the fitted tail, what is left is the proven rounding bound
    monkeypatch.setattr(numerics, "_fitted_tail", lambda *a: (0, 0))
    rounding = eval_qseries(f, point, prec)
    assert (rounding.x, rounding.y, rounding.e) == (got.x, got.y, got.e)
    with mpmath.workprec(prec + 64):
        assert diff <= mp_err(rounding)


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
