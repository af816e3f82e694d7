"""Arbitrary-precision numeric layer, in integers.

Every value here is a ball: a Gaussian-integer midpoint (x + iy) 2^e and an
integer radius r 2^e that contains the true value, each rounding of the
midpoint widening the radius by what the rounding can lose (in the spirit of
Johansson's Arb).  q = e(tau) comes from integer pi, exp, cos and sin with
a proven error (_exp_ball), so eval_qseries' radius is proven for the
Horner rounding, the error of q and the final scalings.  To that it adds a
tail for the coefficients past the truncation: proven when the caller knows
a bound |c_m| <= C m^alpha on them (the Eisenstein rows and their Fricke
images have one), and otherwise a fitted majorant, a heuristic, since those
coefficients are unknown to it.  The coset sum of lattice_sum_eisenstein
reports its truncation tail plus its rounding, both proven.

The one-time gates of qexp and trace compare these balls in integers, so
newforms, theorem and phi (with or without --curve) never load mpmath.  It
is imported only where a value leaves the integers: BigComplex, the value
type that eval_qseries and lattice_sum_eisenstein return, holds mpmath
numbers, and the elliptic layer computes the curve's period lattice in
mpmath, trusted there and certified after the fact by three series
evaluations; so corollary, oracle and specialize load it.  All
load-bearing identities elsewhere in the package, factorization included,
are exact; this layer only cross-checks them.
"""

import math
from fractions import Fraction

from .errors import InputError, UnsupportedScopeError, require_within
from .polynomial import _power
from .rational import exact_fraction

DEFAULT_PREC_BITS = 256
MIN_PREC_BITS = 64
# cap on the working precision of a request.  specialize --curve=1,2 takes
# about 1.2 s at 2048 bits, 4.6 s at 4096 and 34 s at 8192 on a 2-vCPU VM
# with CPython 3.11 (corollary: 5.9 s and 29 s); the time grows about
# sevenfold per doubling, so the cap is 4096.
MAX_PREC_BITS = 4096


def check_prec(prec_bits, cap=MAX_PREC_BITS):
    """The working precision in bits, DEFAULT_PREC_BITS for None: refused
    below MIN_PREC_BITS as malformed, and above cap, before any work."""
    p = DEFAULT_PREC_BITS if prec_bits is None else int(prec_bits)
    if p < MIN_PREC_BITS:
        raise InputError("precision of %d bits is below the floor of %d" % (p, MIN_PREC_BITS))
    require_within(p, cap, "the precision in bits")
    return p


def to_mpf(x):
    """Fraction/int to mpf at the ambient precision."""
    import mpmath

    if isinstance(x, Fraction):
        if x.denominator == 1:
            return mpmath.mpf(x.numerator)
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def to_mpc(x):
    import mpmath

    if isinstance(x, BigComplex):
        return x.value
    if isinstance(x, Fraction):
        return mpmath.mpc(to_mpf(x))
    return mpmath.mpc(x)


class BigComplex:
    """Complex value (an mpmath mpc) plus an absolute error bound: proven as
    eval_qseries and lattice_sum_eisenstein attach it, except eval_qseries'
    fitted tail past the truncation (see the module docstring), and carried
    through + and *."""

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        import mpmath

        self.value = to_mpc(value)
        self.err = abs(mpmath.mpf(err))

    def __repr__(self):
        import mpmath

        return "BigComplex(%s, err=%s)" % (mpmath.nstr(self.value, 17), mpmath.nstr(self.err, 3))

    def _coerce(self, other):
        if isinstance(other, BigComplex):
            return other
        return BigComplex(other, 0)

    def __add__(self, other):
        other = self._coerce(other)
        return BigComplex(self.value + other.value, self.err + other.err)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return BigComplex(self.value - other.value, self.err + other.err)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        e = abs(self.value) * other.err + abs(other.value) * self.err + self.err * other.err
        return BigComplex(self.value * other.value, e)

    __rmul__ = __mul__

    def __neg__(self):
        return BigComplex(-self.value, self.err)

    def __abs__(self):
        return abs(self.value)

    def distance(self, other):
        return abs(self.value - to_mpc(other))

    def serialize(self, digits=30):
        import mpmath

        return {
            "re": mpmath.nstr(self.value.real, digits),
            "im": mpmath.nstr(self.value.imag, digits),
            "err": mpmath.nstr(self.err, 3),
        }


def _point(tau):
    """(Re tau, Im tau) as exact Fractions.  tau is a pair of rationals, or
    a number: an mpc or mpf is dyadic, read from its mantissa and exponent."""
    if isinstance(tau, BigComplex):
        tau = tau.value
    if isinstance(tau, tuple):
        re, im = tau
    elif isinstance(tau, complex) or hasattr(tau, "_mpc_"):
        re, im = tau.real, tau.imag
    else:
        re, im = tau, 0
    try:
        return exact_fraction(re), exact_fraction(im)
    except (InputError, ValueError, OverflowError) as exc:
        raise InputError("tau must lie in the upper half-plane") from exc


def _round_bits(x, bits):
    """The Fraction x rounded to `bits` significant bits, to nearest with
    ties to even, as mpmath rounds a number to a working precision."""
    p, d = abs(x.numerator), x.denominator
    if not p:
        return x
    e = p.bit_length() - d.bit_length() - bits
    for e in (e, e + 1):
        n, r = divmod(p << -e, d) if e < 0 else divmod(p, d << e)
        if n.bit_length() <= bits:
            break
    den = d if e < 0 else d << e
    if 2 * r > den or (2 * r == den and n & 1):
        n += 1
    v = Fraction(n, 1 << -e) if e < 0 else Fraction(n << e)
    return v if x > 0 else -v


# -- balls: an integer midpoint and radius ------------------------------------
#
# A ball (x, y, r, e) is the disc of radius r 2^e about (x + iy) 2^e, all four
# integers and r >= 0.  Each operation returns a ball that holds every result
# of the exact operation on points of its inputs.


def _abs_up(x, y):
    """An integer >= |x + iy|: its ceiling when x and y are below 2^64, else
    within about 2^-60 of it relatively (the floors of the shift cost under
    sqrt(2) units of 2^t).  The root of the full squares would be exact, but
    made e(tau) about twice as slow at 200 and at 4,000 bits."""
    t = max(0, max(abs(x), abs(y)).bit_length() - 64)
    n = (abs(x) >> t) ** 2 + (abs(y) >> t) ** 2
    s = math.isqrt(n)
    return (s + (s * s < n) + (2 if t else 0)) << t


def _abs_down(x, y):
    """An integer <= |x + iy|."""
    t = max(0, max(abs(x), abs(y)).bit_length() - 64)
    return math.isqrt((abs(x) >> t) ** 2 + (abs(y) >> t) ** 2) << t


def _ball_round(x, y, r, e, bits):
    """The ball with its midpoint rounded to nearest at `bits` bits: each
    component moves at most half a unit of the new exponent, under 1
    together, so a part far below the other rounds to 0, not to -1."""
    s = max(abs(x), abs(y)).bit_length() - bits
    if s <= 0:
        return x, y, r, e
    h = 1 << (s - 1)
    return (x + h) >> s, (y + h) >> s, -(-r >> s) + 1, e + s


def _ball_mul(a, b, bits):
    """a b, rounded to `bits` bits: |a b - a' b'| <= |a'| rb + |b'| ra + ra rb."""
    ax, ay, ar, ae = a
    bx, by, br, be = b
    if a is b:
        x, y = (ax + ay) * (ax - ay), 2 * ax * ay
        r = (2 * _abs_up(ax, ay) + ar) * ar
    else:
        x, y = ax * bx - ay * by, ax * by + ay * bx
        r = _abs_up(ax, ay) * br + (_abs_up(bx, by) + br) * ar
    return _ball_round(x, y, r, ae + be, bits)


def _ball_scale(a, nx, ny, d, bits):
    """a (nx + i ny) / d for integers nx, ny and d > 0, rounded to `bits` bits."""
    ax, ay, ar, ae = a
    x, y = ax * nx - ay * ny, ax * ny + ay * nx
    r = ar * _abs_up(nx, ny)
    if d == 1:
        return _ball_round(x, y, r, ae, bits)
    # shifted so the quotient, rounded to nearest, keeps at least `bits` bits
    t = max(0, bits + d.bit_length() + 1 - max(abs(x), abs(y)).bit_length())
    x, y, d2 = (x << t + 1) + d, (y << t + 1) + d, 2 * d
    return _ball_round(x // d2, y // d2, -(-(r << t) // d) + 1, ae - t, bits)


def _ball_widen(a, t, te):
    """a with t 2^te added to its radius, rounded up to a unit of a's exponent."""
    x, y, r, e = a
    s = te - e
    return x, y, r + (t << s if s >= 0 else -(-t >> -s)), e


def _balls_meet(a, b, rel=None):
    """True when the discs a and b meet, their radii first widened by
    2^-rel (|a| + |b|) when rel is given (by a lower bound of it)."""
    ax, ay, ar, ae = a
    bx, by, br, be = b
    e = min(ae, be)
    ax, ay, ar = ax << (ae - e), ay << (ae - e), ar << (ae - e)
    bx, by, br = bx << (be - e), by << (be - e), br << (be - e)
    tol = ar + br
    if rel is not None:
        tol += (_abs_down(ax, ay) + _abs_down(bx, by)) >> rel
    dx, dy = ax - bx, ay - by
    return dx * dx + dy * dy <= tol * tol


def _to_big(ball, bits):
    """The ball as a BigComplex: its midpoint rounded to nearest at `bits`
    bits a component, the radius widened by that rounding and rounded up."""
    import mpmath

    x, y, r, e = ball
    with mpmath.workprec(bits):
        value = mpmath.mpc(mpmath.mpf((x, e)), mpmath.mpf((y, e)))
    big = BigComplex.__new__(BigComplex)
    big.value = value
    big.err = mpmath.mpf((r + ((abs(x) + abs(y)) >> bits) + 1, e), prec=53, rounding="u")
    return big


# -- e(tau) in integers -------------------------------------------------------

_PI = {}  # "fixed": (G, pi 2^G within 2 units), at the most bits asked for so far


def _atan_inv(n, G):
    """atan(1/n) 2^G within G + 4 units, for an integer n >= 5.

    The series sum (-1)^k / ((2k + 1) n^(2k+1)), each power and term
    floored: a power is within 1 + 1/24 units (a floor, plus the error
    before it over n^2 >= 25), a term within 2.05, there are at most G/4 + 1
    terms, and the series past the last nonzero power is below 1.05.
    """
    p, n2, total, k = (1 << G) // n, n * n, 0, 0
    while p:
        term = p // (2 * k + 1)
        total += -term if k & 1 else term
        p //= n2
        k += 1
    return total


def _pi_fixed(G):
    """pi 2^G within 2 units, by Machin's 16 atan(1/5) - 4 atan(1/239) at g
    guard bits: its 20 (G + g + 4) units of error shift below 1."""
    bits, value = _PI.get("fixed", (0, 0))
    if bits < G:
        g = G.bit_length() + 6
        bits, value = G, (16 * _atan_inv(5, G + g) - 4 * _atan_inv(239, G + g)) >> g
        _PI["fixed"] = bits, value
    return value >> (bits - G)


def _exp_ball(x, y, G):
    """q = e(x + iy) = exp(2 pi i (x + iy)) for rationals x and y > 0, as a
    ball with a G-bit midpoint (R. Brent and P. Zimmermann, Modern Computer
    Arithmetic, ch. 4).

    z = 2 pi i (x + iy), with x reduced to |x| <= 1/2, lies below 2^b.  It
    is halved k = b + m times, m = isqrt(G), and held as the Gaussian
    integer Z ~ z 2^(F-k); exp(z 2^-k) is summed by Taylor's series, each
    term the one before times Z / n, and k squarings of that ball then give
    exp(z).

    Error of the series in units of 2^-F: Z is within 2 (pi within 2 units
    at c guard bits, then one floor), which moves exp(Z 2^-F) by under 2.2.
    A term's two floors cost under sqrt(2) (1/n + 1), the first term's
    under sqrt(2), and the error of the term before shrinks by
    |Z| 2^-F / n < 2^-m / n, so every term is within 2.2 of the exact term
    at Z.  The terms past the N summed (N chosen so that
    |z 2^-k|^N / N! < 2^-(F+1)) are under 1.  So the sum is within 3N.  The
    squarings double the relative error, and F keeps bitlen(G) + 8 bits
    beyond them, so the result rounded to G bits has a radius of about 2
    units.
    """
    x -= math.floor(x + Fraction(1, 2))
    b = (4 + 8 * math.ceil(y)).bit_length()  # |z| <= 2 pi (1/2 + y) < 2^b
    m = math.isqrt(G)
    k = b + m
    F = G + k + G.bit_length() + 8
    # Z = 2 pi (-y + ix) 2^(F-k) from pi at F - k + c + 1 bits: within
    # 2 y 2^-c <= 1/4 before the floors
    c = math.ceil(y).bit_length() + 3
    pi = _pi_fixed(F - k + c + 1)
    zr = -(((pi * y.numerator) >> c) // y.denominator)
    zi = ((pi * x.numerator) >> c) // x.denominator
    N, fact = 1, 1
    while m * N + fact.bit_length() <= F + 1:
        N += 1
        fact *= N
    sr = ar = 1 << F
    si = ai = 0
    for n in range(1, N):
        ar, ai = ((ar * zr - ai * zi) >> F) // n, ((ar * zi + ai * zr) >> F) // n
        sr += ar
        si += ai
    ball = (sr, si, 3 * N, -F)
    for _ in range(k):
        ball = _ball_mul(ball, ball, F)
    return _ball_round(*ball, G)


# -- q-series ---------------------------------------------------------------------


def _upper_sum(vals, rho64):
    """An integer >= sum_j vals[j] (rho64 / 2^64)^j, for nonnegative ints vals."""
    acc = 0
    for x in reversed(vals):
        acc = -((-acc * rho64) >> 64) + x
    return acc


def _exp_up(L):
    """(t, e) with t 2^e >= e^L for a float L, t below 2^54: exact but for a
    relative 2^-40 of slack, which covers the rounding of the floats."""
    b = L / math.log(2)
    b += 2**-40 * (1 + abs(b))
    n = math.floor(b)
    return math.ceil(math.ldexp(2.0 ** (b - n), 52)) + 1, n - 52


def _fitted_tail(num, den, ln_r):
    """Heuristic tail majorant for the coefficients past the truncation,
    as (t, e), the bound t 2^e.

    Fits |c_m| <= C (m + 1)^alpha on the computed range (alpha from m >= 2)
    and sums that majorant past M: 4 C (M + 2)^alpha r^(M+1) / (1 - rho) with
    rho = r (1 + 1/(M + 2))^alpha.  Not a proof: the coefficients past M are
    unknown.  The logarithms are floats of the exact integers; alpha and the
    final exponent are rounded up, and the tail grows with alpha, so the
    float arithmetic never gives less than the fit computed exactly.
    """
    M = len(num) - 1
    lden = math.log(den)
    logs = [(m, math.log(abs(c)) - lden) for m, c in enumerate(num) if c]
    alpha = max([lc / math.log(m + 1) for m, lc in logs if m >= 2] + [0.0])
    alpha += 2**-40 * (1 + alpha)
    ln_c = max([lc - alpha * math.log(m + 1) for m, lc in logs], default=0.0)
    rho = math.exp(ln_r + alpha * math.log1p(1 / (M + 2))) * (1 + 2**-40)
    if rho >= 63 / 64:
        raise InputError(
            "Im(tau) too small for the truncation order; evaluate with a larger series order"
        )
    parts = (math.log(4), ln_c, alpha * math.log(M + 2), (M + 1) * ln_r,
             -math.log1p(-rho))
    slack = 2**-40 * (1 + sum(map(abs, parts)) + max([abs(lc) for _, lc in logs], default=0))
    return _exp_up(math.fsum(parts) + slack)


def _proven_tail(coeff_bound, M, ln_r):
    """An upper bound for sum_(m > M) C m^alpha r^m, r = e^ln_r < 1, given
    coeff_bound = (C, alpha) with C a positive Fraction and alpha >= 1, as
    (t, e), the bound t 2^e.

    Past M each term is at most rho = r (1 + 1/(M + 1))^alpha times the one
    before, so when rho < 1 the sum is at most C (M + 1)^alpha r^(M + 1) /
    (1 - rho).  In any case x^alpha e^(-lambda x), lambda = -ln r, is
    unimodal: every term but the at most two next to the peak lies under
    the integral over the unit interval on the peak's side of it, and those
    two are at most the peak value, so the sum is at most C (alpha! /
    lambda^(alpha+1) + 2 (alpha/lambda)^alpha e^(-alpha)).  The smaller
    bound is taken.  The logarithms are floats of exact integers and of
    ln_r; ln rho is raised before use (-ln(1 - rho) grows with it) and the
    result by a slack that covers the rounding of the other terms.
    """
    C, alpha = coeff_bound
    lam = -ln_r
    whole = math.log(math.factorial(alpha)) - (alpha + 1) * math.log(lam)
    peak = alpha * (math.log(alpha / lam) - 1) + math.log(2)
    parts = [math.log(C.numerator), -math.log(C.denominator), math.log(2), max(whole, peak)]
    grow = alpha * math.log1p(1 / (M + 1))
    ln_rho = grow + ln_r + 2**-40 * (1 + grow + lam)
    if ln_rho < 0:
        geometric = parts[:2] + [alpha * math.log(M + 1), (M + 1) * ln_r,
                                 -math.log(-math.expm1(ln_rho))]
        parts = min(parts, geometric, key=math.fsum)
    slack = 2**-40 * (1 + sum(map(abs, parts)))
    return _exp_up(math.fsum(parts) + slack)


def _qseries_ball(f, tau, prec, coeff_bound=None):
    """(ball, W): the QSeries f at tau as a ball with a W-bit midpoint,
    W = prec + 16 + bitlen(M + 2) for the truncation M; see eval_qseries.

    q is a ball at W + 8 bits, floored to the Gaussian integer Q = (qx, qy)
    in units of 2^-P, |Q 2^-P - q| <= D 2^-P, where P = W + log2(1/|q|)
    keeps the W-bit relative accuracy of q (at most 2W: a smaller q moves
    the sum by less than its rounding).  Horner's rule starts at the first
    nonzero numerator num[v], so the integer numerators keep the partial
    sums >= 1 in size; each step floors one complex product, an error below
    sqrt(2) units of 2^-P that later steps multiply by |Q| 2^-P, and the
    sum at Q differs from the sum at q by at most D 2^-P times
    sum_j j |num[v+j]| rho^(j-1).  The sum is then multiplied by the ball
    q^v, divided by the denominator and widened by the tail.
    """
    x, y = _point(tau)
    if y <= 0:
        raise InputError("tau must lie in the upper half-plane")
    num, den = f._num, f._den
    M = len(num) - 1
    W = prec + 16 + (M + 2).bit_length()
    B = W + 8
    q = _exp_ball(x, y, B)
    qx, qy, qr, qe = q
    P = W + min(W, max(0, -(max(abs(qx), abs(qy)).bit_length() + qe)))
    s = qe + P
    if s >= 0:
        Qx, Qy, D = qx << s, qy << s, qr << s
    else:
        Qx, Qy, D = qx >> -s, qy >> -s, -(-qr >> -s) + 2
    v = next((m for m, c in enumerate(num) if c), M + 1)
    ax = ay = 0
    for m in range(M, v - 1, -1):
        ax, ay = ((ax * Qx - ay * Qy) >> P) + (num[m] << P), (ax * Qy + ay * Qx) >> P
    # rho bounds |q| and |Q| 2^-P, in units of 2^-64
    rho64 = ((math.isqrt(Qx * Qx + Qy * Qy) + 1 + D) >> (P - 64)) + 1
    horner = _upper_sum([1] * (M + 1 - v), rho64)
    dq = _upper_sum([j * abs(c) for j, c in enumerate(num[v:])][1:], rho64)
    ball = (ax, ay, math.isqrt(2 * horner * horner) + 1 + D * dq, -P)
    if v:
        ball = _ball_mul(ball, _power(q, v, lambda a, b: _ball_mul(a, b, B)), B)
    ball = _ball_scale(ball, 1, 0, den, B)
    ln_r = -2 * math.pi * float(min(y, 2**20))
    if coeff_bound is None:
        tail = _fitted_tail(num, den, ln_r)
    else:
        tail = _proven_tail(coeff_bound, M, ln_r)
    return _ball_widen(ball, *tail), W


def eval_qseries(f, tau, prec_bits=None, coeff_bound=None):
    """Evaluate a QSeries, a series over Q, at tau in the upper half-plane.

    The sum runs over the series' integer numerators, q = e(tau), with tau
    taken exactly (an mpc is dyadic).  The error is the proven bound on the
    integer evaluation and on the error of q (see _qseries_ball and
    _exp_ball), plus a tail for the coefficients past the truncation:
    proven by _proven_tail when coeff_bound = (C, alpha) bounds them,
    |c_m| <= C m^alpha for every m past the truncation, and otherwise the
    fitted majorant of _fitted_tail, a heuristic.
    """
    return _to_big(*_qseries_ball(f, tau, check_prec(prec_bits, math.inf), coeff_bound))


def _lattice_tail_bound(lam, N, X, Y, s, B, W):
    """Upper bound for the truncated coset-sum defect at tau = (X + iY)/2^s,
    via integral comparison, as (t, e), the bound t 2^e.

    Coprimality can only remove terms, so bounding the unrestricted
    absolute tail is valid.  O(B^(2-lam)) in the bound B.  Row c has a = A/t
    and v = V/t, t = 2^s, so each term is a quotient of integers, rounded up
    to a multiple of 2^-F (W bits below the c-tail); isqrt bounds an odd
    power of sqrt(v^2 + a^2).  The result is never below the exact formula.
    """
    t, X, (half, odd) = 1 << s, abs(X), divmod(lam, 2)
    num, den = 3 * t ** (lam - 1), (lam - 2) * (N * Y) ** (lam - 1) * B ** (lam - 2)
    F = W + B.bit_length() + 2 + max(0, den.bit_length() - num.bit_length())
    terms, two_tl = [(num, den)], 2 * t ** (lam - 1)  # each term is n/d
    for c in range(N, B * N + 1, N):
        A, V = c * Y, B * t - c * X
        if V >= t:
            # |c tau + d| >= max(t, a) with t the distance to the window edge
            C, k = (V, 1) if V >= A else (A, lam)
            S = V * V + A * A  # 2 (v^2 + a^2)^(-lam/2) = 2 t^lam / S^(lam/2)
            root = math.isqrt(S << 2 * F) if odd else 1 << F
            terms += [(k * two_tl, (lam - 1) * C ** (lam - 1)),
                      (two_tl * t << F, S ** half * root)]
        else:
            # 2 (2 a^(1-lam) + a^(-lam)) = 2 t^(lam-1) (2A + t) / A^lam
            terms.append((two_tl * (2 * A + t), A ** lam))
    return sum(-((-n << F) // d) for n, d in terms), -F


def _lattice_kernel(k, N, B, X, Y, s, P):
    """Fixed-point coset sum for tau = (X + iY)/2^s, in units of 2^-P.

    With W = (cX + d 2^s) + i cY, a Gaussian integer, the term is
    (c tau + d)^-k = 2^(ks) conj(W)^k / |W|^(2k); conj(W)^k is exact, and
    each component is floored by one integer division, an error below 1
    unit.  Returns (re, im, number of terms), the c = 0 term 1 included.
    """
    half, odd = divmod(k, 2)
    # the bits of k // 2 below its leading one, for left-to-right powering
    steps = bin(half)[3:]
    shift = P + k * s
    row_d = [(d, d << s) for d in range(-B, B + 1)]
    sx, sy, n = 1 << P, 0, 1
    for c in range(N, B * N + 1, N):
        cx = c * X
        b = c * Y
        b2 = b * b
        row = [cx + d2s for d, d2s in row_d if math.gcd(c, d) == 1]
        n += len(row)
        rx = ry = 0
        for a in row:
            a2 = a * a
            # conj(W)^2, raised to k // 2 by squaring, times conj(W) when k is odd
            ux, uy = a2 - b2, -2 * a * b
            vx, vy = ux, uy
            for bit in steps:
                vx, vy = (vx + vy) * (vx - vy), 2 * vx * vy
                if bit == "1":
                    vx, vy = vx * ux - vy * uy, vx * uy + vy * ux
            if odd:
                vx, vy = vx * a + vy * b, vy * a - vx * b
            den = (a2 + b2) ** k
            rx += (vx << shift) // den
            ry += (vy << shift) // den
        sx += rx
        sy += ry
    return sx, sy, n


# cap on the work of one coset sum: its (2B + 1) B terms at bound B, each
# weighted by n^1.58, where n = weight * log2 max|W| + P is about the bit
# size of the integers a term of _lattice_kernel powers and divides (W =
# (c tau + d) 2^s, P the fixed-point precision) and 1.58 is Karatsuba's
# exponent.  On a 2-vCPU VM with CPython 3.11 a unit took 2.3e-11 to 8e-11 s:
# weight 4 at 256 bits and tau = 0.1 + 1.2i took 1.2 s at bound 400 (2.9e10
# units) and 4.1 s at 800 (1.2e11), weight 274 0.3 s at bound 10 (1.0e10)
# and 1.5 s at 20 (4.0e10), weight 4 at 4096 bits 1.4 s at bound 40 (2.1e10)
# and criterion 1's sum (weight 6, level 5, bound 400) 0.8 s (9.9e9).  The
# cap keeps a sum near 10 s: B <= 1277 at weight 4 and 55 at weight 274.
MAX_LATTICE_WORK = 3 * 10**11


def lattice_sum_eisenstein(weight, level, tau, bound, character=None, prec_bits=None):
    """Truncated coset sum 1 + sum (c tau + d)^(-weight) over the
    Gamma_infinity orbit representatives with 0 < c <= bound*level, level | c,
    |d| <= bound, gcd(c, d) = 1.

    The numeric oracle for the exact Eisenstein constructors.  character
    must be None, the trivial character; any other value raises
    UnsupportedScopeError.  tau is rounded to a dyadic point at prec + 16
    bits, as mpmath would round it, and summed exactly in fixed point
    (_lattice_kernel).  The attached error is proven: the explicit
    truncation bound, plus sqrt(2) 2^-P per term for the floors, plus the
    final rounding to prec + 16 bits.
    """
    return _to_big(*_coset_sum_request(weight, level, tau, bound, character, prec_bits)())


def _coset_sum_request(weight, level, tau, bound, character, prec_bits):
    """Every check of lattice_sum_eisenstein, its work cap included, before
    any sum; returns the sum as a call with no arguments, which gives
    (ball, W) with W = prec + 16 the bits of the reported value."""
    lam = int(weight)
    N = int(level)
    B = int(bound)
    if lam < 3:
        raise InputError("lattice sum needs weight >= 3 for absolute convergence")
    if N < 1 or B < 1:
        raise InputError("level and bound must be positive")
    if character is not None:
        raise UnsupportedScopeError("the coset sum supports the trivial character only")
    prec = check_prec(prec_bits)
    W = prec + 16
    x, y = (_round_bits(v, W) for v in _point(tau))
    if y <= 0:
        raise InputError("tau must lie in the upper half-plane")
    # the smallest s with x 2^s and y 2^s integers: both are dyadic now
    s = max(x.denominator.bit_length(), y.denominator.bit_length()) - 1
    X, Y = int(x * 2**s), int(y * 2**s)
    P = W + ((2 * B + 1) * B + 1).bit_length() + 2
    n = lam * (B * N * (abs(X) + Y) + (B << s)).bit_length() + P
    require_within((2 * B + 1) * B * n**1.58, MAX_LATTICE_WORK,
                   "the work of the coset sum at weight %d and bound %d", lam, B)

    def coset_sum():
        sx, sy, nterms = _lattice_kernel(lam, N, B, X, Y, s, P)
        ball = (sx, sy, math.isqrt(2 * nterms * nterms) + 1, -P)
        return _ball_widen(ball, *_lattice_tail_bound(lam, N, X, Y, s, B, W)), W

    return coset_sum
