"""Arbitrary-precision numeric layer, in integers.

Every value here is a ball, BigComplex: a Gaussian-integer midpoint
(x + iy) 2^e and an integer radius r 2^e that contains the true value, each
rounding of the midpoint widening the radius by what the rounding can lose
(in the spirit of Johansson's Arb).  q = e(tau) comes from integer pi, exp,
cos and sin with a proven error (_exp_ball), so eval_qseries' radius is
proven for the Horner rounding, the error of q and the final scalings.  To
that it adds a proven tail for the coefficients past the truncation when
the caller gives a bound |c_m| <= C m^alpha on them; every evaluation in
the package does (the Eisenstein rows and their Fricke images, E4, E6 and
Delta on the curve path, and eta's pentagonal series), and reads the series
through the least order whose proven tail meets its target (tail_order),
the oracle aside, which reads the order its request names.  Without one the
ball holds the value of the polynomial the series holds, and nothing past
it.  The coset sum of lattice_sum_eisenstein reports its truncation
tail plus its rounding, both proven.  No subcommand loads mpmath.  All
load-bearing identities elsewhere in the package are exact; this layer
only cross-checks them.
"""

import math
import operator
from fractions import Fraction

from .errors import InputError, PrecisionError, UnsupportedScopeError, require_within
from .polynomial import _power
from .rational import exact_fraction, format_decimal, round_bits

DEFAULT_PREC_BITS = 256
MIN_PREC_BITS = 64
# cap on the working precision of a request.  On a 2-vCPU VM with CPython
# 3.11, specialize --curve=1,2 takes about 0.13 s at 2048 bits, 0.16 s at
# 4096 and 0.36 s at 8192, specialize --curve=-2,-5 --level 2 0.15 s, 0.28 s
# and 1.1-1.6 s, and corollary --level 2 --eis-weight 4 --curve=1,2 0.14 s,
# 0.19 s and 0.44 s; the time grows two- to fivefold per doubling; the cap
# is 4096.
MAX_PREC_BITS = 4096


def check_prec(prec_bits, cap=MAX_PREC_BITS):
    """The working precision in bits, DEFAULT_PREC_BITS for None: refused
    below MIN_PREC_BITS as malformed, and above cap, before any work."""
    p = DEFAULT_PREC_BITS if prec_bits is None else int(prec_bits)
    if p < MIN_PREC_BITS:
        raise InputError("precision of %d bits is below the floor of %d" % (p, MIN_PREC_BITS))
    require_within(p, cap, "the precision in bits")
    return p


class BigComplex:
    """A complex ball: midpoint (x + iy) 2^e and radius r 2^e, all four
    integers, r >= 0.  The ball holds the value it stands for, proven as
    eval_qseries and lattice_sum_eisenstein make it.  +, -, * and / (by a
    ball whose disc excludes 0) return balls that hold every result of the
    operation on points of the operands, rounded to the bits of the finer
    operand, but exact for +, - and * of two points; an int or Fraction
    operand is a point."""

    __slots__ = ("x", "y", "r", "e")

    def __init__(self, x, y=0, r=0, e=0):
        self.x, self.y, self.r, self.e = x, y, r, e

    real = property(lambda self: _dyadic(self.x, self.e))
    imag = property(lambda self: _dyadic(self.y, self.e))
    err = property(lambda self: _dyadic(self.r, self.e))

    def _ball(self):
        return self.x, self.y, self.r, self.e

    def _apply(self, op, other, swap=False):
        if isinstance(other, (int, Fraction)):
            other = BigComplex(*_ball_scale((1, 0, 0, 0), other.numerator, 0,
                                            other.denominator, _prec(self)))
        elif not isinstance(other, BigComplex):
            return NotImplemented
        a, b = (other, self) if swap else (self, other)
        exact = op is not _ball_div and not (a.r or b.r)  # +, - and * of points
        return BigComplex(*op(a._ball(), b._ball(), math.inf if exact else _prec(a, b)))

    def __add__(self, other):
        return self._apply(_ball_add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(_ball_sub, other)

    def __rsub__(self, other):
        return self._apply(_ball_sub, other, True)

    def __mul__(self, other):
        return self._apply(_ball_mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(_ball_div, other)

    def __rtruediv__(self, other):
        return self._apply(_ball_div, other, True)

    def __pow__(self, n):
        """self^n for an integer n; for n < 0 the reciprocal of self^-n, a
        PrecisionError when that disc holds 0."""
        if n < 0:
            return 1 / self ** -n
        return _power(self, n, operator.mul) if n else BigComplex(1)

    def __neg__(self):
        return BigComplex(-self.x, -self.y, self.r, self.e)

    def mag(self):
        """An upper bound of |z| over the ball."""
        return _dyadic(_abs_up(self.x, self.y) + self.r, self.e)

    def distance(self, other):
        """An upper bound of the distance between the midpoints of self and
        other, within a unit of the finer exponent."""
        exact = self._apply(lambda a, b, bits: _ball_sub(a, b, math.inf), other)
        return exact.mag() - exact.err

    def text(self, digits=30):
        """The midpoint as mpmath prints an mpc, "(re + imj)"; see format_decimal."""
        re, im = (format_decimal(v, digits, self.err) for v in (self.real, self.imag))
        return "(%s %s %sj)" % (re, "-" if im[0] == "-" else "+", im.lstrip("-"))

    def __repr__(self):
        return "BigComplex(%s, err=%s)" % (self.text(17), format_decimal(self.err, 3, up=True))

    def serialize(self, digits=30):
        err = self.err
        re, im = (format_decimal(v, digits, err) for v in (self.real, self.imag))
        return {"re": re, "im": im, "err": format_decimal(err, 3, up=True)}


def _dyadic(n, e):
    return Fraction(n << e) if e >= 0 else Fraction(n, 1 << -e)


def _point(tau):
    """(Re tau, Im tau) as exact Fractions.  tau is a pair of rationals, or
    a number, or a BigComplex, read at its midpoint: an mpc or mpf is
    dyadic, read from its mantissa and exponent."""
    if isinstance(tau, BigComplex):
        return tau.real, tau.imag
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
    component moves at most half a unit of the new exponent, so the midpoint
    moves at most sqrt(2)/2 < 182/256 of a unit, and the new radius is
    ceil((r + 182 2^s / 256) / 2^s), or ceil(r / 2^s) when the bits shifted
    out are all 0 and the midpoint does not move; a part far below the
    other rounds to 0, not to -1."""
    s = max(abs(x), abs(y)).bit_length() - bits
    if s <= 0:
        return x, y, r, e
    low = (1 << s) - 1
    if not (x & low or y & low):
        return x >> s, y >> s, -(-r >> s), e + s
    h = 1 << (s - 1)
    return (x + h) >> s, (y + h) >> s, -(-((r << 8) + (182 << s)) >> (s + 8)), e + s


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


def _prec(*balls):
    """The bits a result of the balls keeps: those of the finest midpoint, 64 at least."""
    return max(64, *(max(abs(b.x), abs(b.y)).bit_length() for b in balls))


def _ball_add(a, b, bits):
    """a + b, rounded to `bits` bits."""
    (ax, ay, ar, ae), (bx, by, br, be) = a, b
    e = min(ae, be)
    s, t = ae - e, be - e
    x, y, r = (ax << s) + (bx << t), (ay << s) + (by << t), (ar << s) + (br << t)
    return _ball_round(x, y, r, e, bits)


def _ball_sub(a, b, bits):
    return _ball_add(a, (-b[0], -b[1], b[2], b[3]), bits)


def _ball_div(a, b, bits):
    """a / b, rounded to `bits` bits, for b's disc clear of 0: the midpoint
    quotient ma/mb moves by at most (ra |mb| + |ma| rb) / (|mb| (|mb| - rb))."""
    ax, ay, ar, ae = a
    bx, by, br, be = b
    low = _abs_down(bx, by)
    if low <= br:
        raise PrecisionError("a divisor's error disc contains 0")
    mid = _ball_scale((ax, ay, 0, ae - be), bx, -by, bx * bx + by * by, bits)
    num, den = ar * _abs_up(bx, by) + _abs_up(ax, ay) * br, low * (low - br)
    s = ae - be - mid[3]
    t = -(-(num << s) // den) if s >= 0 else -(-num // (den << -s))
    return _ball_widen(mid, t, mid[3])


def _ball_root(a, k, bits):
    """The principal k-th root w of a's midpoint m (k >= 2), rounded to
    `bits` bits, as a ball that holds, for every z in a, the root of z on
    the branch through w.

    w comes from a float seed and Newton's rule in Gaussian integers at
    bits + 8 bits.  Then w^k is formed exactly: a lies in the disc of radius
    R = r + |w^k - m| about it, and on that disc, clear of 0, the branch
    moves by at most R |w| / (k (|w^k| - R)), R times the bound
    (1/k) |z|^(1/k - 1) of its derivative.
    """
    x, y, r, e = a
    G = bits + 8
    u = max(abs(x), abs(y)).bit_length() - k * G
    u += -(e + u) % k
    q = (e + u) // k  # m ~ M 2^(k q), M of about k G bits
    Mx, My = (x >> u, y >> u) if u >= 0 else (x << -u, y << -u)
    v = max(0, max(abs(Mx), abs(My)).bit_length() - 53)
    v += -v % k
    z = complex(Mx >> v, My >> v) ** (1 / k)  # the principal branch
    wx, wy = ((int(t * 2.0**60) << v // k) >> 60 for t in (z.real, z.imag))
    cmul = lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])  # noqa: E731
    for _ in range(2 * G.bit_length() + 8):
        px, py = _power((wx, wy), k - 1, cmul)
        fx, fy = cmul((px, py), (wx, wy))
        # (w^k - M) / (k w^(k-1)), rounded to nearest
        nx, ny, dx, dy = fx - Mx, fy - My, k * px, k * py
        d2 = 2 * (dx * dx + dy * dy)
        sx = (2 * (nx * dx + ny * dy) + d2 // 2) // d2
        sy = (2 * (ny * dx - nx * dy) + d2 // 2) // d2
        wx, wy = wx - sx, wy - sy
        if abs(sx) + abs(sy) <= 1:
            break
    fx, fy = _power((wx, wy), k, cmul)
    E0 = min(e, k * q)
    s1, s2 = k * q - E0, e - E0
    R = (r << s2) + _abs_up((fx << s1) - (x << s2), (fy << s1) - (y << s2))
    low = _abs_down(fx, fy) << s1
    if low <= R:
        raise PrecisionError("a root's argument has an error disc that contains 0")
    return _ball_round(wx, wy, -(-(_abs_up(wx, wy) * R) // (k * (low - R))), q, bits)


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
    # the bound as t 2^e, t below 2^54, each float step covered by 2^-40 slack
    b = (math.fsum(parts) + 2**-40 * (1 + sum(map(abs, parts)))) / math.log(2)
    b += 2**-40 * (1 + abs(b))
    n = math.floor(b)
    return math.ceil(math.ldexp(2.0 ** (b - n), 52)) + 1, n - 52


def _ln_r(im_tau):
    """ln |e(tau)| = -2 pi Im tau as a float; an Im tau past 2^20 is read as
    2^20, which only raises the bound of a tail; one below 2^-1000, whose
    logarithms in the tail bounds would leave the floats, is refused."""
    if im_tau < Fraction(1, 2**1000):
        raise PrecisionError("Im(tau) below 2^-1000 is out of the range of the proven tail bounds")
    return -2 * math.pi * float(min(im_tau, 2**20))


def tail_order(coeff_bound, im_tau, bits):
    """The least T >= 1 whose proven tail past q^T (_proven_tail of
    coeff_bound = (C, alpha) at |q| = e^(-lambda), lambda = 2 pi Im tau) is
    at most 2^-bits R, R = C n^alpha |q|^n at n = max(1, alpha/lambda) the
    largest term the bound allows.  The package reads every series it
    evaluates through this order; each caller refuses one past its cap.

    The tail bound does not grow with T (the minimum of a bound free of T
    and a geometric one that falls), so doubling and then bisection find
    T; the bisection keeps an order that fails below T, so T - 1 fails
    unless T = 1.  Where ln r plus its slack is not below 0 (Im tau below
    about 1.4e-13) the bound is the same at every T: no order meets it.
    """
    C, alpha = coeff_bound
    ln_r = _ln_r(im_tau)
    n = max(1, alpha / -ln_r)
    target = (math.log(C.numerator) - math.log(C.denominator) + alpha * math.log(n)
              + n * ln_r) / math.log(2) - bits

    def meets(T):
        t, e = _proven_tail(coeff_bound, T, ln_r)
        return math.log2(t) + e <= target

    failed, T = 0, 1
    while not meets(T):
        if ln_r + 2**-40 * (1 - ln_r) >= 0:
            raise PrecisionError("no order meets the tail target at Im(tau) %.3g" % im_tau)
        failed, T = T, 2 * T
    while T - failed > 1:
        mid = (failed + T) // 2
        failed, T = (failed, mid) if meets(mid) else (mid, T)
    return T


def eval_qseries(f, tau, prec_bits=None, coeff_bound=None):
    """Evaluate a QSeries, a series over Q, at tau in the upper half-plane,
    as a ball with a W-bit midpoint, W = prec + 16 + bitlen(M + 2) for the
    truncation M.

    The sum runs over the series' integer numerators, q = e(tau), with tau
    taken exactly (an mpc is dyadic).  q is a ball at W + 8 bits
    (_exp_ball), floored to the Gaussian integer Q = (qx, qy) in units of
    2^-P, |Q 2^-P - q| <= D 2^-P, where P = W + log2(1/|q|) keeps the W-bit
    relative accuracy of q (at most 2W: a smaller q moves the sum by less
    than its rounding).  Horner's rule starts at the first nonzero numerator
    num[v], so the integer numerators keep the partial sums >= 1 in size;
    each step floors one complex product, an error below sqrt(2) units of
    2^-P that later steps multiply by |Q| 2^-P, and the sum at Q differs
    from the sum at q by at most D 2^-P times sum_j j |num[v+j]| rho^(j-1).
    The sum is then multiplied by the ball q^v, divided by the denominator
    and, when coeff_bound = (C, alpha) bounds the coefficients past the
    truncation, |c_m| <= C m^alpha for every such m, widened by the proven
    tail of _proven_tail.  With no bound the ball holds the polynomial the
    series holds, its rounding proven, and no tail is added.
    """
    prec = check_prec(prec_bits, math.inf)
    x, y = _point(tau)
    if y <= 0:
        raise InputError("tau must lie in the upper half-plane")
    ln_r = None if coeff_bound is None else _ln_r(y)
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
    if coeff_bound is not None:
        ball = _ball_widen(ball, *_proven_tail(coeff_bound, M, ln_r))
    return BigComplex(*_ball_round(*ball, W))


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
    # the bits of k // 2 below its leading one, for left-to-right powering inline:
    # through polynomial._power the coset sum took 0.17-0.18 s, not 0.11-0.14 s (weight 4,
    # level 2, B = 224), and 0.24-0.26 s, not 0.20-0.22 s (weight 6, level 5, B = 200; 2 vCPU)
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
    return _coset_sum_request(weight, level, tau, bound, character, prec_bits)()


def _coset_sum_request(weight, level, tau, bound, character, prec_bits):
    """Every check of lattice_sum_eisenstein, its work cap included, before
    any sum; returns the sum as a call with no arguments, which gives a
    BigComplex with a midpoint of prec + 16 bits."""
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
    x, y = (round_bits(v, W) for v in _point(tau))
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
        ball = _ball_widen(ball, *_lattice_tail_bound(lam, N, X, Y, s, B, W))
        return BigComplex(*_ball_round(*ball, W))

    return coset_sum
