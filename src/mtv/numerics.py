"""Arbitrary-precision numeric layer.

Every value carries an additive error magnitude.  The two hot loops run in
exact integer fixed point, so their rounding is bounded by proof, not by a
fit: the coset sum of lattice_sum_eisenstein reports its truncation tail
plus its rounding, both proven, and eval_qseries reports a proven bound on
its Horner rounding and on the error of q, plus a tail for the coefficients
past the truncation.  That tail is proven when the caller knows a bound
|c_m| <= C m^alpha on those coefficients (the Eisenstein rows and their
Fricke images have one), and otherwise a fitted majorant (a heuristic,
since those coefficients are unknown to it).  The bounds take mpmath's
elementary functions at their working precision as correct to a few ulps.
All load-bearing identities elsewhere in the package, factorization
included, are exact; this layer only cross-checks them.
"""

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from .errors import InputError, UnsupportedScopeError, require_within

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
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return mpf(x.numerator)
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def to_mpc(x):
    if isinstance(x, BigComplex):
        return x.value
    if isinstance(x, Fraction):
        return mpc(to_mpf(x))
    return mpc(x)


class BigComplex:
    """Complex value plus an absolute error bound: proven as eval_qseries and
    lattice_sum_eisenstein attach it, except eval_qseries' fitted tail past
    the truncation (see the module docstring), and carried through + and *."""

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        self.value = to_mpc(value)
        self.err = abs(mpf(err))

    def __repr__(self):
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
        return {
            "re": mpmath.nstr(self.value.real, digits),
            "im": mpmath.nstr(self.value.imag, digits),
            "err": mpmath.nstr(self.err, 3),
        }


def _man_exp(x):
    """(m, e) with x = m 2^e exactly, m signed (mpf.man_exp drops the sign)."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def _fixed(x, P):
    """floor(x * 2^P) for a finite mpf x, exactly."""
    man, exp = _man_exp(x)
    return man << (exp + P) if exp + P >= 0 else man >> -(exp + P)


def _horner(num, den, tau, prec):
    """sum_m num[m]/den q^m at tau by fixed-point Horner.

    q = e(tau) comes from mpmath once, at W = prec + 16 + bitlen(M + 2)
    bits, and is floored to the Gaussian integer Q = (qx, qy) in units of
    2^-P, where P = W + log2(1/|q|) keeps the W-bit relative accuracy of q
    (at most 2W: a smaller q moves the sum by less than its rounding).
    The sum starts at the first nonzero numerator num[v], so the integer
    numerators keep the partial sums >= 1 in size, and is multiplied by q^v
    at the end.  Each step floors one complex product, an error below
    sqrt(2) units of 2^-P that later steps multiply by |Q| 2^-P < 1.

    Returns (value, W, P, v, q, (qx, qy)) with value an mpc at W bits.
    """
    M = len(num) - 1
    W = prec + 16 + (M + 2).bit_length()
    with mp.workprec(W):
        tau = to_mpc(tau)
        if not mpmath.isfinite(tau) or tau.imag <= 0:
            raise InputError("tau must lie in the upper half-plane")
        q = mpmath.expjpi(2 * tau)
        if abs(q) >= 1:
            raise InputError("tau must lie in the upper half-plane")
        P = W + min(W, max(0, -mpmath.mag(q)))
        qx, qy = _fixed(q.real, P), _fixed(q.imag, P)
        v = next((m for m, c in enumerate(num) if c), M + 1)
        ax = ay = 0
        for m in range(M, v - 1, -1):
            ax, ay = ((ax * qx - ay * qy) >> P) + (num[m] << P), (ax * qy + ay * qx) >> P
        value = mpc(mpmath.ldexp(mpf(ax), -P), mpmath.ldexp(mpf(ay), -P)) / den
        if v:
            value *= q**v
        return value, W, P, v, q, (qx, qy)


def _upper_sum(vals, rho64):
    """An integer >= sum_j vals[j] (rho64 / 2^64)^j, for nonnegative ints vals."""
    acc = 0
    for x in reversed(vals):
        acc = -((-acc * rho64) >> 64) + x
    return acc


def _fitted_tail(num, den, ln_r):
    """Heuristic tail majorant for the coefficients past the truncation.

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
    return mpmath.exp(math.fsum(parts) + slack)


def _proven_tail(coeff_bound, M, ln_r):
    """An upper bound for sum_(m > M) C m^alpha r^m, r = e^ln_r < 1, given
    coeff_bound = (C, alpha) with C a positive Fraction and alpha >= 1.

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
    return mpmath.exp(math.fsum(parts) + slack)


def eval_qseries(f, tau, prec_bits=None, coeff_bound=None):
    """Evaluate a QSeries, a series over Q, at tau in the upper half-plane.

    The sum runs over the series' integer numerators, q = e(tau).  The error
    is the proven bound on the fixed-point rounding (see _horner) and on the
    error of q itself, propagated through sum m |c_m| rho^(m-1), plus a tail
    for the coefficients past the truncation: proven by _proven_tail when
    coeff_bound = (C, alpha) bounds them, |c_m| <= C m^alpha for every m
    past the truncation, and otherwise the fitted majorant of _fitted_tail,
    a heuristic.
    """
    prec = check_prec(prec_bits, math.inf)
    num, den = f._num, f._den
    value, W, P, v, q, (qx, qy) = _horner(num, den, tau, prec)
    with mp.workprec(W):
        tau = to_mpc(tau)
        ln_r = float(-2 * mpmath.pi * tau.imag)
        if coeff_bound is None:
            tail = _fitted_tail(num, den, ln_r)
        else:
            tail = _proven_tail(coeff_bound, len(num) - 1, ln_r)
        # |Q 2^-P - q| <= D 2^-P: the floor of q, plus mpmath's q taken as
        # correct to 8 ulps of W bits after the 2 pi |tau| amplification of
        # the rounding of 2 tau
        D = int(mpmath.ldexp(abs(q), P - W) * (8 + 8 * abs(tau))) + 3
        # rho bounds |q|, |Q| 2^-P and the mpmath q, in units of 2^-64
        rho64 = ((math.isqrt(qx * qx + qy * qy) + 1 + D) >> (P - 64)) + 1
        horner = _upper_sum([1] * (len(num) - v), rho64)
        if v:
            horner *= (mpf(rho64) / 2**64) ** v
        dq = _upper_sum([m * abs(c) for m, c in enumerate(num)][1:], rho64)
        # in mpf: dq outgrows a float at large weights; the double nearest
        # sqrt(2) lies above it, so the factor stays an upper bound
        rounding = (mpf(math.sqrt(2)) * horner + D * dq) / (den * mpf(2) ** P)
        rounding += abs(value) * (8 + 8 * v) * mpf(2) ** -W
        return BigComplex(value, tail + rounding)


def _lattice_tail_bound(lam, N, X, Y, s, B, W):
    """Upper bound for the truncated coset-sum defect at tau = (X + iY)/2^s,
    via integral comparison.

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
    return mpf((sum(-((-n << F) // d) for n, d in terms), -F), rounding="u")


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
    UnsupportedScopeError.  tau is taken as the dyadic point to_mpc gives at
    prec + 16 bits and summed exactly in fixed point (_lattice_kernel).  The
    attached error is proven: the explicit truncation bound, plus sqrt(2)
    2^-P per term for the floors, plus the final rounding to prec + 16 bits.
    """
    return _coset_sum_request(weight, level, tau, bound, character, prec_bits)()


def _coset_sum_request(weight, level, tau, bound, character, prec_bits):
    """Every check of lattice_sum_eisenstein, its work cap included, before
    any sum; returns the sum as a call with no arguments."""
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
    with mp.workprec(W):
        tau = to_mpc(tau)
        if not mpmath.isfinite(tau) or tau.imag <= 0:
            raise InputError("tau must lie in the upper half-plane")
        s = max(0, -_man_exp(tau.real)[1], -_man_exp(tau.imag)[1])
        X, Y = _fixed(tau.real, s), _fixed(tau.imag, s)
    P = W + ((2 * B + 1) * B + 1).bit_length() + 2
    n = lam * (B * N * (abs(X) + Y) + (B << s)).bit_length() + P
    require_within((2 * B + 1) * B * n**1.58, MAX_LATTICE_WORK,
                   "the work of the coset sum at weight %d and bound %d", lam, B)

    def coset_sum():
        with mp.workprec(W):
            sx, sy, nterms = _lattice_kernel(lam, N, B, X, Y, s, P)
            total = mpc(mpmath.ldexp(mpf(sx), -P), mpmath.ldexp(mpf(sy), -P))
            tail = _lattice_tail_bound(lam, N, X, Y, s, B, W)
            rounding = math.sqrt(2) * nterms * mpf(2) ** -P + abs(total) * mpf(2) ** (1 - W)
            return BigComplex(total, tail + rounding)

    return coset_sum
