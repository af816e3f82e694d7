"""Exact q-expansion engine.

QSeries holds a truncated expansion in integral powers of q with rational
coefficients.  A series in a fractional power q^(1/N) is a QSeries in
t = q^(1/N); trace.transformation_polynomial, the one place that needs one,
reads it so.  A newform orbit over its Hecke field is no series here: it is
its coordinates in the Miller basis (spaces.Newform).

A series stores one integer array over one positive common denominator,
kept canonical: the denominator is coprime to all the numerators taken
together, and it is 1 for the zero series.  Equal series therefore have
equal arrays, and sums, scalings, truncations, operators and comparisons
work on the integers directly.  The public ``coeffs`` tuple of reduced
Fractions is built on first access and cached.

Every product of integer arrays goes through ``_kron_mul`` (Kronecker
substitution): each array is packed into one big integer, in slots wide
enough that no product coefficient spills into its neighbour, one big-int
multiply does the whole convolution in CPython's C core (Karatsuba), and the
coefficients are cut back out of the product's bytes.  Eta quotients expand
each Euler factor with the power rule for series, so an exponent r costs
one pass, not |r|, and factors that share r share that pass.  hecke_T is
T_p for a prime p: the pipeline's one Hecke operator is T_2, whose
factorization cuts out the level-1 newform orbits (spaces), and a composite
index is refused.

Eisenstein series and eta quotients read one process-wide, grow-only store
of integer arrays: the sigma_(k-1) list per k and the power-rule pass per
eta exponent r (spaces adds the Miller basis per weight, the E6^(2m)
ladder, and under ("orbits", k) the one-entry list of the weight's
certified newform orbits, which depend on the weight alone; trace adds the
theorem inputs h and h|w_N per level, eta quotient and Eisenstein weight,
built from _eisenstein_ints, whose denominator is fixed per key).  It holds one
array per key, the longest built so far, so no key holds more than the
largest call for it already held at its peak; a read returns a fresh list
of the first T + 1 entries, and a longer request rebuilds that key.  A
build that raises stores nothing.  Each process, hence each CLI call,
starts with it empty.  The gates run above the store.

The Eisenstein constructors are closed forms; each (weight, level) is gated
once per process against the numeric coset-sum oracle before its series is
handed out, and the Fricke image against the slash action.  Both gates and
eisenstein_oracle evaluate these series with the proven tail of
_eisenstein_coeff_bound, the gates through the order numerics.tail_order
gives; the eta Fricke gate reads eta from its pentagonal series, whose
coefficients 0 and +-1 bound its tail (eval_eta_quotient).
"""

import math
import operator
from fractions import Fraction
from itertools import repeat

from .errors import (
    InputError,
    TruncationError,
    UnsupportedScopeError,
    VerificationError,
    require_within,
)
from .numerics import (BigComplex, _coset_sum_request, _exp_ball, _ln_r, _point, eval_qseries,
                       tail_order)
from .polynomial import _is_prime, _power


class QSeries:
    """Truncated q-expansion over Q; coeffs[m] multiplies q^m, known through q^trunc.

    Stored as one integer array over one positive denominator:
    coeffs[m] = _num[m] / _den.
    """

    __slots__ = ("_num", "_den", "_coeffs", "trunc", "weight", "level")

    def __init__(self, coeffs, trunc=None, weight=None, level=1):
        coeffs = list(coeffs)
        trunc = int(max(len(coeffs) - 1, 0) if trunc is None else trunc)
        if trunc < 0:
            raise InputError("negative truncation order")
        fr = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs[: trunc + 1]]
        den = math.lcm(*[c.denominator for c in fr])
        num = [c.numerator * (den // c.denominator) for c in fr]
        self._set(num + [0] * (trunc + 1 - len(num)), den, trunc, weight, level)

    def _set(self, num, den, trunc, weight, level):
        g = math.gcd(den, *num)
        if g > 1:
            num = [x // g for x in num]
            den //= g
        self._num = num
        self._den = den
        self._coeffs = None
        self.trunc = trunc
        self.weight = weight if weight is None else int(weight)
        self.level = int(level)
        return self

    @classmethod
    def _from_ints(cls, num, den, trunc, weight, level):
        """Series num[m]/den; len(num) == trunc + 1, den > 0."""
        return cls.__new__(cls)._set(num, den, trunc, weight, level)

    @property
    def coeffs(self):
        """Coefficient tuple of reduced Fractions."""
        if self._coeffs is None:
            self._coeffs = tuple(map(Fraction, self._num, repeat(self._den)))
        return self._coeffs

    def _with_values(self, num, trunc, level=None, den=None):
        """A series of this weight from the array num over den (by default
        this series' denominator)."""
        return QSeries._from_ints(num, self._den if den is None else den, trunc,
                                  self.weight, self.level if level is None else level)

    # -- inspection ----------------------------------------------------

    def is_zero(self):
        return not any(self._num)

    def coeff(self, n):
        """Coefficient of q^n for an integer 0 <= n <= trunc."""
        if n < 0:
            raise InputError("negative q-exponent %s" % n)
        if n > self.trunc:
            raise TruncationError(
                "coefficient of q^%s requested beyond truncation order %d" % (n, self.trunc)
            )
        return Fraction(self._num[n], self._den)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.trunc, self._den, self._num) == (other.trunc, other._den, other._num)

    def __hash__(self):
        return hash((self.trunc, self._den, tuple(self._num)))

    def __repr__(self):
        head = []
        for m, c in enumerate(self.coeffs):
            if c != 0:
                head.append("%s*q^%d" % (c, m))
                if len(head) == 4:
                    head.append("...")
                    break
        return "QSeries(%s; trunc=%d)" % (" + ".join(head) or "0", self.trunc)

    def truncate(self, T):
        T = int(T)
        if T > self.trunc:
            raise TruncationError("cannot extend a series by truncation")
        if T == self.trunc:
            return self
        return self._with_values(self._num[: T + 1], T)

    def agrees_through(self, other, T):
        """Exact coefficient agreement through q^T: both truncations are
        canonical, so it is equality of their denominators and arrays."""
        if self.trunc < T or other.trunc < T:
            raise TruncationError("agreement order exceeds a truncation order")
        a, b = self.truncate(T), other.truncate(T)
        return a._den == b._den and a._num == b._num

    # -- arithmetic ----------------------------------------------------

    def _meta_add(self, other):
        if self.weight is not None and other.weight is not None and self.weight != other.weight:
            raise InputError("adding series of different weights")
        w = self.weight if self.weight is not None else other.weight
        return w, math.lcm(self.level, other.level)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        w, lev = self._meta_add(other)
        T = min(self.trunc, other.trunc)
        da, db = self._den, other._den
        den = math.lcm(da, db)
        num = list(map(operator.add, _scaled(self._num[: T + 1], den // da),
                       _scaled(other._num[: T + 1], den // db)))
        return QSeries._from_ints(num, den, T, w, lev)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        """Multiply by an exact rational scalar."""
        c = Fraction(c)
        return self._with_values(_scaled(self._num, c.numerator), self.trunc,
                                 den=self._den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        w = None
        if self.weight is not None and other.weight is not None:
            w = self.weight + other.weight
        T = min(self.trunc, other.trunc)
        return QSeries._from_ints(_kron_mul(self._num, other._num, T + 1),
                                  self._den * other._den, T, w,
                                  math.lcm(self.level, other.level))

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 1:
            raise InputError("series power must be >= 1")
        return _power(self, n, operator.mul)


def _scaled(num, k):
    """The array num times the integer k."""
    return num if k == 1 else [x * k for x in num]


def _slot_bias(count, nbytes, half):
    """The integer whose count slots of nbytes bytes each hold half."""
    return int.from_bytes(half.to_bytes(nbytes, "little") * count, "little")


def _kron_pack(values, nbytes, half):
    """sum values[i] * 2^(8*nbytes*i) for integers |values[i]| < half."""
    raw = b"".join(map(int.to_bytes, map(half.__add__, values), repeat(nbytes),
                       repeat("little")))
    return int.from_bytes(raw, "little") - _slot_bias(len(values), nbytes, half)


def _kron_mul(a, b, out_len):
    """First out_len coefficients of the product of integer arrays a and b.

    Kronecker substitution with X = 2^w: with A = sum a_i X^i and B alike,
    A*B = sum c_k X^k holds digit by digit as long as every |c_k| < X/2.
    |c_k| < min(len a, len b) * 2^(bits a + bits b), which fixes w.  Slots
    are biased by X/2 on the way in and out, so the bytes only ever hold
    nonnegative slot values and signs need no separate pass.
    """
    a = a[:out_len]
    b = b[:out_len]
    bits_a = max(max(a, default=0), -min(a, default=0)).bit_length()
    bits_b = max(max(b, default=0), -min(b, default=0)).bit_length()
    if not bits_a or not bits_b:
        return [0] * out_len
    nbytes = (bits_a + bits_b + min(len(a), len(b)).bit_length() + 8) // 8
    half = 1 << (8 * nbytes - 1)
    pa = _kron_pack(a, nbytes, half)
    pb = pa if a == b else _kron_pack(b, nbytes, half)
    n = min(len(a) + len(b) - 1, out_len)
    width = nbytes * n
    low = (pa * pb + _slot_bias(n, nbytes, half)) & ((1 << (8 * width)) - 1)
    data = low.to_bytes(width, "little")
    out = [int.from_bytes(data[i : i + nbytes], "little") - half
           for i in range(0, width, nbytes)]
    out.extend([0] * (out_len - n))
    return out


# -- the series store --------------------------------------------------------

# process-wide and grow-only: key -> the longest array built so far for it
_SERIES_STORE = {}


def _stored(key, n, build):
    """A fresh list of the first n entries of build(n); build runs only when
    the stored array for key is shorter than n, and replaces it.  Each call
    slices the array it read or built, so a racing call never reads short."""
    if n < 1:
        raise InputError("negative truncation order")
    arr = _SERIES_STORE.get(key)
    if arr is None or len(arr) < n:
        arr = _SERIES_STORE[key] = build(n)
    return arr[:n]


# -- standard series -----------------------------------------------------

_BERNOULLI = {0: Fraction(1)}


def bernoulli(n):
    n = int(n)
    if n < 0:
        raise InputError("negative Bernoulli index")
    if n not in _BERNOULLI:
        for m in range(1, n + 1):
            if m in _BERNOULLI:
                continue
            s = Fraction(0)
            for j in range(m):
                s += math.comb(m + 1, j) * _BERNOULLI[j]
            _BERNOULLI[m] = -s / (m + 1)
    return _BERNOULLI[n]


def _sigma_list(power, T):
    """[sigma_power(m) for m <= T], with sigma_power(0) read as 0."""
    def build(n):
        s = [0] * n
        for d in range(1, n):
            dp = d**power
            for m in range(d, n, d):
                s[m] += dp
        return s

    return _stored(("sigma", power), T + 1, build)


def _eisenstein_den(weight, level):
    """The denominator of _eisenstein_ints: that of -2k/B_k, times N^k - 1 at
    a prime level N."""
    den = (Fraction(-2 * weight) / bernoulli(weight)).denominator
    return den if level == 1 else den * (level**weight - 1)


def _eisenstein_ints(weight, level, trunc, fricke=False):
    """The level-N Eisenstein row through q^trunc (E_k itself at level 1), or
    with fricke its Fricke image, as integers over _eisenstein_den.  That
    denominator depends on (weight, level) alone, so the arrays of two
    orders are prefixes of one another."""
    mult = Fraction(-2 * weight) / bernoulli(weight)
    E = [mult.denominator] + [mult.numerator * s for s in _sigma_list(weight - 1, trunc)[1:]]
    if level == 1:
        return E
    # (N^k E(N z) - E(z)) / (N^k - 1), or N^(k/2) (E(z) - E(N z)) / (N^k - 1)
    s = level ** (weight // 2)
    a, b = (s, -s) if fricke else (-1, level**weight)
    num = [a * x for x in E]
    for m in range(0, trunc + 1, level):
        num[m] += b * E[m // level]
    return num


def _eisenstein_prime_level_raw(weight, level, trunc):
    return QSeries._from_ints(_eisenstein_ints(weight, level, trunc),
                              _eisenstein_den(weight, level), trunc, weight, level)


def _fricke_eisenstein_raw(weight, level, trunc):
    return QSeries._from_ints(_eisenstein_ints(weight, level, trunc, True),
                              _eisenstein_den(weight, level), trunc, weight, level)


def _eisenstein_coeff_bound(weight, level, fricke=False):
    """(C, k - 1) with |a_n| <= C n^(k-1) for every n >= 1: a proven tail
    bound for the level-N Eisenstein row (E_k itself at level 1) or, with
    fricke, for its Fricke image.

    a_n(E_k) = -(2k/B_k) sigma_(k-1)(n) and sigma_(k-1)(n) <= zeta(k-1)
    n^(k-1), with zeta(s) <= 1 + 2^-s + 2^(1-s)/(s-1) (the terms past 2
    under their integral).  The row (N^k E(Nz) - E(z))/(N^k - 1) adds
    N^k (n/N)^(k-1) + n^(k-1) of those, and the image N^(k/2) (E(z) - E(Nz))
    /(N^k - 1) adds n^(k-1) + (n/N)^(k-1).  Exact, so rounded up by nothing.
    """
    s = weight - 1
    C = abs(Fraction(2 * weight) / bernoulli(weight)) * (1 + Fraction(s + 1, 2**s * (s - 1)))
    if level == 1:
        return C, s
    if fricke:
        C *= Fraction(level ** (weight // 2) * (level**s + 1), level**s)
    else:
        C *= level + 1
    return C / (level**weight - 1), s


_GATE_DONE = set()
_GATE_PREC = 160
# 27/128 + 145/128 i and -47/128 + 219/128 i: exact as floats, with 7
# fractional bits (see _check_eisenstein)
_GATE_TAUS = (0.2109375 + 1.1328125j, -0.3671875 + 1.7109375j)
# the Fricke gate's points tau, as floats; the slash side is read exactly at
# -1/(N tau)
_FRICKE_GATE_TAUS = (0.13 + 1.07j, -0.29 + 1.04j)


# cap on the coefficients of the longest exact series a request builds.
# Level 5 at --order 2048 builds 10,248 and takes about 6.4 s on a 2-vCPU
# VM with CPython 3.11; a series product grows faster than linearly in the
# length, so the cap stops unbounded runs at about three times that.
MAX_SERIES_TERMS = 2**15

# cap on the cusp dimension of a newform basis, of the weight of a trace and
# of an Eisenstein weight before its numeric gate.  A cold basis takes about
# 0.12 s at dimension 16, 0.5 s at 20, 1.0 s at 22 and 3.0 s at 24 on a
# 2-vCPU VM with CPython 3.11, 2.1 s of the 3.0 s at weight 288 in the Krylov
# solve (linalg.bareiss_solve); the report of a theorem at 22 costs more.
MAX_NEWFORM_DIM = 22


def dim_modular_level1(weight):
    """Dimension of the full weight-k space on the modular group."""
    k = int(weight)
    if k < 0 or k % 2:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


def dim_cusp_level1(weight):
    return max(0, dim_modular_level1(weight) - 1)


def _require_newform_dim(weight):
    require_within(dim_cusp_level1(weight), MAX_NEWFORM_DIM, "the cusp dimension of weight %d",
                   weight)


def _require_eisenstein_weight(weight):
    """An Eisenstein weight: even, at least 4, and within the cusp-dimension cap."""
    weight = int(weight)
    if weight < 4 or weight % 2:
        raise InputError("Eisenstein weight must be even and >= 4")
    _require_newform_dim(weight)
    return weight


def _require_prime(level):
    level = int(level)
    if not _is_prime(level):
        raise InputError("level must be prime, got %d" % level)
    return level


def _gate_once(key, check, *args):
    """Run check(*args) unless key has passed in this process: a check that
    returns records key in _GATE_DONE, one that raises records nothing."""
    if key not in _GATE_DONE:
        check(*args)
        _GATE_DONE.add(key)


def _gate_eisenstein(weight, level):
    """One-time cross-check of the closed form against the coset-sum oracle."""
    _gate_once((weight, level), _check_eisenstein, weight, level)


def _check_eisenstein(weight, level):
    """The closed form agrees with the coset-sum oracle at _GATE_TAUS.

    The points are short dyadics: the coset-sum kernel works on tau scaled
    to Gaussian integers, whose terms grow like the weight times the
    fractional bits of tau, so 7 bits keep them small where a decimal point
    held at _GATE_PREC bits would carry about 160.  The series runs
    through the least order whose proven tail lies 64 bits below the
    gate's precision at both points (tail_order).
    """
    bound = _eisenstein_coeff_bound(weight, level)
    T = max(tail_order(bound, _point(tau)[1], _GATE_PREC + 64) for tau in _GATE_TAUS)
    ser = _eisenstein_prime_level_raw(weight, level, T)
    for tau in _GATE_TAUS:
        closed = eval_qseries(ser, tau, _GATE_PREC, bound)
        lat = _coset_sum_request(weight, level, tau, 32, None, _GATE_PREC)()
        if closed.distance(lat) > closed.err + lat.err:
            raise VerificationError(
                "Eisenstein closed form (weight %d, level %d) disagrees with "
                "the coset-sum oracle at tau=%s" % (weight, level, tau)
            )


def _slash_agrees(f, g, c, weight, level, tau, prec):
    """Numeric check of f|w_N = c g at tau, N = level and c rational, at
    prec bits, in integers; f and g are evaluators, each a call that takes
    a point (x, y) of Fractions to a ball that holds the form's value there.

    The slash side is f at -1/(N tau) times N^(k/2) (N tau)^(-k), both
    exact for a rational tau; each side is a ball, the error of its
    evaluation scaled with it, and the two must meet within a further
    2^-(prec-16) (|lhs| + |rhs|), relative: an absolute one passes any
    image far below 1.
    """
    x, y = _point(tau)
    # N tau = (a + ib)/d, so -1/(N tau) = d (-a + ib)/n2, n2 = a^2 + b^2, and
    # (N tau)^(-k) = d^k (a - ib)^k / n2^k
    d = math.lcm(x.denominator, y.denominator)
    a, b = int(level * x * d), int(level * y * d)
    n2 = a * a + b * b
    slash = BigComplex(a, -b) ** weight * (level ** (weight // 2) * d**weight)
    lhs = f((Fraction(-a * d, n2), Fraction(b * d, n2))) * slash / n2**weight
    rhs = g((x, y)) * Fraction(c)
    return lhs.distance(rhs) <= lhs.err + rhs.err + (lhs.mag() + rhs.mag()) / 2 ** (prec - 16)


def _gate_fricke(weight, level):
    """One-time numeric check of the Fricke image closed form via the slash action."""
    _gate_once((weight, level, "fricke"), _check_fricke, weight, level)


def _check_fricke(weight, level):
    # E is read at -1/(N tau), Im y / (N |tau|^2), and F at tau, each through
    # the least order whose proven tail lies 64 bits below the gate's precision
    points = [_point(tau) for tau in _FRICKE_GATE_TAUS]
    bE, bF = _eisenstein_coeff_bound(weight, level), _eisenstein_coeff_bound(weight, level, True)
    TE = max(tail_order(bE, y / (level * (x * x + y * y)), _GATE_PREC + 64) for x, y in points)
    TF = max(tail_order(bF, y, _GATE_PREC + 64) for x, y in points)
    require_within(max(TE, TF), MAX_SERIES_TERMS, "the Fricke gate's series length at level %d",
                   level)
    E = _eisenstein_prime_level_raw(weight, level, TE)
    F = _fricke_eisenstein_raw(weight, level, TF)
    E_at = lambda t: eval_qseries(E, t, _GATE_PREC, bE)  # noqa: E731
    F_at = lambda t: eval_qseries(F, t, _GATE_PREC, bF)  # noqa: E731
    for tau in _FRICKE_GATE_TAUS:
        if not _slash_agrees(E_at, F_at, 1, weight, level, tau, _GATE_PREC):
            raise VerificationError(
                "Fricke Eisenstein closed form (weight %d, level %d) fails "
                "the slash-action check at tau=%s" % (weight, level, tau)
            )


def _eisenstein_request(weight, level, trunc):
    """(weight, level, trunc) of an Eisenstein constructor after all its checks."""
    weight = _require_eisenstein_weight(weight)
    trunc = int(trunc)
    require_within(trunc, MAX_SERIES_TERMS, "the series length at order %d", trunc)
    if trunc < 0:
        raise InputError("negative truncation order")
    level = int(level)
    if level != 1:
        _require_prime(level)
    return weight, level, trunc


def eisenstein_prime_level(weight, level, trunc):
    """The Gamma_0(level) Eisenstein row at the infinity cusp, trivial character.

    Closed form (level^w E(level z) - E(z)) / (level^w - 1); constant term 1.
    """
    weight, level, trunc = _eisenstein_request(weight, level, trunc)
    _gate_eisenstein(weight, level)
    return _eisenstein_prime_level_raw(weight, level, trunc)


def eisenstein_level1(weight, trunc):
    """E_weight = 1 - (2*weight/B_weight) sum sigma_(weight-1)(n) q^n."""
    return eisenstein_prime_level(weight, 1, trunc)


def eisenstein_oracle(weight, level, tau, bound, trunc, prec_bits=None):
    """(closed, lat): the closed form through q^trunc and the coset sum to
    bound, both evaluated at tau as BigComplex values.

    Every check of both sides, caps included, runs before either does any
    work; then the coset sum runs, then the closed form, evaluated with the
    proven tail of _eisenstein_coeff_bound.
    """
    coset_sum = _coset_sum_request(weight, level, tau, bound, None, prec_bits)
    weight, level, trunc = _eisenstein_request(weight, level, trunc)
    _ln_r(_point(tau)[1])  # the closed form's proven tail refuses a tiny Im tau
    lat = coset_sum()
    closed = eval_qseries(eisenstein_prime_level(weight, level, trunc), tau, prec_bits,
                          _eisenstein_coeff_bound(weight, level))
    return closed, lat


def fricke_eisenstein(weight, level, trunc):
    """Image of eisenstein_prime_level under the Fricke involution; vanishes at infinity."""
    weight, level, trunc = _eisenstein_request(weight, level, trunc)
    _require_prime(level)
    _gate_eisenstein(weight, level)
    _gate_fricke(weight, level)
    return _fricke_eisenstein_raw(weight, level, trunc)


# -- eta quotients ---------------------------------------------------------

class EtaQuotientSpec:
    """Finite product of eta(d z)^(r_d) with integral weight and leading exponent."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        if isinstance(pairs, dict):
            pairs = pairs.items()
        norm = {}
        for d, r in pairs:
            d = int(d)
            r = int(r)
            if d < 1:
                raise InputError("eta argument multiplier must be >= 1")
            if r:
                norm[d] = norm.get(d, 0) + r
        self.pairs = tuple(sorted((d, r) for d, r in norm.items() if r))
        if sum(d * r for d, r in self.pairs) % 24:
            raise InputError("sum of d*r_d must be divisible by 24")
        if sum(r for _, r in self.pairs) % 2:
            raise UnsupportedScopeError("half-integral weight eta quotients out of scope")

    @property
    def weight(self):
        return sum(r for _, r in self.pairs) // 2

    @property
    def leading_exponent(self):
        return sum(d * r for d, r in self.pairs) // 24

    def fricke_partner(self, level):
        """Spec of the quotient obtained by d -> level/d (requires all d | level)."""
        for d, _ in self.pairs:
            if level % d:
                raise InputError("eta multiplier %d does not divide the level %d" % (d, level))
        return EtaQuotientSpec([(level // d, r) for d, r in self.pairs])

    def serialize(self):
        return ",".join("%d:%d" % (d, r) for d, r in self.pairs)

    def __eq__(self, other):
        return isinstance(other, EtaQuotientSpec) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return "EtaQuotientSpec(%s)" % (self.serialize() or "1")


def _pentagonal(limit):
    """(exponent, sign) of the nonconstant terms of prod (1 - q^n), exponent <= limit."""
    out = []
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        s = -1 if k % 2 else 1
        if g1 > limit:
            break
        out.append((g1, s))
        if g2 <= limit:
            out.append((g2, s))
        k += 1
    return out


def _unit_series_power(terms, r, L):
    """(1 + sum s_g q^g)^r through q^L, for sparse integer terms (g, s_g), g >= 1.

    The power rule for series (Knuth, TAOCP vol. 2, 4.7): with c = P^r,
    m c_m = sum_{g>=1} s_g ((r+1) g - m) c_(m-g), one pass for any sign of r.
    """
    c = [1] + [0] * L
    for m in range(1, L + 1):
        t = 0
        for g, s in terms:
            if g > m:
                break
            t += s * ((r + 1) * g - m) * c[m - g]
        c[m], rem = divmod(t, m)
        if rem:
            raise VerificationError(
                "power rule left remainder %d at q^%d of an integral unit power" % (rem, m)
            )
    return c


def _euler_power(d, r, L):
    """prod_n (1 - q^(d n))^r through q^L: a prefix of the stored d = 1 pass, spread to
    every d-th place."""
    power = _stored(("euler", r), L // d + 1,
                    lambda n: _unit_series_power(_pentagonal(n - 1), r, n - 1))
    out = [0] * (L + 1)
    out[::d] = power
    return out


def eval_eta_quotient(spec, tau, prec_bits):
    """prod_d eta(d tau)^(r_d) at tau as a ball, e(v tau) prod_d P(e(d tau))^(r_d)
    for the leading exponent v.  P = prod (1 - q^n) is read from its
    pentagonal series, whose coefficients 0 and +-1 give the proven tail of
    (C, alpha) = (1, 1), through the order tail_order takes, within the
    series cap, at prec + 64 bits plus the pi/(12 y ln 2) bits of the lower
    bound |P| >= e^(-pi/(12 y)) at Im(d tau) = y (eta's modular
    transformation)."""
    x, y = _point(tau)
    v = spec.leading_exponent
    if v < 0:
        raise UnsupportedScopeError("eta quotient with a pole at infinity")
    out = BigComplex(*_exp_ball(v * x, v * y, prec_bits + 16)) if v else BigComplex(1)
    bound = (Fraction(1), 1)
    for d, r in spec.pairs:
        lam = -_ln_r(d * y)  # 2 pi y, and pi/(12 y ln 2) = pi^2/(6 lam ln 2)
        T = tail_order(bound, d * y, prec_bits + 64 + math.pi**2 / (6 * math.log(2) * lam))
        require_within(T, MAX_SERIES_TERMS, "the eta series length at Im %.3g", float(d * y))
        signs = dict(_pentagonal(T))
        num = [1] + [signs.get(n, 0) for n in range(1, T + 1)]
        out = out * eval_qseries(QSeries(num), (d * x, d * y), prec_bits, bound) ** r
    return out


def eta_quotient(spec, trunc, level=None):
    """Exact expansion of q^v * prod_n prod_d (1 - q^(d n))^(r_d), v from the spec."""
    if not isinstance(spec, EtaQuotientSpec):
        spec = EtaQuotientSpec(spec)
    trunc = int(trunc)
    v = spec.leading_exponent
    if v < 0:
        raise UnsupportedScopeError("eta quotient with a pole at infinity")
    if trunc < v:
        raise InputError("truncation order below the leading exponent %d" % v)
    L = trunc - v
    acc = None
    for d, r in spec.pairs:
        factor = _euler_power(d, r, L)
        acc = factor if acc is None else _kron_mul(acc, factor, L + 1)
    if acc is None:
        acc = [1] + [0] * L
    if level is None:
        level = math.lcm(*[d for d, _ in spec.pairs])
    return QSeries._from_ints([0] * v + acc, 1, trunc, spec.weight, int(level))


# -- operators -------------------------------------------------------------

def op_U(f, t):
    """Pick every t-th coefficient: (U_t f)_n = f_(t n)."""
    t = int(t)
    if t < 1:
        raise InputError("U_t needs t >= 1")
    T = f.trunc // t
    return f._with_values(f._num[: t * T + 1 : t], T)


def hecke_T(f, p):
    """Hecke operator T_p, p prime, on a level-1 integral-weight expansion:
    (T_p f)_n = f_(p n) + p^(k-1) f_(n/p), the last term only where p | n."""
    p = int(p)
    if p < 1:
        raise InputError("Hecke index must be >= 1")
    if not _is_prime(p):
        raise UnsupportedScopeError("Hecke operators implemented for a prime index only")
    if f.level != 1:
        raise UnsupportedScopeError("Hecke operators implemented at level 1 only")
    k = f.weight
    if k is None:
        raise InputError("Hecke operators need weight metadata")
    T = f.trunc // p
    if T < 1:
        raise TruncationError(
            "series order %d too small for T_%d; need order >= %d" % (f.trunc, p, p)
        )
    pk = p ** (k - 1)
    num = f._num
    out = num[: p * T + 1 : p]
    for m in range(0, T + 1, p):
        out[m] += pk * num[m // p]
    return f._with_values(out, T)
