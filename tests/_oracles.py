"""Independent reference arithmetic for the test suite.

Everything here is deliberately naive.  Bernoulli numbers come from sympy,
products are plain convolutions, factorizations over F_p are found by trial
division by every monic polynomial, and the weight-24 Hecke data is solved
by hand on an explicit basis; none of it shares code with the package.  The
exceptions are former routes of the package, kept as references for the
routes that replaced them: `elimination_eigenvector` (row reduction over
the Hecke field with `MatQ.nullspace`) and `krylov_eigenvector` (Krylov
vectors over the field and one field inverse) for the eigenforms of the
a_1 pairing, `real_root_count` (a Sturm sequence over Q) for the trace-form
test of total reality, `mult_matrix` (whose Faddeev-LeVerrier charpoly and
determinant gave a field element's charpoly and norm) for the power-sum
route, `lattice_sum_ref` / `eval_qseries_ref`, the former mpmath loops of
the numeric layer, for its fixed-point kernels, `lattice_kernel_ref`, the
coset-sum kernel that raised conj(W)^2 to k // 2 one product at a time,
for the kernel that powers by squaring, and
`twisted_translate_power_sum`, Q(zeta_N) arithmetic by plain convolution in
place of the former cyclotomic fields, for the root-of-unity sieve that
builds the transformation polynomial over Q, `ddf_degrees_ref`, the
distinct-degree factorization that raised each x^(p^d) by square-and-multiply,
for the Frobenius-matrix one, `factor_degrees_ascending`, the degree sieve
from the smallest prime up, for the one from the largest down,
`expand_in_triangular_ref`, forward substitution on Fraction series, for the
integer one, and `lattice_tail_formula`, the former mpmath loop of the
coset-sum tail bound, for the integer bound.  `expand_in_newforms_ref`, one
Fraction solve over the trace forms (`trace_form`) of the powers of theta,
is the reference for the integer solve of `expand_in_newforms`,
`fricke_eta_series` is the former public Fricke image of an eta quotient,
and `invert_j_newton_ref`, Newton's method on j, is the reference for the
AGM period lattice.  `charpoly_multimodular` gives
T_2 polynomials by Krylov rows modulo large primes, sharing nothing with the
package's fraction-free inversion.  `Poly` is a `UniPoly` with the Fraction
ring arithmetic the package's value type no longer carries; the tests build
their polynomials with it.  `poly_gcd_ref` and `squarefree_parts_ref`, Euclid
and Yun over Q, are the references for the integer gcd and Yun of the
factorization.  `mp_value` and `mp_err` read a BigComplex ball in mpmath, the
oracle arithmetic of the numeric tests.  Three are former library code that
no path of the package runs: `validate_external_newform`, the Hecke-relation
check on a claimed eigenform, `nf_norm`, the field norm, and `FieldDiv`, a
number field element with the division by field elements the package's
elements no longer carry, for `MatQ` over a number field.  `hecke_ref` gives
T_m for every m, composite ones included, where the package builds T_p for a
prime p.  Slow is fine.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

import mpmath
import sympy

from mtv.errors import InputError, VerificationError
from mtv.numfield import NumberFieldElem, nf_charpoly
from mtv.polynomial import UniPoly


class Poly(UniPoly):
    """A UniPoly with ring arithmetic over Q: the package's former operators,
    by schoolbook Fraction loops.  Tests build polynomials as X**2 - 2 with
    X = Poly([0, 1]), and the package takes them as the UniPolys they are."""

    __slots__ = ()

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly([1])
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [Fraction(0)] * (dq + 1)
        for i in range(dq, -1, -1):
            c = quo[i] = rem[i + other.degree] / other.lc()
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= c * b
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        return self * (1 / self.lc())

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs) if i])


def _as_poly(v):
    """v as a Poly: a UniPoly's coefficients, or a rational constant."""
    return Poly(v.coeffs if isinstance(v, UniPoly) else (v,))


def poly_gcd_ref(a, b):
    """Monic gcd over Q by Euclid on Polys (the package's former poly_gcd)."""
    a, b = _as_poly(a), _as_poly(b)
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def squarefree_parts_ref(p):
    """Yun's algorithm over Q (the package's former squarefree_parts): the
    pairs (g_i, i), g_i monic of degree >= 1, product g_i^i = p / lc(p)."""
    p = _as_poly(p)
    out = []
    a = poly_gcd_ref(p, p.derivative())
    b = p // a
    d = p.derivative() // a - b.derivative()
    i = 1
    while b.degree > 0:
        g = poly_gcd_ref(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        d = d // g - b.derivative()
        i += 1
    return out


def bernoulli_ref(n):
    b = sympy.bernoulli(n)
    return Fraction(int(b.p), int(b.q))


def sigma(n, k):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def eis_ref(weight, T):
    """1 - (2 w / B_w) sum sigma_{w-1}(n) q^n as a Fraction list."""
    mult = Fraction(-2 * weight) / bernoulli_ref(weight)
    return [Fraction(1)] + [mult * sigma(n, weight - 1) for n in range(1, T + 1)]


def mul_trunc(a, b, T):
    out = [Fraction(0)] * (T + 1)
    for i, ai in enumerate(a[: T + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: T + 1 - i]):
            out[i + j] += ai * bj
    return out


def pow_trunc(a, n, T):
    out = [Fraction(1)] + [Fraction(0)] * T
    for _ in range(n):
        out = mul_trunc(out, a, T)
    return out


def inv_trunc(a, T):
    """1/a through q^T by solving a * x = 1 term by term; needs a[0] != 0."""
    x = []
    for m in range(T + 1):
        acc = Fraction(1 if m == 0 else 0)
        for j in range(1, min(m, len(a) - 1) + 1):
            acc -= a[j] * x[m - j]
        x.append(acc / a[0])
    return x


def euler_power_ref(d, r, T):
    """prod (1 - q^(d n))^r through q^T, by repeated multiplication (or division)."""
    euler = [Fraction(1)] + [Fraction(0)] * T
    for n in range(d, T + 1, d):
        term = [Fraction(1)] + [Fraction(0)] * T
        term[n] = Fraction(-1)
        euler = mul_trunc(euler, term, T)
    if r < 0:
        euler = inv_trunc(euler, T)
    return pow_trunc(euler, abs(r), T)


def delta_ref(T):
    """(E4^3 - E6^2)/1728, no eta involved."""
    e4 = eis_ref(4, T)
    e6 = eis_ref(6, T)
    num = [x - y for x, y in zip(pow_trunc(e4, 3, T), pow_trunc(e6, 2, T))]
    return [x / 1728 for x in num]


def eta_power_ref(r, T):
    """prod (1 - q^n)^r for r >= 0 by direct multiplication, no pentagonal trick.

    Returns the expansion of the product alone (no q^(r/24) prefactor).
    """
    euler = [Fraction(1)] + [Fraction(0)] * T
    for n in range(1, T + 1):
        term = [Fraction(1)] + [Fraction(0)] * T
        term[n] = Fraction(-1)
        euler = mul_trunc(euler, term, T)
    return pow_trunc(euler, r, T)


def t2_charpoly_weight24():
    """Characteristic polynomial of T_2 on the weight-24 cusp space.

    Basis g1 = Delta*E4^3 = q + ..., g2 = Delta^2 = q^2 + ...; the action
    (T_2 f)_m = a_{2m} + 2^23 a_{m/2} is solved on leading coefficients.
    Returns constant-first coefficients [c0, c1, 1].
    """
    T = 8
    d = delta_ref(T)
    e4 = eis_ref(4, T)
    g1 = mul_trunc(d, pow_trunc(e4, 3, T), T)
    g2 = mul_trunc(d, d, T)

    def t2(f):
        out = []
        for m in range(T // 2 + 1):
            v = f[2 * m]
            if m % 2 == 0:
                v += 2**23 * f[m // 2]
            out.append(v)
        return out

    h1, h2 = t2(g1), t2(g2)
    # coordinates against the q, q^2 leading structure: x*g1 + y*g2
    m = [[0, 0], [0, 0]]
    for col, h in enumerate((h1, h2)):
        x = h[1] / g1[1]
        rem2 = h[2] - x * g1[2]
        y = rem2 / g2[2]
        # exactness check on the next coefficient
        assert h[3] == x * g1[3] + y * g2[3]
        m[0][col] = x
        m[1][col] = y
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [det, -tr, Fraction(1)]


def _fp_rem(a, b, p):
    """Remainder of a by a monic b over F_p; lists constant first."""
    a = [c % p for c in a]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c:
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return a[: len(b) - 1]


def _fp_quo(a, b, p):
    """Exact quotient of a by a monic divisor b over F_p."""
    a = [c % p for c in a]
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] = (a[i + j] - c * bj) % p
    return q


def factor_mod_p(coeffs, p):
    """Monic irreducible factors of a monic f over F_p, with multiplicity, by
    trial division with every monic polynomial in turn (tuples, constant first)."""
    f = [c % p for c in coeffs]
    factors = []
    d = 1
    while len(f) - 1 >= 2 * d:
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            while len(f) - 1 >= d and not any(_fp_rem(f, g, p)):
                f = _fp_quo(f, g, p)
                factors.append(tuple(g))
        d += 1
    if len(f) > 1:
        factors.append(tuple(f))
    return sorted(factors)


def elimination_eigenvector(M, g):
    """Eigenvector of the rational matrix M for a root theta of the monic
    irreducible g, by row reduction of M - theta over Q[x]/(g).

    Entries are Fractions when g is linear, else elements of NumberField(g);
    the first entry is normalized to 1.
    """
    from mtv.linalg import MatQ
    from mtv.numfield import NumberField

    s = M.nrows
    if g.degree == 1:
        theta = -g.coeffs[0]
        rows = [[M.rows[i][j] - (theta if i == j else 0) for j in range(s)]
                for i in range(s)]
    else:
        field = NumberField(g)
        theta = field.elem([0, 1])
        rows = [[FieldDiv(field.coerce(M.rows[i][j]) - (theta if i == j else 0))
                 for j in range(s)] for i in range(s)]
    null = MatQ(rows).nullspace()
    assert len(null) == 1
    v = list(null[0])
    return [_plain(x / v[0]) for x in v]


def mult_matrix(elem):
    """Rational matrix of y -> elem*y in the power basis (columns indexed by x^j)."""
    from mtv.linalg import MatQ

    cols = []
    cur = elem
    for _ in range(elem.field.degree):
        cols.append(cur.coords)
        cur = cur * elem.field.elem([0, 1])
    return MatQ(list(zip(*cols)))


def _is_zero(x):
    return (x == 0) if isinstance(x, Fraction) else x.is_zero()


def krylov_eigenvector(M, chi, theta):
    """Eigenvector of M for the root theta of its characteristic polynomial chi.

    theta is a Fraction or a number field element; the entries of the vector
    lie in theta's field, and the first entry is 1.  Synthetic division writes
    chi(x) = (x - theta) h(x) with h in K[x]; by Cayley-Hamilton
    v = h(M) e = sum_j h_j M^j e is, for any vector e, zero or an
    eigenvector for theta, built from rational Krylov vectors M^j e.
    """
    s = M.nrows
    cs = chi.coeffs
    h = [None] * s
    acc = cs[s]
    for i in range(s - 1, -1, -1):
        h[i] = acc
        acc = cs[i] + theta * acc
    assert _is_zero(acc), "eigenvalue is not a root of the characteristic polynomial"
    zero = theta - theta
    for start in range(s):
        u = [Fraction(i == start) for i in range(s)]
        v = [zero] * s
        for j, hj in enumerate(h):
            if j:
                u = [sum(a * b for a, b in zip(row, u)) for row in M.rows]
            v = [x + hj * c if c else x for x, c in zip(v, u)]
        if not all(map(_is_zero, v)):
            break
    else:
        raise AssertionError("Krylov vector vanishes for every unit vector")
    Mv = [sum((c * x for c, x in zip(row, v) if c), zero) for row in M.rows]
    assert all(_is_zero(y - theta * x) for y, x in zip(Mv, v)), "not an eigenvector"
    assert not _is_zero(v[0]), "eigenvector with vanishing first entry"
    inv = _reciprocal(v[0])
    return [x * inv for x in v]


def real_root_count(p):
    """Number of distinct real roots of a nonzero UniPoly p, by a Sturm
    sequence over Q (the package's former `is_totally_real` route)."""
    p = _as_poly(p)
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()

    def sign_changes(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    at_pos = [q.lc() > 0 for q in seq]
    at_neg = [(q.lc() > 0) == (q.degree % 2 == 0) for q in seq]
    return sign_changes(at_neg) - sign_changes(at_pos)


def mp_value(bc):
    """The midpoint of a BigComplex as an mpc, exact when the working
    precision holds its bits."""
    return mpmath.mpc(mpmath.mpf((bc.x, bc.e)), mpmath.mpf((bc.y, bc.e)))


def mp_err(bc):
    """The radius of a BigComplex as an mpf, rounded up."""
    return mpmath.mpf((bc.r, bc.e), rounding="u")


def lattice_sum_ref(weight, level, tau, bound, prec):
    """1 + sum (c tau + d)^-weight over 0 < c <= bound*level, level | c,
    |d| <= bound, gcd(c, d) = 1, summed term by term in mpmath at prec bits."""
    with mpmath.workprec(prec):
        tau = mpmath.mpc(tau)
        total = mpmath.mpc(1)
        for c in range(level, bound * level + 1, level):
            for d in range(-bound, bound + 1):
                if math.gcd(c, abs(d)) == 1:
                    total += 1 / (c * tau + d) ** weight
        return total


def lattice_kernel_ref(k, N, B, X, Y, s, P):
    """Fixed-point coset sum for tau = (X + iY)/2^s, in units of 2^-P.

    With W = (cX + d 2^s) + i cY, a Gaussian integer, the term is
    (c tau + d)^-k = 2^(ks) conj(W)^k / |W|^(2k); each component is floored
    by one integer division, an error below 1 unit.  Returns (re, im,
    number of terms), the c = 0 term 1 included.
    """
    half, odd = divmod(k, 2)
    shift = P + k * s
    row_d = [(d, d << s) for d in range(-B, B + 1)]
    sx, sy, n = 1 << P, 0, 1
    for c in range(N, B * N + 1, N):
        cx = c * X
        b = c * Y
        b2 = b * b
        rx = ry = 0
        for d, d2s in row_d:
            if math.gcd(c, d) != 1:
                continue
            a = cx + d2s
            a2 = a * a
            # conj(W)^2, raised to k // 2, times conj(W) when k is odd
            ux, uy = a2 - b2, -2 * a * b
            vx, vy = ux, uy
            for _ in range(half - 1):
                vx, vy = vx * ux - vy * uy, vx * uy + vy * ux
            if odd:
                vx, vy = vx * a + vy * b, vy * a - vx * b
            den = (a2 + b2) ** k
            rx += (vx << shift) // den
            ry += (vy << shift) // den
            n += 1
        sx += rx
        sy += ry
    return sx, sy, n


# -- Q(zeta_N), N prime: an element is N Fractions, entry i the coefficient of
# zeta^i.  Products reduce by zeta^N = 1 alone, so the vector is not unique:
# 1 + zeta + ... + zeta^(N-1) = 0, and two vectors are the same element
# exactly when their difference is constant.

def cyclo_zeta_power(j, N):
    out = [Fraction(0)] * N
    out[j % N] = Fraction(1)
    return out


def cyclo_add(a, b):
    return [x + y for x, y in zip(a, b)]


def cyclo_mul(a, b):
    N = len(a)
    out = [Fraction(0)] * N
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % N] += x * y
    return out


def cyclo_equal(a, b):
    d = [x - y for x, y in zip(a, b)]
    return all(x == d[0] for x in d)


def cyclo_series_mul(A, B):
    """Truncated product of two series given as lists of Q(zeta_N) elements."""
    N = len(A[0])
    out = []
    for k in range(len(A)):
        acc = [Fraction(0)] * N
        for i in range(k + 1):
            acc = cyclo_add(acc, cyclo_mul(A[i], B[k - i]))
        out.append(acc)
    return out


def twisted_translate_power_sum(coeffs, N, m):
    """sum_j F_j^m through the length of coeffs, F_j = sum_k coeffs[k] zeta^(jk) q^(k/N)."""
    total = [[Fraction(0)] * N for _ in coeffs]
    for j in range(N):
        F = [[Fraction(c) * x for x in cyclo_zeta_power(j * k, N)]
             for k, c in enumerate(coeffs)]
        P = F
        for _ in range(m - 1):
            P = cyclo_series_mul(P, F)
        total = [cyclo_add(t, p) for t, p in zip(total, P)]
    return total


def eval_qseries_ref(coeffs, e, tau, prec):
    """sum coeffs[m] q^(m/e) at tau by mpmath Horner at prec bits."""
    with mpmath.workprec(prec):
        q = mpmath.expjpi(2 * mpmath.mpc(tau) / e)
        acc = mpmath.mpc(0)
        for c in reversed(coeffs):
            c = Fraction(c)
            acc = acc * q + mpmath.mpf(c.numerator) / c.denominator
        return acc


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_monic_ref(a, p):
    """a over F_p scaled to leading coefficient 1 (a nonzero)."""
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def fp_mul_ref(a, b, p):
    """Schoolbook product over F_p, trimmed."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def fp_rem_ref(a, b, p):
    """Remainder of a by a nonzero b over F_p, trimmed (through the monic b)."""
    return _fp_trim(_fp_rem(a, fp_monic_ref(_fp_trim([c % p for c in b]), p), p))


def fp_mulmod_ref(a, b, f, p):
    """a b mod f over F_p, schoolbook."""
    return fp_rem_ref(fp_mul_ref(a, b, p), f, p)


def fp_powmod_ref(a, e, f, p):
    """a^e mod f over F_p by right-to-left square-and-multiply, e >= 0."""
    out = fp_rem_ref([1], f, p)
    while e:
        if e & 1:
            out = fp_mulmod_ref(out, a, f, p)
        a = fp_mulmod_ref(a, a, f, p)
        e >>= 1
    return out


def fp_gcd_ref(a, b, p):
    """Monic gcd over F_p of a nonzero a and any b, by Euclid on fp_rem_ref."""
    a, b = _fp_trim([c % p for c in a]), _fp_trim([c % p for c in b])
    while b:
        a, b = b, fp_rem_ref(a, b, p)
    return fp_monic_ref(a, p)


def ddf_degrees_ref(f, p):
    """Degrees of the irreducible factors of a monic squarefree f over F_p by
    distinct-degree factorization, each x^(p^d) raised from x^(p^(d-1)) by
    square-and-multiply (the package's former route, before the Frobenius
    matrix), on the schoolbook F_p routines above."""
    degrees = []
    d = 0
    xp = [0, 1]  # x^(p^d) mod f
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        xp = fp_powmod_ref(xp, p, f, p)
        h = xp + [0] * (2 - len(xp))  # x^(p^d) - x
        h[1] -= 1
        g = fp_gcd_ref(f, h, p)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            f = _fp_quo(f, g, p)
            xp = fp_rem_ref(xp, f, p)
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def factor_degrees_ref(P, primes):
    """`polynomial._factor_degrees` on the schoolbook F_p routines, for the
    integer polynomial P (int list, constant first): the mod-p degree sieve
    over primes, largest first, and the odd prime with the fewest modular
    factors; None when no prime keeps P squarefree."""
    possible = None
    best, fewest = None, len(P)
    for p in sorted(primes, reverse=True):
        if P[-1] % p == 0:
            continue
        f = fp_monic_ref([c % p for c in P], p)
        df = _fp_trim([i * c % p for i, c in enumerate(f)][1:])
        if not df or len(fp_gcd_ref(f, df, p)) > 1:
            continue
        degrees = ddf_degrees_ref(f, p)
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        possible = (set(range(1, len(P) - 1)) if possible is None else possible) & sums
        if not possible:
            break
        if p > 2 and len(degrees) < fewest:
            best, fewest = p, len(degrees)
    return None if possible is None else (possible, best)


def factor_degrees_ascending(P):
    """The degrees of the mod-p degree sieve of `polynomial._factor_degrees`
    on the integer polynomial P (int list), with the sieve primes tried from
    the smallest up (the package's former order)."""
    from mtv.polynomial import _SIEVE_PRIMES, _fp_ddf, _squarefree_reductions

    possible = set(range(1, len(P) - 1))
    for p, f in _squarefree_reductions(P, _SIEVE_PRIMES):
        sums = {0}
        for g, d in _fp_ddf(f, p):
            for _ in range((len(g) - 1) // d):
                sums |= {s + d for s in sums}
        possible &= sums
        if not possible:
            break
    return possible


def series_pow(f, n):
    """f ** n for n >= 0: the package's power for n >= 1 and, for n = 0, the
    unit series of weight 0 at f's truncation and level."""
    from mtv.qexp import QSeries

    if n == 0:
        return QSeries([1], trunc=f.trunc, weight=0, level=f.level)
    return f ** n


def _valuation(f):
    """Exponent of the first nonzero term of the series f, None when f is zero."""
    return next((m for m, c in enumerate(f.coeffs) if not _is_zero(c)), None)


def expand_in_triangular_ref(f, basis, strict=True):
    """Forward substitution on QSeries arithmetic, one Fraction coordinate
    and one series subtraction per basis element (the package's former
    `expand_in_triangular`)."""
    from mtv.errors import TruncationError, VerificationError

    coords = []
    rem = f
    for i, b in enumerate(basis):
        lead = _valuation(b)
        if lead is None:
            raise TruncationError(
                "basis element %d vanishes through q^%d; raise the order" % (i + 1, b.trunc)
            )
        c = rem.coeff(lead)
        coords.append(c)
        if not _is_zero(c):
            rem = rem - b.scale(c)
    if strict and not rem.is_zero():
        v = _valuation(rem)
        raise VerificationError(
            "series is not in the span of the basis: residual starts at q^%s" % v
        )
    return coords, rem


def miller_coordinates_ref(coeffs, basis):
    """(coordinates, residual) of the coefficient list coeffs, rationals or
    elements of one number field, against the triangular basis h_j =
    q^(j-1) + O(q^j): forward substitution, one coefficient list
    subtraction per basis element."""
    rest = list(coeffs)
    coords = []
    for j, h in enumerate(basis):
        c = rest[j]
        coords.append(c)
        rest = [r - c * h.coeff(n) for n, r in enumerate(rest)]
    return coords, rest


def lattice_tail_formula(lam, N, x, y, B):
    """The coset-sum tail bound of `numerics._lattice_tail_bound` at
    tau = x + iy, term by term in the arithmetic of x and y: exact for
    Fractions and even lam, mpmath at its working precision for mpf inputs
    (the package's former mpmath loop)."""
    x = abs(x)
    B = y * 0 + B
    if isinstance(y, Fraction):
        if lam % 2:
            raise ValueError("odd weight needs a square root; pass mpf values")
        root_power = lambda S: S ** -(lam // 2)
    else:
        root_power = lambda S: S ** (mpmath.mpf(-lam) / 2)
    total = 3 * (N * y) ** (1 - lam) * B ** (2 - lam) / (lam - 2)
    for c in range(N, int(B) * N + 1, N):
        a = c * y
        v = B - c * x
        if v >= 1:
            if v >= a:
                integral = v ** (1 - lam) / (lam - 1)
            else:
                integral = a ** (1 - lam) * lam / (lam - 1)
            total += 2 * (integral + root_power(v * v + a * a))
        else:
            total += 2 * (2 * a ** (1 - lam) + a ** (-lam))
    return total


@functools.lru_cache(maxsize=None)
def _crt_prime(k):
    """The k-th prime below 2^256, counting down from 0."""
    return sympy.prevprime(_crt_prime(k - 1) if k else 1 << 256)


def _solve_mod_p(A, b, p):
    """x with A x = b over F_p by Gaussian elimination, or None if A is singular."""
    n = len(A)
    rows = [[v % p for v in r] + [c % p] for r, c in zip(A, b)]
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = pow(rows[k][k], -1, p)
        rk = rows[k] = [v * inv % p for v in rows[k][k:]]
        for i in range(k + 1, n):
            u = rows[i][k]
            if u:
                rows[i][k:] = [(v - u * w) % p for v, w in zip(rows[i][k:], rk)]
    x = [0] * n
    for k in range(n - 1, -1, -1):
        rk = rows[k]  # rk[j - k] is the entry of column j
        x[k] = (rk[-1] - sum(rk[j - k] * x[j] for j in range(k + 1, n))) % p
    return x


def charpoly_multimodular(M):
    """Characteristic polynomial (constant-first integers) of a square integer
    matrix M whose eigenvalues are real, as a Hecke operator's are.

    Modulo each of a run of 256-bit primes, the Krylov rows e_1^T M^j give
    chi from x R = e_1^T M^n (e_1 must be cyclic mod p); the residues are
    joined by the Chinese remainder theorem.  Every eigenvalue is at most
    sqrt(Tr M^2) in size, so a coefficient of chi is at most (1 + that)^n,
    which fixes how many primes are needed.  Nothing is shared with the
    package's Krylov inversion.
    """
    n = len(M)
    tr2 = sum(M[i][j] * M[j][i] for i in range(n) for j in range(n))
    bound = (math.isqrt(tr2) + 2) ** n
    mod, res = 1, [0] * n
    k = 0
    while mod <= 2 * bound:
        p = _crt_prime(k)
        k += 1
        cols = [[v % p for v in c] for c in zip(*M)]
        rows = [[1] + [0] * (n - 1)]
        for _ in range(n):
            rows.append([sum(map(operator.mul, rows[-1], c)) % p for c in cols])
        x = _solve_mod_p([list(c) for c in zip(*rows[:n])], rows[n], p)
        assert x is not None, "e_1 is not cyclic for M modulo p"
        inv = pow(mod, -1, p)
        res = [r + mod * ((-v - r) * inv % p) for r, v in zip(res, x)]
        mod *= p
    return [r - mod if 2 * r > mod else r for r in res] + [1]


def trace_form(elem):
    """Vector w with Tr(elem * y) = sum_k w_k * y.coords[k] for every y in the
    field (the package's former `numfield.trace_form`)."""
    ps = elem.field.power_sums()
    den = elem._den
    return [
        sum((c * ps[j + k] for j, c in enumerate(elem._num) if c), Fraction(0)) / den
        for k in range(elem.field.degree)
    ]


def fricke_eta_series(spec, level, trunc):
    """q-expansion of the Fricke image of an eta quotient: the partner quotient
    times the Fricke scalar (the package's former `trace.fricke_eta_series`)."""
    from mtv.qexp import eta_quotient
    from mtv.trace import fricke_eta_data

    partner, scalar = fricke_eta_data(spec, level)
    return eta_quotient(partner, trunc, level=level).scale(scalar)


def expand_in_newforms_ref(f, orbit_set):
    """Coefficients c_i of f = sum_i Tr_(K_i/Q)(c_i * f_i) by one Fraction
    solve on the first dim coefficients, its columns the trace forms of the
    powers theta^j dotted with each a_n (the package's former route)."""
    from mtv.linalg import MatQ

    r = orbit_set.dim_cusp
    cols = []
    for nf in orbit_set.orbits:
        for j in range(nf.degree):
            # theta^j by its coordinate vector, so degree 1 needs no theta
            w = trace_form(nf.field.elem([0] * j + [1]))
            cols.append([sum(map(operator.mul, w, nf.a(n).coords)) for n in range(1, r + 1)])
    x = MatQ([[cols[c][n] for c in range(r)] for n in range(r)]).solve(
        [f.coeff(n) for n in range(1, r + 1)])
    out = []
    for nf in orbit_set.orbits:
        block, x = x[: nf.degree], x[nf.degree :]
        out.append(nf.field.elem(block))
    return out


def hecke_ref(coeffs, m, weight):
    """a_n(T_m f) = sum over d | (m, n) of d^(weight-1) a_(m n / d^2), one
    coefficient at a time, for every m >= 1 (level 1)."""
    T = (len(coeffs) - 1) // m
    return [sum(d ** (weight - 1) * coeffs[m * n // (d * d)]
                for d in range(1, m + 1) if m % d == 0 and n % d == 0)
            for n in range(T + 1)]


def validate_external_newform(f):
    """Check the Hecke relations of a claimed level-1 eigenform, a Newform
    or a level-1 expansion (the package's former
    spaces.validate_external_newform): a_0 = 0, a_1 = 1, a_(mn) = a_m a_n for
    coprime m, n, and a_(p^(r+1)) = a_p a_(p^r) - p^(k-1) a_(p^(r-1)).
    Returns True or raises VerificationError naming the first failure."""
    from mtv.spaces import Newform

    if isinstance(f, Newform):
        coeff = f.a
    elif f.level != 1 or f.weight is None:
        raise InputError("expected a level-1 integral-weight expansion")
    else:
        coeff = f.coeff
    k = f.weight
    T = f.trunc
    if T < 2:
        raise InputError("need at least two coefficients to validate")
    if coeff(0) != 0:
        raise VerificationError("constant term is %s, expected 0" % (coeff(0),))
    if coeff(1) != 1:
        raise VerificationError("q^1 coefficient is %s, expected 1" % (coeff(1),))
    # multiplicativity on coprime pairs
    for m in range(2, T + 1):
        for n in range(m + 1, T // m + 1):
            if math.gcd(m, n) == 1 and coeff(m * n) != coeff(m) * coeff(n):
                raise VerificationError(
                    "multiplicativity fails first at a_%d * a_%d != a_%d" % (m, n, m * n))
    # prime-power recursion
    for p in range(2, math.isqrt(T) + 1):
        if sympy.isprime(p):
            pk = p ** (k - 1)
            q = p * p
            while q <= T:
                if coeff(q) != coeff(p) * coeff(q // p) - pk * coeff(q // (p * p)):
                    raise VerificationError("Hecke recursion fails first at a_%d (p=%d)" % (q, p))
                q *= p
    return True


def nf_norm(elem):
    """Field norm K -> Q: the signed constant term of the charpoly (the
    package's former numfield.nf_norm)."""
    c0 = nf_charpoly(elem).coeffs[0]
    return c0 if elem.field.degree % 2 == 0 else -c0


def _reciprocal(x):
    return x.inverse() if isinstance(x, NumberFieldElem) else 1 / Fraction(x)


def _plain(x):
    return x.v if isinstance(x, FieldDiv) else x


class FieldDiv:
    """A number field element that also divides by field elements, through
    `inverse()`: the package's former division, so that `MatQ`'s row
    reduction runs over a number field.  `.v` is the element."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return FieldDiv(self.v + _plain(other))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldDiv(self.v - _plain(other))

    def __rsub__(self, other):
        return FieldDiv(_plain(other) - self.v)

    def __mul__(self, other):
        return FieldDiv(self.v * _plain(other))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldDiv(-self.v)

    def __truediv__(self, other):
        return FieldDiv(self.v * _reciprocal(_plain(other)))

    def __rtruediv__(self, other):
        return FieldDiv(_plain(other) * self.v.inverse())

    def __eq__(self, other):
        return self.v == _plain(other)

    def __hash__(self):
        return hash(self.v)

    def is_zero(self):
        return self.v.is_zero()


def _reduce_fundamental_ref(tau):
    for _ in range(256):
        tau = tau - mpmath.floor(tau.real + mpmath.mpf("0.5"))
        if abs(tau) >= 1:
            return tau
        tau = -1 / tau
    raise ArithmeticError("fundamental-domain reduction did not settle")


def invert_j_newton_ref(jv, prec_bits):
    """A fundamental-domain tau with j(tau) = jv by Newton's method on the
    numeric q-expansions, from the reciprocal of j - 744 and then fixed seeds
    (the package's former j-inversion).  Call it inside a working precision
    of about prec_bits + 32."""
    from mtv.numerics import eval_qseries
    from mtv.qexp import eisenstein_level1
    from mtv.spaces import delta_series

    mpc, mpf = mpmath.mpc, mpmath.mpf
    jc = mpc(mpf(jv.numerator) / jv.denominator)
    seeds = []
    if abs(jc - 744) > 1:
        q0 = 1 / (jc - 744)
        if abs(q0) < mpf("0.05"):
            seeds.append(mpmath.log(q0) / (2j * mpmath.pi))
    seeds += [
        mpc("0.0", "1.2"), mpc("0.25", "1.1"), mpc("-0.25", "1.1"),
        mpc("0.45", "0.95"), mpc("0.1", "2.0"),
    ]
    two_pi_i = 2j * mpmath.pi
    stop = mpf(2) ** (-prec_bits - 8)
    for tau in seeds:
        for _ in range(200):
            if tau.imag < mpf("0.05"):
                break
            tau_r = _reduce_fundamental_ref(tau)
            if tau_r.imag > tau.imag:
                tau = tau_r
            # |q|^T = exp(-2 pi Im(tau) T) undercuts 2^-prec with headroom
            T = max(48, int(0.80 * prec_bits / float(tau.imag)) + 24)
            E4s, E6s, Ds = eisenstein_level1(4, T), eisenstein_level1(6, T), delta_series(T)
            e4, e6, dd = (mp_value(eval_qseries(f, tau, prec_bits + 16))
                          for f in (E4s, E6s, Ds))
            jder = -two_pi_i * e4**2 * e6 / dd
            if jder == 0:
                break
            step = (e4**3 / dd - jc) / jder
            tau = tau - step
            if abs(step) < stop * max(1, abs(tau)):
                if tau.imag > 0:
                    return _reduce_fundamental_ref(tau)
                break
    raise ArithmeticError("j-inversion did not converge from any seed")
