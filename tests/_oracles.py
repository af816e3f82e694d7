"""Independent reference arithmetic for the test suite.

Everything here is deliberately naive.  Bernoulli numbers come from sympy,
products are plain convolutions, factorizations over F_p are found by trial
division by every monic polynomial, and the weight-24 Hecke data is solved
by hand on an explicit basis; none of it shares code with the package.  The
one exception is `elimination_eigenvector`, the package's former newform
route (row reduction over the Hecke field with `MatQ.nullspace`), kept as the
reference for the Krylov eigenvectors.  Slow is fine.
"""

import itertools
from fractions import Fraction

import sympy


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
        theta = field.gen()
        rows = [[field.coerce(M.rows[i][j]) - (theta if i == j else field.zero())
                 for j in range(s)] for i in range(s)]
    null = MatQ(rows).nullspace()
    assert len(null) == 1
    v = list(null[0])
    return [x / v[0] for x in v]
