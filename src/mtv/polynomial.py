"""Dense univariate polynomials over Q and factorization into irreducibles.

Factorization strategy: squarefree decomposition (Yun), then for each
squarefree part an irreducibility certificate first.  Distinct-degree
factorization modulo a fixed list of small primes gives, for each prime that
keeps the part squarefree and its degree, the degrees a proper factor over Q
could have (the subset sums of the mod-p factor degrees); an empty
intersection over the primes proves the part irreducible.  Only a part the
sieve cannot certify goes to the numeric assist: cluster the roots at high
precision, try subsets of roots as candidate factors (only of the sizes the
sieve left possible), round the candidate's coefficients to integers, and
certify by exact division.  A failed numeric candidate never produces a
wrong answer, only a retry at doubled precision; the final multiply-back
identity is checked unconditionally and raises VerificationError if it
fails.
"""

import itertools
import math
from fractions import Fraction

import mpmath

from .errors import InputError, PrecisionError, VerificationError
from .numerics import root_cluster
from .rational import lcm_denominators


class UniPoly:
    """Polynomial over Q, coefficients stored constant-first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return UniPoly(a)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise InputError("negative polynomial power")
        out = UniPoly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        return UniPoly((Fraction(other),))

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        inv_lc = 1 / other.lc()
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] * inv_lc
            quo[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise InputError("zero polynomial has no monic form")
        inv = 1 / self.lc()
        return UniPoly(tuple(c * inv for c in self.coeffs))

    def derivative(self):
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def eval(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0)
        return acc

    def scale_arg(self, a):
        """p(a*x)."""
        a = Fraction(a)
        pw = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * pw)
            pw *= a
        return UniPoly(out)

    def primitive_int(self):
        """Write p = unit * P with P integer-coefficient, primitive, lc > 0."""
        if self.is_zero():
            return Fraction(0), UniPoly()
        den = lcm_denominators(self.coeffs)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den), UniPoly([v // g for v in ints])

    def serialize(self):
        from .rational import format_rational

        return [format_rational(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*x" % c if c != 1 else "x")
            else:
                parts.append("%s*x^%d" % (c, i) if c != 1 else "x^%d" % i)
        return "UniPoly(%s)" % " + ".join(parts).replace("+ -", "- ")


def poly_gcd(a, b):
    """Monic gcd over Q."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def squarefree_parts(p):
    """Yun's algorithm on a monic polynomial: list of (g_i, i), product g_i^i = p."""
    out = []
    a = poly_gcd(p, p.derivative())
    b = p // a
    c = p.derivative() // a
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        c = d // g
        d = c - b.derivative()
        i += 1
    return out


def real_root_count(p):
    """Number of distinct real roots of a nonzero p, by a Sturm sequence over Q."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()

    def sign_changes(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    at_pos = [q.lc() > 0 for q in seq]
    at_neg = [(q.lc() > 0) == (q.degree % 2 == 0) for q in seq]
    return sign_changes(at_neg) - sign_changes(at_pos)


# -- Newton's identities, for any ring elements that add, multiply and scale
# by a Fraction (rationals, q-series) --------------------------------------

def elementary_from_power_sums(power_sums):
    """e_1..e_m from p_1..p_m: m*e_m = sum_{i=1}^{m} (-1)^(i-1) e_(m-i) p_i."""
    es = []
    for m in range(1, len(power_sums) + 1):
        acc = None
        for i in range(1, m + 1):
            prev = es[m - i - 1] if m - i >= 1 else None
            term = power_sums[i - 1] if prev is None else prev * power_sums[i - 1]
            if i % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        es.append(acc * Fraction(1, m))
    return es


def power_sums_from_elementary(sym, count):
    """p_1..p_count from s_1..s_k (s_i = 0 beyond the list), Newton's identities.

    p_m = sum_{i=1}^{m-1} (-1)^(i+1) s_i p_(m-i) + (-1)^(m+1) m s_m.
    """
    ps = []
    for m in range(1, count + 1):
        acc = None
        for i in range(1, m):
            if i <= len(sym):
                term = sym[i - 1] * ps[m - i - 1]
                if i % 2 == 0:
                    term = -term
                acc = term if acc is None else acc + term
        if m <= len(sym):
            tail = sym[m - 1] * Fraction(m if m % 2 else -m)
            acc = tail if acc is None else acc + tail
        if acc is None:
            raise InputError("all symmetric functions vanish below index %d" % m)
        ps.append(acc)
    return ps


# -- arithmetic in F_p[x]: int lists, constant first, no trailing zeros ------

# The sieve's primes.  Modulo p below the weight, the T_2 polynomial of a
# level-1 cusp space rarely stays squarefree or splits into few factors
# (eigenforms mod p come from weights up to about p), so certificates come
# from primes just above the weight.  Measured on the T_2 polynomials of
# every even weight 24..260: the certifying prime is 1.0 to 1.4 times the
# weight, at most 281 (weight 232), and every tier-1 test and benchmark input
# certifies by 137.  The list stops at 293, the last prime below 300; a part
# it cannot certify goes to the numeric search, which stays correct.
_SIEVE_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
)


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    for i, c in enumerate(b):
        a[i] = (a[i] - c) % p
    return _fp_trim(a)


def _fp_divmod(a, b, p):
    """Quotient and remainder of a by a nonzero b over F_p."""
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1 - db, -1, -1):
        c = rem[i + db] * inv % p
        quo[i] = c
        if c:
            for j, bj in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bj) % p
    return _fp_trim(quo), _fp_trim(rem[:db])


def _fp_mulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _fp_divmod([c % p for c in out], f, p)[1]


def _fp_gcd(a, b, p):
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return a


def _fp_ddf_degrees(f, p):
    """Degrees of the irreducible factors of a monic squarefree f over F_p.

    Distinct-degree factorization: gcd(f, x^(p^d) - x) is the product of the
    irreducible factors of degree d once those of lower degree are divided out.
    """
    degrees = []
    d = 0
    xp = [0, 1]  # x^(p^d) mod f
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        base, e, acc = xp, p, [1]
        while e:
            if e & 1:
                acc = _fp_mulmod(acc, base, f, p)
            base = _fp_mulmod(base, base, f, p)
            e >>= 1
        xp = acc
        g = _fp_gcd(f, _fp_sub(xp, [0, 1], p), p)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            f = _fp_divmod(f, g, p)[0]
            xp = _fp_divmod(xp, f, p)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def _factor_degrees(P):
    """Degrees a proper factor over Q of the integer polynomial P may have.

    A factor of P over Q of degree k reduces, modulo any prime p not dividing
    lc(P), to a product of some of the irreducible factors of P mod p, so k
    is a subset sum of their degrees.  Primes that divide lc(P) or leave the
    reduction non-squarefree are skipped.  An empty set proves P irreducible.
    """
    n = P.degree
    ints = [int(c) for c in P.coeffs]
    possible = set(range(1, n))
    for p in _SIEVE_PRIMES:
        if ints[-1] % p == 0:
            continue
        inv = pow(ints[-1], -1, p)
        f = [c * inv % p for c in ints]
        df = _fp_trim([i * c % p for i, c in enumerate(f)][1:])
        if not df or len(_fp_gcd(f, df, p)) > 1:
            continue
        sums = {0}
        for d in _fp_ddf_degrees(f, p):
            sums |= {s + d for s in sums}
        possible &= sums
        if not possible:
            break
    return possible


def _round_to_int(x, slack):
    n = int(round(float(x)))
    if abs(x - n) > slack:
        return None
    return n


def _factor_squarefree_monic_int(H, prec0, degrees):
    """Irreducible monic integer factors of a squarefree monic integer polynomial.

    Only subsets whose size is in degrees (every irreducible factor's degree
    must be, see _factor_degrees) are tried.  Returns factors in discovery
    order; the caller sorts.  Raises PrecisionError if root accuracy can
    never support a trustworthy verdict.
    """
    n = H.degree
    if n <= 1:
        return [H]
    maxcoeff = max(abs(int(c)) for c in H.coeffs)
    prec = max(prec0, 128 + 16 * n + 2 * maxcoeff.bit_length())
    while True:
        if prec > 1 << 16:
            raise PrecisionError("factorization assist exhausted precision")
        try:
            roots = root_cluster(H, prec)
        except PrecisionError:
            prec *= 2
            continue
        R = max([abs(r.value) for r in roots] + [mpmath.mpf(1)])
        err = max(r.err for r in roots)
        # worst-case coefficient error of a subset product
        margin = len(roots) * (2 * (R + 1)) ** (max(1, n // 2)) * err
        if margin > mpmath.mpf("0.05"):
            prec *= 2
            continue
        rvals = [r.value for r in roots]
        remaining = list(range(n))
        rem_poly = H
        found = []
        size = 1
        while 2 * size <= len(remaining):
            if size not in degrees:
                size += 1
                continue
            hit = None
            for subset in itertools.combinations(remaining, size):
                # monic product of the chosen linear factors
                cs = [mpmath.mpc(1)]
                for idx in subset:
                    r = rvals[idx]
                    cs = [mpmath.mpc(0)] + cs
                    for t in range(len(cs) - 1):
                        cs[t] -= r * cs[t + 1]
                cand = []
                ok = True
                for v in cs:
                    if abs(v.imag) > 0.25:
                        ok = False
                        break
                    m = _round_to_int(v.real, 0.25)
                    if m is None:
                        ok = False
                        break
                    cand.append(m)
                if not ok:
                    continue
                G = UniPoly(cand)
                q, r = divmod(rem_poly, G)
                if r.is_zero():
                    hit = (subset, G, q)
                    break
            if hit is None:
                size += 1
                continue
            subset, G, q = hit
            found.append(G)
            rem_poly = q
            remaining = [t for t in remaining if t not in subset]
        if rem_poly.degree > 0:
            found.append(rem_poly)
        if sum(f.degree for f in found) != n:
            raise VerificationError("numeric factor search lost degrees")
        return found


def poly_factor_q(p, prec_bits=None):
    """Factor p over Q into monic irreducibles.

    Returns [(factor, multiplicity), ...] sorted by (degree, coefficients).
    Each factor is irreducible: certified by the mod-p degree sieve, or found
    by the numeric subset search.  lc(p) * product(factor^mult) == p is
    checked before returning (VerificationError otherwise).
    """
    if not isinstance(p, UniPoly):
        p = UniPoly(p)
    if p.is_zero():
        raise InputError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    prec0 = 256 if prec_bits is None else int(prec_bits)
    work = p.monic()
    result = {}
    # peel the power of x so the squarefree machinery sees nonzero constant terms
    v = 0
    while work.coeffs[0] == 0:
        work = UniPoly(work.coeffs[1:])
        v += 1
    if v:
        result[UniPoly((0, 1)).coeffs] = v
    if work.degree > 0:
        for part, mult in squarefree_parts(work):
            _, P = part.primitive_int()
            d = P.degree
            degrees = _factor_degrees(P) if d > 1 else ()
            if not degrees:
                found = [part.monic()]
            else:
                # monic integer transform: H(x) = lc^(d-1) * P(x/lc), so the
                # top coefficient is exactly 1
                lcP = int(P.lc())
                H = UniPoly([int(P.coeffs[i]) * lcP ** (d - 1 - i) for i in range(d)] + [1])
                # map each factor back to a monic rational factor of the part
                found = [G.scale_arg(lcP).monic()
                         for G in _factor_squarefree_monic_int(H, prec0, degrees)]
            for f in found:
                result[f.coeffs] = result.get(f.coeffs, 0) + mult
    factors = sorted(
        ((UniPoly(cs), m) for cs, m in result.items()),
        key=lambda fm: (fm[0].degree, fm[0].coeffs),
    )
    check = UniPoly((p.lc(),))
    for f, m in factors:
        check = check * f ** m
    if check != p:
        raise VerificationError("factorization certification failed")
    return factors
