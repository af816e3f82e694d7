"""Polynomials over Q as values, and exact factorization into irreducibles.

A UniPoly carries inputs and results; the factorization computes on int
lists.  The input is normalized once, to a primitive integer polynomial P,
and from there until the monic factors are returned every polynomial is an
int list.  Distinct-degree factorization modulo a fixed list of small
primes, largest first, runs at each prime that keeps the degree of P and
leaves P squarefree; the first such prime is the certificate that P is
squarefree.  Only when there is none does squarefree decomposition (Yun over
Z: primitive remainder sequences, exact divisions) run, and each of its
parts is sieved once.  Each prime gives the degrees a proper factor over Q
could have (the subset sums of the mod-p factor degrees); an empty
intersection over the primes proves the part irreducible.  A part the sieve
cannot certify is factored by Zassenhaus's method, at the odd sieve prime
with the fewest modular factors (past the sieve's primes when none keeps the
part squarefree), on the monic transform lc^(d-1) P(x/lc), whose factors G
map back to the primitive parts of G(lc x): Cantor-Zassenhaus splitting
(seeded by the prime, so runs are deterministic), Hensel lifting past the
Mignotte bound (the largest modular factor's lift is the quotient by the
others), and recombination of the lifted factors, each candidate accepted
only by exact division.  The result is certified unconditionally, by exact
division of P by every factor, and VerificationError is raised if it fails.
Every product modulo a polynomial over F_p is a Kronecker-packed integer
product reduced by a table packed once per modulus (_fp_ring), and every
power is _power over those products.
"""

import itertools
import math
import operator
import random
import sys
from array import array
from fractions import Fraction

from .errors import InputError, ResourceLimitError, VerificationError


class UniPoly:
    """Polynomial over Q as a value, coefficients stored constant-first: it
    carries inputs and results, and the package computes on int lists."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def _primitive(cs):
    """The int list of content 1 and positive last entry that is a rational
    multiple of the nonzero list cs of ints or Fractions."""
    den = math.lcm(*[c.denominator for c in cs])
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [v // g for v in ints]


# -- ring-generic routines: Newton's identities for any elements that add,
# multiply and scale by a Fraction (rationals, q-series), and powers --------

def _power(base, n, mul):
    """base^n for n >= 1 by square-and-multiply, products taken as mul(a, b).

    Needs no identity element: the first factor is base itself, and the
    last squaring, whose result would go unused, is skipped.
    """
    out = None
    while True:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if not n:
            return out
        base = mul(base, base)


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
            tail = sym[m - 1] * (m if m % 2 else -m)
            acc = tail if acc is None else acc + tail
        if acc is None:
            raise InputError("all symmetric functions vanish below index %d" % m)
        ps.append(acc)
    return ps


# -- primes ------------------------------------------------------------------

# Miller-Rabin with the prime bases 2 .. 41 is exact below this bound
# (J. Sorenson and J. Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic primality by Miller-Rabin over _MR_BASES.

    An n below _MR_LIMIT gets an exact answer, as does any n with a base
    as a factor; any other n raises ResourceLimitError.
    """
    n = int(n)
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_LIMIT:
        raise ResourceLimitError(
            "%d is beyond the deterministic prime test (n < %d)" % (n, _MR_LIMIT)
        )
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The sieve's primes.  Modulo p below the weight, the T_2 polynomial of a
# level-1 cusp space rarely stays squarefree or splits into few factors
# (eigenforms mod p come from weights up to about p), so certificates come
# from primes just above the weight, and _factor_degrees tries the largest
# first.  Measured on the T_2 polynomials of every even weight 24..264: from
# 293 down a certificate takes 1 to 13 distinct-degree runs, against 7 to 38
# from 2 up (where the prime that completes it is 1.0 to 1.4 times the
# weight, at most 281).  The list stops at 293, the last prime below 300; a
# part it cannot certify is factored by Zassenhaus's method, which is exact
# for any squarefree input.
_SIEVE_PRIMES = tuple(filter(_is_prime, range(300)))


# -- arithmetic in F_p[x]: int lists, constant first, no trailing zeros ------

def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_divmod(a, b, p):
    """Quotient and remainder of a by a nonzero b over F_p; for a monic b,
    over Z/m for any modulus m.

    Reduction is lazy: an entry is taken mod p only when it leads, and the
    remainder once at the end.
    """
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    low = b[:db]
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = quo[i - db] = rem[i] * inv % p
        if c:
            rem[i - db:i] = [r - c * bj for r, bj in zip(rem[i - db:i], low)]
    return _fp_trim(quo), _fp_trim([c % p for c in rem[:db]])


def _fp_gcd(a, b, p):
    """Monic gcd over F_p of a nonzero a and any b."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_ring(f, p):
    """mul, the product modulo the monic f of degree n over F_p: mul(a, b)
    is a b mod f for a and b reduced (degree below n, entries in [0, p)).

    Kronecker substitution: each operand packs, through array("Q"), into
    one integer with a 64-bit slot per coefficient, so one integer product
    holds every coefficient of a b, each at most n (p - 1)^2, in its own
    slot.  x^(n + j) mod f for j < n - 1 is packed once, so the n - 1 high
    coefficients of a b reduce by one sum of n - 1 integer products, each
    slot then at most (2n - 1) (p - 1)^2.  ResourceLimitError when that
    bound does not fit a slot: a carry would cross into the next coefficient.
    """
    n = len(f) - 1
    if (2 * n - 1) * (p - 1) ** 2 >> 64:
        raise ResourceLimitError(
            "F_%d products modulo a degree-%d polynomial overflow a 64-bit slot" % (p, n))
    order = sys.byteorder

    def pack(a):
        return int.from_bytes(array("Q", a), order)

    def unpack(c, k):
        return array("Q", c.to_bytes(8 * k, order))

    red = []
    low = [-c % p for c in f[:n]]  # x^n mod f
    r = low
    for _ in range(n - 1):
        red.append(pack(r))
        r = [(c + r[-1] * t) % p for c, t in zip([0] + r, low)]
    mask = (1 << 64 * n) - 1

    def mul(a, b):
        if not a or not b:
            return []
        c = pack(a)
        c *= c if a is b else pack(b)
        k = len(a) + len(b) - 1
        if k > n:
            high = unpack(c, k)[n:]
            c = (c & mask) + sum(map(operator.mul, [v % p for v in high], red))
            k = n
        return _fp_trim([v % p for v in unpack(c, k)])

    return mul


def _fp_ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f over F_p: the
    pairs (g, d), g monic and the product of the irreducible factors of f of
    degree d, over the degrees d that occur.

    gcd(f, x^(p^d) - x) is the product of the irreducible factors of degree d
    once those of lower degree are divided out.  x^p mod f is _power over
    the ring's products (the loop runs while deg f >= 2, so x is reduced);
    from d = 2 on, x^(p^d) is the previous one times the Frobenius matrix,
    row i x^(ip) mod f as f stands at d = 2 ((sum a_i x^i)^p = sum a_i
    x^(ip) over F_p), reduced modulo the divisor f has since shrunk to.
    """
    mul = _fp_ring(f, p)
    parts = []
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        if d == 1:
            xp = _power([0, 1], p, mul)
        else:
            if d == 2:  # the Frobenius matrix, by columns
                if parts:  # f shrank at d = 1
                    mul = _fp_ring(f, p)
                rows = [[1], xp]
                while len(rows) < len(f) - 1:
                    rows.append(mul(rows[-1], xp))
                cols = list(zip(*[r + [0] * (len(f) - 1 - len(r)) for r in rows]))
            xp = _fp_divmod([sum(map(operator.mul, xp, c)) for c in cols], f, p)[1]
        y = xp + [0] * (2 - len(xp))  # y = xp - x
        y[1] = (y[1] - 1) % p
        g = _fp_gcd(f, _fp_trim(y), p)
        if len(g) > 1:
            parts.append((g, d))
            f = _fp_divmod(f, g, p)[0]
            xp = _fp_divmod(xp, f, p)[1]
    if len(f) > 1:
        parts.append((f, len(f) - 1))
    return parts


def _fp_edf(g, d, p, rng):
    """Monic irreducible factors over F_p, p odd, of a monic g whose
    irreducible factors all have degree d (Cantor-Zassenhaus).

    For a of degree below deg g, a^((p^d - 1)/2) is 1 modulo about half of
    the factors that a is coprime to, so gcd(g, a^((p^d - 1)/2) - 1) splits g
    for about half the draws of a from rng.
    """
    if len(g) - 1 == d:
        return [g]
    mul = _fp_ring(g, p)
    while True:
        a = [rng.randrange(p) for _ in range(len(g) - 2)] + [1]
        b = _power(a, (p ** d - 1) // 2, mul)
        h = _fp_gcd(g, _fp_trim([(b[0] - 1) % p] + b[1:]), p)
        if 1 < len(h) < len(g):
            return _fp_edf(h, d, p, rng) + _fp_edf(_fp_divmod(g, h, p)[0], d, p, rng)


def _squarefree_reductions(P, primes):
    """(p, P mod p made monic) for each p in primes that keeps the degree of
    the integer polynomial P (int list) and leaves it squarefree.

    gcd(P, P') = 1 over F_p, p not dividing lc(P), means the resultant of P
    and P' is nonzero mod p, hence nonzero: P and P' are coprime over Q.
    """
    for p in primes:
        if P[-1] % p:
            inv = pow(P[-1], -1, p)
            f = [c * inv % p for c in P]
            df = _fp_trim([i * c % p for i, c in enumerate(f)][1:])
            if df and len(_fp_gcd(f, df, p)) == 1:
                yield p, f


def _factor_degrees(P):
    """(degrees, p) for the integer polynomial P (int list): the degrees a
    proper factor of P over Q may have and, when there are any, the odd sieve
    prime at which P has the fewest irreducible factors (None if there is no
    such prime).  None when no sieve prime keeps P squarefree: the first
    prime that does is the certificate that P is squarefree.

    A factor of P over Q of degree k reduces, modulo any prime p not dividing
    lc(P), to a product of some of the irreducible factors of P mod p, so k
    is a subset sum of their degrees.  Primes that divide lc(P) or leave the
    reduction non-squarefree are skipped.  An empty set proves P irreducible.
    The order of the primes changes only how soon the intersection can come
    out empty; largest first, as T_2 polynomials certify just above the weight.
    """
    possible = None  # until a prime keeps P squarefree
    best, fewest = None, len(P)
    for p, f in _squarefree_reductions(P, reversed(_SIEVE_PRIMES)):
        degrees = [d for g, d in _fp_ddf(f, p) for _ in range((len(g) - 1) // d)]
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        possible = sums.intersection(range(1, len(P) - 1)) if possible is None else possible & sums
        if not possible:
            break
        if p > 2 and len(degrees) < fewest:
            best, fewest = p, len(degrees)
    return None if possible is None else (possible, best)


def _hensel_lift(H, f, p, q):
    """The monic factor mod q, a power of p, of the monic integer H (int
    list) that reduces to f, a monic irreducible factor of H over F_p
    coprime to H / f.

    Linear lifting.  With F | H mod m = p^k, the remainder of H by F is
    R = 0 mod m, and F + m dF divides H mod mp for dF = (R / m) g^(-1) mod f,
    g = H / f over F_p.  The inverse is g^(p^d - 2) in F_p[x]/(f), the field
    of p^d elements; it and each correction are products in _fp_ring(f, p).
    """
    mul = _fp_ring(f, p)
    g = _fp_divmod([c % p for c in H], f, p)[0]
    ginv = _power(_fp_divmod(g, f, p)[1], p ** (len(f) - 1) - 2, mul)
    F, m = f, p
    while m < q:
        e = [c // m % p for c in _fp_divmod(H, F, m * p)[1]]
        F = [c + m * dc for c, dc in itertools.zip_longest(F, mul(e, ginv), fillvalue=0)]
        m *= p
    return F


def _zq_prod(polys, q):
    """Product mod q of nonempty int lists, constant first, entries in [0, q)."""
    out = [1]
    for b in polys:
        prod = [0] * (len(out) + len(b) - 1)
        for i, a in enumerate(out):
            if a:
                for j, c in enumerate(b):
                    prod[i + j] += a * c
        out = [c % q for c in prod]
    return out


def _int_divexact(a, b, limit=None):
    """a / b for int lists, b nonzero, or None when b does not divide a in
    Z[x] or, given a limit, a quotient coefficient exceeds it in absolute
    value."""
    rem = list(a)
    db = len(b) - 1
    lc = b[-1]
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + db], lc)
        if r or limit is not None and abs(c) > limit:
            return None
        quo[i] = c
        if c:
            rem[i:i + db] = [v - c * w for v, w in zip(rem[i:i + db], b)]
    return None if any(rem[:db]) else quo


def _int_gcd(a, b):
    """The primitive gcd, leading coefficient positive, of the int lists a
    and b, not both zero: the last nonzero entry of their primitive
    remainder sequence (pseudo-remainders, each made primitive)."""
    while b:
        r = list(a)
        lc, db = b[-1], len(b) - 1
        while len(r) > db:
            c = r.pop()
            if c:
                k = len(r) - db
                r = [lc * v for v in r[:k]] + [lc * v - c * w for v, w in zip(r[k:], b)]
        a, b = b, _fp_trim(r) and _primitive(r)
    return _primitive(a)


def _int_yun(P):
    """Yun's squarefree decomposition of a primitive integer polynomial P
    (int list) of degree >= 1 and positive leading coefficient: the pairs
    (G, i), G primitive of degree >= 1 with positive leading coefficient, i
    increasing, whose product of G^i is P.

    Every gcd is primitive, so by Gauss's lemma each division is exact in
    Z[x]: no coefficient leaves the integers.  The pass at i = 0 divides P
    and P' by gcd(P, P'), Yun's set-up.
    """
    def diff(f):
        return [i * c for i, c in enumerate(f)][1:]

    out, b, d = [], P, diff(P)
    for i in itertools.count():
        if len(b) == 1:
            return out
        g = _int_gcd(b, d)
        if i and len(g) > 1:
            out.append((g, i))
        b = _int_divexact(b, g)
        d = [u - v for u, v in itertools.zip_longest(_int_divexact(d, g), diff(b), fillvalue=0)]
        d = _fp_trim(d)


def _factor_squarefree_monic_int(H, degrees, p):
    """Irreducible monic integer factors (int lists) of a squarefree monic
    integer polynomial H (int list), by Zassenhaus's method, in discovery
    order.

    p is an odd prime that keeps H squarefree, or None to take the first
    prime above the sieve's that does (finitely many primes divide the
    discriminant, so one exists).  The factors of H mod p, from Cantor-
    Zassenhaus splitting seeded by p, are lifted to p^a past twice the
    Mignotte bound 2^n ||H||_2 on the coefficients of any factor of H: each
    by Hensel lifting but the largest, which is the quotient of H by the
    product of the other lifts mod p^a.
    Products of subsets of the lifts, smallest subsets first and only those
    whose degree is in degrees (every irreducible factor's degree is, see
    _factor_degrees), taken with coefficients in (-p^a/2, p^a/2), are
    accepted by exact division.
    """
    if p is None:
        p, f = next(_squarefree_reductions(H, filter(_is_prime, itertools.count(300))))
    else:
        f = [c % p for c in H]
    rng = random.Random(p)
    rest = H
    bound = 2 ** len(rest) * (math.isqrt(sum(c * c for c in rest)) + 1)  # > 2^(n+1) ||H||_2
    q = p ** next(a for a in itertools.count(1) if p ** a > bound)
    modular = [h for g, d in _fp_ddf(f, p) for h in _fp_edf(g, d, p, rng)]
    big = max(range(len(modular)), key=lambda i: len(modular[i]))
    lifts = [None if i == big else _hensel_lift(rest, h, p, q) for i, h in enumerate(modular)]
    lifts[big] = _fp_divmod(rest, _zq_prod([F for F in lifts if F], q), q)[0]
    found = []
    size = 1
    while 2 * size <= len(lifts):
        for subset in itertools.combinations(range(len(lifts)), size):
            if sum(len(lifts[i]) - 1 for i in subset) not in degrees:
                continue
            G = [c - q if 2 * c > q else c for c in _zq_prod([lifts[i] for i in subset], q)]
            quo = _int_divexact(rest, G, q // 2)
            if quo is not None:
                found.append(G)
                rest = quo
                lifts = [F for i, F in enumerate(lifts) if i not in subset]
                break
        else:
            size += 1
    return found + [rest]


def poly_factor_q(p):
    """Factor p over Q into monic irreducibles.

    Returns [(factor, multiplicity), ...] sorted by (degree, coefficients).
    Each factor is irreducible: certified by the mod-p degree sieve, or found
    by Zassenhaus's method.  Between the one normalization of p to a
    primitive integer polynomial P and the monic factors returned, every
    polynomial is an int list, and the certificate is exact division: P
    divided by each primitive factor F, mult times, leaves [1], which proves
    lc(p) * product(factor^mult) == p (VerificationError otherwise).
    """
    if not isinstance(p, UniPoly):
        p = UniPoly(p)
    if p.is_zero():
        raise InputError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    P = whole = _primitive(p.coeffs)
    result = {}
    # peel the power of x so the squarefree machinery sees nonzero constant terms
    v = next(i for i, c in enumerate(P) if c)
    if v:
        result[(0, 1)] = v
        P = P[v:]
    if len(P) > 1:
        sieve = _factor_degrees(P)
        if sieve is not None:
            parts = [(P, 1, sieve)]
        else:
            # P has a repeated factor or no sieve prime shows it has none:
            # Yun's parts, each sieved once (P, if squarefree, is its one
            # part and has been sieved already)
            parts = [(Q, m, None if Q == P else _factor_degrees(Q)) for Q, m in _int_yun(P)]
        for Q, mult, sieve in parts:
            d = len(Q) - 1
            degrees, prime = sieve or (set(range(1, d)), None)
            if not degrees:
                found = [Q]
            else:
                # a factor G of the monic H(x) = lc^(d-1) Q(x/lc) gives the
                # factor of Q that is the primitive part of G(lc x)
                lc = Q[-1]
                H = [c * lc ** (d - 1 - i) for i, c in enumerate(Q[:d])] + [1]
                found = [_primitive([c * lc ** i for i, c in enumerate(G)])
                         for G in _factor_squarefree_monic_int(H, degrees, prime)]
            for F in found:
                result[tuple(F)] = result.get(tuple(F), 0) + mult
    rest = whole
    for F, m in result.items():
        for _ in range(m):
            rest = rest and _int_divexact(rest, F)  # None once a division fails
    if rest != [1]:
        raise VerificationError("factorization certification failed")
    return sorted(
        ((UniPoly([Fraction(c, F[-1]) for c in F]), m) for F, m in result.items()),
        key=lambda fm: (fm[0].degree, fm[0].coeffs),
    )
