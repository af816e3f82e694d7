import collections
import functools
import math
import random
import time
from fractions import Fraction
from itertools import zip_longest

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mtv import polynomial
from mtv.errors import ResourceLimitError, VerificationError
from mtv.polynomial import UniPoly, poly_factor_q

from _oracles import (Poly, charpoly_multimodular, ddf_degrees_ref, factor_degrees_ascending,
                      factor_degrees_ref, factor_mod_p, fp_gcd_ref, fp_mul_ref, fp_mulmod_ref,
                      fp_powmod_ref, fp_rem_ref, poly_gcd_ref, real_root_count,
                      squarefree_parts_ref)

X = Poly([0, 1])


def from_sympy_factors(p):
    """Factor with sympy over Q and normalize to monic (poly, mult) pairs."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(p.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, x))
    out = []
    for fac, mult in factors:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(fac, x).all_coeffs())]
        mon = Poly(cs).monic()
        out.append((mon, mult))
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@given(st.lists(small_fracs, min_size=1, max_size=5),
       st.lists(small_fracs, min_size=2, max_size=5))
@settings(max_examples=80)
def test_divmod_invariant(a, b):
    # the oracle's arithmetic, which the tests build their inputs with
    pa, pb = Poly(a), Poly(b)
    if pb.is_zero():
        return
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert r.is_zero() or r.degree < pb.degree


def test_basic_arithmetic_and_eval():
    p = (X - 1) * (X + 2)
    assert p.coeffs == (Fraction(-2), Fraction(1), Fraction(1))
    assert p.eval(Fraction(3)) == 10
    assert p.derivative().coeffs == (Fraction(1), Fraction(2))
    assert (X**3).degree == 3
    assert UniPoly([0, 0]).is_zero()
    # the package's value type has no ring arithmetic
    assert not hasattr(UniPoly, "__add__") and not hasattr(UniPoly, "monic")


def test_monic_and_primitive():
    p = Poly([Fraction(2), Fraction(0), Fraction(4)])
    assert p.monic().coeffs == (Fraction(1, 2), Fraction(0), Fraction(1))
    # poly_factor_q's one normalization: content 1, positive lead, a
    # rational multiple of the input
    for cs in (p.coeffs, [Fraction(-3, 2), Fraction(1, 6), Fraction(-9, 4)]):
        P = polynomial._primitive(cs)
        assert P[-1] > 0 and math.gcd(*P) == 1
        assert [c * P[-1] for c in cs] == [v * cs[-1] for v in P]


def test_gcd_and_squarefree():
    a = (X - 1) ** 2 * (X + 3)
    b = (X - 1) * (X + 5)
    assert poly_gcd_ref(a, b) == X - 1
    # the primitive remainder sequence gives the same gcd, made primitive
    assert polynomial._int_gcd(ints(15 * a), ints(6 * b)) == [-1, 1]
    assert polynomial._int_gcd(ints(a), []) == ints(a)
    parts = squarefree_parts_ref((X - 1) ** 2 * (X + 2))
    # Yun output: list of (factor, multiplicity) with product reassembling
    acc = Poly([1])
    for fac, mult in parts:
        acc = acc * fac**mult
    assert acc.monic() == ((X - 1) ** 2 * (X + 2)).monic()
    assert polynomial._int_yun(ints(3 * (X - 1) ** 2 * (X + 2))) == [([2, 1], 1), ([-1, 1], 2)]


def test_integer_yun_matches_the_fraction_yun():
    # g^a h^b with g and h maybe sharing a factor, so parts of every
    # multiplicity up to 6 and gaps between them
    rng = random.Random(20261019)
    for _ in range(40):
        g = random_int_poly(rng, rng.randint(1, 3), 9)
        h = random_int_poly(rng, rng.randint(1, 3), 9)
        P = polynomial._primitive((g ** rng.randint(1, 3) * h ** rng.randint(1, 3)).coeffs)
        want = [(polynomial._primitive(f.coeffs), m) for f, m in squarefree_parts_ref(Poly(P))]
        assert polynomial._int_yun(P) == want, P


FACTOR_CASES = [
    X**2 - 1080 * X - 20468736,            # weight-24 Hecke polynomial
    (X - 37) ** 3,                          # triple rational root
    X**4 - 10 * X**2 + 1,                   # irreducible, golden-ratio-free
    X**6 - 1,                               # product of cyclotomics
    X**4 + X**3 + X**2 + X + 1,             # 5th cyclotomic
    (X - 1) * (X**2 + 1) * (2 * X + 3),     # mixed degrees, non-monic
    X**5 - X - 1,                           # irreducible quintic
    # Phi_E of the level-3 corollary at y^2 = 4x^3 - 1: x (x^3 + (4320/41)^3),
    # whose part x^3 + c needs Zassenhaus's method with a non-monic P
    X**4 + Fraction(80621568000, 68921) * X,
    (41 * X + 4320) * (X**2 - 7),           # non-monic linear factor
    # every normalization branch at once: rational content, a negative
    # leading coefficient, x^3, a repeated non-monic factor, and a Yun part
    # (x^3 + (4320/41)^3)(6x^2 - 1) that needs Zassenhaus's method at lc != 1
    Fraction(-3, 7) * X**3 * (3 * X**2 - 5) ** 2 * (X**3 + Fraction(4320, 41) ** 3)
    * (6 * X**2 - 1),
]


@pytest.mark.parametrize("p", FACTOR_CASES, ids=[str(i) for i in range(len(FACTOR_CASES))])
def test_factor_matches_sympy(p):
    got = sorted(poly_factor_q(p), key=lambda t: (t[0].degree, t[0].coeffs))
    want = from_sympy_factors(p)
    assert got == want


def test_factor_certifies_product():
    # multiply the factors back through the oracle and compare against the
    # monic input
    p = (X**2 - 2) * (X - 7) ** 2
    acc = Poly([1])
    for fac, mult in poly_factor_q(p):
        acc = acc * Poly(fac.coeffs) ** mult
    assert acc == p.monic()


def ints(p):
    """The coefficients of an integer UniPoly as an int list, constant first."""
    return [int(c) for c in p.coeffs]


def random_int_poly(rng, degree, size):
    cs = [rng.randint(-size, size) for _ in range(degree)]
    return Poly(cs + [rng.choice([-1, 1]) * rng.randint(1, size)])


def ddf_degrees(f, p):
    """Degrees of the irreducible factors of f over F_p, from its distinct-degree parts."""
    return [d for g, d in polynomial._fp_ddf(f, p) for _ in range((len(g) - 1) // d)]


def squarefree_mod_p(rng, p, n):
    """A seeded monic squarefree f of degree n over F_p and its factors, by brute force."""
    while True:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        factors = factor_mod_p(f, p)
        if len(set(factors)) == len(factors):
            return f, factors


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ddf_degrees_match_brute_force(p):
    rng = random.Random(1000 + p)
    for _ in range(30):
        f, factors = squarefree_mod_p(rng, p, rng.randint(1, 7))
        # each part is the product of the irreducible factors of its degree
        for g, d in polynomial._fp_ddf(f, p):
            assert factor_mod_p(g, p) == [h for h in factors if len(h) - 1 == d], (f, p)
        assert sorted(ddf_degrees(f, p)) == sorted(len(h) - 1 for h in factors), (f, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_equal_degree_splitting_matches_brute_force(p):
    rng = random.Random(2000 + p)
    for _ in range(30):
        f, factors = squarefree_mod_p(rng, p, rng.randint(1, 8))
        got = [h for g, d in polynomial._fp_ddf(f, p)
               for h in polynomial._fp_edf(g, d, p, random.Random(p))]
        assert sorted(map(tuple, got)) == factors, (f, p)


def test_ddf_degrees_match_the_repeated_squaring_route():
    # two seeded squarefree monic polynomials per sieve prime, their degrees
    # running over 1..22 as the primes go up
    x = sympy.Symbol("x")
    for i, p in enumerate(polynomial._SIEVE_PRIMES):
        rng = random.Random(7000 + p)
        for n in (1 + i % 22, 22 - i % 22):
            while True:
                f = [rng.randrange(p) for _ in range(n)] + [1]
                if sympy.Poly(f[::-1], x, modulus=p).is_sqf:
                    break
            assert ddf_degrees(f, p) == ddf_degrees_ref(f, p), (f, p)


def reduced_mod_p(rng, p, length):
    """A seeded list of length entries in [0, p), trimmed (so maybe shorter)."""
    a = [rng.randrange(p) for _ in range(length)]
    while a and a[-1] == 0:
        a.pop()
    return a


# the sieve primes and the first three past them, where Zassenhaus's
# fallback looks when no sieve prime keeps its input squarefree
RING_PRIMES = tuple(sympy.primerange(2, 300)) + (307, 311, 313)


@pytest.mark.parametrize("p", RING_PRIMES)
def test_packed_ring_matches_schoolbook(p):
    rng = random.Random(3000 + p)
    for n in range(1, 25):
        f = [rng.randrange(p) for _ in range(n)] + [1]
        mul, xpow = polynomial._fp_ring(f, p)
        # operands of unequal length, one of them maybe zero
        a = reduced_mod_p(rng, p, rng.randint(0, n))
        b = reduced_mod_p(rng, p, n)
        assert mul(a, b) == mul(b, a) == fp_mulmod_ref(a, b, f, p), (f, a, b)
        assert mul(b, b) == fp_mulmod_ref(b, b, f, p), (f, b)
        assert mul(a, []) == mul([], b) == []
        for e in (1, 2, rng.randrange(3, 64), p):
            assert xpow(e) == fp_powmod_ref([0, 1], e, f, p), (f, e)
        # quotients and remainders of unreduced dividends by a monic and a
        # non-monic divisor: c = quo * div + rem over F_p
        c = [rng.randrange(-p * p, p * p) for _ in range(rng.randint(0, 2 * n + 1))]
        for div in (f, b) if b else (f,):
            quo, rem = polynomial._fp_divmod(c, div, p)
            assert rem == fp_rem_ref(c, div, p), (c, div)
            back = zip_longest(fp_mul_ref(quo, div, p), rem, c, fillvalue=0)
            assert not any((x + y - z) % p for x, y, z in back), (c, div)
        # gcds, coprime and with a common factor of degree up to n
        h = reduced_mod_p(rng, p, rng.randint(1, n)) or [1]
        u, v = fp_mul_ref(h, f, p), fp_mul_ref(h, b or [1], p)
        for x, y in ((f, b), (u, v), (v, u)):
            assert polynomial._fp_gcd(x, y, p) == fp_gcd_ref(x, y, p), (x, y)


def test_packed_ring_refuses_a_slot_overflow():
    # each slot holds up to (2n - 1)(p - 1)^2, below 2^64 at p = 2^31 - 1 only
    # for n <= 2; the largest operands put 2(p - 1)^2 in a product slot
    p = 2**31 - 1
    f = [5, 7, 1]
    mul, _ = polynomial._fp_ring(f, p)
    a = [p - 1, p - 1]
    assert mul(a, a) == fp_mulmod_ref(a, a, f, p)
    with pytest.raises(ResourceLimitError, match="64-bit slot"):
        polynomial._fp_ring([5, 7, 11, 1], p)


@functools.lru_cache(maxsize=None)
def _t2_polynomial(weight):
    """The T_2 polynomial of the weight-k level-1 cusp space, the matrix from
    the package and its characteristic polynomial from the multimodular oracle."""
    from mtv.spaces import dim_cusp_level1, hecke_matrix_level1

    s = dim_cusp_level1(weight)
    M, _ = hecke_matrix_level1(weight, 2, 2 * s + 2)
    assert all(type(x) is int for r in M for x in r), weight
    return Poly(charpoly_multimodular(M))


def test_sieve_order_leaves_t2_certificates_unchanged():
    # largest prime first changes how soon the sieve stops, never its answer:
    # every T_2 polynomial here is irreducible either way
    for weight in range(24, 265, 2):
        P = ints(_t2_polynomial(weight))
        assert polynomial._factor_degrees(P)[0] == factor_degrees_ascending(P) == set(), weight


# the level-1 weights of the newform bases and theorems of the hecke-wide
# benchmark: cusp dimensions 5, 6, 7 and 8
HECKE_WIDE_WEIGHTS = (60, 70, 72, 84, 88, 90, 92, 94, 96, 98, 100, 102, 104, 106)


@pytest.mark.parametrize("weight", HECKE_WIDE_WEIGHTS)
def test_sieve_certifies_t2_within_twelve_primes(weight, monkeypatch):
    # from the largest prime down, the primes just above the weight come
    # early; from the smallest up, these took 14 to 23 distinct-degree runs
    calls = []
    ddf = polynomial._fp_ddf
    monkeypatch.setattr(polynomial, "_fp_ddf", lambda f, p: calls.append(p) or ddf(f, p))
    assert polynomial._factor_degrees(ints(_t2_polynomial(weight)))[0] == set()
    assert 1 <= len(calls) <= 12, calls


@pytest.mark.parametrize("weight", HECKE_WIDE_WEIGHTS)
def test_sieve_matches_a_schoolbook_sieve_on_t2(weight):
    # the same degrees and the same prime as the sieve on schoolbook F_p
    # products, remainders and gcds
    P = ints(_t2_polynomial(weight))
    assert polynomial._factor_degrees(P) == factor_degrees_ref(P, sympy.primerange(2, 300))


def test_sieve_primes_are_the_primes_below_300():
    assert polynomial._SIEVE_PRIMES == tuple(sympy.primerange(2, 300))


def test_sieve_never_certifies_a_product():
    rng = random.Random(20261018)
    for _ in range(60):
        a = random_int_poly(rng, rng.randint(1, 4), 30)
        b = random_int_poly(rng, rng.randint(1, 4), 30)
        P = polynomial._primitive((a * b).coeffs)
        # a true factor degree never leaves the candidate set, so every prime
        # is scanned, and the order the primes are tried in changes nothing
        got, prime = polynomial._factor_degrees(P)
        assert a.degree in got, (a, b)
        assert got == factor_degrees_ascending(P), (a, b)
        # the reported prime is an odd one with the fewest modular factors
        counts = {p: len(ddf_degrees(f, p))
                  for p, f in polynomial._squarefree_reductions(P, polynomial._SIEVE_PRIMES[1:])}
        assert counts[prime] == min(counts.values()), (a, b)


def test_recombination_tries_only_sieve_degrees(monkeypatch):
    p = (X**2 - 2) * (X**2 - 3) * (X**2 - 5)
    assert polynomial._factor_degrees(ints(p))[0] == {2, 4}
    sizes = []
    divexact = polynomial._int_divexact

    def spy(a, b, limit=None):
        if limit is not None:  # a recombination candidate, not the certificate
            sizes.append(len(b) - 1)
        return divexact(a, b, limit)

    monkeypatch.setattr(polynomial, "_int_divexact", spy)
    got = [f for f, _ in poly_factor_q(p)]
    assert got == [X**2 - 5, X**2 - 3, X**2 - 2]
    assert sizes and set(sizes) <= {2, 4}


def no_fallback(*args, **kwargs):
    raise AssertionError("the Zassenhaus fallback ran")


def test_sieve_certifies_without_roots(monkeypatch):
    monkeypatch.setattr(polynomial, "_factor_squarefree_monic_int", no_fallback)
    for p in (X**5 - X - 1, X**2 - 1080 * X - 20468736, 3 * X**3 - 7 * X + 2):
        ((f, m),) = poly_factor_q(p)
        assert f == p.monic() and m == 1
    # irreducible over Q yet reducible modulo every prime: not certified, so
    # Zassenhaus's method is the route that proves it
    p = X**4 - 10 * X**2 + 1
    assert polynomial._factor_degrees(ints(p))[0] == {2}
    with pytest.raises(AssertionError, match="fallback ran"):
        poly_factor_q(p)
    monkeypatch.undo()
    assert poly_factor_q(p) == [(p, 1)]


def test_failed_multiply_back_raises_verification_error(monkeypatch):
    # a wrong factor fails the certificate, the exact division of P
    monkeypatch.setattr(polynomial, "_factor_squarefree_monic_int",
                        lambda H, degrees, p: [[H[0] + 1] + H[1:]])
    with pytest.raises(VerificationError):
        poly_factor_q((X - 1) * (X - 2))


def seeded_big_factor(rng, degree):
    """A primitive integer polynomial with coefficients of 54 to 80 bits."""
    cs = [rng.choice([-1, 1]) * rng.getrandbits(rng.randint(54, 80)) for _ in range(degree)]
    return Poly(polynomial._primitive(cs + [rng.randint(1, 9)]))


def test_factor_matches_sympy_past_double_precision():
    rng = random.Random(20261019)
    for _ in range(12):
        p = Poly([rng.randint(1, 5)])
        for _ in range(rng.randint(2, 3)):
            p = p * seeded_big_factor(rng, rng.randint(1, 4)) ** rng.choice([1, 1, 2])
        got = poly_factor_q(p)
        assert got == from_sympy_factors(p), p
        assert any(abs(c) > 2**53 for f, _ in got for c in f.coeffs), p


def swinnerton_dyer(primes):
    """prod (x - (+-sqrt p1 +- ... +- sqrt pk)), built one sqrt at a time:
    S_p(x) = S(x - sqrt p) S(x + sqrt p), an even function of sqrt p."""
    x, r = sympy.symbols("x r")
    s = sympy.Poly(x, x)
    for p in primes:
        shifted = sympy.Poly(s.as_expr().subs(x, x - r), x, r)
        prod = (shifted * shifted.as_expr().subs(r, -r)).as_expr()
        s = sympy.Poly(sympy.expand(prod).subs(r**2, p), x)
    return Poly([int(c) for c in reversed(s.all_coeffs())])


@pytest.mark.parametrize("primes", [(2, 3, 5), (2, 3, 5, 7)], ids=["S235", "S2357"])
def test_factor_swinnerton_dyer(primes):
    # irreducible over Q, yet a product of factors of degree <= 2 mod every prime
    p = swinnerton_dyer(primes)
    assert p.degree == 2 ** len(primes)
    assert poly_factor_q(p) == from_sympy_factors(p) == [(p, 1)]


def test_zassenhaus_proves_the_weight_276_t2_polynomial_irreducible():
    # the first T_2 polynomial the sieve leaves uncertified: factors of
    # degree 3 or 20 stay possible; the fallback takes about 0.5 s on a
    # 2-vCPU VM, and the bound only catches a search that runs away
    P = _t2_polynomial(276)
    assert polynomial._factor_degrees(ints(P)) == ({3, 20}, 281)
    start = time.perf_counter()
    assert poly_factor_q(P) == [(P, 1)]
    assert time.perf_counter() - start < 30


# the product of the odd primes below 300: every sieve prime divides the
# discriminant of the two products below, so the fallback takes a prime past 293
ODD_PRIMORIAL_293 = math.prod(sympy.primerange(3, 294))


@pytest.mark.parametrize("p", [
    (X - ODD_PRIMORIAL_293) * (X + ODD_PRIMORIAL_293),
    (X**2 - ODD_PRIMORIAL_293) * (X**2 - 3 * ODD_PRIMORIAL_293),
], ids=["linear", "quadratic"])
def test_factor_past_the_sieve_primes(p):
    # no sieve prime certifies p squarefree, so no sieve degrees either
    assert polynomial._factor_degrees(ints(p)) is None
    assert poly_factor_q(p) == from_sympy_factors(p)


def test_repeated_factors_are_never_certified_squarefree():
    rng = random.Random(11)
    for _ in range(40):
        g = random_int_poly(rng, rng.randint(1, 3), 9)
        h = random_int_poly(rng, rng.randint(0, 4), 9)
        p = g * g * h
        assert polynomial._factor_degrees(polynomial._primitive(p.coeffs)) is None
        # Yun still runs and reports g with multiplicity 2 (or more, if g
        # shares a factor with h)
        factors = dict((f.coeffs, m) for f, m in poly_factor_q(p))
        for f, m in poly_factor_q(g):
            assert factors[f.coeffs] >= 2 * m


def test_squarefree_certificate_skips_yun(monkeypatch):
    def no_yun(P):
        raise AssertionError("Yun ran")

    monkeypatch.setattr(polynomial, "_int_yun", no_yun)
    rng = random.Random(12)
    for _ in range(40):
        p = random_int_poly(rng, rng.randint(1, 8), 9)
        P = polynomial._primitive(p.coeffs)
        if sympy.discriminant(sympy.Poly(P[::-1], sympy.Symbol("x"))) == 0:
            continue
        assert polynomial._factor_degrees(P) is not None
        assert all(m == 1 for _, m in poly_factor_q(p))


def test_squarefree_certificate_on_a_prime_that_divides_the_degree():
    # x^3 - 2 mod 3 is (x + 1)^3 and its derivative vanishes there; mod 2
    # it is x^3 and its derivative x^2: of 2, 3 and 5 only 5 certifies
    primes = polynomial._SIEVE_PRIMES[:3]
    assert [p for p, _ in polynomial._squarefree_reductions([-2, 0, 0, 1], primes)] == [5]


def test_squarefree_inputs_take_one_derivative_gcd_per_prime(monkeypatch):
    # the sieve's first accepted prime is the squarefree certificate, so no
    # prime runs gcd(f, f') twice: not for inputs the sieve certifies
    # irreducible, nor for those that go on to Zassenhaus's method at a sieve
    # prime or (the primorial product) past the sieve's primes
    gcd = polynomial._fp_gcd
    calls = collections.Counter()

    def spy(a, b, p):
        if b == polynomial._fp_trim([i * c % p for i, c in enumerate(a)][1:]):
            calls[p] += 1
        return gcd(a, b, p)

    monkeypatch.setattr(polynomial, "_fp_gcd", spy)
    for p in (X**2 - 1080 * X - 20468736, 3 * X**3 - 7 * X + 2, X**4 - 10 * X**2 + 1,
              (X**2 - 2) * (X**2 - 3) * (X**2 - 5), (41 * X + 4320) * (X**2 - 7),
              (X - ODD_PRIMORIAL_293) * (X + ODD_PRIMORIAL_293)):
        calls.clear()
        assert all(m == 1 for _, m in poly_factor_q(p))
        assert calls and max(calls.values()) == 1, (p, calls)


def test_real_root_count_by_sturm():
    assert real_root_count(X**2 - 2) == 2
    assert real_root_count(X**2 + 1) == 0
    assert real_root_count(X**3 - 2) == 1
    assert real_root_count((X - 1) * (X - 2) * (X + 3) * (X**2 + X + 1)) == 3
    # roots 2.8e-100 apart: exact counting needs no precision
    assert real_root_count(X**2 - Fraction(2, 10**200)) == 2
    assert real_root_count(UniPoly([5])) == 0
