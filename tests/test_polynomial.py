import functools
import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mtv import polynomial
from mtv.errors import VerificationError
from mtv.polynomial import (
    UniPoly,
    poly_factor_q,
    poly_gcd,
    squarefree_parts,
)

from _oracles import (charpoly_multimodular, ddf_degrees_ref, factor_degrees_ascending,
                      factor_mod_p, real_root_count)

X = UniPoly.x()


def from_sympy_factors(p):
    """Factor with sympy over Q and normalize to monic (poly, mult) pairs."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(p.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, x))
    out = []
    for fac, mult in factors:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(fac, x).all_coeffs())]
        mon = UniPoly(cs).monic()
        out.append((mon, mult))
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@given(st.lists(small_fracs, min_size=1, max_size=5),
       st.lists(small_fracs, min_size=2, max_size=5))
@settings(max_examples=80)
def test_divmod_invariant(a, b):
    pa, pb = UniPoly(a), UniPoly(b)
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


def test_monic_and_primitive():
    p = UniPoly([Fraction(2), Fraction(0), Fraction(4)])
    assert p.monic().coeffs == (Fraction(1, 2), Fraction(0), Fraction(1))
    scale, prim = p.primitive_int()
    assert [c * scale for c in prim.coeffs] == list(p.coeffs)


def test_scale_arg():
    p = X**2 + 3 * X + 1
    q = p.scale_arg(Fraction(2))
    assert q.eval(Fraction(5)) == p.eval(Fraction(10))


def test_gcd_and_squarefree():
    a = (X - 1) ** 2 * (X + 3)
    b = (X - 1) * (X + 5)
    g = poly_gcd(a, b).monic()
    assert g == (X - 1).monic()
    parts = squarefree_parts((X - 1) ** 2 * (X + 2))
    # Yun output: list of (factor, multiplicity) with product reassembling
    acc = UniPoly([1])
    for fac, mult in parts:
        acc = acc * fac**mult
    assert acc.monic() == ((X - 1) ** 2 * (X + 2)).monic()


FACTOR_CASES = [
    X**2 - 1080 * X - 20468736,            # weight-24 Hecke polynomial
    (X - 37) ** 3,                          # triple rational root
    X**4 - 10 * X**2 + 1,                   # irreducible, golden-ratio-free
    X**6 - 1,                               # product of cyclotomics
    X**4 + X**3 + X**2 + X + 1,             # 5th cyclotomic
    (X - 1) * (X**2 + 1) * (2 * X + 3),     # mixed degrees, non-monic
    X**5 - X - 1,                           # irreducible quintic
    # Phi_E of the level-3 corollary at y^2 = 4x^3 - 1: x (x^3 + (4320/41)^3),
    # whose part x^3 + c needs the numeric search with a non-monic P
    X**4 + Fraction(80621568000, 68921) * X,
    (41 * X + 4320) * (X**2 - 7),           # non-monic linear factor
]


@pytest.mark.parametrize("p", FACTOR_CASES, ids=[str(i) for i in range(len(FACTOR_CASES))])
def test_factor_matches_sympy(p):
    got = sorted(poly_factor_q(p), key=lambda t: (t[0].degree, t[0].coeffs))
    want = from_sympy_factors(p)
    assert got == want


def test_factor_certifies_product():
    # multiply the factors back and compare against the monic input
    p = (X**2 - 2) * (X - 7) ** 2
    acc = UniPoly([1])
    for fac, mult in poly_factor_q(p):
        acc = acc * fac**mult
    assert acc == p.monic()


def random_int_poly(rng, degree, size):
    cs = [rng.randint(-size, size) for _ in range(degree)]
    return UniPoly(cs + [rng.choice([-1, 1]) * rng.randint(1, size)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ddf_degrees_match_brute_force(p):
    rng = random.Random(1000 + p)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 7)
        f = [rng.randrange(p) for _ in range(n)] + [1]
        factors = factor_mod_p(f, p)
        if len(set(factors)) != len(factors):
            continue  # distinct-degree factorization needs squarefree input
        want = sorted(len(g) - 1 for g in factors)
        assert sorted(polynomial._fp_ddf_degrees(f, p)) == want, (f, p)
        checked += 1


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
            assert polynomial._fp_ddf_degrees(f, p) == ddf_degrees_ref(f, p), (f, p)


@functools.lru_cache(maxsize=None)
def _t2_polynomial(weight):
    """The T_2 polynomial of the weight-k level-1 cusp space, the matrix from
    the package and its characteristic polynomial from the multimodular oracle."""
    from mtv.spaces import dim_cusp_level1, hecke_matrix_level1

    s = dim_cusp_level1(weight)
    M, _ = hecke_matrix_level1(weight, 2, 2 * s + 2)
    assert all(type(x) is int for r in M for x in r), weight
    return UniPoly(charpoly_multimodular(M))


def test_sieve_order_leaves_t2_certificates_unchanged():
    # largest prime first changes how soon the sieve stops, never its answer:
    # every T_2 polynomial here is irreducible either way
    for weight in range(24, 265, 2):
        P = _t2_polynomial(weight)
        assert polynomial._factor_degrees(P) == factor_degrees_ascending(P) == set(), weight


# the level-1 weights of the newform bases and theorems of the hecke-wide
# benchmark: cusp dimensions 5, 6, 7 and 8
HECKE_WIDE_WEIGHTS = (60, 70, 72, 84, 88, 90, 92, 94, 96, 98, 100, 102, 104, 106)


@pytest.mark.parametrize("weight", HECKE_WIDE_WEIGHTS)
def test_sieve_certifies_t2_within_twelve_primes(weight, monkeypatch):
    # from the largest prime down, the primes just above the weight come
    # early; from the smallest up, these took 14 to 23 distinct-degree runs
    calls = []
    ddf = polynomial._fp_ddf_degrees
    monkeypatch.setattr(polynomial, "_fp_ddf_degrees", lambda f, p: calls.append(p) or ddf(f, p))
    assert polynomial._factor_degrees(_t2_polynomial(weight)) == set()
    assert 1 <= len(calls) <= 12, calls


def test_sieve_primes_are_the_primes_below_300():
    assert polynomial._SIEVE_PRIMES == tuple(sympy.primerange(2, 300))


def test_sieve_never_certifies_a_product():
    rng = random.Random(20261018)
    for _ in range(60):
        a = random_int_poly(rng, rng.randint(1, 4), 30)
        b = random_int_poly(rng, rng.randint(1, 4), 30)
        _, P = (a * b).primitive_int()
        # a true factor degree never leaves the candidate set, so every prime
        # is scanned, and the order the primes are tried in changes nothing
        got = polynomial._factor_degrees(P)
        assert a.degree in got, (a, b)
        assert got == factor_degrees_ascending(P), (a, b)


def test_numeric_search_tries_only_sieve_degrees(monkeypatch):
    p = (X**2 - 2) * (X**2 - 3) * (X**2 - 5)
    _, P = p.primitive_int()
    assert polynomial._factor_degrees(P) == {2, 4}
    sizes = []

    class SpyItertools:
        @staticmethod
        def combinations(pool, r):
            sizes.append(r)
            return itertools.combinations(pool, r)

    monkeypatch.setattr(polynomial, "itertools", SpyItertools)
    got = [f for f, _ in poly_factor_q(p)]
    assert got == [X**2 - 5, X**2 - 3, X**2 - 2]
    assert set(sizes) == {2}


def test_sieve_certifies_without_roots(monkeypatch):
    def no_roots(*args, **kwargs):
        raise AssertionError("the numeric factor search ran")

    monkeypatch.setattr(polynomial, "root_cluster", no_roots)
    for p in (X**5 - X - 1, X**2 - 1080 * X - 20468736, 3 * X**3 - 7 * X + 2):
        ((f, m),) = poly_factor_q(p)
        assert f == p.monic() and m == 1
    # irreducible over Q yet reducible modulo every prime: not certified, so
    # the numeric search is the route that proves it
    _, P = (X**4 - 10 * X**2 + 1).primitive_int()
    assert polynomial._factor_degrees(P) == {2}


def test_failed_multiply_back_raises_verification_error(monkeypatch):
    monkeypatch.setattr(polynomial, "_factor_squarefree_monic_int",
                        lambda H, prec, degrees: [H + 1])
    with pytest.raises(VerificationError):
        poly_factor_q((X - 1) * (X - 2))


def test_repeated_factors_are_never_certified_squarefree():
    rng = random.Random(11)
    for _ in range(40):
        g = random_int_poly(rng, rng.randint(1, 3), 9)
        h = random_int_poly(rng, rng.randint(0, 4), 9)
        p = g * g * h
        assert polynomial._squarefree_prime(p.primitive_int()[1]) is None
        # Yun still runs and reports g with multiplicity 2 (or more, if g
        # shares a factor with h)
        factors = dict((f.coeffs, m) for f, m in poly_factor_q(p))
        for f, m in poly_factor_q(g):
            assert factors[f.coeffs] >= 2 * m


def test_squarefree_certificate_skips_yun(monkeypatch):
    def no_yun(p):
        raise AssertionError("Yun ran")

    monkeypatch.setattr(polynomial, "squarefree_parts", no_yun)
    rng = random.Random(12)
    for _ in range(40):
        p = random_int_poly(rng, rng.randint(1, 8), 9)
        P = p.primitive_int()[1]
        if sympy.discriminant(sympy.Poly(list(reversed([int(c) for c in P.coeffs])),
                                          sympy.Symbol("x"))) == 0:
            continue
        assert polynomial._squarefree_prime(P) is not None
        assert all(m == 1 for _, m in poly_factor_q(p))


def test_squarefree_certificate_on_a_prime_that_divides_the_degree():
    # x^3 - 2 mod 3 is (x + 1)^3 and its derivative vanishes there; mod 2
    # it is x^3 and its derivative x^2: the first certificate is 5
    assert polynomial._squarefree_prime(X**3 - 2) == 5


def test_real_root_count_by_sturm():
    assert real_root_count(X**2 - 2) == 2
    assert real_root_count(X**2 + 1) == 0
    assert real_root_count(X**3 - 2) == 1
    assert real_root_count((X - 1) * (X - 2) * (X + 3) * (X**2 + X + 1)) == 3
    # roots 2.8e-100 apart: exact counting needs no precision
    assert real_root_count(X**2 - Fraction(2, 10**200)) == 2
    assert real_root_count(UniPoly([5])) == 0
