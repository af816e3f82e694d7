import cmath
import math
import random
from fractions import Fraction

import pytest

from mtv.errors import InputError
from mtv.numfield import NumberField, nf_charpoly, nf_trace
from mtv.polynomial import UniPoly, poly_factor_q

from _oracles import (
    Poly,
    cyclo_add,
    cyclo_equal,
    cyclo_mul,
    cyclo_zeta_power,
    mult_matrix,
    nf_norm,
    real_root_count,
    trace_form,
)

F = Fraction
X = Poly([0, 1])


def golden():
    return NumberField(X**2 - X - 1)


def test_modulus_must_be_monic_and_integral():
    for modulus in (2 * X**2 - 1, X**2 - F(1, 2), X**3 + F(2, 3) * X - 5, F(1, 2) * X - 1):
        with pytest.raises(InputError):
            NumberField(modulus)
    with pytest.raises(InputError):
        NumberField(UniPoly([7]))


def test_golden_arithmetic():
    K = golden()
    t = K.elem([0, 1])
    assert (t * t - t - 1).is_zero()
    inv = t.inverse()
    assert (inv - (t - 1)).is_zero()  # 1/phi = phi - 1
    assert ((t * t * t) - (2 * t + 1)).is_zero()  # t^3 = 2t + 1
    assert (t - t).is_zero()
    assert t != 1 and t.coords == (0, 1)
    assert (t + (1 - t)) == 1
    # a field element divides only by a nonzero rational
    assert (t / 2) * 2 == t and t / F(2, 3) == t * F(3, 2)
    with pytest.raises(ZeroDivisionError):
        t / 0
    with pytest.raises(TypeError):
        1 / t
    with pytest.raises(TypeError):
        t / t


def test_quadratic_trace_norm_by_hand():
    # Q(sqrt(5)): trace(a + b s) = 2a, norm = a^2 - 5 b^2
    K = NumberField(X**2 - 5)
    s = K.elem([0, 1])
    z = K.coerce(F(3, 2)) + s * K.coerce(F(1, 3))
    assert nf_trace(z) == F(3)
    assert nf_norm(z) == F(9, 4) - 5 * F(1, 9)
    cp = nf_charpoly(z)
    assert cp.eval(z).is_zero()
    assert list(cp.coeffs) == [nf_norm(z), -nf_trace(z), F(1)]


def test_rational_passthrough():
    # Q is the field of degree 1, here Q[x]/(x - 3): an element's trace and
    # norm are its one coordinate, its charpoly x minus it
    K = NumberField(X - 3)
    assert nf_trace(K.coerce(F(7, 2))) == F(7, 2)
    assert nf_norm(K.coerce(-3)) == F(-3)
    assert list(nf_charpoly(K.coerce(4)).coeffs) == [F(-4), F(1)]
    assert K.power_sums() == (1,) and K.is_totally_real() and K._red == ()
    assert K.coerce(F(2, 3)).inverse() == F(3, 2)


@pytest.mark.parametrize("modulus", [X - 3, X**2 - 2])
def test_a_rational_element_hashes_as_its_fraction(modulus):
    # equal values hash equally, so a set or dict keyed by ratios holds a
    # rational ratio once, whatever the degree of its field
    K = NumberField(modulus)
    for v in (F(1, 2), F(-7), F(0)):
        assert K.coerce(v) == v and hash(K.coerce(v)) == hash(v)
        assert len({K.coerce(v), v}) == 1
    assert len({K.coerce(F(1, 2)), F(1, 2), K.coerce(F(1, 3))}) == 2
    if K.degree == 2:
        theta = K.elem([0, 1])
        assert len({theta, K.elem([0, 1]), F(0)}) == 2


def test_totally_real_detection():
    assert NumberField(X**2 - 2).is_totally_real()
    assert not NumberField(X**2 + 1).is_totally_real()
    assert not NumberField(X**3 - 2).is_totally_real()
    # weight-24 Hecke field
    assert NumberField(X**2 - 1080 * X - 20468736).is_totally_real()
    # roots 10^100 +- sqrt(2), 2.8e-100 apart relative to their size, closer
    # than 256-bit root isolation can separate
    assert NumberField(X**2 - 2 * 10**100 * X + 10**200 - 2).is_totally_real()
    assert not NumberField(X**2 - 2 * 10**100 * X + 10**200 + 2).is_totally_real()


def test_totally_real_refuses_a_zero_leading_minor():
    # (x + 1)^3 + 2: one real root; the trace form's second leading minor is
    # 0 and its determinant is -108 < 0, so elimination swaps rows there
    K = NumberField(X**3 + 3 * X**2 + 3 * X + 3)
    d = K.degree
    assert [list(K.power_sums()[i : i + d]) for i in range(d)] == [
        [3, -3, 3], [-3, 3, -9], [3, -9, 27]]
    assert not K.is_totally_real()
    assert real_root_count(X**3 + 3 * X**2 + 3 * X + 3) == 1


def test_cubic_field_inverse_and_power():
    K = NumberField(X**3 - 2)
    c = K.elem([0, 1])  # cube root of 2
    assert ((c * c * c) - K.coerce(2)).is_zero()
    inv = (1 + c).inverse()
    assert ((1 + c) * inv - 1).is_zero()


def test_inverse_in_the_weight_60_hecke_field():
    # the degree-5 field of the T_2 eigenvalue at weight 60; after theta
    # itself, elements over denominators above 1
    from mtv.spaces import newform_basis_level1

    (nf,) = newform_basis_level1(60, 8).orbits
    K = nf.field
    assert K.degree == 5
    rng = random.Random(60)
    elems = [nf.a(2), nf.a(3) / 7, K.elem([F(1, 3)] + [F(0)] * 4)]
    for _ in range(6):
        elems.append(K.elem([F(rng.randint(-50, 50), rng.randint(2, 30)) for _ in range(5)]))
    for x in elems:
        inv = x.inverse()
        assert x * inv == 1 == inv * x, x
        assert inv.inverse() == x
    assert all(x._den > 1 for x in elems[1:])


# the reference Q(zeta_N) arithmetic of the translate sieve test (test_trace)

def test_cyclo_identities():
    one, z, zero = cyclo_zeta_power(0, 5), cyclo_zeta_power(1, 5), [F(0)] * 5
    total = one
    for j in range(1, 5):
        total = cyclo_add(total, cyclo_zeta_power(j, 5))
    assert cyclo_equal(total, zero)  # 1 + z + z^2 + z^3 + z^4 = 0
    assert not cyclo_equal(z, zero) and not cyclo_equal(z, one)
    acc = z
    for _ in range(4):
        acc = cyclo_mul(acc, z)
    assert cyclo_equal(acc, one)  # z^5 = 1
    assert cyclo_zeta_power(7, 5) == cyclo_zeta_power(2, 5)


def test_cyclo_arithmetic_against_sums():
    one, z, z2 = (cyclo_zeta_power(j, 3) for j in range(3))
    # (1 + z)(1 + z^2) = 1 + z + z^2 + z^3 = 0 + 1 = 1
    lhs = cyclo_mul(cyclo_add(one, z), cyclo_add(one, z2))
    assert cyclo_equal(lhs, one)
    # and numerically, at zeta = exp(2 pi i / 3)
    zeta = cmath.exp(2j * cmath.pi / 3)
    value = sum(float(c) * zeta**i for i, c in enumerate(lhs))
    assert abs(value - 1) < 1e-12


TRACE_FIELDS = [
    X**2 - X - 1,
    X**3 - 2,
    X**4 - 10 * X**2 + 1,
    X**5 - X - 1,
    X**2 - 1080 * X - 20468736,
]


@pytest.mark.parametrize("modulus", TRACE_FIELDS, ids=str)
def test_trace_form_matches_multiplication_matrix(modulus):
    K = NumberField(modulus)
    rng = random.Random(K.degree)

    def rand_elem():
        return K.elem([F(rng.randint(-99, 99), rng.randint(1, 12))
                       for _ in range(K.degree)])

    for _ in range(12):
        y, z = rand_elem(), rand_elem()
        assert nf_trace(y) == mult_matrix(y).trace()
        w = trace_form(y)
        assert sum(a * b for a, b in zip(w, z.coords)) == mult_matrix(y * z).trace()


@pytest.mark.parametrize("modulus", TRACE_FIELDS, ids=str)
def test_integer_layout_is_canonical(modulus):
    K = NumberField(modulus)
    rng = random.Random(40 + K.degree)
    for _ in range(12):
        coords = [F(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(K.degree)]
        y = K.elem(coords)
        assert y.coords == tuple(coords)
        assert y._den > 0 and math.gcd(y._den, *y._num) == 1
        # the same element by other routes has the same integers
        for z in (y * 6 / 6, (y + y) * F(1, 2), y - K.elem([]), K.elem(y.coords)):
            assert (z._num, z._den) == (y._num, y._den)
            assert z == y and hash(z) == hash(y)
    zero = K.elem([F(0)] * K.degree)
    assert zero._den == 1 and zero == (K.coerce(1) - K.coerce(1))


@pytest.mark.parametrize("modulus", TRACE_FIELDS, ids=str)
def test_charpoly_and_norm_from_power_sums_match_the_matrix(modulus):
    K = NumberField(modulus)
    rng = random.Random(60 + K.degree)
    elems = [K.elem([]), K.coerce(1), K.elem([0, 1])] + [
        K.elem([F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(K.degree)])
        for _ in range(8)
    ]
    for y in elems:
        M = mult_matrix(y)
        assert nf_charpoly(y) == M.charpoly()
        assert nf_norm(y) == M.det()


def test_totally_real_agrees_with_sturm():
    rng = random.Random(7)
    checked = {True: 0, False: 0}
    for _ in range(200):
        d = rng.randint(1, 7)
        p = Poly([1])
        for _ in range(d):
            p = p * (X + rng.randint(-9, 9))
        p = p + rng.randint(-30, 30)
        fs = poly_factor_q(p)
        if len(fs) != 1 or fs[0][1] != 1:
            continue
        real = real_root_count(p) == p.degree
        assert NumberField(p).is_totally_real() == real
        checked[real] += 1
    assert min(checked.values()) >= 20, checked
