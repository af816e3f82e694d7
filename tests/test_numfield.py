import random
from fractions import Fraction

import pytest

from mtv.errors import InputError
from mtv.numfield import (
    CycloField,
    NumberField,
    conjugate_quadratic,
    nf_charpoly,
    nf_norm,
    nf_trace,
    trace_form,
)
from mtv.polynomial import UniPoly

F = Fraction
X = UniPoly.x()


def golden():
    return NumberField(X**2 - X - 1)


def test_reducible_modulus_rejected():
    with pytest.raises(InputError):
        NumberField(X**2 - 1)


def test_golden_arithmetic():
    K = golden()
    t = K.gen()
    assert (t * t - t - K.one()).is_zero()
    inv = K.one() / t
    assert (inv - (t - K.one())).is_zero()  # 1/phi = phi - 1
    assert ((t**3) - (2 * t + K.one())).is_zero()  # t^3 = 2t + 1
    assert (t - t).is_zero()
    assert t.is_rational() is False
    assert (t + (K.one() - t)).rational_part() == 1


def test_quadratic_trace_norm_by_hand():
    # Q(sqrt(5)): trace(a + b s) = 2a, norm = a^2 - 5 b^2
    K = NumberField(X**2 - 5)
    s = K.gen()
    z = K.coerce(F(3, 2)) + s * K.coerce(F(1, 3))
    assert nf_trace(z) == F(3)
    assert nf_norm(z) == F(9, 4) - 5 * F(1, 9)
    cp = nf_charpoly(z)
    assert cp.eval(z).is_zero()
    assert list(cp.coeffs) == [nf_norm(z), -nf_trace(z), F(1)]


def test_rational_passthrough():
    assert nf_trace(F(7, 2)) == F(7, 2)
    assert nf_norm(F(-3)) == F(-3)
    assert list(nf_charpoly(F(4)).coeffs) == [F(-4), F(1)]


def test_conjugate_quadratic():
    K = NumberField(X**2 - 2)
    s = K.gen()
    z = K.coerce(3) + 2 * s
    zc = conjugate_quadratic(z)
    assert (z + zc).rational_part() == 6
    assert nf_norm(z) == (z * zc).rational_part()


def test_totally_real_detection():
    assert NumberField(X**2 - 2).is_totally_real()
    assert not NumberField(X**2 + 1).is_totally_real()
    assert not NumberField(X**3 - 2).is_totally_real()
    # weight-24 Hecke field
    assert NumberField(X**2 - 1080 * X - 20468736).is_totally_real()
    # roots 2.8e-100 apart, closer than 256-bit root isolation can separate
    assert NumberField(X**2 - F(2, 10**200)).is_totally_real()
    assert not NumberField(X**2 + F(2, 10**200)).is_totally_real()


def test_cubic_field_inverse_and_power():
    K = NumberField(X**3 - 2)
    c = K.gen()  # cube root of 2
    assert ((c**3) - K.coerce(2)).is_zero()
    inv = K.one() / (K.one() + c)
    assert ((K.one() + c) * inv - K.one()).is_zero()


def test_cyclo_identities():
    K = CycloField(5)
    assert K.degree == 4
    z = K.zeta_power(1)
    total = K.zeta_power(0)
    for j in range(1, 5):
        total = total + K.zeta_power(j)
    assert total.is_zero()  # 1 + z + z^2 + z^3 + z^4 = 0
    # z^5 = 1 through the reduction
    acc = z
    for _ in range(4):
        acc = acc * z
    assert (acc - K.zeta_power(0)).is_zero()
    assert K.zeta_power(7) == K.zeta_power(2)


def test_cyclo_arithmetic_against_sums():
    K = CycloField(3)
    z = K.zeta_power(1)
    # (1 + z)(1 + z^2) = 1 + z + z^2 + z^3 = 0 + 1 = 1
    lhs = (K.zeta_power(0) + z) * (K.zeta_power(0) + K.zeta_power(2))
    assert (lhs - K.zeta_power(0)).is_zero()


TRACE_FIELDS = [
    X**2 - X - 1,
    X**3 - 2,
    X**4 - 10 * X**2 + 1,
    X**5 - X - 1,
    X**2 - 1080 * X - 20468736,
    X - F(7, 3),
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
        assert nf_trace(y) == y.mult_matrix().trace()
        w = trace_form(y)
        assert sum(a * b for a, b in zip(w, z.coords)) == (y * z).mult_matrix().trace()
