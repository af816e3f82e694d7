from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtv.errors import InputError, ReconstructionError
from mtv.rational import (
    convergents,
    exact_fraction,
    format_rational,
    parse_rational,
    rational_reconstruct,
)


def test_format_integer_and_fraction():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(0) == "0"


@given(st.fractions(max_denominator=10**9))
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


# beyond the interpreter's default cap of 4300 digits on int <-> str
HUGE = [
    (Fraction(10**5000), "1" + "0" * 5000),
    (Fraction(-(10**5000 + 1), 3), "-1" + "0" * 4999 + "1/3"),
]


@pytest.mark.parametrize("x, text", HUGE, ids=["10^5000", "-(10^5000+1)/3"])
def test_format_parse_beyond_the_str_digit_cap(x, text):
    assert format_rational(x) == text
    assert parse_rational(text) == x
    assert parse_rational(" %s " % text) == x


def test_format_rational_matches_str_below_the_cap():
    for n in (0, 7, -7, 10**599, 10**600, -(10**601), 2**1990, 2**1991 - 1, 3**4000):
        assert format_rational(n) == str(n)
        assert format_rational(Fraction(n, 7)) == str(Fraction(n, 7))
        assert parse_rational(str(n)) == n


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        parse_rational("3/0")
    with pytest.raises(InputError):
        parse_rational("abc")


def test_exact_fraction_dyadic_is_exact():
    with mpmath.workprec(200):
        x = mpmath.mpf(1) / 1024 + mpmath.mpf(3)
    assert exact_fraction(x) == Fraction(3) + Fraction(1, 1024)
    assert exact_fraction(0.375) == Fraction(3, 8)
    assert exact_fraction(Fraction(22, 7)) == Fraction(22, 7)
    assert exact_fraction(-17) == Fraction(-17)


def test_exact_fraction_returns_plain_int_internals():
    # the gmpy backend hands back mpz mantissas; they must not leak into Fraction
    with mpmath.workprec(300):
        x = mpmath.mpf("2.87e-72")
    f = exact_fraction(x)
    assert type(f.numerator) is int and type(f.denominator) is int
    # and downstream Fraction arithmetic must actually work
    assert (f - f) == 0 and list(convergents(f + 1))[-1][1] >= 1


def test_exact_fraction_rejects_nonreal_and_nan():
    with pytest.raises(InputError):
        exact_fraction(mpmath.mpc(1, 2))
    with pytest.raises(InputError):
        exact_fraction(mpmath.inf)


def test_convergents_terminate_exactly():
    x = Fraction(649, 200)
    cs = list(convergents(x))
    assert cs[-1] == (649, 200)
    assert cs[0] == (3, 1)
    # denominators strictly increase after the first step
    dens = [q for _, q in cs]
    assert all(b > a for a, b in zip(dens[1:], dens[2:]))


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=99991))
@settings(max_examples=60)
def test_reconstruct_recovers_from_dyadic_approx(x):
    with mpmath.workprec(200):
        approx = mpmath.mpf(x.numerator) / x.denominator
    got = rational_reconstruct(approx, 10**5, err=Fraction(1, 2**150))
    assert got == x


def test_reconstruct_refuses_ambiguous_error():
    with pytest.raises(ReconstructionError):
        rational_reconstruct(Fraction(1, 3), 10**6, err=Fraction(1, 10**3))


def test_reconstruct_refuses_when_no_candidate():
    # sqrt(2)-ish value has no small-denominator rational nearby
    with mpmath.workprec(120):
        v = mpmath.sqrt(2)
    with pytest.raises(ReconstructionError):
        rational_reconstruct(v, 10, err=Fraction(1, 2**100))


def test_reconstruct_rejects_bad_arguments():
    with pytest.raises(InputError):
        rational_reconstruct(Fraction(1, 2), 0)
    with pytest.raises(InputError):
        rational_reconstruct(Fraction(1, 2), 10, err=Fraction(-1, 5))
