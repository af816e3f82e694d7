"""Exact rational helpers on top of fractions.Fraction.

Fraction already guarantees the invariants we need (gcd-reduced, positive
denominator, exact arithmetic), so this module only adds the serialization
format and continued-fraction reconstruction of rationals from
high-precision numeric values.
"""

import re
from fractions import Fraction

from .errors import InputError, ReconstructionError


# Integers convert to and from decimal in pieces of at most this many
# digits, below the smallest cap (640 digits) an interpreter may put on
# int <-> str conversion, so exact values of any size serialize without
# touching that process-wide setting.
_LEAF_DIGITS = 600
_LEAF_BITS = 1990  # 2^1990 < 10^600

_PLAIN_RATIONAL = re.compile(r"\s*([+-]?)([0-9]+)(?:/([0-9]+))?\s*\Z")


def _decimal(n, width=0):
    """Decimal digits of the integer n >= 0, zero-padded on the left to width."""
    if n.bit_length() <= _LEAF_BITS:
        return str(n).zfill(width)
    k = int(n.bit_length() * 0.30103) // 2  # digits in the low half
    hi, lo = divmod(n, 10**k)
    return _decimal(hi, width - k) + _decimal(lo, k)


def _from_decimal(digits):
    """The integer of a string of decimal digits."""
    if len(digits) <= _LEAF_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _from_decimal(digits[:-k]) * 10**k + _from_decimal(digits[-k:])


def format_rational(x):
    """Serialize a rational as "p/q", or plain "n" when the denominator is 1."""
    x = Fraction(x)
    num = x.numerator
    text = "-" + _decimal(-num) if num < 0 else _decimal(num)
    if x.denominator == 1:
        return text
    return text + "/" + _decimal(x.denominator)


def format_exact(x):
    """A number-field element as the list of format_rational strings of its
    power-basis coordinates; an element of degree 1 as its one rational's."""
    out = [format_rational(v) for v in x.coords]
    return out[0] if len(out) == 1 else out


def parse_rational(s):
    """Inverse of format_rational. Accepts "p/q" and "n" forms of any size,
    and whatever else ``Fraction`` parses (decimals, exponents)."""
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    m = _PLAIN_RATIONAL.match(str(s))
    try:
        if m is None:
            return Fraction(str(s).strip())
        num = _from_decimal(m.group(2))
        den = 1 if m.group(3) is None else _from_decimal(m.group(3))
        return Fraction(-num if m.group(1) == "-" else num, den)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("not a rational: %r" % (s,)) from exc


def exact_fraction(x):
    """Convert an exact-friendly numeric (int, Fraction, float, mpf, or an
    mpc with no imaginary part) to Fraction.

    mpf values are dyadic, read from their mantissa and exponent, so the
    conversion is exact, not a decimal round-trip, and imports no mpmath.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if hasattr(x, "_mpc_"):
        if x.imag != 0:
            raise InputError("cannot reconstruct a rational from a non-real value")
        x = x.real
    if not hasattr(x, "_mpf_"):
        import mpmath

        return exact_fraction(mpmath.mpmathify(x))
    sign, man, exp, _ = x._mpf_
    man = int(man)  # the gmpy backend hands back mpz, which poisons Fraction
    if man == 0:
        if exp:  # mpmath's infinities and nan have a zero mantissa
            raise InputError("non-finite value")
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def convergents(x):
    """Yield the continued-fraction convergents (p, q) of an exact Fraction."""
    x = Fraction(x)
    h0, k0 = 1, 0
    a = x.numerator // x.denominator
    h1, k1 = a, 1
    yield h1, k1
    x = x - a
    while x != 0:
        x = 1 / x
        a = x.numerator // x.denominator
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        yield h1, k1
        x = x - a


def rational_reconstruct(x, denom_bound, err=None):
    """Recover the unique p/q with q <= denom_bound lying within 1/(2*denom_bound^2) of x.

    Classical best-approximation theory: any such p/q is a convergent of x,
    and two distinct candidates with q <= B differ by at least 1/B^2, so at
    most one can qualify.  err is the known absolute error of x; when it is
    too large relative to the bound the answer would be ambiguous and we
    refuse rather than guess.
    """
    B = int(denom_bound)
    if B < 1:
        raise InputError("denominator bound must be >= 1")
    X = exact_fraction(x)
    radius = Fraction(1, 2 * B * B)
    if err is not None:
        eps = exact_fraction(err)
        if eps < 0:
            raise InputError("negative error bound")
        if eps >= radius:
            raise ReconstructionError(
                "ambiguous: error bound %s exceeds the separation radius %s"
                % (format_rational(eps) if eps.denominator < 10**40 else float(eps), format_rational(radius))
            )
    best = None
    for p, q in convergents(X):
        if q > B:
            break
        best = Fraction(p, q)
    if best is None or abs(X - best) >= radius:
        raise ReconstructionError(
            "no rational with denominator <= %d within 1/(2*%d^2) of the input" % (B, B)
        )
    return best
