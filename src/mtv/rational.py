"""Exact rational helpers on top of fractions.Fraction.

Fraction already guarantees the invariants we need (gcd-reduced, positive
denominator, exact arithmetic), so this module only adds the serialization
format and the reconstruction of rationals from high-precision numeric
values by best approximation (Fraction.limit_denominator).
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
    """Convert an exact-friendly numeric (int, Fraction, float, a decimal
    string, mpf, or an mpc with no imaginary part) to Fraction.

    mpf values are dyadic, read from their mantissa and exponent, so the
    conversion is exact, not a decimal round-trip, and imports no mpmath.
    """
    if hasattr(x, "_mpc_"):
        if x.imag != 0:
            raise InputError("cannot reconstruct a rational from a non-real value")
        x = x.real
    if not hasattr(x, "_mpf_"):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    man = int(man)  # the gmpy backend hands back mpz, which poisons Fraction
    if man == 0:
        if exp:  # mpmath's infinities and nan have a zero mantissa
            raise InputError("non-finite value")
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def round_bits(x, bits):
    """The Fraction x rounded to `bits` significant bits, to nearest with
    ties to even, as mpmath rounds a number to a working precision."""
    p, d = abs(x.numerator), x.denominator
    if not p:
        return x
    e = p.bit_length() - d.bit_length() - bits
    for e in (e, e + 1):
        n, r = divmod(p << -e, d) if e < 0 else divmod(p, d << e)
        if n.bit_length() <= bits:
            break
    den = d if e < 0 else d << e
    if 2 * r > den or (2 * r == den and n & 1):
        n += 1
    v = Fraction(n, 1 << -e) if e < 0 else Fraction(n << e)
    return v if x > 0 else -v


def _log10_floor(p, q):
    """floor(log10(p / q)) for positive integers p and q."""
    return len(_decimal(p // q)) - 1 if p >= q else -len(_decimal((q - 1) // p))


def format_decimal(v, digits, err=0, up=False):
    """The rational v as mpmath's nstr(v, digits) lays it out: fixed form when
    the place E of the leading digit lies strictly between min(-(digits //
    3), -5) and digits, else exponent form; trailing zeros stripped; "0.0"
    for 0.  Rounded half up, or up when `up`, to at most `digits` digits and
    to no digit whose half unit exceeds err: a value at or below err prints
    "0.0", and any other within err of its text."""
    v = Fraction(v)
    if not v or abs(v) <= err:
        return "0.0"
    p, q = abs(v.numerator), v.denominator
    E = _log10_floor(p, q)
    n = digits
    if err:
        n = min(digits, max(1, E - _log10_floor(2 * err.numerator, err.denominator) + 1))
    s = n - 1 - E
    den = q * 10 ** max(0, -s)
    D, rem = divmod(p * 10 ** max(0, s), den)
    D += bool(rem) if up else 2 * rem >= den
    if D == 10**n:
        D, E = D // 10, E + 1
    t, split = str(D), 1
    if min(-(digits // 3), -5) < E < digits:
        t, split, E = ("0" * -E + t, 1, 0) if E < 0 else (t.ljust(E + 1, "0"), E + 1, 0)
    t = (t[:split] + "." + t[split:]).rstrip("0")
    t += "0" if t.endswith(".") else ""
    return ("-" if v < 0 else "") + t + ("e%+d" % E if E else "")


def rational_reconstruct(x, denom_bound, err=None):
    """Recover the unique p/q with q <= denom_bound lying within 1/(2*denom_bound^2) of x.

    Two distinct fractions with denominators at most B differ by at least
    1/B^2, so at most one lies within 1/(2B^2) of x, and it is then the
    closest fraction to x with denominator at most B, the one
    Fraction.limit_denominator returns.  err is the known absolute error of
    x; when it is too large relative to the bound the answer would be
    ambiguous and we refuse rather than guess.
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
    best = X.limit_denominator(B)
    if abs(X - best) >= radius:
        raise ReconstructionError(
            "no rational with denominator <= %d within 1/(2*%d^2) of the input" % (B, B)
        )
    return best
