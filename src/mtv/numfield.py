"""Number fields Q[x]/(p) in the power basis.

A number field element is one integer coordinate vector over one positive
denominator.
"""

import math
import operator
from fractions import Fraction

from .errors import InputError
from .polynomial import (
    UniPoly,
    _power,
    elementary_from_power_sums,
    poly_factor_q,
    power_sums_from_elementary,
)


class NumberField:
    """Q[x]/(modulus) with modulus monic irreducible over Q."""

    def __init__(self, modulus, check_irreducible=True):
        if not isinstance(modulus, UniPoly):
            modulus = UniPoly(modulus)
        if modulus.degree < 1:
            raise InputError("modulus must have degree >= 1")
        if modulus.lc() != 1:
            modulus = modulus.monic()
        if check_irreducible:
            fs = poly_factor_q(modulus)
            if len(fs) != 1 or fs[0][1] != 1:
                raise InputError("modulus is reducible over Q")
        self.modulus = modulus
        self.degree = modulus.degree
        # x^t mod modulus for t = degree .. 2*degree-2, as integer rows over
        # the one denominator _red_den (1 for an integral modulus)
        table = []
        d = self.degree
        cur = [-c for c in _ints_if_integral(modulus.coeffs[:d])]
        table.append(cur)
        for _ in range(d - 2):
            nxt = [0] + cur[: d - 1]
            top = cur[d - 1]
            if top:
                for i in range(d):
                    nxt[i] += top * table[0][i]
            cur = nxt
            table.append(cur)
        den = math.lcm(*[c.denominator for row in table for c in row])
        self._red_den = den
        self._red = tuple(tuple(int(c * den) for c in row) for row in table)
        self._power_sums = None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, NumberField) and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash(("NF", self.modulus.coeffs))

    def __repr__(self):
        return "NumberField(%r)" % (self.modulus,)

    def elem(self, coords):
        coords = list(coords)
        if len(coords) > self.degree:
            raise InputError("coordinate vector too long")
        coords += [0] * (self.degree - len(coords))
        return NumberFieldElem(self, coords)

    def coerce(self, v):
        if isinstance(v, NumberFieldElem):
            if v.field != self:
                raise InputError("element of a different number field")
            return v
        return self.elem([Fraction(v)])

    def zero(self):
        return self.elem([])

    def one(self):
        return self.elem([1])

    def gen(self):
        if self.degree == 1:
            return self.elem([-self.modulus.coeffs[0]])
        return self.elem([0, 1])

    def _reduce(self, raw):
        """_red_den times the coordinates of sum_t raw[t] x^t, t <= 2*degree - 2,
        for integer arrays raw[t] of one length (one power list per position):
        one integer array per coordinate."""
        d = self.degree
        rd = self._red_den
        out = [[x * rd for x in c] for c in raw[:d]]
        for row, c in zip(self._red, raw[d:]):
            for i, r in enumerate(row):
                if r:
                    out[i] = [x + r * y for x, y in zip(out[i], c)]
        return out

    def power_sums(self):
        """Tr(theta^j) for j = 0 .. 2*degree - 2, theta the generator.

        Computed once per field from the modulus by Newton's identities; the
        trace form Tr(y*z) of two elements only needs these.
        """
        if self._power_sums is None:
            d = self.degree
            cs = _ints_if_integral(self.modulus.coeffs)
            sym = [cs[d - i] if i % 2 == 0 else -cs[d - i] for i in range(1, d + 1)]
            self._power_sums = tuple(
                map(Fraction, [d] + power_sums_from_elementary(sym, 2 * d - 2))
            )
        return self._power_sums

    def is_totally_real(self):
        """Exact: the trace form y -> Tr(y^2) is positive definite.

        Its matrix in the power basis is the Hankel matrix of the power sums;
        for a separable modulus its signature is (real roots + complex pairs,
        complex pairs), so the field is totally real exactly when every
        leading principal minor is positive (Sylvester's criterion).  The
        minors are the pivots of fraction-free elimination without pivoting.
        """
        d = self.degree
        ps = self.power_sums()
        den = math.lcm(*[v.denominator for v in ps])
        ps = [int(v * den) for v in ps]
        a = [ps[i : i + d] for i in range(d)]
        prev = 1
        for k in range(d):
            p = a[k][k]
            if p <= 0:
                return False
            rk = a[k]
            for i in range(k + 1, d):
                ri = a[i]
                f = ri[k]
                a[i] = [0] * (k + 1) + [
                    (p * ri[j] - f * rk[j]) // prev for j in range(k + 1, d)
                ]
            prev = p
        return True


def _ints_if_integral(values):
    """The Fractions as ints when all are integers, else unchanged: an
    integral modulus sets up its field in integer arithmetic."""
    if all(v.denominator == 1 for v in values):
        return [v.numerator for v in values]
    return values


def _ints_over_den(values):
    """Integer numerators of rationals over their least common denominator."""
    fr = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    den = math.lcm(*[v.denominator for v in fr])
    return [v.numerator * (den // v.denominator) for v in fr], den


class NumberFieldElem:
    """(num[0] + num[1] theta + ... + num[d-1] theta^(d-1)) / den.

    The layout of a rational QSeries: one integer vector over one positive
    denominator, kept canonical (den coprime to the numerators taken
    together, 1 for zero), so equal elements have equal integers.  The
    public ``coords`` tuple of reduced Fractions is built on first access.
    """

    __slots__ = ("field", "_num", "_den", "_coords")

    def __init__(self, field, coords):
        num, den = _ints_over_den(coords)
        if len(num) != field.degree:
            raise InputError("coordinate vector length differs from the field degree")
        self._set(field, num, den)

    @classmethod
    def _from_ints(cls, field, num, den):
        """The element sum num[i] theta^i / den; den > 0, len(num) == degree."""
        self = cls.__new__(cls)
        self._set(field, num, den)
        return self

    def _set(self, field, num, den):
        g = math.gcd(den, *num)
        if g > 1:
            num = [v // g for v in num]
            den //= g
        self.field = field
        self._num = tuple(num)
        self._den = den
        self._coords = None

    @property
    def coords(self):
        """Coordinates in the power basis as reduced Fractions."""
        if self._coords is None:
            den = self._den
            self._coords = tuple([Fraction(v, den) for v in self._num])
        return self._coords

    def __repr__(self):
        return "NFElem(%s)" % (self.coords,)

    def __eq__(self, other):
        if isinstance(other, NumberFieldElem):
            return (self.field == other.field and self._den == other._den
                    and self._num == other._num)
        if isinstance(other, (int, Fraction)):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self._num, self._den))

    def is_zero(self):
        return not any(self._num)

    def is_rational(self):
        return not any(self._num[1:])

    def rational_part(self):
        if not self.is_rational():
            raise InputError("element is not rational")
        return Fraction(self._num[0], self._den)

    def _coerce(self, other):
        return self.field.coerce(other)

    def __add__(self, other):
        other = self._coerce(other)
        da, db = self._den, other._den
        if da == db:
            num = map(operator.add, self._num, other._num)
        else:
            den = math.lcm(da, db)
            ma, mb = den // da, den // db
            num = [a * ma + b * mb for a, b in zip(self._num, other._num)]
            da = den
        return NumberFieldElem._from_ints(self.field, list(num), da)

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElem._from_ints(self.field, [-a for a in self._num], self._den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            p = other.numerator
            return NumberFieldElem._from_ints(
                self.field, [a * p for a in self._num], self._den * other.denominator
            )
        other = self._coerce(other)
        field = self.field
        conv = [0] * (2 * field.degree - 1)
        for i, a in enumerate(self._num):
            if a:
                for j, b in enumerate(other._num):
                    if b:
                        conv[i + j] += a * b
        coords = field._reduce([[c] for c in conv])
        return NumberFieldElem._from_ints(
            field, [c[0] for c in coords], self._den * other._den * field._red_den
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("number field division by zero")
        # extended Euclid in Q[x] against the modulus
        a = UniPoly(self.coords)
        b = self.field.modulus
        s0, s1 = UniPoly((1,)), UniPoly()
        r0, r1 = a, b
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        assert r0.degree == 0, "modulus not irreducible or element not invertible"
        inv = s0 * UniPoly((1 / r0.coeffs[0],))
        inv = inv % self.field.modulus
        return self.field.elem(list(inv.coeffs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self * (Fraction(1) / Fraction(other))
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, operator.mul) if n else self.field.one()


def nf_trace(elem):
    """Field trace K -> Q: the coordinates dotted with the power sums Tr(theta^j)."""
    if isinstance(elem, (int, Fraction)):
        return Fraction(elem)
    return sum(map(operator.mul, elem._num, elem.field.power_sums()), Fraction(0)) / elem._den


def nf_charpoly(elem):
    """Characteristic polynomial of elem over Q (degree = field degree).

    The traces Tr(elem^m), m = 1 .. degree, are the power sums of its
    conjugates; Newton's identities turn them into the coefficients.
    """
    if isinstance(elem, (int, Fraction)):
        return UniPoly((-Fraction(elem), 1))
    d = elem.field.degree
    ps = []
    cur = elem
    for m in range(1, d + 1):
        if m > 1:
            cur = cur * elem
        ps.append(nf_trace(cur))
    es = elementary_from_power_sums(ps)
    return UniPoly([es[d - i - 1] if (d - i) % 2 == 0 else -es[d - i - 1]
                    for i in range(d)] + [1])


def nf_norm(elem):
    """Field norm K -> Q: the signed constant term of the charpoly."""
    if isinstance(elem, (int, Fraction)):
        return Fraction(elem)
    cp = nf_charpoly(elem)
    c0 = cp.coeffs[0]
    return c0 if elem.field.degree % 2 == 0 else -c0
