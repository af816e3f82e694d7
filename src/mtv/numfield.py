"""Number fields Q[x]/(p) in the power basis, p monic with integer coefficients.

The pipeline's fields are Hecke fields, generated by a T_2 eigenvalue, an
algebraic integer, so the reduction of powers past the degree and the power
sums Tr(theta^j) are integer tables.  A number field element is one integer
coordinate vector over one positive denominator.  A rational newform orbit
has the degree-1 field Q[x]/(x - theta), theta its integer T_2 eigenvalue,
and its values are elements of that field like any other orbit's.

Elements add, multiply and divide by nonzero rationals; no path of the
pipeline divides by a field element, so there is no such division, and
``inverse`` (one integer solve) is kept for the benchmark's tracer, which
wraps it by name.  The field norm is the signed constant term of
nf_charpoly, as trace.TheoremResult reads it.
"""

import math
import operator
from fractions import Fraction

from .errors import InputError
from .linalg import _bareiss_forward, bareiss_solve
from .polynomial import UniPoly, elementary_from_power_sums, power_sums_from_elementary


class NumberField:
    """Q[x]/(modulus) with modulus monic, integral and irreducible over Q.

    Irreducibility is the caller's to certify: the pipeline builds a field
    only on a factor that poly_factor_q has just returned.
    """

    def __init__(self, modulus):
        if modulus.degree < 1:
            raise InputError("modulus must have degree >= 1")
        if modulus.lc() != 1 or any(c.denominator != 1 for c in modulus.coeffs):
            raise InputError("modulus must be monic with integer coefficients")
        self.modulus = modulus
        self.degree = d = modulus.degree
        # the modulus below its leading 1, and x^t mod modulus for
        # t = degree .. 2*degree-2, as integer rows
        self._g = g = [int(c) for c in modulus.coeffs[:d]]
        pows = [[0] * (d - 1) + [1]]
        for _ in range(d - 1):
            pows.append(_times_gen(pows[-1], g))
        self._red = tuple(map(tuple, pows[1:]))
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

    def _reduce(self, conv):
        """The integer coordinates of sum_t conv[t] x^t, t <= 2*degree - 2."""
        out = conv[: self.degree]
        for row, c in zip(self._red, conv[self.degree :]):
            if c:
                out = [x + r * c for x, r in zip(out, row)]
        return out

    def power_sums(self):
        """Tr(theta^j) for j = 0 .. 2*degree - 2, theta the generator: integers,
        theta being an algebraic integer.

        Computed once per field from the modulus by Newton's identities; the
        trace form Tr(y*z) of two elements only needs these.
        """
        if self._power_sums is None:
            d = self.degree
            g = self._g
            sym = [g[d - i] if i % 2 == 0 else -g[d - i] for i in range(1, d + 1)]
            self._power_sums = tuple([d] + power_sums_from_elementary(sym, 2 * d - 2))
        return self._power_sums

    def is_totally_real(self):
        """Exact: the trace form y -> Tr(y^2) is positive definite.

        Its matrix in the power basis is the Hankel matrix of the power sums;
        for a separable modulus its signature is (real roots + complex pairs,
        complex pairs), so the field is totally real exactly when every
        leading principal minor is positive (Sylvester's criterion).  The
        minors are the diagonal entries of linalg's forward elimination, which
        swaps rows only after an entry 0, where the answer is already False.
        """
        d = self.degree
        ps = self.power_sums()
        return all(m > 0 for m in _bareiss_forward([ps[i : i + d] for i in range(d)]))


def _times_gen(v, g):
    """theta * v for the coordinate vector v of Q[theta]/(g), g monic integral."""
    top = v[-1]
    out = [0] + v[:-1]
    if top:
        out = [a - top * c for a, c in zip(out, g)]
    return out


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
        if not any(self._num[1:]):
            # a rational element equals its Fraction, so it hashes as one
            return hash(Fraction(self._num[0], self._den))
        return hash((self.field, self._num, self._den))

    def is_zero(self):
        return not any(self._num)

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
        return NumberFieldElem._from_ints(field, field._reduce(conv), self._den * other._den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("number field division by zero")
        # one integer solve N y = D e_1, column j of N the coordinates of
        # num * theta^j: then (num / den)^(-1) = den y / D
        g = self.field._g
        cols = [list(self._num)]
        while len(cols) < len(g):
            cols.append(_times_gen(cols[-1], g))
        D, y = bareiss_solve(list(zip(*cols)), [[1]] + [[0]] * (len(g) - 1))
        return NumberFieldElem._from_ints(self.field, [self._den * v for v, in y], D)

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(other))


def nf_trace(elem):
    """Field trace K -> Q: the coordinates dotted with the power sums Tr(theta^j)."""
    return Fraction(sum(map(operator.mul, elem._num, elem.field.power_sums())), elem._den)


def nf_charpoly(elem):
    """Characteristic polynomial of elem over Q (degree = field degree).

    The traces Tr(elem^m), m = 1 .. degree, are the power sums of its
    conjugates; Newton's identities turn them into the coefficients.
    """
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

