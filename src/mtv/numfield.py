"""Number fields Q[x]/(p) in the power basis, plus prime-conductor cyclotomics.

Elements are coordinate vectors over Q.  The cyclotomic field Q(zeta_p) for
prime p uses the basis 1, zeta, ..., zeta^(p-2); products reduce first by
zeta^p = 1 and then by zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).
"""

from fractions import Fraction

from .errors import InputError, PrecisionError, UnsupportedScopeError
from .linalg import MatQ
from .numerics import root_cluster
from .polynomial import UniPoly, poly_factor_q


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
        # x^t mod modulus for t = degree .. 2*degree-2, as coordinate tuples
        table = []
        d = self.degree
        cur = [-c for c in modulus.coeffs[:d]]
        table.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [Fraction(0)] + cur[: d - 1]
            top = cur[d - 1]
            if top:
                for i in range(d):
                    nxt[i] += top * table[0][i]
            cur = nxt
            table.append(tuple(cur))
        self._red = tuple(table)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("NF", self.modulus.coeffs))

    def __repr__(self):
        return "NumberField(%r)" % (self.modulus,)

    def elem(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > self.degree:
            raise InputError("coordinate vector too long")
        coords += [Fraction(0)] * (self.degree - len(coords))
        return NumberFieldElem(self, tuple(coords))

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

    def reduce_powers(self, conv):
        """Coordinates from a raw power list c_t x^t, t <= 2*degree - 2."""
        d = self.degree
        out = list(conv[:d]) + [Fraction(0)] * (d - min(d, len(conv)))
        for t in range(d, len(conv)):
            c = conv[t]
            if c:
                red = self._red[t - d]
                for i in range(d):
                    out[i] += c * red[i]
        return out

    def embeddings(self, prec_bits=None):
        return root_cluster(self.modulus, prec_bits)

    def is_totally_real(self, prec_bits=None):
        try:
            roots = self.embeddings(prec_bits)
        except PrecisionError:
            return False
        return all(abs(r.value.imag) <= 4 * r.err for r in roots)


class NumberFieldElem:
    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)
        assert len(self.coords) == field.degree

    def __repr__(self):
        return "NFElem(%s)" % (self.coords,)

    def __eq__(self, other):
        if isinstance(other, NumberFieldElem):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_part(self):
        if not self.is_rational():
            raise InputError("element is not rational")
        return self.coords[0]

    def _coerce(self, other):
        return self.field.coerce(other)

    def __add__(self, other):
        other = self._coerce(other)
        return NumberFieldElem(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElem(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumberFieldElem(self.field, tuple(a * other for a in self.coords))
        other = self._coerce(other)
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        return NumberFieldElem(self.field, tuple(self.field.reduce_powers(conv)))

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
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def mult_matrix(self):
        """Rational matrix of y -> self*y in the power basis (columns indexed by x^j)."""
        cols = []
        cur = self
        gen = self.field.gen()
        for _ in range(self.field.degree):
            cols.append(cur.coords)
            cur = cur * gen
        return MatQ(list(zip(*cols)))


def nf_trace(elem):
    """Field trace K -> Q."""
    if isinstance(elem, (int, Fraction)):
        return Fraction(elem)
    return elem.mult_matrix().trace()


def nf_norm(elem):
    if isinstance(elem, (int, Fraction)):
        return Fraction(elem)
    return elem.mult_matrix().det()


def nf_charpoly(elem):
    """Characteristic polynomial of elem over Q (degree = field degree)."""
    if isinstance(elem, (int, Fraction)):
        return UniPoly((-Fraction(elem), 1))
    return elem.mult_matrix().charpoly()


def conjugate_quadratic(elem):
    """The nontrivial automorphism image, for degree <= 2 fields."""
    d = elem.field.degree
    if d == 1:
        return elem
    if d != 2:
        raise UnsupportedScopeError("conjugation implemented for degree <= 2 only")
    b = elem.field.modulus.coeffs[1]  # x^2 + b x + c: other root is -b - x
    a0, a1 = elem.coords
    return elem.field.elem([a0 - a1 * b, -a1])


class CycloField:
    """Q(zeta_p) for prime p, basis 1, zeta, ..., zeta^(p-2)."""

    def __init__(self, p):
        p = int(p)
        if p < 2 or any(p % t == 0 for t in range(2, int(p**0.5) + 1)):
            raise InputError("conductor must be prime")
        self.p = p
        self.degree = p - 1

    def __eq__(self, other):
        return isinstance(other, CycloField) and self.p == other.p

    def __hash__(self):
        return hash(("CYC", self.p))

    def __repr__(self):
        return "CycloField(%d)" % self.p

    def elem(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > self.degree:
            raise InputError("coordinate vector too long")
        coords += [Fraction(0)] * (self.degree - len(coords))
        return CycloElem(self, tuple(coords))

    def coerce(self, v):
        if isinstance(v, CycloElem):
            if v.field != self:
                raise InputError("element of a different cyclotomic field")
            return v
        return self.elem([Fraction(v)])

    def zero(self):
        return self.elem([])

    def one(self):
        return self.elem([1])

    def zeta_power(self, j):
        """zeta^j as an element."""
        j %= self.p
        if j < self.degree:
            coords = [Fraction(0)] * self.degree
            coords[j] = Fraction(1)
            return CycloElem(self, tuple(coords))
        return CycloElem(self, tuple([Fraction(-1)] * self.degree))

    def reduce_powers(self, conv):
        """Coordinates from a raw power list c_t zeta^t, t < 2p-3."""
        d = self.degree
        out = list(conv[:d]) + [Fraction(0)] * (d - min(d, len(conv)))
        out = [Fraction(c) for c in out]
        for t in range(d, len(conv)):
            c = conv[t]
            if not c:
                continue
            if t >= self.p:
                out[t - self.p] += c
            else:  # t == p-1
                for i in range(d):
                    out[i] -= c
        return out


class CycloElem:
    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)
        assert len(self.coords) == field.degree

    def __repr__(self):
        return "CycloElem(p=%d, %s)" % (self.field.p, (self.coords,))

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_part(self):
        if not self.is_rational():
            raise InputError("element is not rational")
        return self.coords[0]

    def _coerce(self, other):
        return self.field.coerce(other)

    def __add__(self, other):
        other = self._coerce(other)
        return CycloElem(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElem(self.field, tuple(a * other for a in self.coords))
        other = self._coerce(other)
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        return CycloElem(self.field, tuple(self.field.reduce_powers(conv)))

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise InputError("negative cyclotomic power not supported")
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out
