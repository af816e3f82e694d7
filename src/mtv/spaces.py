"""Level-1 modular form spaces: dimensions, triangular bases, newform orbits.

The basis for weight k is h_j = E4^a * E6^(b + 2(d-j)) * Delta^(j-1) with
4a + 6b = k - 12(d-1), which makes h_j = q^(j-1) + O(q^j): upper triangular,
so expansion in the basis is forward substitution.  Newforms are cut out as
eigenvectors of T_2; Strong Multiplicity One at level 1 means each irreducible
factor g of the T_2 characteristic polynomial chi picks out one Galois orbit.

The eigenvector for a root theta of g comes without elimination over the
Hecke field K = Q[x]/(g): synthetic division writes chi(x) = (x - theta) h(x)
with h in K[x], and by Cayley-Hamilton v = h(T_2) e = sum_j h_j T_2^j e is,
for any vector e, zero or an eigenvector for theta.  The Krylov vectors T_2^j e are
rational, so v costs only rational-times-K products; T_2 v = theta v is
checked exactly, and normalizing a_1 = 1 takes one inverse in K per orbit.
"""

import operator
from fractions import Fraction
from math import gcd

from .errors import InputError, TruncationError, VerificationError
from .linalg import MatQ
from .numfield import NumberField
from .polynomial import poly_factor_q
from .qexp import QSeries, eisenstein_level1, eta_quotient, hecke_T

# 4a + 6b = r, minimal (a, b)
_RESIDUAL_AB = {0: (0, 0), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1), 14: (2, 1)}


def dim_modular_level1(weight):
    """Dimension of the full weight-k space on the modular group."""
    k = int(weight)
    if k < 0 or k % 2:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


def dim_cusp_level1(weight):
    k = int(weight)
    if k < 12:
        return 0
    return dim_modular_level1(k) - 1


def delta_series(trunc):
    """The weight-12 cusp form q * prod (1-q^n)^24, leading coefficient 1."""
    return eta_quotient({1: 24}, trunc)


def miller_exponents(weight):
    """(d, a, b) with dim = d and h_j = E4^a E6^(b+2(d-j)) Delta^(j-1)."""
    k = int(weight)
    if k < 0 or k % 2:
        raise InputError("weight must be a nonnegative even integer")
    d = dim_modular_level1(k)
    if d == 0:
        raise InputError("empty space at weight %d" % k)
    residual = k - 12 * (d - 1)
    if residual not in _RESIDUAL_AB:
        raise VerificationError("impossible residual weight %d" % residual)
    a, b = _RESIDUAL_AB[residual]
    return d, a, b


def miller_basis(weight, trunc):
    """Triangular basis h_1..h_d of the full weight-k space, h_j = q^(j-1)+O(q^j)."""
    k = int(weight)
    if k < 0 or k % 2:
        raise InputError("weight must be a nonnegative even integer")
    if dim_modular_level1(k) == 0:
        return []
    d, a, b = miller_exponents(k)
    trunc = int(trunc)
    one = QSeries([1], trunc=trunc, weight=0)
    base = eisenstein_level1(4, trunc) ** a if a else one
    E6 = eisenstein_level1(6, trunc) if (b or d > 1) else None

    # h_j = base * E6^(b + 2(d-j)) * Delta^(j-1)
    e6pows = [E6**b if b else one]
    dpows = [one]
    if d > 1:
        E6sq = E6 * E6
        delta = delta_series(trunc)
        for _ in range(d - 1):
            e6pows.append(e6pows[-1] * E6sq)
            dpows.append(dpows[-1] * delta)
    basis = []
    for j in range(1, d + 1):
        h = base * e6pows[d - j] * dpows[j - 1]
        if h.weight != k:
            raise VerificationError("basis element weight bookkeeping failed")
        basis.append(h)
    return basis


class Newform:
    """A normalized level-1 Hecke eigenform with its coefficient field."""

    __slots__ = ("weight", "field", "modulus", "qexp", "level")

    def __init__(self, weight, field, modulus, qexp, level=1):
        self.weight = int(weight)
        self.field = field
        self.modulus = modulus
        self.qexp = qexp
        self.level = int(level)

    @property
    def degree(self):
        return 1 if self.field is None else self.field.degree

    def a(self, n):
        return self.qexp.coeff(n)

    def __repr__(self):
        return "Newform(weight=%d, degree=%d)" % (self.weight, self.degree)


class GaloisOrbitSet:
    """All Galois orbits of newforms in one cusp space."""

    __slots__ = ("weight", "orbits", "dim_cusp")

    def __init__(self, weight, orbits, dim_cusp):
        self.weight = int(weight)
        self.orbits = tuple(orbits)
        self.dim_cusp = int(dim_cusp)

    @property
    def single_orbit(self):
        """True when the whole cusp space is one orbit (vacuously for dim 0)."""
        return self.dim_cusp == 0 or len(self.orbits) == 1

    def __iter__(self):
        return iter(self.orbits)

    def __len__(self):
        return len(self.orbits)


def _is_zero(x):
    return (x == 0) if isinstance(x, Fraction) else x.is_zero()


def expand_in_triangular(f, basis, strict=True):
    """Coordinates of f in a q^(i)-triangular basis by forward substitution.

    With strict=True the residual must vanish through the common truncation
    order, i.e. f must lie in the span as far as the series can see.
    """
    coords = []
    rem = f
    for i, b in enumerate(basis):
        lead = b.valuation()
        if lead is None:
            raise TruncationError(
                "basis element %d vanishes through q^%d; raise the order" % (i + 1, b.trunc)
            )
        c = rem.coeff(lead)
        coords.append(c)
        if not _is_zero(c):
            rem = rem - b.scale(c)
    if strict and not rem.is_zero():
        v = rem.valuation()
        raise VerificationError(
            "series is not in the span of the basis: residual starts at q^%s" % v
        )
    return coords, rem


def hecke_matrix_level1(weight, n, trunc=None):
    """Matrix of T_n on the cusp space in the triangular basis (columns = images)."""
    s = dim_cusp_level1(weight)
    if s == 0:
        return MatQ([]), []
    need = n * s + 2
    T_int = max(int(trunc or 0), need)
    basis = miller_basis(weight, T_int)[1:]
    cols = []
    for bj in basis:
        img = hecke_T(bj, n)
        if img.trunc < s:
            raise TruncationError("Hecke image truncated below the basis length")
        coords, _ = expand_in_triangular(img, basis)
        cols.append(coords)
    M = MatQ([[cols[j][i] for j in range(s)] for i in range(s)])
    return M, basis


def _krylov_eigenvector(M, chi, theta):
    """Eigenvector of M for the root theta of its characteristic polynomial chi.

    theta is a Fraction or a number field element; the entries of the vector
    lie in theta's field, and the first entry is 1.
    """
    s = M.nrows
    cs = chi.coeffs
    # chi(x) = (x - theta) * sum_i h_i x^i, by synthetic division
    h = [None] * s
    acc = cs[s]
    for i in range(s - 1, -1, -1):
        h[i] = acc
        acc = cs[i] + theta * acc
    if not _is_zero(acc):
        raise VerificationError("eigenvalue is not a root of the characteristic polynomial")
    zero = theta - theta
    for start in range(s):
        # v = h(M) e = sum_j h_j M^j e over rational Krylov vectors u = M^j e
        u = [Fraction(i == start) for i in range(s)]
        v = [zero] * s
        for j, hj in enumerate(h):
            if j:
                u = [sum(map(operator.mul, row, u)) for row in M.rows]
            v = [x + hj * c if c else x for x, c in zip(v, u)]
        if not all(map(_is_zero, v)):
            break
    else:
        raise VerificationError("Krylov vector vanishes for every unit vector")
    Mv = [sum((c * x for c, x in zip(row, v) if c), zero) for row in M.rows]
    if not all(_is_zero(y - theta * x) for y, x in zip(Mv, v)):
        raise VerificationError("Krylov vector is not an eigenvector")
    if _is_zero(v[0]):
        raise VerificationError("eigenvector with vanishing q^1 coefficient")
    inv = 1 / v[0]
    return [x * inv for x in v]


def newform_basis_level1(weight, trunc):
    """Galois orbits of normalized eigenforms in the weight-k level-1 cusp space."""
    k = int(weight)
    trunc = int(trunc)
    s = dim_cusp_level1(k)
    if s == 0:
        return GaloisOrbitSet(k, (), 0)
    T_int = max(trunc, 2 * s + 2)
    M, basis = hecke_matrix_level1(k, 2, T_int)
    chi = M.charpoly()
    factors = poly_factor_q(chi)
    for g, mult in factors:
        if mult > 1:
            raise VerificationError(
                "repeated factor in the T_2 characteristic polynomial at weight %d" % k
            )
    orbits = []
    for g, _ in factors:
        if g.degree == 1:
            field = None
            theta = -g.coeffs[0]
        else:
            # poly_factor_q has just certified g irreducible
            field = NumberField(g, check_irreducible=False)
            theta = field.gen()
        v = _krylov_eigenvector(M, chi, theta)
        # sum_i v_i * basis_i, one rational series per coordinate of K
        rows = [[x] if field is None else x.coords for x in v]
        comps = []
        for j in range(g.degree):
            acc = None
            for r, b in zip(rows, basis):
                term = b.scale(r[j])
                acc = term if acc is None else acc + term
            comps.append(acc.truncate(trunc).coeffs)
        coeffs = comps[0] if field is None else [field.elem(c) for c in zip(*comps)]
        f = QSeries(coeffs, e=1, trunc=trunc, weight=k, level=1, field=field)
        orbits.append(Newform(weight=k, field=field, modulus=g, qexp=f))
    return GaloisOrbitSet(k, orbits, s)


def conductor_of_space(weight, level):
    """Smallest level the weight-k trace image can live at, plus admissible targets."""
    level = int(level)
    if level == 1:
        return 1, [1]
    if any(level % t == 0 for t in range(2, int(level**0.5) + 1)):
        raise InputError("level must be 1 or prime")
    C = 1 if dim_cusp_level1(weight) > 0 else level
    admissible = [M for M in (1, level) if M % C == 0]
    return C, admissible


def validate_external_newform(f):
    """Check Hecke coefficient relations on a claimed level-1 eigenform expansion."""
    if isinstance(f, Newform):
        f = f.qexp
    if f.level != 1 or f.weight is None or f.e != 1:
        raise InputError("expected a level-1 integral-weight expansion")
    k = f.weight
    T = f.trunc
    if T < 2:
        raise InputError("need at least two coefficients to validate")
    if not _is_zero(f.coeff(0)):
        raise VerificationError("constant term is %s, expected 0" % (f.coeff(0),))
    if not _is_zero(f.coeff(1) - 1):
        raise VerificationError("q^1 coefficient is %s, expected 1" % (f.coeff(1),))
    # multiplicativity on coprime pairs
    for m in range(2, T + 1):
        for n in range(m + 1, T // m + 1):
            if gcd(m, n) != 1:
                continue
            if not _is_zero(f.coeff(m * n) - f.coeff(m) * f.coeff(n)):
                raise VerificationError(
                    "multiplicativity fails first at a_%d * a_%d != a_%d"
                    % (m, n, m * n)
                )
    # prime-power recursion
    p = 2
    while p * p <= T:
        if all(p % t for t in range(2, p)):
            pk = p ** (k - 1)
            q = p * p
            while q <= T:
                lhs = f.coeff(q)
                rhs = f.coeff(p) * f.coeff(q // p) - pk * f.coeff(q // (p * p))
                if not _is_zero(lhs - rhs):
                    raise VerificationError(
                        "Hecke recursion fails first at a_%d (p=%d)" % (q, p)
                    )
                q *= p
        p += 1
    return True
