"""Level-1 modular form spaces: dimensions, triangular bases, newform orbits.

The basis for weight k is h_j = E4^a * E6^(b + 2(d-j)) * Delta^(j-1) with
4a + 6b = k - 12(d-1), which makes h_j = q^(j-1) + O(q^j): upper triangular,
so expansion in the basis is forward substitution.  h_j is E4^a E6^b times
g_j, the j-th basis form of weight 12(d-1), so level1_coordinates certifies
a form level 1 from two stored bases: the head of d coefficients fixes the
only candidate coordinates (solved against the basis through q^(d-1)), the
candidate is their combination of the core g_1..g_d times the factor
E4^a E6^b, and the form must equal it exactly.

Newforms are cut out as eigenvectors of T_2; Strong Multiplicity One at
level 1 means each irreducible factor g of the T_2 characteristic polynomial
chi picks out one Galois orbit.

The newform layer works in integers.  The T_2 matrix M is integral in the
cusp part of this basis, whose first coordinate is a_1, and at level 1 the
pairing (T, f) -> a_1(T f) between the Hecke algebra and the cusp space is
perfect (W. Stein, Modular Forms, A Computational Approach, AMS GSM 79,
2007).  So the Krylov rows e_1^T M^j, j < dim, form an invertible integer
matrix R exactly when chi is squarefree.  One fraction-free solve R X = D I
(linalg.bareiss_solve) gives chi (from the next row) and, for a root theta
of each factor g, the normalized eigenvector c = X (1, theta, ...) / D over
Q[theta]/(g).  M, R and X are integer rows; M c = theta c is checked exactly
before an orbit is returned, and nothing is inverted in a Hecke field.
"""

import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, ResourceLimitError, TruncationError, VerificationError
from .linalg import bareiss_solve
from .numfield import NumberField
from .polynomial import UniPoly, poly_factor_q
from .qexp import (QSeries, _gate_eisenstein, _is_prime, _kron_mul, _stored,
                   eisenstein_level1, eta_quotient, hecke_T)

# 4a + 6b = r, minimal (a, b)
_RESIDUAL_AB = {0: (0, 0), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1), 14: (2, 1)}

# cap on the cusp dimension of a newform basis that a command builds.  The
# basis takes about 0.4 s at dimension 16 (weight 192), 2 s at 20 (weight
# 240) and 5 s at 22 (weights 264 and 278) on a 2-vCPU VM with CPython
# 3.11.  At dimension 23 the mod-p sieve's primes (up to 293) first fail to
# certify the T_2 polynomial irreducible (weight 276; weights 288-298 fail
# too), and the numeric subset search that takes over has no useful bound
# on its run time.
MAX_NEWFORM_DIM = 22


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


def _require_newform_dim(weight):
    """Refuse, before any work, a weight whose cusp dimension exceeds MAX_NEWFORM_DIM."""
    dim = dim_cusp_level1(weight)
    if dim > MAX_NEWFORM_DIM:
        raise ResourceLimitError(
            "weight %d has cusp dimension %d, above the cap of %d"
            % (weight, dim, MAX_NEWFORM_DIM)
        )


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


def _e6sq_power(m, n):
    """E6^(2m) through q^(n-1), m >= 1, a prefix of the stored ladder that
    the Miller bases of every dimension share; the caller has gated E6."""
    def build(n):
        if m > 1:
            return _kron_mul(_e6sq_power(m - 1, n), _e6sq_power(1, n), n)
        E6 = eisenstein_level1(6, n - 1)._num
        return _kron_mul(E6, E6, n)

    return _stored(("e6sq", m), n, build)


def _miller_rows(k, n):
    """Rows (h_1[m], ..., h_d[m]), m < n, of the weight-k Miller basis
    h_j = E4^a E6^b E6^(2(d-j)) Delta^(j-1); E4, E6 and Delta are integral.
    No product is taken by the unit series."""
    d, a, b = miller_exponents(k)
    h = None  # E4^a E6^b Delta^(j-1), None for 1
    for w in [4] * a + [6] * b:
        E = eisenstein_level1(w, n - 1)._num
        h = E if h is None else _kron_mul(h, E, n)
    delta = delta_series(n - 1)._num if d > 1 else None
    cols = []
    for j in range(1, d):
        X = _e6sq_power(d - j, n)
        cols.append(X if h is None else _kron_mul(h, X, n))
        h = delta if h is None else _kron_mul(h, delta, n)
    cols.append([1] + [0] * (n - 1) if h is None else h)
    return list(zip(*cols))


def _miller_store(k, n):
    """The first n rows of the stored weight-k Miller basis; the caller has
    run the E4 and E6 gates."""
    return _stored(("miller", k), n, lambda n: _miller_rows(k, n))


def miller_basis(weight, trunc):
    """Triangular basis h_1..h_d of the full weight-k space, h_j = q^(j-1)+O(q^j),
    read as a prefix of the series store after the E4 and E6 gates have run."""
    k = int(weight)
    if k < 0 or k % 2:
        raise InputError("weight must be a nonnegative even integer")
    if dim_modular_level1(k) == 0:
        return []
    d, a, b = miller_exponents(k)
    trunc = int(trunc)
    if a:
        _gate_eisenstein(4, 1)
    if b or d > 1:
        _gate_eisenstein(6, 1)
    rows = _miller_store(k, trunc + 1)
    return [QSeries._from_ints(list(col), 1, 1, trunc, k, 1) for col in zip(*rows)]


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


def expand_in_triangular(f, basis, strict=True):
    """Coordinates of f in a q^(i)-triangular basis by forward substitution.

    The basis is rational series on the grid of f with leading coefficient 1,
    as a Miller basis is; a coordinate is the residual's coefficient at the
    element's lead.  The residual is one integer array per power-basis
    component of f over one denominator D, and subtracting x/D times B/l is
    R <- l R - x B over l D.  With strict=True the residual must vanish
    through the common truncation order: f lies in the span as far as seen.
    """
    e, T, w, level = f.e, f.trunc, f.weight, f.level
    comps, den = f._components(e, e * T + 1)
    coords = []
    for i, b in enumerate(basis):
        if b.field is not None or e % b.e:
            raise InputError("a triangular basis is rational series on the grid of the form")
        m = next((m * (e // b.e) for m, x in enumerate(b._num) if x), None)  # lead on f's grid
        if m is None:
            raise TruncationError(
                "basis element %d vanishes through q^%d; raise the order" % (i + 1, b.trunc)
            )
        if m > e * T:
            raise TruncationError("coefficient of q^%s requested beyond truncation order %d"
                                  % (Fraction(m, e), T))
        xs = [comp[m] for comp in comps]
        coords.append(f._value(xs, den))
        if any(xs):
            if None not in (w, b.weight) and w != b.weight:
                raise InputError("adding series of different weights")
            w, level, T = b.weight if w is None else w, lcm(level, b.level), min(T, b.trunc)
            (B,), ell = b._components(e, e * T + 1)
            comps = [[ell * r - x * y for r, y in zip(comp, B)] for comp, x in zip(comps, xs)]
            den *= ell
    rem = QSeries._from_comps(comps, den, e, T, w, level, f.field)
    if strict and not rem.is_zero():
        v = rem.valuation()
        raise VerificationError(
            "series is not in the span of the basis: residual starts at q^%s" % v
        )
    return coords, rem


def level1_coordinates(forms):
    """Miller coordinates of level-1 forms, each certified through its own truncation.

    A form f of weight k and dimension d = dim M_k gets its coordinates c_j
    from its first d coefficients, solved against miller_basis(k, d - 1).
    The basis is triangular, so f lies in the span through q^T exactly when
    it equals the one candidate sum_j c_j h_j that its head determines.  The
    weight-k basis is h_j = E4^a E6^b g_j, where g_1..g_d is the Miller basis
    of weight 12(d - 1), so the candidate is

        E4^a E6^b (sum_j c_j g_j):

    one linear combination of the stored core columns g_j and at most one
    product by the stored factor E4^a E6^b (none when 12 | k), both read as
    prefixes, and f minus it must vanish exactly.  A series over a number field
    is solved and certified one power-basis component at a time, and its
    coordinates are field elements.  A form outside the span raises
    VerificationError whose ``index`` attribute is its position in forms.
    """
    forms = list(forms)
    for f in forms:
        if f.weight is None or f.e != 1:
            raise InputError("level-1 coordinates need a weighted series in powers of q")
        d, _, _ = miller_exponents(f.weight)
        if f.trunc < d - 1:
            raise TruncationError(
                "basis element %d vanishes through q^%d; raise the order"
                % (f.trunc + 2, f.trunc)
            )
    out = []
    for i, f in enumerate(forms):
        k = f.weight
        n = f.trunc + 1
        d = dim_modular_level1(k)
        head_basis = miller_basis(k, d - 1)  # runs the gates the stored reads rely on
        core = _miller_store(12 * (d - 1), n)
        r = k - 12 * (d - 1)
        factor = [row[0] for row in _miller_store(r, n)] if r else None
        coords, _ = expand_in_triangular(f.truncate(d - 1), head_basis)
        comps, den = f._components(1, n)
        miss = n
        for comp, c in zip(comps, zip(*[[x] if f.field is None else x.coords for x in coords])):
            L = lcm(*[x.denominator for x in c])
            C = [x.numerator * (L // x.denominator) for x in c]
            acc = [sum(map(operator.mul, C, row)) for row in core]  # L * sum_j c_j g_j
            if factor is not None:
                acc = _kron_mul(factor, acc, n)
            # comp / den == acc / L, coefficient by coefficient
            miss = next((m for m in range(miss) if comp[m] * L != acc[m] * den), miss)
        if miss < n:
            exc = VerificationError(
                "series is not in the span of the basis: residual starts at q^%d" % miss
            )
            exc.index = i
            raise exc
        out.append(coords)
    return out


def hecke_matrix_level1(weight, n, trunc=None):
    """(rows, basis): the integer matrix of T_n on the cusp space in the
    triangular basis, columns = images.  The basis is unitriangular and
    integral and T_n keeps coefficients integral, so a fraction is refused."""
    s = dim_cusp_level1(weight)
    if s == 0:
        return [], []
    T_int = max(int(trunc or 0), n * s + 2)
    basis = miller_basis(weight, T_int)[1:]
    cols = []
    for bj in basis:
        img = hecke_T(bj, n)
        if img.trunc < s:
            raise TruncationError("Hecke image truncated below the basis length")
        col = expand_in_triangular(img, basis)[0]
        if any(c.denominator != 1 for c in col):
            raise VerificationError("T_%d matrix is not integral in the Miller basis at weight %d"
                                    % (n, weight))
        cols.append([c.numerator for c in col])
    return [list(r) for r in zip(*cols)], basis


def krylov_charpoly(M):
    """Characteristic polynomial of a square integer matrix M (a list of
    integer rows) from the rows e_1^T M^j.

    The rows r_j = e_1^T M^j (j < s) form the integer matrix R.  Solving
    r_s = sum_j x_j r_j gives chi(x) = x^s - sum_j x_j x^j, since e_1^T chi(M)
    vanishes and, R being invertible, no lower-degree polynomial does.
    Returns (chi, D, X) with R X = D I (bareiss_solve, B = I: the roots of
    chi meet X only after chi is factored).  A singular R, i.e. e_1 is not
    cyclic, raises VerificationError.
    """
    s = len(M)
    cols = list(zip(*M))
    rows = [[1] + [0] * (s - 1)]
    for _ in range(s):
        r = rows[-1]
        rows.append([sum(c * m for c, m in zip(r, col) if c) for col in cols])
    try:
        D, X = bareiss_solve(rows[:s], [[int(i == j) for j in range(s)] for i in range(s)])
    except VerificationError:
        raise VerificationError("e_1 is not cyclic: the Krylov rows are singular") from None
    top = rows[s]
    chi = UniPoly([-Fraction(sum(map(operator.mul, top, col)), D) for col in zip(*X)] + [1])
    return chi, D, X


def _times_gen(v, g):
    """theta * v for the coordinate vector v of Q[theta]/(g), g monic integral."""
    top = v[-1]
    out = [0] + v[:-1]
    if top:
        out = [a - top * c for a, c in zip(out, g)]
    return out


def newform_basis_level1(weight, trunc):
    """Galois orbits of normalized eigenforms in the weight-k level-1 cusp space.

    In the Miller cusp basis b_i = q^i + O(q^(i+1)) the first coordinate of
    a form is its a_1, so an eigenform c with a_1 = 1 and T_2-eigenvalue
    theta has e_1^T M^j c = a_1(T_2^j f) = theta^j: c = R^(-1) (theta^j)_j
    with R the Krylov rows of krylov_charpoly.  Each orbit costs integer
    matrix-vector products over Q[theta]/(g), no inverse in the field, and
    M c = theta c is checked exactly before the orbit is returned.
    """
    k = int(weight)
    trunc = int(trunc)
    s = dim_cusp_level1(k)
    if s == 0:
        return GaloisOrbitSet(k, (), 0)
    M, basis = hecke_matrix_level1(k, 2, trunc)
    try:
        chi, D, X = krylov_charpoly(M)
    except VerificationError:
        # a perfect pairing makes R singular exactly when chi is not squarefree
        raise VerificationError(
            "repeated factor in the T_2 characteristic polynomial at weight %d" % k
        ) from None
    factors = poly_factor_q(chi)
    for g, mult in factors:
        if mult > 1:
            raise VerificationError(
                "repeated factor in the T_2 characteristic polynomial at weight %d" % k
            )
    # row n holds the q^n coefficients of the integral basis
    brows = list(zip(*[b.truncate(trunc)._num for b in basis]))
    orbits = []
    for g, _ in factors:
        d = g.degree
        gi = [int(c) for c in g.coeffs[:d]]
        # theta^j mod g, j < s, as integer coordinate vectors
        pows = [[1] + [0] * (d - 1)]
        for _ in range(s - 1):
            pows.append(_times_gen(pows[-1], gi))
        # D * c_i = sum_j X_ij theta^j, coordinates over Q[theta]/(g)
        C = [[sum(x * p[t] for x, p in zip(row, pows) if x) for t in range(d)]
             for row in X]
        if C[0] != [D] + [0] * (d - 1):
            raise VerificationError("eigenvector with a_1 != 1 at weight %d" % k)
        for row, ci in zip(M, C):
            Mc = [sum(m * cl[t] for m, cl in zip(row, C) if m) for t in range(d)]
            if Mc != _times_gen(ci, gi):
                raise VerificationError(
                    "pairing solution is not a T_2 eigenvector at weight %d" % k
                )
        # sum_i c_i b_i, one integer array per coordinate of K, row by row
        comps = [[sum(map(operator.mul, ct, row)) for row in brows] for ct in zip(*C)]
        # poly_factor_q has just certified g irreducible
        field = None if d == 1 else NumberField(g, check_irreducible=False)
        f = QSeries._from_comps(comps, D, 1, trunc, k, 1, field)
        orbits.append(Newform(weight=k, field=field, modulus=g, qexp=f))
    return GaloisOrbitSet(k, orbits, s)


def conductor_of_space(weight, level):
    """Smallest level the weight-k trace image can live at, plus admissible targets."""
    level = int(level)
    if level == 1:
        return 1, [1]
    if not _is_prime(level):
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
    if f.coeff(0) != 0:
        raise VerificationError("constant term is %s, expected 0" % (f.coeff(0),))
    if f.coeff(1) != 1:
        raise VerificationError("q^1 coefficient is %s, expected 1" % (f.coeff(1),))
    # multiplicativity on coprime pairs
    for m in range(2, T + 1):
        for n in range(m + 1, T // m + 1):
            if gcd(m, n) != 1:
                continue
            if f.coeff(m * n) != f.coeff(m) * f.coeff(n):
                raise VerificationError(
                    "multiplicativity fails first at a_%d * a_%d != a_%d"
                    % (m, n, m * n)
                )
    # prime-power recursion
    p = 2
    while p * p <= T:
        if _is_prime(p):
            pk = p ** (k - 1)
            q = p * p
            while q <= T:
                lhs = f.coeff(q)
                rhs = f.coeff(p) * f.coeff(q // p) - pk * f.coeff(q // (p * p))
                if lhs != rhs:
                    raise VerificationError(
                        "Hecke recursion fails first at a_%d (p=%d)" % (q, p)
                    )
                q *= p
        p += 1
    return True
