"""Level-1 modular form spaces: dimensions, triangular bases, newform orbits.

The basis for weight k is h_j = E4^a * E6^(b + 2(d-j)) * Delta^(j-1) with
4a + 6b = k - 12(d-1), which makes h_j = q^(j-1) + O(q^j): unitriangular
with integer entries, so the coordinates of an integer array in it come from
one forward substitution in integers (_miller_solve).  h_j is E4^a E6^b
times g_j, the j-th basis form of weight 12(d-1), so level1_coordinates
certifies a form level 1 from two stored bases: the head of d coefficients
fixes the only candidate coordinates (solved against the basis through
q^(d-1)), the candidate is their combination of the core g_1..g_d times the
factor E4^a E6^b, and the form must equal it exactly.

Newforms are cut out as eigenvectors of T_2; Strong Multiplicity One at
level 1 means each irreducible factor g of the T_2 characteristic polynomial
chi picks out one Galois orbit.  So T_2 is the one Hecke matrix the pipeline
builds (hecke_matrix_level1 takes a prime p), and the certificate of an
orbit is M c = theta c below; the Hecke relations among its a(n) are a check
of the test suite.

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

An orbit is its Hecke field, of degree 1 for a rational orbit, and its
Miller coordinates (Newform): the integer rows of D c and the cusp basis
they refer to.  No series over a Hecke field is formed: a(n) reads the
basis, trace.expand_in_newforms matches the trace's Miller coordinates, and
a specialization maps the coordinates through the basis monomials.
"""

import operator
from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import (InputError, TruncationError, UnsupportedScopeError, VerificationError,
                     require_within)
from .linalg import bareiss_solve
from .numfield import NumberField, NumberFieldElem, _times_gen
from .polynomial import UniPoly, _is_prime, poly_factor_q
from .qexp import (MAX_SERIES_TERMS, QSeries, _gate_eisenstein, _kron_mul,
                   _require_newform_dim, _stored, dim_cusp_level1, dim_modular_level1,
                   eisenstein_level1, eta_quotient, hecke_T)

# 4a + 6b = r, minimal (a, b)
_RESIDUAL_AB = {0: (0, 0), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1), 14: (2, 1)}


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
    return [QSeries._from_ints(list(col), 1, trunc, k, 1) for col in zip(*rows)]


class Newform:
    """A Galois orbit of normalized level-1 eigenforms over its Hecke field
    K = Q[theta]/(modulus), held as its Miller coordinates.

    K has degree 1 for a rational orbit, and a(n) and the coordinates are
    elements of K at every degree.  The orbit is sum_i c_i b_i over the cusp
    part b_1..b_s of the Miller basis, with c_i = sum_t rows[i][t] theta^t /
    den: integer rows, held as tuples, over one positive denominator
    (newform_basis_level1 keeps it coprime to them).  The integral basis,
    which the orbits of one space share, is held through q^trunc.
    """

    __slots__ = ("weight", "field", "rows", "den", "basis")

    def __init__(self, weight, field, rows, den, basis):
        if any(b._den != 1 for b in basis):
            raise InputError("the cusp basis of a newform must be integral")
        self.weight = int(weight)
        self.field = field
        self.rows = tuple(map(tuple, rows))
        self.den = den
        self.basis = basis

    @property
    def modulus(self):
        return self.field.modulus

    @property
    def degree(self):
        return self.field.degree

    @property
    def trunc(self):
        return self.basis[0].trunc

    def element(self, xs, den):
        """sum_t xs[t] theta^t / den in K."""
        return NumberFieldElem._from_ints(self.field, list(xs), den)

    def a(self, n):
        """The q^n coefficient, an element of K."""
        col = [int(b.coeff(n)) for b in self.basis]
        return self.element([sum(map(operator.mul, col, ct)) for ct in zip(*self.rows)], self.den)

    def coordinates(self):
        """(0, c_1, ..., c_s): the coordinates in the full Miller basis h_1..h_(s+1)."""
        return [self.element(r, self.den) for r in ((0,) * self.degree,) + self.rows]

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


def _miller_solve(a, cols, v=0):
    """Integer coordinates x of the integer array a in unitriangular integer
    columns, and the residual a - sum_j x_j cols[j].

    Column j has leading coefficient 1 at index v + j and no term below it
    (the Miller columns h_j with v = 0, their cusp part with v = 1), so x_j
    is the residual's entry there: forward substitution, all in integers.
    Each column is at least as long as a.
    """
    x = []
    for j, h in enumerate(cols):
        c = a[v + j]
        x.append(c)
        if c:
            a = [r - c * y for r, y in zip(a, h)]
    return x, a


def level1_coordinates(forms):
    """Miller coordinates of rational level-1 forms, each certified through
    its own truncation.

    A form f = F / D of weight k and dimension d = dim M_k, F its integer
    array, gets its coordinates X_j / D from the first d entries of F,
    solved in integers against the Miller columns through q^(d-1).  The
    basis is triangular, so f lies in the span through q^T exactly when F
    equals the one candidate sum_j X_j h_j that its head determines.  The
    weight-k basis is h_j = E4^a E6^b g_j, where g_1..g_d is the Miller
    basis of weight 12(d - 1), so the candidate is

        E4^a E6^b (sum_j X_j g_j):

    one linear combination of the stored core columns g_j and at most one
    product by the stored factor E4^a E6^b (none when 12 | k), both read as
    prefixes, and F minus it must vanish exactly.  A form outside the span
    raises VerificationError whose ``index`` attribute is its position in
    forms and whose ``start`` is the q-power where its residual starts.
    """
    forms = list(forms)
    for f in forms:
        if f.weight is None:
            raise InputError("level-1 coordinates need a weighted series")
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
        # miller_basis runs the gates the stored reads rely on
        head = [h._num for h in miller_basis(k, d - 1)]
        core = _miller_store(12 * (d - 1), n)
        r = k - 12 * (d - 1)
        num = f._num
        x, _ = _miller_solve(num[:d], head)
        acc = [sum(map(operator.mul, x, row)) for row in core]
        if r:
            acc = _kron_mul([row[0] for row in _miller_store(r, n)], acc, n)
        miss = next((m for m in range(n) if num[m] != acc[m]), None)
        if miss is not None:
            exc = VerificationError(
                "series is not in the span of the basis: residual starts at q^%d" % miss
            )
            exc.index, exc.start = i, miss
            raise exc
        out.append([Fraction(v, f._den) for v in x])
    return out


def hecke_matrix_level1(weight, p, trunc=None):
    """(rows, basis): the integer matrix of T_p, p prime, on the cusp space
    in the triangular basis, columns = images.  The basis is unitriangular
    and integral and T_p keeps coefficients integral, so a fraction is
    refused; each image must equal the combination its coordinates give,
    through the image's truncation.  Any other index is refused before the
    basis is built."""
    if not _is_prime(p):
        raise UnsupportedScopeError("Hecke operators implemented for a prime index only")
    s = dim_cusp_level1(weight)
    if s == 0:
        return [], []
    basis = miller_basis(weight, max(int(trunc or 0), p * s + 2))[1:]
    cusp = [b._num for b in basis]
    cols = []
    for bj in basis:
        img = hecke_T(bj, p)
        if img._den != 1:
            raise VerificationError("T_%d matrix is not integral in the Miller basis at weight %d"
                                    % (p, weight))
        x, res = _miller_solve(img._num, cusp, 1)
        if any(res):
            raise VerificationError("T_%d image is not in the cusp span at weight %d"
                                    % (p, weight))
        cols.append(x)
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


def _certify_orbits(k, trunc):
    """[(K, C, D)] for each irreducible factor g of the T_2 characteristic
    polynomial at weight k: the eigenvector of its orbit is c = C / D over
    K = Q[theta]/(g), with M c = theta c checked exactly before K is built,
    and C (integer rows, as tuples) and D > 0 are reduced by their common
    gcd.  A factor of degree 1 gives the field of degree 1.

    Depends on the weight alone; trunc only sizes the first read of the
    Miller basis, so that the caller's cusp basis is a prefix of it.
    """
    M, _ = hecke_matrix_level1(k, 2, trunc)
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
    orbits = []
    for g, _ in factors:
        d = g.degree
        gi = [int(c) for c in g.coeffs[:d]]
        # theta^j mod g, j < s, as integer coordinate vectors
        pows = [[1] + [0] * (d - 1)]
        for _ in range(len(M) - 1):
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
        h = gcd(D, *chain.from_iterable(C))
        # poly_factor_q has certified g irreducible
        orbits.append((NumberField(g), tuple(tuple(x // h for x in row) for row in C), D // h))
    return orbits


def newform_basis_level1(weight, trunc):
    """Galois orbits of normalized eigenforms in the weight-k level-1 cusp space.

    In the Miller cusp basis b_i = q^i + O(q^(i+1)) the first coordinate of
    a form is its a_1, so an eigenform c with a_1 = 1 and T_2-eigenvalue
    theta has e_1^T M^j c = a_1(T_2^j f) = theta^j: c = R^(-1) (theta^j)_j
    with R the Krylov rows of krylov_charpoly.  Each orbit costs integer
    matrix-vector products over Q[theta]/(g), no inverse in the field, and
    M c = theta c is checked exactly (_certify_orbits).  That certificate
    and the orbits' Hecke fields depend on the weight alone, so they are
    built once per weight per process, with the fields' power sums, and held
    in the series store under ("orbits", k); a build that raises records
    nothing.  Each call reads it and attaches the cusp basis through q^trunc,
    a prefix of the stored Miller basis read after the E4 and E6 gates.  The
    series and cusp-dimension caps refuse before any work.
    """
    k = int(weight)
    trunc = int(trunc)
    require_within(2 * trunc + 2, MAX_SERIES_TERMS, "the series length at order %d", trunc)
    _require_newform_dim(k)
    if k < 0 or k % 2:
        raise InputError("weight must be a nonnegative even integer")
    if trunc < 0:
        raise InputError("truncation order must be nonnegative")
    s = dim_cusp_level1(k)
    if s == 0:
        return GaloisOrbitSet(k, (), 0)
    (orbits,) = _stored(("orbits", k), 1, lambda _: [_certify_orbits(k, trunc)])
    cusp = miller_basis(k, trunc)[1:]
    return GaloisOrbitSet(k, [Newform(k, K, C, D, cusp) for K, C, D in orbits], s)


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
