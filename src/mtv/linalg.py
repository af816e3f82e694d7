"""Exact linear algebra.  The pipeline runs one integer kernel, the
fraction-free forward elimination behind bareiss_solve and is_totally_real.
MatQ, dense matrices over Q or another exact field, serves the tests as an
oracle; it stays here while the benchmark's tracer wraps its nullspace,
charpoly and solve by name.
"""

from fractions import Fraction

from .errors import InputError, VerificationError
from .polynomial import UniPoly


class MatQ:
    """Immutable exact matrix. Entries are Fractions unless the caller
    supplies elements of some other exact field with division (a
    NumberFieldElem divides only by rationals, so it is no such field;
    every algorithm below uses only ring ops and exact division)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise InputError("ragged matrix")

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, MatQ) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "MatQ(%r)" % (self.rows,)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError("shape mismatch")
        return MatQ(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return MatQ([[c * a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, MatQ):
            if self.ncols != other.nrows:
                raise InputError("shape mismatch")
            cols = list(zip(*other.rows))
            return MatQ(
                [[_dot(r, c) for c in cols] for r in self.rows]
            )
        return self.scale(other)

    def transpose(self):
        return MatQ(list(zip(*self.rows)))

    def trace(self):
        if self.nrows != self.ncols:
            raise InputError("trace of non-square matrix")
        t = self.rows[0][0]
        for i in range(1, self.nrows):
            t = t + self.rows[i][i]
        return t

    def solve(self, rhs):
        """Solve self * x = rhs exactly; raises if the matrix is singular."""
        n = self.nrows
        if n != self.ncols:
            raise InputError("solve needs a square matrix")
        a = [list(r) + [b] for r, b in zip(self.rows, rhs)]
        if len(_rref(a, n)) < n:
            raise VerificationError("singular system")
        return [r[n] for r in a]

    def nullspace(self):
        """Basis of the right nullspace, via reduced row echelon form."""
        n = self.ncols
        a = [list(r) for r in self.rows]
        pivots = _rref(a, n)
        free = [c for c in range(n) if c not in pivots]
        basis = []
        probe = self.rows[0][0] if self.rows else Fraction(0)
        zero = probe - probe
        one = zero + 1
        for fc in free:
            vec = [zero] * n
            vec[fc] = one
            for prow, pcol in enumerate(pivots):
                vec[pcol] = -a[prow][fc]
            basis.append(vec)
        return basis

    def charpoly(self):
        """Characteristic polynomial det(xI - M) by Faddeev-LeVerrier."""
        n = self.nrows
        if n != self.ncols:
            raise InputError("charpoly of non-square matrix")
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[n] = Fraction(1)
        Mk = MatQ.identity(n)
        for k in range(1, n + 1):
            Mk = self * Mk
            ck = -Mk.trace() / k
            coeffs[n - k] = ck
            if k < n:
                Mk = Mk + MatQ.identity(n).scale(ck)
        return UniPoly(coeffs)

    def det(self):
        cp = self.charpoly()
        c0 = cp.coeffs[0] if cp.coeffs else Fraction(0)
        return c0 if self.nrows % 2 == 0 else -c0


def _rref(a, ncols):
    """Reduced row echelon form, in place, of the rows a over their first
    ncols columns, by Gauss-Jordan with exact division; returns the pivot
    columns."""
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col]
        a[row] = [v / inv for v in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
    return pivots


def _bareiss_forward(a):
    """Fraction-free forward elimination, in place, on the n integer rows a
    (n columns, then any right-hand sides): row k ends as the pivot row of
    step k from column k on, so the rows hold an upper triangular U.

    Returns each step's diagonal entry before any row swap, which until the
    first swap is a leading principal minor (Sylvester's identity, which
    also makes each division by the previous pivot exact).  It stops at an
    entry 0 with nothing nonzero below, so its last entry is 0 exactly when
    the left block is singular, and otherwise +-det of that block.
    """
    n = len(a)
    minors = []
    prev = 1
    for k in range(n):
        minors.append(a[k][0])
        piv = next((r for r in range(k, n) if a[r][0]), None)
        if piv is None:
            return minors
        a[k], a[piv] = a[piv], a[k]
        p = a[k][0]
        rk = a[k][1:]
        for i in range(k + 1, n):
            f = a[i][0]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i][1:], rk)]
        prev = p
    return minors


def bareiss_solve(A, B):
    """Returns (D, X) with D = |det A| and X = D A^(-1) B, all integers, for
    A square of size >= 1 and A, B integer.  Forward elimination on [A | B]
    leaves U X = D C; back substitution divides by U's diagonal without
    remainder, X = +-adj(A) B being integral.  Raises VerificationError if A
    is singular.
    """
    n = len(A)
    a = [list(r) + list(b) for r, b in zip(A, B)]
    D = abs(_bareiss_forward(a)[-1])
    if not D:
        raise VerificationError("singular integer matrix")
    X = []  # rows i+1 .. n-1 of the solution while row i is formed
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = [D * c for c in row[n - i :]]
        for f, xj in zip(row[1 : n - i], X):
            if f:
                acc = [s - f * x for s, x in zip(acc, xj)]
        X.insert(0, [s // row[0] for s in acc])
    return D, X


def _dot(r, c):
    acc = None
    for a, b in zip(r, c):
        t = a * b
        acc = t if acc is None else acc + t
    return acc
