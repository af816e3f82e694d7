"""Exact dense matrices over Q (or any exact field with true division)."""

from fractions import Fraction

from .errors import InputError, VerificationError
from .polynomial import UniPoly


class MatQ:
    """Immutable exact matrix. Entries are Fractions unless the caller
    supplies elements of some other exact field (number field elements work;
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
        for col in range(n):
            piv = None
            for r in range(col, n):
                if a[r][col] != 0:
                    piv = r
                    break
            if piv is None:
                raise VerificationError("singular system")
            a[col], a[piv] = a[piv], a[col]
            inv = a[col][col]
            a[col] = [v / inv for v in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[col])]
        return [a[r][n] for r in range(n)]

    def nullspace(self):
        """Basis of the right nullspace, via reduced row echelon form."""
        m, n = self.nrows, self.ncols
        a = [list(r) for r in self.rows]
        pivots = []
        row = 0
        for col in range(n):
            piv = None
            for r in range(row, m):
                if a[r][col] != 0:
                    piv = r
                    break
            if piv is None:
                continue
            a[row], a[piv] = a[piv], a[row]
            inv = a[row][col]
            a[row] = [v / inv for v in a[row]]
            for r in range(m):
                if r != row and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [v - f * w for v, w in zip(a[r], a[row])]
            pivots.append(col)
            row += 1
            if row == m:
                break
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


def bareiss_inverse(rows):
    """Fraction-free Gauss-Jordan on a square integer matrix A.

    Returns (D, X) with D > 0 and A X = D I, all in integers: every
    intermediate entry is a minor of [A | I] (Sylvester's identity), so each
    division by the previous pivot is exact and nothing grows beyond
    determinant size.  Raises VerificationError if A is singular.
    """
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise VerificationError("singular integer matrix")
        a[k], a[piv] = a[piv], a[k]
        rk = a[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                ri = a[i]
                f = ri[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(ri, rk)]
        prev = p
    # the left block is now prev * I
    sign = 1 if prev > 0 else -1
    return sign * prev, [[sign * x for x in r[n:]] for r in a]


def _dot(r, c):
    acc = None
    for a, b in zip(r, c):
        t = a * b
        acc = t if acc is None else acc + t
    return acc
