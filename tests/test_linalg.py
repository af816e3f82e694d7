from fractions import Fraction

import random

import pytest
import sympy

from mtv.errors import VerificationError
from mtv.linalg import MatQ, bareiss_inverse
from mtv.numfield import NumberField
from mtv.polynomial import UniPoly

F = Fraction


def frac_rows(rows):
    return MatQ([[F(x) for x in r] for r in rows])


def test_solve_known_system():
    m = frac_rows([[2, 1], [1, 3]])
    x = m.solve([F(5), F(10)])
    assert list(x) == [F(1), F(3)]


def test_solve_singular_raises():
    m = frac_rows([[1, 2], [2, 4]])
    with pytest.raises(VerificationError):
        m.solve([F(1), F(1)])


def test_nullspace_rank_deficient():
    m = frac_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    basis = m.nullspace()
    assert len(basis) == 1
    v = basis[0]
    for row in m.rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_full_rank_empty():
    assert frac_rows([[1, 0], [0, 1]]).nullspace() == []


RAND = [
    [3, -1, 2, 0],
    [1, 4, -2, 5],
    [0, 2, 1, -3],
    [-2, 0, 3, 1],
]


def test_charpoly_and_det_match_sympy():
    m = frac_rows(RAND)
    cp = m.charpoly()
    sm = sympy.Matrix(RAND)
    want = [Fraction(int(c.p), int(c.q))
            for c in reversed(sympy.Poly(sm.charpoly().as_expr()).all_coeffs())]
    assert list(cp.coeffs) == want
    assert m.det() == Fraction(int(sm.det()))
    assert m.trace() == sum(F(RAND[i][i]) for i in range(4))


def test_matrix_algebra():
    a = frac_rows([[1, 2], [3, 4]])
    b = frac_rows([[0, 1], [1, 0]])
    assert (a * b).rows == frac_rows([[2, 1], [4, 3]]).rows
    assert (a + b - b).rows == a.rows
    assert a.scale(F(2)).rows == frac_rows([[2, 4], [6, 8]]).rows
    assert a.transpose().rows == frac_rows([[1, 3], [2, 4]]).rows
    assert MatQ.identity(2) * a == a


def test_solve_over_number_field():
    # the machinery must stay generic over exact field elements
    K = NumberField(UniPoly([F(-2), F(0), F(1)]))  # x^2 - 2
    th = K.gen()
    m = MatQ([[K.one(), th], [th, K.one()]])
    x = m.solve([K.one(), K.zero()])
    # solution of [[1,t],[t,1]] x = [1,0] is (-1, t)/(1 - t^2) = (1, -t) scaled
    assert (x[0] + th * x[1] - K.one()).is_zero()
    assert (th * x[0] + x[1]).is_zero()


def test_bareiss_inverse_is_exact_and_fraction_free():
    rng = random.Random(3)
    for n in range(1, 8):
        for _ in range(20):
            rows = [[rng.randint(-9, 9) * 10**rng.randint(0, 30) for _ in range(n)]
                    for _ in range(n)]
            det = frac_rows(rows).det()
            if det == 0:
                with pytest.raises(VerificationError):
                    bareiss_inverse(rows)
                continue
            D, X = bareiss_inverse(rows)
            assert D == abs(det)
            assert all(type(x) is int for r in X for x in r)
            for i in range(n):
                for j in range(n):
                    assert sum(rows[i][k] * X[k][j] for k in range(n)) == D * (i == j)


def test_bareiss_inverse_pivots_past_zeros():
    D, X = bareiss_inverse([[0, 1, 0], [0, 0, 2], [3, 0, 0]])
    assert D == 6 and X == [[0, 0, 2], [6, 0, 0], [0, 3, 0]]
    with pytest.raises(VerificationError):
        bareiss_inverse([[1, 2], [2, 4]])
