from fractions import Fraction

import random

import pytest
import sympy

from mtv.errors import VerificationError
from mtv import linalg, numfield
from mtv.linalg import MatQ, _bareiss_forward, bareiss_solve
from mtv.numfield import NumberField
from mtv.polynomial import UniPoly

from _oracles import FieldDiv

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
    # the machinery must stay generic over exact field elements; a package
    # field element divides only by rationals, so FieldDiv supplies division
    K = NumberField(UniPoly([F(-2), F(0), F(1)]))  # x^2 - 2
    one, th = FieldDiv(K.coerce(1)), FieldDiv(K.elem([0, 1]))
    m = MatQ([[one, th], [th, one]])
    x = m.solve([one, FieldDiv(K.elem([]))])
    # solution of [[1,t],[t,1]] x = [1,0] is (-1, t)/(1 - t^2) = (1, -t) scaled
    assert (x[0] + th * x[1] - one).is_zero()
    assert (th * x[0] + x[1]).is_zero()


def random_rows(rng, m, n):
    return [[rng.randint(-9, 9) * 10**rng.randint(0, 30) for _ in range(n)] for _ in range(m)]


def times(A, X):
    return [[sum(a * x for a, x in zip(row, col)) for col in zip(*X)] for row in A]


def test_bareiss_solve_with_the_identity_is_the_scaled_inverse():
    rng = random.Random(3)
    for n in range(1, 8):
        for _ in range(20):
            rows = random_rows(rng, n, n)
            det = frac_rows(rows).det()
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            if det == 0:
                with pytest.raises(VerificationError):
                    bareiss_solve(rows, eye)
                continue
            D, X = bareiss_solve(rows, eye)
            assert D == abs(det)
            assert all(type(x) is int for r in X for x in r)
            assert times(rows, X) == [[D * x for x in r] for r in eye]


@pytest.mark.parametrize("k", [1, 3])
def test_bareiss_solve_random_right_hand_sides(k):
    rng = random.Random(k)
    for n in range(1, 8):
        for _ in range(10):
            rows, B = random_rows(rng, n, n), random_rows(rng, n, k)
            det = frac_rows(rows).det()
            if det == 0:
                with pytest.raises(VerificationError):
                    bareiss_solve(rows, B)
                continue
            D, X = bareiss_solve(rows, B)
            assert D == abs(det) and len(X) == n and all(len(r) == k for r in X)
            assert all(type(x) is int for r in X for x in r)
            assert times(rows, X) == [[D * b for b in r] for r in B]


def test_bareiss_solve_refuses_a_singular_matrix():
    with pytest.raises(VerificationError, match="singular"):
        bareiss_solve([[1, 2], [2, 4]], [[1], [0]])
    with pytest.raises(VerificationError, match="singular"):
        bareiss_solve([[0, 0, 1], [0, 3, 5], [0, 7, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_bareiss_solve_pivots_past_zeros():
    A = [[0, 1, 0], [0, 0, 2], [3, 0, 0]]
    D, X = bareiss_solve(A, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert D == 6 and X == [[0, 0, 2], [6, 0, 0], [0, 3, 0]]
    D, X = bareiss_solve(A, [[5], [4], [9]])
    assert D == 6 and X == [[18], [30], [12]]


def nonsingular_rows(rng, n, swap_at=None):
    """A random nonsingular integer matrix and its determinant; with
    swap_at = m (0 < m < n - 1) its leading (m+1) x (m+1) minor is 0, so
    elimination swaps rows at step m."""
    while True:
        rows = [[rng.choice((-1, 1)) * rng.randint(1, 99) for _ in range(n)] for _ in range(n)]
        if swap_at is not None:
            rows[swap_at][: swap_at + 1] = rows[0][: swap_at + 1]
        det = frac_rows(rows).det()
        if det:
            return rows, det


@pytest.mark.parametrize("n", range(1, 13))
def test_bareiss_solve_matches_the_fraction_oracle(n):
    rng = random.Random(100 + n)
    cases = [nonsingular_rows(rng, n)]
    cases += [nonsingular_rows(rng, n, m) for m in sorted({1, n // 2, n - 2}) if 0 < m < n - 1]
    for rows, det in cases:
        for k in (1, n):
            B = [[rng.randint(-10**6, 10**6) for _ in range(k)] for _ in range(n)]
            D, X = bareiss_solve(rows, B)
            oracle = [frac_rows(rows).solve(col) for col in zip(*B)]
            assert D == abs(det) and X == [[D * x for x in r] for r in zip(*oracle)]


def test_forward_pass_reads_leading_minors_until_its_first_swap():
    rng = random.Random(7)
    for n in range(3, 9):
        m = n // 2
        rows, _ = nonsingular_rows(rng, n, m)
        minors = _bareiss_forward([list(r) for r in rows])
        lead = [frac_rows([r[: j + 1] for r in rows[: j + 1]]).det() for j in range(n)]
        assert minors[: m + 1] == lead[: m + 1] and minors[m] == 0
        assert abs(minors[-1]) == abs(lead[-1]) != 0
    # a singular left block stops the pass on an entry 0
    assert _bareiss_forward([[0, 0, 1], [0, 3, 5], [0, 7, 2]]) == [0]
    assert _bareiss_forward([[1, 2, 3], [2, 4, 6], [1, 0, 1]])[-1] == 0


def test_is_totally_real_and_bareiss_solve_run_the_one_forward_pass(monkeypatch):
    assert numfield._bareiss_forward is linalg._bareiss_forward
    calls = []
    original = linalg._bareiss_forward

    def counting(a):
        calls.append(len(a))
        return original(a)

    monkeypatch.setattr(linalg, "_bareiss_forward", counting)
    monkeypatch.setattr(numfield, "_bareiss_forward", counting)
    K = NumberField(UniPoly([1, -3, 0, 1]))
    assert K.is_totally_real() and calls == [3]
    assert bareiss_solve([[2, 1], [1, 1]], [[1], [0]]) == (1, [[1], [-1]]) and calls == [3, 2]
    K.elem([1, 1]).inverse()
    assert calls == [3, 2, 3]
