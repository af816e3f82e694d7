"""Level-1 space machinery: dimensions, Miller basis, Hecke matrices, orbits."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from mtv import (
    InputError,
    VerificationError,
    conductor_of_space,
    delta_series,
    dim_cusp_level1,
    dim_modular_level1,
    eisenstein_level1,
    expand_in_triangular,
    hecke_matrix_level1,
    miller_basis,
    newform_basis_level1,
    validate_external_newform,
)
from mtv import polynomial
from mtv.linalg import MatQ
from mtv.numfield import NumberField
from mtv.polynomial import UniPoly, poly_factor_q
from mtv.qexp import QSeries
from mtv.rational import format_rational
from mtv.spaces import _krylov_eigenvector

from _oracles import elimination_eigenvector, t2_charpoly_weight24


DIM_MODULAR = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 2,
               18: 2, 20: 2, 22: 2, 24: 3, 26: 2, 28: 3, 30: 3}


def test_dimension_tables():
    for k, d in DIM_MODULAR.items():
        assert dim_modular_level1(k) == d
    for k in range(12, 32, 2):
        assert dim_cusp_level1(k) == dim_modular_level1(k) - 1
    assert dim_cusp_level1(10) == 0
    assert dim_modular_level1(7) == 0
    assert dim_modular_level1(-4) == 0


@pytest.mark.parametrize("weight", [0, 4, 12, 24, 28])
def test_miller_basis_triangular(weight):
    T = 16
    basis = miller_basis(weight, T)
    assert len(basis) == dim_modular_level1(weight)
    for j, h in enumerate(basis):
        assert h.weight == weight
        # h_j = q^j + O(q^(j+1)) exactly
        for m in range(j):
            assert h.coeff(m) == 0
        assert h.coeff(j) == 1


def test_miller_rejects_odd_weight():
    with pytest.raises(InputError):
        miller_basis(11, 8)
    assert miller_basis(2, 8) == []


def test_expand_in_triangular_exact():
    T = 20
    basis = miller_basis(12, T)
    f = eisenstein_level1(4, T) ** 3
    coords, rem = expand_in_triangular(f, basis)
    assert coords == [Fraction(1), Fraction(1728)]
    assert rem.is_zero()


def test_expand_in_triangular_strict_failure():
    T = 12
    e6sq = eisenstein_level1(6, T) ** 2
    with pytest.raises(VerificationError) as exc:
        expand_in_triangular(delta_series(T), [e6sq])
    assert "q^1" in str(exc.value)
    coords, rem = expand_in_triangular(delta_series(T), [e6sq], strict=False)
    assert coords == [Fraction(0)] and rem.valuation() == 1


def test_hecke_matrix_weight12():
    M, basis = hecke_matrix_level1(12, 2)
    assert len(basis) == 1
    assert M.rows[0][0] == -24


def test_hecke_matrix_weight24_charpoly():
    M, _ = hecke_matrix_level1(24, 2)
    chi = M.charpoly()
    assert list(chi.coeffs) == t2_charpoly_weight24()


def test_newform_orbit_structure():
    expect_degrees = {12: [1], 16: [1], 18: [1], 20: [1], 22: [1],
                      24: [2], 26: [1]}
    for k, degs in expect_degrees.items():
        orbs = newform_basis_level1(k, 20)
        assert sorted(f.degree for f in orbs) == degs
        assert orbs.single_orbit
        assert sum(f.degree for f in orbs) == dim_cusp_level1(k)
    empty = newform_basis_level1(10, 20)
    assert len(empty) == 0 and empty.single_orbit


def test_weight24_orbit_pinned():
    orbs = newform_basis_level1(24, 16)
    (f,) = list(orbs)
    assert f.modulus.serialize() == ["-20468736", "-1080", "1"]
    a2 = f.a(2)
    assert a2.coords == (Fraction(0), Fraction(1))  # a_2 is the T_2 root itself
    assert f.qexp.coeff(1).coords == (Fraction(1), Fraction(0))


def test_newforms_validate_and_match_delta():
    orbs = newform_basis_level1(12, 40)
    (f,) = list(orbs)
    assert f.degree == 1
    assert f.qexp.agrees_through(delta_series(40), 40)
    assert validate_external_newform(f)


@pytest.mark.parametrize("weight", [16, 18, 20, 22, 24, 26, 28, 30])
def test_newforms_satisfy_hecke_relations(weight):
    for f in newform_basis_level1(weight, 64):
        assert validate_external_newform(f)


def test_validate_rejects_bad_expansions():
    d = delta_series(36)
    with pytest.raises(VerificationError):
        validate_external_newform(eisenstein_level1(12, 20))  # constant term 1
    with pytest.raises(VerificationError):
        validate_external_newform(d.scale(2))  # a_1 != 1

    def corrupt(f, n, delta):
        coeffs = list(f.coeffs)
        coeffs[n] += delta
        return QSeries(coeffs, trunc=f.trunc, weight=f.weight, level=1)

    with pytest.raises(VerificationError) as exc:
        validate_external_newform(corrupt(d, 6, 1))
    assert "multiplicativity" in str(exc.value)
    # with order 8 no coprime pair reaches a_4, so the p-power check fires
    with pytest.raises(VerificationError) as exc:
        validate_external_newform(corrupt(d.truncate(8), 4, 1))
    assert "a_4 (p=2)" in str(exc.value)
    with pytest.raises(InputError):
        validate_external_newform(QSeries([0, 1], trunc=1, weight=12, level=1))


def test_conductor_of_space():
    assert conductor_of_space(12, 2) == (1, [1, 2])
    assert conductor_of_space(8, 2) == (2, [2])
    assert conductor_of_space(12, 1) == (1, [1])
    assert conductor_of_space(8, 5) == (5, [5])
    with pytest.raises(InputError):
        conductor_of_space(12, 6)


def krylov_against_elimination(M):
    chi = M.charpoly()
    for g, mult in poly_factor_q(chi):
        assert mult == 1
        theta = -g.coeffs[0] if g.degree == 1 else NumberField(g).gen()
        assert _krylov_eigenvector(M, chi, theta) == elimination_eigenvector(M, g)


@pytest.mark.parametrize("weight", [12, 24, 36, 48, 60])
def test_krylov_eigenvector_matches_elimination_on_t2(weight):
    M, _ = hecke_matrix_level1(weight, 2)
    krylov_against_elimination(M)


def companion(g):
    d = g.degree
    return [[Fraction(int(i == j + 1)) if j < d - 1 else -g.coeffs[i]
             for j in range(d)] for i in range(d)]


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, r in enumerate(b):
            rows[at + i][at : at + len(r)] = r
        at += len(b)
    return rows


def conjugate(rows, rng, upper):
    """U M U^-1 for a seeded unimodular U, built from elementary operations;
    upper keeps U unitriangular, so M e_1 = M_11 e_1 survives."""
    n = len(rows)
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        if upper and i > j:
            i, j = j, i
        c = rng.randint(-3, 3)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for r in rows:
            r[j] -= c * r[i]
    return MatQ(rows)


def test_krylov_eigenvector_mixed_degrees():
    X = UniPoly.x()
    blocks = [companion(X - 3), companion(X**2 - X - 1), companion(X**3 - 2)]
    rng = random.Random(7)
    for upper in (True, False):
        # with upper set, e_1 is the eigenvector for 3, so h(M) e_1 vanishes
        # for the other factors and the next unit vector is used
        krylov_against_elimination(conjugate(block_diagonal(blocks), rng, upper))


def test_newform_basis_needs_no_numeric_roots(monkeypatch):
    def no_roots(*args, **kwargs):
        raise AssertionError("the numeric factor search ran")

    monkeypatch.setattr(polynomial, "root_cluster", no_roots)
    orbs = newform_basis_level1(96, 16)
    assert [f.degree for f in orbs] == [8]
    assert orbs.orbits[0].field.is_totally_real()


def orbit_digest(orbit_set):
    doc = [
        [nf.modulus.serialize(),
         [[format_rational(c) for c in getattr(nf.a(n), "coords", (nf.a(n),))]
          for n in range(nf.qexp.trunc + 1)]]
        for nf in orbit_set.orbits
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


# sha256 prefixes of orbit_digest(newform_basis_level1(k, 64)): minimal
# polynomials and every coefficient through q^64, as computed by row
# reduction over the Hecke field before the Krylov route replaced it
ORBIT_DIGESTS = {
    84: "b67582bdc099273b", 86: "fe18d856bdf3e91d", 88: "08b46f4a02bea8ce",
    90: "e953ae029ca7fc29", 92: "549fb00fcc66a4e8", 94: "a5f1266e86681695",
    96: "d33c9e001d905a29", 98: "d681a8d00321265f", 100: "92d084191babe192",
    102: "8133784974e306fc", 104: "33ed7b03fba71023", 106: "bf06c521920b6518",
}


@pytest.mark.parametrize("weight", sorted(ORBIT_DIGESTS))
def test_high_weight_orbits_pinned(weight):
    assert orbit_digest(newform_basis_level1(weight, 64)) == ORBIT_DIGESTS[weight]
