"""Level-1 space machinery: dimensions, Miller basis, Hecke matrices, orbits."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from mtv import (
    InputError,
    TruncationError,
    VerificationError,
    conductor_of_space,
    delta_series,
    dim_cusp_level1,
    dim_modular_level1,
    eisenstein_level1,
    hecke_matrix_level1,
    level1_coordinates,
    miller_basis,
    newform_basis_level1,
    validate_external_newform,
    verify_theorem,
)
from mtv import polynomial, qexp, spaces
from mtv.linalg import MatQ
from mtv.numfield import NumberField
from mtv.polynomial import UniPoly, poly_factor_q
from mtv.qexp import QSeries, hecke_T
from mtv.rational import format_rational
from mtv.spaces import krylov_charpoly

from _oracles import (Poly, elimination_eigenvector, expand_in_triangular_ref, krylov_eigenvector,
                      miller_coordinates_ref, series_pow, t2_charpoly_weight24)


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
    # M_k = 0 for odd and for negative k, so S_k = 0 too
    for k in (-24, -12, -2, 1, 11, 13, 15, 25, 27, 277):
        assert dim_cusp_level1(k) == 0, k


@pytest.mark.parametrize("weight, trunc", [(-2, 8), (-24, 8), (11, 8), (13, 8), (24, -1)])
def test_newform_basis_refuses_bad_weight_or_order(weight, trunc):
    with pytest.raises(InputError):
        newform_basis_level1(weight, trunc)


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


# -- Miller bases in the series store ---------------------------------------------

def miller_ref(k, T):
    """h_j = E4^a E6^(b + 2(d-j)) Delta^(j-1) by plain series products."""
    d, a, b = spaces.miller_exponents(k)
    E4, E6, D = eisenstein_level1(4, T), eisenstein_level1(6, T), delta_series(T)
    return [series_pow(E4, a) * series_pow(E6, b + 2 * (d - j)) * series_pow(D, j - 1)
            for j in range(1, d + 1)]


@pytest.mark.parametrize("weight", [4, 24, 38, 96])
def test_stored_miller_basis_equals_a_fresh_build(fresh_gates, weight):
    store = qexp._SERIES_STORE
    key = ("miller", weight)
    T = 30
    fresh = miller_basis(weight, T)
    assert fresh == miller_ref(weight, T)
    assert {h.weight for h in fresh} == {weight} and len(store[key]) == T + 1
    for before in (2 * T, T, T // 2):
        del store[key]
        miller_basis(weight, before)
        assert miller_basis(weight, T) == fresh
        assert len(store[key]) == max(before, T) + 1


def test_stored_miller_basis_reads_are_fresh(fresh_gates):
    want = miller_basis(28, 12)
    got = miller_basis(28, 12)
    got[0]._num[0] += 5
    got.pop()
    assert miller_basis(28, 12) == want == miller_ref(28, 12)
    assert [h.truncate(12) for h in miller_basis(28, 20)] == want


def test_store_holds_one_miller_basis_per_weight(fresh_gates):
    lengths = [(29 * i) % 53 + 4 for i in range(20)]
    for T in lengths:
        miller_basis(24, T)  # E6^4, E6^2 Delta, Delta^2
    store = qexp._SERIES_STORE
    ladder = [("e6sq", 1), ("e6sq", 2), ("miller", 24)]
    assert set(store) == {("sigma", 5), ("euler", 24)} | set(ladder)
    assert [len(store[key]) for key in ladder] == [max(lengths) + 1] * 3


def test_stored_e6_square_ladder_equals_a_fresh_build(fresh_gates):
    store = qexp._SERIES_STORE
    T = 30
    fresh = {m: (eisenstein_level1(6, T) ** (2 * m))._num for m in (1, 2, 3)}
    for before in (2 * T, T, T // 2, None):
        store.clear()
        if before is not None:
            spaces._e6sq_power(2, before + 1)
        got = {m: spaces._e6sq_power(m, T + 1) for m in (3, 1, 2)}
        assert got == fresh
        got[3][0] += 1
        assert spaces._e6sq_power(3, T + 1) == fresh[3]
    # forms through q^T at 20 lengths leave one array per power, of the longest
    store.clear()
    lengths = [(31 * i) % 47 + 5 for i in range(20)]
    for t in lengths:
        level1_coordinates([miller_basis(36, t)[-1]])  # dimension 4: X^1 .. X^3
    assert sorted(k for k in store if k[0] == "e6sq") == [("e6sq", 1), ("e6sq", 2), ("e6sq", 3)]
    assert {len(store[("e6sq", m)]) for m in (1, 2, 3)} == {max(lengths) + 1}


# every dimension class mod 12, and the weights at and next to the newform cap
FACTOR_WEIGHTS = list(range(0, 132, 2)) + [200, 264, 278]


@pytest.mark.parametrize("weight", FACTOR_WEIGHTS)
def test_miller_basis_is_its_factor_times_the_core(weight):
    """h_j(k) = E4^a E6^b g_j with g_1..g_d the Miller basis of weight
    12(d - 1), the identity level1_coordinates certifies against."""
    T = 30
    if dim_modular_level1(weight) == 0:
        assert miller_basis(weight, T) == []
        return
    d, a, b = spaces.miller_exponents(weight)
    factor = QSeries([1], trunc=T, weight=0)
    for w in [4] * a + [6] * b:
        factor = factor * eisenstein_level1(w, T)
    core = miller_basis(12 * (d - 1), T)
    assert len(core) == d
    assert miller_basis(weight, T) == [(factor * g).truncate(T) for g in core]


def test_the_certificate_stores_cores_and_factors_only(fresh_gates):
    """After theorem runs at levels 2, 3 and 5, a Miller basis is stored past
    its own dimension only as a core (12 | k), as a factor E4^a E6^b
    (k in 4, 6, 8, 10, 14), or as the basis of a trace weight with cusp
    forms, which newform_basis_level1 reads at full length for T_2."""
    hecke = set()
    for level, eta in ((2, {1: 8, 2: 8}), (3, {1: 6, 3: 6}), (5, {1: 4, 5: 4})):
        for w in (4, 6, 8, 10):
            W = verify_theorem(level, eta, w, 1, order=32).trace.weight
            if dim_cusp_level1(W):
                hecke.add(W)
    long = {k for (kind, k), arr in qexp._SERIES_STORE.items()
            if kind == "miller" and len(arr) > dim_modular_level1(k)}
    assert hecke == {12, 16, 18}
    assert {24, 36, 48} <= long
    assert all(k % 12 == 0 or k in (4, 6, 8, 10, 14) for k in long - hecke), sorted(long)


def test_a_warm_store_still_runs_the_gates(monkeypatch, fresh_gates):
    f = miller_basis(28, 40)[-1]  # E4 E6^4, E4 E6^2 Delta, E4 Delta^2
    level1_coordinates([f])  # the weight-24 core and the factor E4
    eisenstein_level1(4, 40)
    qexp._GATE_DONE.clear()
    real = qexp._eisenstein_prime_level_raw
    monkeypatch.setattr(qexp, "_eisenstein_prime_level_raw",
                        lambda w, N, T: real(w, N, T).scale(2))
    with pytest.raises(VerificationError):
        eisenstein_level1(4, 20)
    for done, left in (((6, 1), (4, 1)), ((4, 1), (6, 1))):  # each gate runs on its own
        qexp._GATE_DONE.clear()
        qexp._GATE_DONE.add(done)
        with pytest.raises(VerificationError):
            miller_basis(28, 20)
        assert left not in qexp._GATE_DONE
        qexp._GATE_DONE.clear()
        qexp._GATE_DONE.add(done)
        with pytest.raises(VerificationError, match="coset-sum oracle"):
            level1_coordinates([f])
        assert left not in qexp._GATE_DONE


def grown_store_run(run):
    """run() from an empty series store, then again once every key it built
    has been rebuilt at twice its length; the second run must read prefixes
    only.  Returns both results."""
    store = qexp._SERIES_STORE
    store.clear()
    cold = run()
    # an orbit certificate is one entry at any length: reading it again is all
    readers = {"sigma": qexp._sigma_list, "miller": miller_basis,
               "euler": lambda r, T: qexp._euler_power(1, r, T),
               "e6sq": lambda m, T: spaces._e6sq_power(m, T + 1),
               "orbits": lambda k, T: newform_basis_level1(k, 0)}
    for (kind, x), arr in list(store.items()):
        readers[kind](x, 2 * len(arr) - 1)
    grown = {key: len(arr) for key, arr in store.items()}
    warm = run()
    assert {key: len(arr) for key, arr in store.items()} == grown
    return cold, warm


def series_state(f):
    """What a QSeries holds: weight, level, truncation and coefficients."""
    return (f.weight, f.level, f.trunc, list(f.coeffs))


def test_newform_basis_is_the_same_from_an_empty_and_a_grown_store(fresh_gates):
    cold, warm = grown_store_run(
        lambda: [(nf.trunc, nf.coordinates(), orbit_digest([nf]))
                 for nf in newform_basis_level1(84, 64)])
    assert cold == warm


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_orbits_are_certified_once_per_weight(monkeypatch, fresh_gates):
    factored = counting(monkeypatch, spaces, "poly_factor_q")
    built = counting(monkeypatch, spaces, "_miller_rows")
    long, short = newform_basis_level1(96, 40), newform_basis_level1(96, 12)
    assert len(factored) == 1
    # the cold call sizes the one Miller build at its own order, past 2s + 2
    assert [args for args in built if args[0] == 96] == [(96, 41)]
    assert qexp._SERIES_STORE[("orbits", 96)] and long.orbits[0].trunc == 40
    for a, b in zip(long, short):
        assert a.modulus == b.modulus and a.coordinates() == b.coordinates()
        assert [a.a(n) for n in range(13)] == [b.a(n) for n in range(13)]
    newform_basis_level1(98, 12)
    assert len(factored) == 2


def test_a_failed_certificate_records_nothing(monkeypatch, fresh_gates):
    planted_t2(monkeypatch, [[2, 0], [1, 2]])
    with pytest.raises(VerificationError, match="repeated factor"):
        newform_basis_level1(36, 12)
    assert ("orbits", 36) not in qexp._SERIES_STORE
    monkeypatch.undo()
    (nf,) = newform_basis_level1(36, 12)
    assert nf.degree == 3 and ("orbits", 36) in qexp._SERIES_STORE


def test_a_warm_orbit_store_still_runs_the_gates(monkeypatch, fresh_gates):
    want = newform_basis_level1(96, 16)
    qexp._GATE_DONE.clear()
    real = qexp._eisenstein_prime_level_raw
    monkeypatch.setattr(qexp, "_eisenstein_prime_level_raw",
                        lambda w, N, T: real(w, N, T).scale(2))
    with pytest.raises(VerificationError, match="coset-sum oracle"):
        newform_basis_level1(96, 16)
    monkeypatch.undo()
    got = newform_basis_level1(96, 16)
    assert [nf.coordinates() for nf in got] == [nf.coordinates() for nf in want]


def test_certified_s_i_are_the_same_from_an_empty_and_a_grown_store(fresh_gates):
    def run():
        sym = verify_theorem(5, {1: 4, 5: 4}, 10, 1, order=164).phi_symmetric
        return [series_state(s) for s in sym], level1_coordinates(sym)

    cold, warm = grown_store_run(run)
    assert cold == warm


def test_theorem_report_is_the_same_from_an_empty_and_a_grown_store(fresh_gates):
    cold, warm = grown_store_run(
        lambda: json.dumps(verify_theorem(3, {1: 6, 3: 6}, 6, 2, order=48).to_dict(),
                           sort_keys=True))
    assert cold == warm


# weights 4 and 14 have dimension 1; with 24 to 120 every class mod 12 occurs
LADDER_WEIGHTS = (4, 14, 24, 38, 52, 66, 80, 94, 120)


def test_level1_coordinates_match_full_basis_expansion():
    """One call over forms of many weights and truncations gives, form by
    form, the coordinates of the forward substitution against the full
    basis."""
    rng = random.Random(8)
    forms = []
    for k in LADDER_WEIGHTS:
        d = dim_modular_level1(k)
        T = d + rng.randrange(1, 12)
        c = [Fraction(rng.randrange(-10**6, 10**6), rng.choice((1, 1, 7, 12)))
             for _ in range(d)]
        f = None
        for cj, h in zip(c, miller_basis(k, T)):
            f = h.scale(cj) if f is None else f + h.scale(cj)
        forms.append(f)
    got = level1_coordinates(forms)
    for f, coords in zip(forms, got):
        want, _ = expand_in_triangular_ref(f, miller_basis(f.weight, f.trunc))
        assert coords == want, f.weight


@pytest.mark.parametrize("weight", [24, 36, 60])
def test_level1_coordinates_of_hecke_field_newforms(weight):
    """Each orbit's coordinates are those that forward substitution of its
    coefficients a(n) against the Miller basis gives, with no residual; a
    rational form bumped at q^T is refused by index and q-power."""
    T = 20
    (nf,) = newform_basis_level1(weight, T).orbits
    assert nf.degree == dim_cusp_level1(weight) and nf.trunc == T
    want, rest = miller_coordinates_ref([nf.a(n) for n in range(T + 1)], miller_basis(weight, T))
    assert nf.coordinates() == want and all(r == 0 for r in rest)
    ok = delta_series(T) * eisenstein_level1(weight - 12, T)
    bad = ok + QSeries([0] * T + [1], trunc=T, weight=weight)
    with pytest.raises(VerificationError, match=r"residual starts at q\^%d" % T) as exc:
        level1_coordinates([ok, bad])
    assert exc.value.index == 1 and exc.value.start == T


def test_level1_coordinates_refusals():
    short = delta_series(24) ** 2  # weight 24 needs three leads
    with pytest.raises(TruncationError, match="raise the order"):
        level1_coordinates([short.truncate(1)])
    assert level1_coordinates([short.truncate(2)]) == [[0, 0, 1]]
    with pytest.raises(InputError):
        level1_coordinates([QSeries([0, 1], trunc=1, weight=11)])
    assert level1_coordinates([]) == []


def fraction_matrix(rows):
    """The integer rows of a Hecke matrix as a Fraction MatQ, for the oracles."""
    return MatQ([[Fraction(x) for x in r] for r in rows])


def test_hecke_matrix_weight12():
    M, basis = hecke_matrix_level1(12, 2)
    assert len(basis) == 1
    assert M == [[-24]] and type(M[0][0]) is int
    assert hecke_matrix_level1(10, 2) == ([], [])


@pytest.mark.parametrize("weight, n", [(24, 2), (96, 2), (192, 2), (96, 3)])
def test_hecke_matrix_matches_the_series_expansion_of_the_images(weight, n):
    """Column j is the expansion of T_n b_j in the cusp basis by forward
    substitution on Fraction series, through the matrix's own order."""
    M, basis = hecke_matrix_level1(weight, n)
    s = dim_cusp_level1(weight)
    assert basis == miller_basis(weight, n * s + 2)[1:]
    cols = [expand_in_triangular_ref(hecke_T(b, n), basis)[0] for b in basis]
    assert all(c.denominator == 1 for col in cols for c in col)
    assert M == [[int(c) for c in r] for r in zip(*cols)]


def test_hecke_matrix_weight24_charpoly():
    M, _ = hecke_matrix_level1(24, 2)
    assert all(type(x) is int for r in M for x in r)
    chi = fraction_matrix(M).charpoly()
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
    assert f.a(1).coords == (Fraction(1), Fraction(0))


def test_newforms_validate_and_match_delta():
    orbs = newform_basis_level1(12, 40)
    (f,) = list(orbs)
    assert f.degree == 1
    assert f.trunc == 40
    assert [f.a(n) for n in range(41)] == list(delta_series(40).coeffs)
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
        theta = -g.coeffs[0] if g.degree == 1 else NumberField(g).elem([0, 1])
        assert krylov_eigenvector(M, chi, theta) == elimination_eigenvector(M, g)


@pytest.mark.parametrize("weight", [12, 24, 36, 48, 60])
def test_krylov_eigenvector_matches_elimination_on_t2(weight):
    M, _ = hecke_matrix_level1(weight, 2)
    krylov_against_elimination(fraction_matrix(M))


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
    X = Poly([0, 1])
    blocks = [companion(X - 3), companion(X**2 - X - 1), companion(X**3 - 2)]
    rng = random.Random(7)
    for upper in (True, False):
        # with upper set, e_1 is the eigenvector for 3, so h(M) e_1 vanishes
        # for the other factors and the next unit vector is used
        krylov_against_elimination(conjugate(block_diagonal(blocks), rng, upper))


def test_newform_basis_needs_no_numeric_roots(monkeypatch, fresh_gates):
    # the sieve certifies the T_2 polynomial, so no factor search runs; from
    # an empty store, so the certificate is built here and not read
    def no_fallback(*args, **kwargs):
        raise AssertionError("the Zassenhaus fallback ran")

    monkeypatch.setattr(polynomial, "_factor_squarefree_monic_int", no_fallback)
    orbs = newform_basis_level1(96, 16)
    assert [f.degree for f in orbs] == [8]
    assert orbs.orbits[0].field.is_totally_real()


def orbit_digest(orbit_set):
    doc = [
        [nf.modulus.serialize(),
         [[format_rational(c) for c in getattr(nf.a(n), "coords", (nf.a(n),))]
          for n in range(nf.trunc + 1)]]
        for nf in orbit_set
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


# the same digests through q^20 at two weights the table above does not
# reach, recorded with the Krylov route over the Hecke field (one field
# inverse per orbit) before the pairing route replaced it
PAIRING_DIGESTS = {144: "ddb19b08a6394c31", 192: "7ae32fa30fa2d9c5"}


@pytest.mark.parametrize("weight", sorted(PAIRING_DIGESTS))
def test_pairing_orbits_pinned(weight):
    assert orbit_digest(newform_basis_level1(weight, 20)) == PAIRING_DIGESTS[weight]


def integer_rows(M):
    """The rows of a Fraction MatQ with integer entries, as ints."""
    assert all(c.denominator == 1 for r in M.rows for c in r)
    return [[int(c) for c in r] for r in M.rows]


@pytest.mark.parametrize("weight", [24, 96, 144, 192, 240])
def test_krylov_charpoly_matches_faddeev_leverrier(weight):
    M, _ = hecke_matrix_level1(weight, 2)
    chi, D, X = krylov_charpoly(M)
    assert chi == fraction_matrix(M).charpoly()
    assert D > 0


@pytest.mark.parametrize("weight", [12, 24, 36, 48, 60])
def test_pairing_eigenforms_match_krylov_oracle(weight):
    T = 24
    M = fraction_matrix(hecke_matrix_level1(weight, 2)[0])
    basis = [b.truncate(T) for b in miller_basis(weight, T)[1:]]
    chi = M.charpoly()
    orbits = newform_basis_level1(weight, T).orbits
    assert [nf.modulus for nf in orbits] == [g for g, _ in poly_factor_q(chi)]
    for nf in orbits:
        g = nf.modulus
        theta = -g.coeffs[0] if g.degree == 1 else nf.field.elem([0, 1])
        v = krylov_eigenvector(M, chi, theta)
        for n in range(T + 1):
            want = sum((c * b.coeff(n) for c, b in zip(v, basis)), theta - theta)
            assert nf.a(n) == want


def test_every_orbit_carries_its_hecke_field(newform_sets):
    """Weights 12 to 30 have orbits of degree 1 and 2.  Each carries a
    NumberField of its degree, a rational orbit the field of degree 1, and
    format_exact prints a degree-1 value as its one rational."""
    from mtv.rational import format_exact

    degrees = set()
    for orbs in newform_sets.values():
        for nf in orbs:
            assert isinstance(nf.field, NumberField) and nf.field.degree == nf.degree
            assert nf.modulus is nf.field.modulus
            degrees.add(nf.degree)
            for x in (nf.a(n) for n in range(8)) if nf.degree == 1 else ():
                (c,) = x.coords
                assert format_exact(x) == format_rational(c)
    assert degrees == {1, 2}


def test_non_cyclic_e1_raises():
    # a repeated eigenvalue: no vector is cyclic
    rows = conjugate(block_diagonal([companion(Poly([0, 1]) - 2)] * 2
                                    + [companion(Poly([0, 1]) - 3)]),
                     random.Random(5), upper=False)
    with pytest.raises(VerificationError) as exc:
        krylov_charpoly(integer_rows(rows))
    assert "not cyclic" in str(exc.value)
    # distinct eigenvalues, but e_1 is a left eigenvector: R is singular too
    with pytest.raises(VerificationError):
        krylov_charpoly([[2, 0], [1, 3]])
    assert krylov_charpoly([[2, 1], [0, 3]])[0] == UniPoly([6, -5, 1])


def planted_t2(monkeypatch, rows):
    basis = miller_basis(36, 12)[1:]
    monkeypatch.setattr(spaces, "hecke_matrix_level1",
                        lambda weight, n, trunc=None: (rows, basis))


def test_newform_basis_refuses_bad_t2_matrices(monkeypatch, fresh_gates):
    planted_t2(monkeypatch, [[2, 0], [1, 2]])
    with pytest.raises(VerificationError) as exc:
        newform_basis_level1(36, 12)
    assert "repeated factor in the T_2 characteristic polynomial" in str(exc.value)


def test_hecke_matrix_refuses_a_fractional_image(monkeypatch, fresh_gates):
    # a halved T_2 image has odd entries over 2 in the Miller basis at weight 36
    real = spaces.hecke_T
    monkeypatch.setattr(spaces, "hecke_T", lambda f, n: real(f, n).scale(Fraction(1, 2)))
    with pytest.raises(VerificationError) as exc:
        hecke_matrix_level1(36, 2)
    assert "T_2 matrix is not integral in the Miller basis at weight 36" in str(exc.value)
    with pytest.raises(VerificationError) as exc:
        newform_basis_level1(36, 12)
    assert "not integral" in str(exc.value)


def test_hecke_matrix_refuses_an_image_outside_the_cusp_span(monkeypatch, fresh_gates):
    # an integral image with a constant term has a residual at q^0
    real = spaces.hecke_T

    def with_constant_term(f, n):
        image = real(f, n)
        return image + QSeries([1], trunc=image.trunc, weight=image.weight)

    monkeypatch.setattr(spaces, "hecke_T", with_constant_term)
    with pytest.raises(VerificationError, match="T_2 image is not in the cusp span at weight 36"):
        hecke_matrix_level1(36, 2)


def test_eigenvector_check_catches_a_wrong_inverse(monkeypatch, fresh_gates):
    real = spaces.bareiss_solve

    def off_by_one(A, B):
        D, X = real(A, B)
        X[-1][-1] += 1
        return D, X

    monkeypatch.setattr(spaces, "bareiss_solve", off_by_one)
    with pytest.raises(VerificationError) as exc:
        newform_basis_level1(96, 12)
    assert "not a T_2 eigenvector" in str(exc.value)
