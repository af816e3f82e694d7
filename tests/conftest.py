import os
import time

import pytest

import mtv
from mtv import qexp
from mtv.elliptic import CurveQ, verify_corollary
from mtv.qexp import EtaQuotientSpec
from mtv.spaces import newform_basis_level1
from mtv.trace import verify_theorem

# the CLI tests run `python -m mtv` in child processes: have them import
# the package this session imports
os.environ["PYTHONPATH"] = os.pathsep.join(
    [os.path.dirname(os.path.dirname(os.path.abspath(mtv.__file__)))]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

# the inputs exercised end to end: (level, eta pairs, eisenstein weight, power)
THEOREM_CONFIGS = (
    (2, (1, 8, 2, 8), 4, 1),
    (2, (1, 8, 2, 8), 4, 2),
    (3, (1, 6, 3, 6), 6, 1),
    (5, (1, 4, 5, 4), 8, 1),
)


def eta_of(flat):
    return EtaQuotientSpec({flat[0]: flat[1], flat[2]: flat[3]})


@pytest.fixture
def fresh_gates():
    """No gate counted as done and an empty series store during the test, so
    a corrupted builder is always reached; both are restored after."""
    gates, store = set(qexp._GATE_DONE), dict(qexp._SERIES_STORE)
    qexp._GATE_DONE.clear()
    qexp._SERIES_STORE.clear()
    yield
    qexp._GATE_DONE.clear()
    qexp._GATE_DONE.update(gates)
    qexp._SERIES_STORE.clear()
    qexp._SERIES_STORE.update(store)


@pytest.fixture(scope="session")
def theorem_runs():
    """The four full-depth trace runs, with wall time recorded per run."""
    out = {}
    for level, flat, lam, mu in THEOREM_CONFIGS:
        t0 = time.time()
        res = verify_theorem(level, eta_of(flat), lam, mu, order=64)
        out[(level, lam, mu)] = (res, time.time() - t0)
    return out


@pytest.fixture(scope="session")
def newform_sets():
    """Level-1 Galois orbit data for every even weight 12..30, order 64."""
    return {k: newform_basis_level1(k, 64) for k in range(12, 31, 2)}


@pytest.fixture(scope="session")
def corollary_runs():
    """Specialization runs at the discriminant-37 curve, both powers."""
    curve = CurveQ(4, 1)
    out = {}
    for mu in (1, 2):
        t0 = time.time()
        res = verify_corollary(2, EtaQuotientSpec({1: 8, 2: 8}), 4, mu, curve,
                               order=64, prec_bits=192)
        out[mu] = (res, time.time() - t0)
    return out
