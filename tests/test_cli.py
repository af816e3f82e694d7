"""End-to-end command line checks through real subprocesses plus in-process
exit-code paths for the failure branches that are awkward to reach for real."""

import json
import os
import subprocess
import sys

import mpmath
import pytest

import mtv.cli as cli
from mtv import PrecisionError, VerificationError


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "mtv", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    return proc


def run_json(args, env_extra=None):
    proc = run_cli(args, env_extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_theorem_level3_report():
    doc = run_json(["theorem", "--level", "3", "--eis-weight", "6",
                    "--order", "16"])
    assert doc["level"] == 3
    assert doc["eta"] == "1:6,3:6"
    assert doc["orbit_count"] == 1
    assert doc["single_orbit"] is True
    assert doc["conductor"] == 1
    assert doc["admissible_levels"] == [1, 3]
    assert doc["orbits"][0]["ratio"] == "131072/110565"
    assert doc["orbits"][0]["totally_real"] is True
    assert doc["trace_head"][1] == "40/13"
    assert doc["route_agree_through"] >= 8
    assert doc["rankin_status"].startswith("nonconvergent at s=12")


def test_corollary_identity_and_exit0():
    doc = run_json(["corollary", "--level", "2", "--eis-weight", "4",
                    "--order", "16", "--curve", "4,1"])
    assert doc["identity_holds"] is True
    assert doc["specialized_trace_lhs"] == "111"
    assert doc["newform_side_rhs"] == "111"
    assert doc["condition_a_irreducible"] is False
    assert doc["phi_factor_degrees"] == [1, 1, 1]
    assert "lattice" in doc and "j_at_level_tau" in doc
    assert doc["curve"]["discriminant"] == "37"
    assert doc["theorem"]["orbits"][0]["ratio"] == "16384/14175"


def test_phi_specialized_factorization():
    doc = run_json(["phi", "--level", "2", "--eis-weight", "4",
                    "--order", "12", "--curve", "4,1"])
    assert doc["degree"] == 3
    heads = {s["index"]: s["head"] for s in doc["symmetric"]}
    assert heads[1][:4] == ["0", "3", "-72", "756"]
    assert heads[2][:4] == ["0", "0", "3", "-144"]
    assert heads[3][:4] == ["0", "0", "0", "1"]
    spec = doc["specialized"]
    assert spec["polynomial"] == ["-50653", "4107", "-111", "1"]
    assert spec["irreducible"] is False
    assert spec["factors"] == [{"poly": ["-37", "1"], "multiplicity": 3}]


def test_oracle_difference_within_certificates():
    doc = run_json(["--prec", "128", "oracle", "--eis-weight", "4",
                    "--level", "2", "--tau", "0.21,1.13",
                    "--bound", "24", "--series-order", "64"])
    diff = mpmath.mpf(doc["difference"])
    cert = mpmath.mpf(doc["certified_error_sum"])
    assert diff <= cert * mpmath.mpf("1.01") + mpmath.mpf("1e-40")
    assert doc["bound"] == 24


def test_specialize_reconstructs_targets():
    doc = run_json(["--prec", "192", "specialize", "--curve", "4,1",
                    "--level", "2"])
    rows = {r["series"]: r["rational"] for r in doc["specialized"]}
    assert rows == {"E4": "48", "E6": "216", "Delta": "37"}
    assert doc["exact_targets"] == {"E4": "48", "E6": "216", "Delta": "37"}
    assert "j_at_level_tau" in doc
    doc0 = run_json(["--prec", "192", "specialize", "--curve", "4,1"])
    assert "j_at_level_tau" not in doc0


def test_newforms_weight24():
    doc = run_json(["newforms", "--weight", "24", "--order", "12"])
    assert doc["cusp_dimension"] == 2
    assert doc["orbit_count"] == 1
    (orb,) = doc["orbits"]
    assert orb["degree"] == 2
    assert orb["hecke_minpoly"] == ["-20468736", "-1080", "1"]
    assert orb["totally_real"] is True
    assert orb["coefficients"][1] == ["1", "0"]


def test_reports_are_deterministic():
    args = ["theorem", "--level", "2", "--eis-weight", "4", "--order", "12"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("args", [
    ["theorem", "--level", "4", "--eis-weight", "4"],
    ["theorem", "--level", "7", "--eis-weight", "4"],
    ["theorem", "--level", "3", "--eis-weight", "5"],
    ["specialize", "--curve", "3,1"],
    ["oracle", "--eis-weight", "4", "--level", "2", "--tau", "0.5,-1"],
    ["oracle", "--eis-weight", "4", "--level", "2", "--tau", "nan,1"],
    ["oracle", "--eis-weight", "4", "--level", "2", "--tau", "0.1,inf"],
])
def test_malformed_requests_exit3(args):
    proc = run_cli(args)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_bad_env_precision_exit3():
    proc = run_cli(["specialize", "--curve", "4,1"],
                   env_extra={"MTV_PREC_BITS": "plenty"})
    assert proc.returncode == 3
    assert "MTV_PREC_BITS" in proc.stderr


def test_verification_failure_exits2(monkeypatch, capsys):
    def boom(*a, **kw):
        raise VerificationError("planted failure")

    monkeypatch.setattr(cli, "verify_theorem", boom)
    rc = cli.main(["theorem", "--level", "2", "--eis-weight", "4"])
    assert rc == 2
    assert "planted failure" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    # the weight-84 s_6 needs 8 basis elements, the series reach q^2
    ["phi", "--level", "5", "--eis-weight", "10", "--order", "1"],
    # the weight-108 s_3 of h^3 needs 10 basis elements, the series reach q^7
    ["phi", "--level", "2", "--eis-weight", "4", "--power", "3", "--order", "1"],
])
def test_too_short_phi_exits4(args):
    proc = run_cli(args)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "raise the order" in proc.stderr


def test_phi_inputs_grow_with_power():
    # the same weight-108 s_3 at order 4: inputs through q^(2*4*3 + 8) reach
    # q^16, past the ten basis leads
    proc = run_cli(["phi", "--level", "2", "--eis-weight", "4", "--power", "3",
                    "--order", "4"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert [s["weight"] for s in doc["symmetric"]] == [36, 72, 108]


def test_resource_failure_exits4(monkeypatch, capsys):
    def boom(*a, **kw):
        raise PrecisionError("no bits left")

    monkeypatch.setattr(cli, "tau_from_curve", boom)
    rc = cli.main(["specialize", "--curve", "4,1"])
    assert rc == 4
    assert "no bits left" in capsys.readouterr().err
