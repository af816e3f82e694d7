"""End-to-end command line checks through real subprocesses plus in-process
exit-code paths for the failure branches that are awkward to reach for real."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import mtv.cli as cli
import mtv.elliptic as elliptic
import mtv.numerics as numerics
import mtv.qexp as qexp
import mtv.spaces as spaces
import mtv.trace as trace
from mtv import InputError, PrecisionError, ResourceLimitError, VerificationError


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


def plant(monkeypatch, message, *targets):
    """Replace each (module, name) target, in that module and in every other
    module of the package that imported it, by a function that raises
    VerificationError(message): a run that reaches any binding stops there."""
    def reached(*a, **kw):
        raise VerificationError(message)

    package = [m for n, m in list(sys.modules.items()) if n == "mtv" or n.startswith("mtv.")]
    for mod, name in targets:
        real = getattr(mod, name)
        bound = [m for m in package if getattr(m, name, None) is real]
        assert mod in bound
        for m in bound:
            monkeypatch.setattr(m, name, reached)


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
    assert "rankin_status" not in doc


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


LEVEL11 = ["--level", "11", "--eta", "1:2,11:2", "--eis-weight", "10"]


def test_theorem_level11_in_process(capsys):
    # eta(z)^2 eta(11z)^2 times the weight-10 Eisenstein series: weight 12,
    # so the trace lands on Delta, one rational orbit
    assert cli.main(["theorem", *LEVEL11]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["level"], doc["weight"], doc["order"]) == (11, 12, 64)
    assert doc["conductor"] == 1 and doc["admissible_levels"] == [1, 11]
    assert doc["orbit_count"] == 1 and doc["single_orbit"] is True
    assert doc["orbits"][0]["coefficients_head"][:4] == ["0", "1", "-24", "252"]
    assert doc["route_agree_through"] == 64
    assert doc["trace_head"][1] == "125411328/43229041"


def test_corollary_level11_in_process(capsys):
    # Phi_E has degree N + 1 = 12 and is irreducible at this curve: the
    # sieve's distinct-degree factorizations step the Frobenius matrix on
    # a degree-12 polynomial, up to d = 6
    assert cli.main(["corollary", *LEVEL11, "--curve", "4,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identity_holds"] is True
    assert doc["phi_factor_degrees"] == [12]
    assert doc["condition_a_irreducible"] is True
    assert doc["specialized_trace_lhs"] == doc["newform_side_rhs"] == "4640219136/43229041"


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


def run_in_process(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("prec", [64, 80])
@pytest.mark.parametrize("curve", ["4,1", "1,-5", "2,0", "-2,-5"])
def test_specialize_at_low_precision_recognizes_targets(prec, curve):
    # the denominator bound shrinks with the error: at 64 bits it is 1.4e7
    # to 2.7e7 here, as 10^8 has a radius 1/(2 10^16) below the error
    code, out, _ = run_in_process(["--prec", str(prec), "specialize", "--curve=" + curve])
    assert code == 0
    doc = json.loads(out)
    assert {r["series"]: r["rational"] for r in doc["specialized"]} == doc["exact_targets"]


@pytest.mark.parametrize("argv", [
    ["newforms", "--weight", "24", "--order", "-1"],
    ["newforms", "--weight", "-2"],
    ["newforms", "--weight", "-24"],
    ["newforms", "--weight", "11"],
    ["newforms", "--weight", "13"],
])
def test_newforms_refuses_negative_order_and_odd_or_negative_weight(argv):
    code, out, err = run_in_process(argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


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
    ["theorem", "--level", "1", "--eis-weight", "4"],
    # phi raises a short order to what its s_i need, but not a negative one
    ["phi", "--level", "2", "--eis-weight", "4", "--order", "-1"],
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


@pytest.mark.parametrize("argv", [
    ["newforms", "--weight", "24"],
    ["theorem", "--level", "2", "--eis-weight", "4", "--order", "8"],
    ["corollary", "--level", "2", "--eis-weight", "4", "--order", "8", "--curve=4,1"],
    ["phi", "--level", "2", "--eis-weight", "4", "--order", "8"],
    ["oracle", "--eis-weight", "4", "--level", "2", "--tau=0.21,1.13", "--bound", "8",
     "--series-order", "32"],
    ["specialize", "--curve=-2,-5", "--level", "2"],
], ids=lambda argv: argv[0])
def test_every_subcommand_refuses_a_precision_below_64_bits(argv, monkeypatch, capsys):
    # the floor holds for --prec and MTV_PREC_BITS alike, also in the
    # subcommands whose exact work reads no precision
    monkeypatch.setenv("MTV_PREC_BITS", "63")
    for args in (["--prec", "63"] + argv, argv):
        assert cli.main(args) == 3
        out, err = capsys.readouterr()
        assert out == "" and "below the floor of 64" in err
    assert cli.main(["--prec", "64"] + argv) == 0
    assert json.loads(capsys.readouterr().out)


def test_verification_failure_exits2(monkeypatch, capsys):
    def boom(*a, **kw):
        raise VerificationError("planted failure")

    monkeypatch.setattr(cli, "verify_theorem", boom)
    rc = cli.main(["theorem", "--level", "2", "--eis-weight", "4"])
    assert rc == 2
    assert "planted failure" in capsys.readouterr().err


@pytest.mark.parametrize("short,enough", [
    # the weight-84 s_6 needs 8 basis elements; order 1 inputs reach q^2,
    # order 6 inputs q^7, which is all they need (and the report shows)
    (["phi", "--level", "5", "--eis-weight", "10", "--order", "1"], "6"),
    # the weight-108 s_3 of h^3 needs 10 basis elements; order 1 inputs reach q^7
    (["phi", "--level", "2", "--eis-weight", "4", "--power", "3", "--order", "1"], "4"),
    # the weight-324 s_3 needs 28 basis elements; order 8 inputs reach q^12
    (["phi", "--level", "2", "--eis-weight", "100", "--order", "8"], "30"),
])
def test_short_phi_order_is_raised_to_the_top_basis(short, enough):
    # phi raises its order only as far as the Miller basis of the top s_i
    # needs, so the report is the one a long enough order gives, byte for
    # byte (the heads show at most 10 coefficients)
    raised = run_cli(short)
    long = run_cli(short[:-1] + [enough])
    assert raised.returncode == long.returncode == 0, raised.stderr
    assert raised.stdout == long.stdout


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


def test_oracle_bound_over_the_term_cap_exits4(monkeypatch, capsys):
    # the coset sum's work, (2B + 1) B terms weighted by the bits of their
    # integers, grows with the weight: at 256 bits and tau = 0.1 + 1.2i it
    # admits B = 1277 at weight 4 and B = 55 at weight 274; the planted
    # kernel shows where the run would start summing
    plant(monkeypatch, "reached the sum", (numerics, "_lattice_kernel"))
    assert numerics.MAX_LATTICE_WORK == 3 * 10**11
    argv = ["oracle", "--level", "2", "--tau", "0.1,1.2", "--eis-weight"]
    for weight, admitted, refused in (("4", "1277", "1278"), ("274", "55", "56"),
                                      ("274", "55", "400")):
        assert cli.main(argv + [weight, "--bound", admitted]) == 2
        assert "reached the sum" in capsys.readouterr().err
        assert cli.main(argv + [weight, "--bound", refused]) == 4
        err = capsys.readouterr().err
        assert "above the cap of 300000000000" in err and "reached" not in err

    proc = run_cli(argv + ["4", "--bound", "100000"])
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "above the cap of 300000000000" in proc.stderr


@pytest.mark.parametrize("argv,admitted,refused", [
    # N * order + 8 terms: level 5 at order 2048 builds 10,248
    (["theorem", "--level", "5", "--eis-weight", "4", "--order"], "2048", "1000000000"),
    # at level 2 the newform basis, built first, needs 2 (order + 4) + 2
    (["theorem", "--level", "2", "--eis-weight", "4", "--order"], "16379", "16380"),
    (["corollary", "--level", "5", "--eis-weight", "4", "--curve", "4,1", "--order"],
     "6552", "6553"),
    # N * order * power + 8
    (["phi", "--level", "5", "--eis-weight", "4", "--power", "3", "--order"],
     "2184", "2185"),
    # 2 * order + 2
    (["newforms", "--weight", "24", "--order"], "16383", "16384"),
    (["oracle", "--eis-weight", "4", "--level", "2", "--tau", "0.1,1.2",
      "--series-order"], "32768", "32769"),
])
def test_series_length_over_the_cap_exits4_before_any_work(argv, admitted, refused,
                                                           monkeypatch, capsys, fresh_gates):
    # the planted builders and gate, every binding of each, show where a run
    # would start its first series; from an empty store, since a stored orbit
    # certificate skips the T_2 matrix
    plant(monkeypatch, "reached the inputs", (trace, "product_inputs"),
          (spaces, "hecke_matrix_level1"), (qexp, "_gate_eisenstein"))
    assert spaces._gate_eisenstein is qexp._gate_eisenstein  # planted in both
    assert qexp.MAX_SERIES_TERMS == 2**15
    assert cli.main(argv + [admitted]) == 2
    assert "reached the inputs" in capsys.readouterr().err
    assert cli.main(argv + [refused]) == 4
    err = capsys.readouterr().err
    assert "cap of 32768" in err and "reached" not in err


@pytest.mark.parametrize("argv", [
    ["specialize", "--curve=1,2"],
    ["corollary", "--level", "2", "--eis-weight", "4", "--curve=1,2"],
    ["oracle", "--eis-weight", "4", "--level", "1", "--tau", "0.1,1.1", "--bound", "4"],
])
@pytest.mark.parametrize("via_env", [False, True])
def test_precision_over_the_cap_exits4_before_any_gate(argv, via_env, monkeypatch, capsys):
    # the planted gate and curve inversion show where a run would start its
    # numerics; --prec and MTV_PREC_BITS share the cap
    plant(monkeypatch, "reached the numerics", (qexp, "_gate_eisenstein"),
          (cli, "tau_from_curve"))

    def run(bits):
        if via_env:
            monkeypatch.setenv("MTV_PREC_BITS", bits)
            return cli.main(argv)
        monkeypatch.delenv("MTV_PREC_BITS", raising=False)
        return cli.main(["--prec", bits] + argv)

    assert numerics.MAX_PREC_BITS == 4096
    assert run("4096") == 2
    assert "reached the numerics" in capsys.readouterr().err
    for bits in ("4097", "1000000"):
        assert run(bits) == 4
        err = capsys.readouterr().err
        assert "above the cap of 4096" in err and "reached" not in err


def test_newforms_over_the_dimension_cap_exits4(monkeypatch, capsys, fresh_gates):
    # dim S_278 = 22 is the last dimension the cap admits, dim S_276 = 23;
    # the planted basis shows where a run would start, also when an earlier
    # test has stored the orbits of weight 278 (fresh_gates empties the store)
    plant(monkeypatch, "reached the basis", (spaces, "hecke_matrix_level1"))
    assert qexp.MAX_NEWFORM_DIM == 22
    assert cli.main(["newforms", "--weight", "278"]) == 2
    assert "reached the basis" in capsys.readouterr().err
    for weight in ("276", "100000"):
        assert cli.main(["newforms", "--weight", weight]) == 4
        err = capsys.readouterr().err
        assert "above the cap of 22" in err and "reached" not in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--level", "2", "--tau", "0.1,1.2", "--bound", "10", "--eis-weight"],
    ["phi", "--level", "2", "--eis-weight"],
])
def test_eisenstein_weight_over_the_dimension_cap_exits4_before_any_gate(
        argv, monkeypatch, capsys):
    # dim S_274 = dim S_278 = 22 pass the guard, dim S_276 = dim S_280 = 23
    # are refused; the planted gate shows where a run would start.  At level
    # 2 phi's h then has weight 8 + 274 = 282 (286 at 278), of cusp
    # dimension 23, and its s_3 a Miller basis of dimension 71 (72), above
    # the caps of 22 and 67: phi refuses those at every power.  The oracle
    # sums its coset sum first, whose work cap refuses weight 4000 at once
    plant(monkeypatch, "reached the gate", (qexp, "_gate_eisenstein"))
    code, message = ((4, "is 23, above the cap of 22") if argv[0] == "phi"
                     else (2, "reached the gate"))
    for weight in ("274", "278"):
        assert cli.main(argv + [weight]) == code
        assert message in capsys.readouterr().err
    for weight in ("276", "280", "4000"):
        assert cli.main(argv + [weight]) == 4
        err = capsys.readouterr().err
        cap = "300000000000" if (argv[0], weight) == ("oracle", "4000") else "22"
        assert "above the cap of " + cap in err and "reached" not in err


def test_phi_power_over_the_dimension_cap_exits4_before_any_series(monkeypatch, capsys):
    # at level 2, h^power has weight (8 + 4) * power, the envelope of
    # theorem --power: dim S_264 = 22 (power 22) passes, dim S_276 = 23
    # (power 23) is refused; the planted builder shows where a run would start
    plant(monkeypatch, "reached the inputs", (trace, "product_inputs"))
    argv = ["phi", "--level", "2", "--eis-weight", "4", "--order", "8", "--power"]
    assert cli.main(argv + ["22"]) == 2
    assert "reached the inputs" in capsys.readouterr().err
    for power in ("23", "60"):
        assert cli.main(argv + [power]) == 4
        err = capsys.readouterr().err
        assert "above the cap of 22" in err and "reached" not in err
    # a malformed weight is refused as such first
    assert cli.main(["phi", "--level", "2", "--eis-weight", "5", "--power", "60"]) == 3
    assert "must be even" in capsys.readouterr().err


def test_phi_power_over_the_miller_cap_exits4_before_any_series(monkeypatch, capsys):
    # phi builds the Miller basis of its top s_(N+1), of weight (N + 1) W:
    # dim M_768 = 65 (level 5, power 16) and dim M_800 = 67 (level 3, power
    # 20) pass, dim M_816 = 69 (level 5, power 17) is refused, and so is
    # level 5 power 33, whose W = 264 passes the cusp-dimension cap
    plant(monkeypatch, "reached the inputs", (trace, "product_inputs"))
    assert trace.MAX_PHI_MILLER_DIM == 67
    for level, power in (("5", "16"), ("3", "20")):
        argv = ["phi", "--level", level, "--eis-weight", "4", "--order", "8", "--power", power]
        assert cli.main(argv) == 2
        assert "reached the inputs" in capsys.readouterr().err
    for power in ("17", "33"):
        argv = ["phi", "--level", "5", "--eis-weight", "4", "--order", "8", "--power", power]
        assert cli.main(argv) == 4
        err = capsys.readouterr().err
        assert "above the cap of 67" in err and "reached" not in err


def test_phi_miller_work_over_the_cap_exits4_before_any_series(monkeypatch, capsys):
    # phi's order is order * power, so past --order 8 the Miller cap no
    # longer bounds the top s_(N+1): d K T = 65 * 768 * 384 (level 5, power
    # 16, --order 24) passes, 65 * 768 * 512 (--order 32) is refused, and so
    # is level 2 power 22 at --order 32 (67 * 792 * 704)
    plant(monkeypatch, "reached the inputs", (trace, "product_inputs"))
    assert trace.MAX_PHI_MILLER_WORK == 20000000

    def argv(level, power, order):
        return ["phi", "--level", level, "--eis-weight", "4", "--power", power, "--order", order]

    assert cli.main(argv("5", "16", "24")) == 2
    assert "reached the inputs" in capsys.readouterr().err
    for args in (argv("5", "16", "32"), argv("2", "22", "32")):
        assert cli.main(args) == 4
        err = capsys.readouterr().err
        assert "above the cap of 20000000" in err and "reached" not in err


def test_theorem_and_corollary_over_the_dimension_cap_exit4(monkeypatch, capsys):
    # at level 2, W = (8 + 4) * power: dim S_264 = 22 (power 22) passes the
    # guard, dim S_288 = 24 (power 24) is refused before the newform basis
    # and the inputs are built
    plant(monkeypatch, "reached the inputs", (trace, "newform_basis_level1"),
          (trace, "product_inputs"))
    argv = ["theorem", "--level", "2", "--eis-weight", "4", "--power"]
    assert cli.main(argv + ["22"]) == 2
    assert "reached the inputs" in capsys.readouterr().err
    for args in (argv + ["24"], ["corollary", "--level", "2", "--eis-weight", "4",
                                 "--power", "24", "--curve", "4,1"]):
        assert cli.main(args) == 4
        err = capsys.readouterr().err
        assert "above the cap of 22" in err and "reached" not in err
    # a malformed Eisenstein weight is reported as such before the cap
    assert cli.main(["theorem", "--level", "2", "--eis-weight", "3", "--power", "30"]) == 3
    assert "Eisenstein weight must be even" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["theorem", "corollary", "phi"])
def test_route2_at_a_high_level_exits4_before_any_input(command, monkeypatch, capsys):
    # with eta(z)^2 eta(N z)^2 and E_4, h has weight 6 and the top s_(N+1)
    # of Phi(h) a Miller basis of dimension d = dim M_(6 (N + 1)); the inputs
    # reach order T = d (theorem) or d - 1 (phi).  Level 71 (d = 37, N^2 T
    # at most 186,517) passes; levels 83, 107 and 131 (d = 43, 55, 67) are
    # refused by the route-2 cap of 200,000, and levels 167 and 311 (d = 85,
    # 157) by the Miller cap of 67; the planted builders show where a run
    # would start
    plant(monkeypatch, "reached the inputs", (trace, "newform_basis_level1"),
          (trace, "product_inputs"))
    assert trace.MAX_ROUTE2_WORK == 200000

    def argv(level):
        extra = ["--curve", "4,1"] if command == "corollary" else []
        return [command, "--level", str(level), "--eta", "1:2,%d:2" % level,
                "--eis-weight", "4", "--order", "8"] + extra

    assert cli.main(argv(71)) == 2
    assert "reached the inputs" in capsys.readouterr().err
    for level, cap in ((83, "200000"), (107, "200000"), (131, "200000"),
                       (167, "67"), (311, "67")):
        assert cli.main(argv(level)) == 4
        err = capsys.readouterr().err
        assert "above the cap of %s" % cap in err and "reached" not in err


_TAU = cli.parse_tau("0.1,1.2", 256)
_CURVE = cli.parse_curve("4,1")


@pytest.mark.parametrize("argv,entry,args", [
    (["newforms", "--weight", "276"], spaces.newform_basis_level1, (276, 16)),
    (["newforms", "--weight", "24", "--order", "16384"],
     spaces.newform_basis_level1, (24, 16384)),
    (["theorem", "--level", "2", "--eis-weight", "4", "--order", "16381"],
     trace.verify_theorem, (2, {1: 8, 2: 8}, 4, 1, 16381)),
    (["theorem", "--level", "2", "--eis-weight", "4", "--power", "24"],
     trace.verify_theorem, (2, {1: 8, 2: 8}, 4, 24)),
    (["theorem", "--level", "5", "--eis-weight", "264", "--order", "8"],
     trace.verify_theorem, (5, {1: 4, 5: 4}, 264, 1, 8)),
    (["theorem", "--level", "167", "--eta", "1:2,167:2", "--eis-weight", "4", "--order", "8"],
     trace.verify_theorem, (167, {1: 2, 167: 2}, 4, 1, 8)),
    (["corollary", "--level", "311", "--eta", "1:2,311:2", "--eis-weight", "4",
      "--order", "8", "--curve", "4,1"],
     elliptic.verify_corollary, (311, {1: 2, 311: 2}, 4, 1, _CURVE, 8)),
    (["--prec", "4097", "corollary", "--level", "2", "--eis-weight", "4", "--curve", "4,1"],
     elliptic.verify_corollary, (2, {1: 8, 2: 8}, 4, 1, _CURVE, 64, 4097)),
    (["phi", "--level", "131", "--eta", "1:2,131:2", "--eis-weight", "4", "--order", "8"],
     trace.phi, (131, {1: 2, 131: 2}, 4, 1, 8)),
    (["phi", "--level", "5", "--eis-weight", "4", "--order", "8", "--power", "17"],
     trace.phi, (5, {1: 4, 5: 4}, 4, 17, 8)),
    (["phi", "--level", "5", "--eis-weight", "4", "--power", "3", "--order", "2185"],
     trace.phi, (5, {1: 4, 5: 4}, 4, 3, 2185)),
    # the Miller work d K T at the default --order 32
    (["phi", "--level", "2", "--eis-weight", "4", "--power", "22"],
     trace.phi, (2, {1: 8, 2: 8}, 4, 22)),
    (["phi", "--level", "5", "--eis-weight", "4", "--power", "16"],
     trace.phi, (5, {1: 4, 5: 4}, 4, 16)),
    (["oracle", "--eis-weight", "274", "--level", "2", "--tau", "0.1,1.2", "--bound", "400"],
     numerics.lattice_sum_eisenstein, (274, 2, _TAU, 400, None, 256)),
    (["--prec", "4097", "oracle", "--eis-weight", "4", "--level", "2", "--tau", "0.1,1.2"],
     numerics.lattice_sum_eisenstein, (4, 2, _TAU, 100, None, 4097)),
    (["oracle", "--eis-weight", "4", "--level", "2", "--tau", "0.1,1.2", "--bound", "1",
      "--series-order", "32769"], qexp.eisenstein_prime_level, (4, 2, 32769)),
    (["oracle", "--eis-weight", "276", "--level", "2", "--tau", "0.1,1.2", "--bound", "1"],
     qexp.eisenstein_prime_level, (276, 2, 128)),
    # the other two Eisenstein constructors refuse the same series length
    (["oracle", "--eis-weight", "4", "--level", "1", "--tau", "0.1,1.2", "--bound", "1",
      "--series-order", "32769"], qexp.eisenstein_level1, (4, 32769)),
    (["phi", "--level", "2", "--eis-weight", "4", "--order", "16381"],
     qexp.fricke_eisenstein, (4, 2, 32769)),
    # refused by the closed form alone, before the coset sum runs
    (["oracle", "--eis-weight", "4", "--level", "2", "--tau", "0.1,1.2", "--bound", "600",
      "--series-order", "40000"], qexp.eisenstein_oracle, (4, 2, _TAU, 600, 40000, 256)),
    (["oracle", "--eis-weight", "276", "--level", "2", "--tau", "0.1,1.2", "--bound", "1"],
     qexp.eisenstein_oracle, (276, 2, _TAU, 1, 128, 256)),
    (["oracle", "--eis-weight", "4", "--level", str(10**39 + 3), "--tau", "0.1,1.2",
      "--bound", "600"], qexp.eisenstein_oracle, (4, 10**39 + 3, _TAU, 600, 128, 256)),
    (["--prec", "4097", "specialize", "--curve", "4,1"],
     elliptic.tau_from_curve, (_CURVE, 4097)),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_each_library_entry_point_refuses_what_its_subcommand_refuses(argv, entry, args,
                                                                      monkeypatch, capsys):
    # the planted builders, gate and coset-sum kernel, every binding of each,
    # show where a run would start; oracle checks both of its sides before
    # either does any work
    plant(monkeypatch, "reached the work", (trace, "product_inputs"),
          (spaces, "hecke_matrix_level1"), (qexp, "_gate_eisenstein"),
          (elliptic, "_period_tau"), (numerics, "_lattice_kernel"))
    assert cli.main(argv) == 4
    assert "reached" not in capsys.readouterr().err
    with pytest.raises(ResourceLimitError):
        entry(*args)


def test_oracle_refuses_a_malformed_closed_form_before_the_coset_sum(monkeypatch, capsys):
    # a level that is not prime is the closed form's to refuse; the planted
    # kernel shows that the coset sum never starts
    plant(monkeypatch, "reached the sum", (numerics, "_lattice_kernel"))
    argv = ["oracle", "--eis-weight", "4", "--tau", "0.1,1.2", "--bound", "600", "--level"]
    assert cli.main(argv + ["4"]) == 3
    err = capsys.readouterr().err
    assert "level must be prime" in err and "reached" not in err
    with pytest.raises(InputError):
        qexp.eisenstein_oracle(4, 4, _TAU, 600, 128, 256)
    assert cli.main(argv + ["2"]) == 2
    assert "reached the sum" in capsys.readouterr().err


def test_oracle_at_a_40_digit_prime_level_exits4(capsys):
    # past the range where the prime test is proven exact: the closed form
    # refuses it before its series and gate
    level = 10**39 + 3
    argv = ["oracle", "--eis-weight", "4", "--level", str(level), "--tau", "0.21,1.13"]
    assert cli.main(argv) == 4
    assert "beyond the deterministic prime test" in capsys.readouterr().err


def test_oracle_tau_is_parsed_at_the_working_precision(monkeypatch, capsys):
    from mtv.rational import exact_fraction

    seen = []
    real = cli.eisenstein_oracle

    def recording(weight, level, tau, bound, trunc, prec):
        seen.append(tau)
        return real(weight, level, tau, bound, trunc, prec)

    monkeypatch.setattr(cli, "eisenstein_oracle", recording)
    argv = ["--prec", "256", "oracle", "--eis-weight", "4", "--level", "2",
            "--tau", "0.21,1.13", "--bound", "4", "--series-order", "32"]
    assert cli.main(argv) == 0
    json.loads(capsys.readouterr().out)
    (tau,) = seen
    bound = Fraction(1, 2**250)
    assert abs(exact_fraction(tau.real) - Fraction(21, 100)) < bound
    assert abs(exact_fraction(tau.imag) - Fraction(113, 100)) < bound


# -- fuzzing specialize --curve ------------------------------------------------

_INVARIANT = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
)


@st.composite
def _near_singular(draw):
    """(3 t^2, t^3 + e): discriminant -27 e (2 t^3 + e), singular at e = 0."""
    t = draw(st.integers(-10**4, 10**4))
    e = draw(st.sampled_from((-1, 0, 1)))
    return 3 * t * t, t**3 + e


def _singular_ainvs(a1, a2):
    """(a1, a2, 0, 0, 0): y^2 + a1 x y = x^3 + a2 x^2 is singular at the origin."""
    return a1, a2, 0, 0, 0


def _discriminant(curve):
    """The discriminant of (g2, g3) or of a long Weierstrass model
    (a1, a2, a3, a4, a6), by the b-invariants (Silverman, III.1)."""
    if len(curve) == 2:
        g2, g3 = map(Fraction, curve)
        return g2**3 - 27 * g3**2
    a1, a2, a3, a4, a6 = map(Fraction, curve)
    b2, b4, b6 = a1**2 + 4 * a2, 2 * a4 + a1 * a3, a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    return -b2**2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6


def _refuse_constant(name):
    raise AssertionError("non-finite JSON constant %s" % name)


def test_five_part_curve_is_its_short_model():
    # y^2 + y = x^3 - x (conductor 37) is 4x^3 - 4x + 1 = y^2 in (g2, g3)
    reports = []
    for curve in ("0,0,1,-1,0", "4,-1"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["specialize", "--curve=" + curve]) == 0
        reports.append(out.getvalue())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["exact_targets"] == {"E4": "48", "E6": "-216", "Delta": "37"}


@given(curve=st.one_of(st.tuples(_INVARIANT, _INVARIANT), _near_singular(),
                       st.tuples(*[_INVARIANT] * 5),
                       st.builds(_singular_ainvs, _INVARIANT, _INVARIANT)),
       prec=st.sampled_from((64, 128)), level=st.sampled_from((0, 2, 3)))
@settings(max_examples=60, deadline=None)
def test_fuzz_specialize_curve_exits_cleanly(curve, prec, level):
    argv = ["--prec", str(prec), "specialize", "--curve=" + ",".join(map(str, curve)),
            "--level", str(level)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if _discriminant(curve) == 0:
        assert code == 3 and "singular curve" in err.getvalue(), argv
    if code:
        assert out.getvalue() == "", argv
        return
    json.loads(out.getvalue(), parse_constant=_refuse_constant)
    assert not re.search(r"\b(nan|inf)\b", out.getvalue(), re.IGNORECASE), argv


# -- fuzzing the other subcommands ---------------------------------------------

# Each draw is a cheap admitted request (levels 2, 3, 5 and 11 at short
# orders, small bounds and series orders) with at most two of its values
# replaced by a malformed one or one just past a cap: the refused power is
# the least whose weight passes the cusp-dimension cap.  Where the coset-sum
# cap falls depends on the weight, tau and precision, so the refused bound
# lies past it at every draw.
_ETA_WEIGHT = {2: 8, 3: 6, 5: 4, 11: 2}
_BAD = {
    "--prec": ("63", "4097"),
    "--level": ("1", "4", "83", "131", "167", str(10**39 + 3)),
    "--eis-weight": ("3", "5", "264", "276", "280"),
    "--curve": ("3,1", "1,2,3", "x,1"),
    "--eta": ("", "1", "1:x", "1:2:3", ",", "0:24", "1:12,2:-12", "1:-8,2:16", "1:2,2:8"),
    "--tau": ("0.1,-1", "nan,1", "0.1", "0.5,0.05", "1e3,2"),
    "--bound": ("-1", "0", "20000"),
    "--series-order": ("0", "32769"),
    "--weight": ("-2", "11", "276", "280"),
}
_GOOD = {
    "newforms": {"--weight": ("12", "24", "26"), "--order": ("0", "8", "16")},
    "oracle": {"--eis-weight": ("4", "6", "278"), "--level": ("1", "2", "3", "5"),
               "--tau": ("0.21,1.13", "-0.37,1.71"), "--bound": ("1", "2"),
               "--series-order": ("16", "32")},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(("newforms", "theorem", "corollary", "phi", "oracle")))
    prec = draw(st.sampled_from(("64", "128", "256")))
    if command in _GOOD:
        flags = {f: draw(st.sampled_from(v)) for f, v in _GOOD[command].items()}
    else:
        level = draw(st.sampled_from((2, 3, 5, 11)))
        flags = {"--level": str(level), "--eis-weight": draw(st.sampled_from(("4", "6", "8"))),
                 "--power": draw(st.sampled_from(("1", "2"))),
                 "--order": draw(st.sampled_from(("1", "8") if command == "phi" else ("8", "12")))}
        if level == 11:
            flags["--eta"] = "1:2,11:2"
        if command == "corollary":
            flags["--curve"] = draw(st.sampled_from(("4,1", "0,1", "-3,2")))
    flags["--prec"] = prec
    bad = {f: v for f, v in _BAD.items() if f in flags}
    if "--order" in flags:
        bad["--order"] = {"newforms": ("-1", "16384"), "phi": ("-1",)}.get(command, ("7", "16381"))
    if "--power" in flags:
        w = _ETA_WEIGHT[int(flags["--level"])] + int(flags["--eis-weight"])
        past = next(p for p in range(1, 100) if qexp.dim_cusp_level1(w * p) > qexp.MAX_NEWFORM_DIM)
        bad["--power"] = ("0", str(past))
    for flag in draw(st.lists(st.sampled_from(sorted(bad)), max_size=2, unique=True)):
        flags[flag] = draw(st.sampled_from(bad[flag]))
    return ["--prec", flags.pop("--prec"), command] + ["%s=%s" % kv for kv in flags.items()]


@given(argv=_argv())
@settings(max_examples=60, deadline=None)
def test_fuzz_subcommands_exit_cleanly(argv):
    # every draw exits 0, 2, 3 or 4, never 1, and a report holds no NaN or Inf
    code, out, err = run_in_process(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code:
        assert out == "", argv
        return
    json.loads(out, parse_constant=_refuse_constant)
    assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), argv
