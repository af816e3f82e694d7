"""Command line front end.

Every subcommand prints one deterministic JSON document to stdout.  Exit
codes: 0 success, 2 a verified identity failed, 3 the request is malformed
or out of scope, 4 a numeric resource limit (precision, truncation,
reconstruction, a size cap) was hit.
"""

import argparse
import json
import math
import os
import sys

import mpmath

from .elliptic import (
    CurveQ,
    condition_a,
    j_invariant_numeric,
    reconstruct_real,
    specialize_phi,
    tau_from_curve,
    verify_corollary,
)
from .errors import (
    InputError,
    MtvError,
    PrecisionError,
    ReconstructionError,
    ResourceLimitError,
    TruncationError,
    UnsupportedScopeError,
    VerificationError,
)
from .numerics import DEFAULT_PREC_BITS, MIN_PREC_BITS, eval_qseries, lattice_sum_eisenstein
from .qexp import (EtaQuotientSpec, _require_even_weight, _require_prime, eisenstein_level1,
                   eisenstein_prime_level)
from .rational import exact_fraction, format_exact, format_rational, parse_rational
from .spaces import (
    MAX_NEWFORM_DIM,  # noqa: F401 -- the CLI's caps stay readable as cli.MAX_*
    _require_newform_dim,
    delta_series,
    dim_cusp_level1,
    dim_modular_level1,
    newform_basis_level1,
)
from .trace import product_inputs, transformation_polynomial, verify_theorem

# cusp inputs shipped with the engine, keyed by prime level
BUNDLED_ETA = {
    2: {1: 8, 2: 8},
    3: {1: 6, 3: 6},
    5: {1: 4, 5: 4},
}

# cap on the lattice points of one oracle sum: (2B + 1) B at bound B
MAX_ORACLE_TERMS = 10**7

# cap on the coefficients of the longest exact series a command builds.
# Level 5 at --order 2048 builds 10,248 and takes about 6.4 s on a 2-vCPU
# VM with CPython 3.11; a series product grows faster than linearly in the
# length, so the cap stops unbounded runs at about three times that.
MAX_SERIES_TERMS = 2**15

# cap on the working precision in bits, from --prec or MTV_PREC_BITS.
# specialize --curve=1,2 takes about 1.2 s at 2048 bits, 4.6 s at 4096 and
# 34 s at 8192 on a 2-vCPU VM with CPython 3.11 (corollary: 5.9 s and 29 s);
# the time grows about sevenfold per doubling, so the cap is 4096.
MAX_PREC_BITS = 4096

# cap on the Miller dimension of phi's top s_i, dim M_((N + 1) W) for h^power
# of weight W, at every power: that basis and the inputs it needs set phi's
# cost.  From the CLI on a 2-vCPU VM with CPython 3.11, level 2 power 22
# (dim 67) takes 3.17 s, level 3 power 20 (dim 67) 3.26 s, level 5 power 16
# (dim 65) 1.88 s and power 17 (dim 69) 3.35 s.  67 is the largest
# dimension the cusp-dimension cap admits at level 2, and it keeps every
# level near the time of that run.
MAX_PHI_MILLER_DIM = 67


def parse_eta(text):
    """"1:8,2:8" -> EtaQuotientSpec."""
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            d, r = part.split(":")
            pairs.append((int(d), int(r)))
        except ValueError as exc:
            raise InputError("bad eta term %r; expected d:r" % part) from exc
    if not pairs:
        raise InputError("empty eta quotient")
    return EtaQuotientSpec(pairs)


def parse_curve(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 2:
        return CurveQ(parse_rational(parts[0]), parse_rational(parts[1]))
    if len(parts) == 5:
        return CurveQ.from_ainvs(*(parse_rational(p) for p in parts))
    raise InputError("curve must be g2,g3 or a1,a2,a3,a4,a6")


def parse_tau(text, prec_bits):
    """"re,im" -> mpc, rounded once at the working precision."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise InputError("tau must be re,im")
    try:
        with mpmath.workprec(prec_bits):
            t = mpmath.mpc(parts[0], parts[1])
    except ValueError as exc:
        raise InputError("bad tau %r" % text) from exc
    if not mpmath.isfinite(t):
        raise InputError("tau must be finite")
    if t.imag <= 0:
        raise InputError("tau must have positive imaginary part")
    return t


def _default_prec():
    v = os.environ.get("MTV_PREC_BITS")
    if v is None:
        return DEFAULT_PREC_BITS
    try:
        return int(v)
    except ValueError as exc:
        raise InputError("MTV_PREC_BITS must be an integer") from exc


def _eta_for(level, eta_text):
    if eta_text is not None:
        return parse_eta(eta_text)
    if level in BUNDLED_ETA:
        return EtaQuotientSpec(BUNDLED_ETA[level])
    raise InputError(
        "no bundled cusp form at level %d; pass --eta explicitly" % level
    )


def _require_series_terms(terms, flag, value):
    """Refuse, before any work, a flag value whose longest series is past the cap."""
    if terms > MAX_SERIES_TERMS:
        raise ResourceLimitError(
            "%s %d would build series of %d terms, above the cap of %d"
            % (flag, value, terms, MAX_SERIES_TERMS)
        )


def _emit(doc):
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_newforms(args):
    _require_series_terms(2 * args.order + 2, "--order", args.order)
    k = args.weight
    _require_newform_dim(k)
    orbit_set = newform_basis_level1(k, args.order)
    orbits = []
    for nf in orbit_set.orbits:
        orbits.append({
            "degree": nf.degree,
            "hecke_minpoly": nf.modulus.serialize(),
            "coefficients": [format_exact(nf.a(n)) for n in range(min(args.order, 16) + 1)],
            "totally_real": True if nf.field is None else nf.field.is_totally_real(),
        })
    _emit({
        "weight": k,
        "cusp_dimension": dim_cusp_level1(k),
        "orbit_count": len(orbit_set.orbits),
        "single_orbit": orbit_set.single_orbit,
        "orbits": orbits,
    })
    return 0


def cmd_theorem(args):
    _require_series_terms(args.level * args.order + 8, "--order", args.order)
    spec = _eta_for(args.level, args.eta)
    res = verify_theorem(args.level, spec, args.eis_weight, args.power,
                         order=args.order)
    _emit(res.to_dict())
    return 0


def cmd_corollary(args):
    _require_series_terms(args.level * args.order + 8, "--order", args.order)
    spec = _eta_for(args.level, args.eta)
    curve = parse_curve(args.curve)
    res = verify_corollary(args.level, spec, args.eis_weight, args.power,
                           curve, order=args.order, prec_bits=args.prec)
    _emit(res.to_dict())
    return 0


def cmd_phi(args):
    if args.power < 1:
        raise InputError("power must be >= 1")
    if args.order < 0:
        raise InputError("order must be nonnegative")
    _require_newform_dim(args.eis_weight)
    spec = _eta_for(args.level, args.eta)
    N = _require_prime(args.level)
    # h^power has the weight whose cusp dimension theorem --power caps
    W = (spec.weight + _require_even_weight(args.eis_weight)) * args.power
    _require_newform_dim(W)
    dim = dim_modular_level1((N + 1) * W)
    if dim > MAX_PHI_MILLER_DIM:
        raise ResourceLimitError(
            "s_%d has weight %d, whose Miller basis has dimension %d, above the cap of %d"
            % (N + 1, (N + 1) * W, dim, MAX_PHI_MILLER_DIM)
        )
    # the s_i of h^power reach q^(order + 8 // N) (product_inputs), and the
    # top one needs the dim leads of its Miller basis: the order grows with
    # the power, and past that only as far as those leads need
    order = max(args.order * args.power, dim - 1 - 8 // N)
    _require_series_terms(N * order + 8, "--order", args.order)
    h, hfr = product_inputs(N, spec, args.eis_weight, order)
    if args.power != 1:
        h = h ** args.power
        hfr = hfr ** args.power
    sym = transformation_polynomial(h, hfr, N)
    doc = {
        "level": N,
        "eta": spec.serialize(),
        "eisenstein_weight": args.eis_weight,
        "weight": h.weight,
        "degree": N + 1,
        "symmetric": [
            {
                "index": i,
                "weight": s.weight,
                "head": [format_rational(c) for c in s.coeffs[:10]],
            }
            for i, s in enumerate(sym, start=1)
        ],
    }
    if args.curve:
        curve = parse_curve(args.curve)
        phiE = specialize_phi(sym, curve)
        irr, factors = condition_a(phiE)
        doc["specialized"] = {
            "curve": curve.serialize(),
            "polynomial": phiE.serialize(),
            "irreducible": irr,
            "factors": [
                {"poly": g_.serialize(), "multiplicity": m} for g_, m in factors
            ],
        }
    _emit(doc)
    return 0


def cmd_oracle(args):
    bound = max(args.bound, 0)  # a bound below 1 is refused as malformed later
    terms = (2 * bound + 1) * bound
    if terms > MAX_ORACLE_TERMS:
        raise ResourceLimitError(
            "oracle --bound %d would sum %d lattice terms, above the cap of %d"
            % (args.bound, terms, MAX_ORACLE_TERMS)
        )
    T = args.series_order
    _require_series_terms(T, "--series-order", T)
    _require_newform_dim(args.eis_weight)
    prec = args.prec
    tau = parse_tau(args.tau, prec)
    ser = eisenstein_prime_level(args.eis_weight, args.level, T)
    closed = eval_qseries(ser, tau, prec)
    lat = lattice_sum_eisenstein(args.eis_weight, args.level, tau, args.bound,
                                 None, prec)
    _emit({
        "weight": args.eis_weight,
        "level": args.level,
        "tau": args.tau,
        "bound": args.bound,
        "closed_form": closed.serialize(),
        "lattice_sum": lat.serialize(),
        "difference": mpmath.nstr(abs(closed.value - lat.value), 12),
        "certified_error_sum": mpmath.nstr(closed.err + lat.err, 8),
    })
    return 0


def cmd_specialize(args):
    curve = parse_curve(args.curve)
    pair = tau_from_curve(curve, args.prec)
    T = pair.order
    rows = []
    for name, ser, wt in (
        ("E4", eisenstein_level1(4, T), 4),
        ("E6", eisenstein_level1(6, T), 6),
        ("Delta", delta_series(T), 12),
    ):
        bc = pair.specialize_numeric(ser, wt)
        # the largest denominator bound B whose separation radius 1/(2 B^2)
        # exceeds the value's error, at most 10^8
        err = exact_fraction(bc.err)
        B = math.isqrt((err.denominator - 1) // (2 * err.numerator)) if err else 10**8
        try:
            val = format_rational(reconstruct_real(bc, max(1, min(B, 10**8))))
        except (ReconstructionError, VerificationError) as exc:
            val = "unrecognized (%s)" % exc
        rows.append({"series": name, "numeric": bc.serialize(), "rational": val})
    exact = {
        "E4": format_rational(12 * curve.g2),
        "E6": format_rational(216 * curve.g3),
        "Delta": format_rational(curve.discriminant),
    }
    jN = j_invariant_numeric(pair.tau * args.level, args.prec) if args.level else None
    doc = {
        "curve": curve.serialize(),
        "lattice": pair.serialize(),
        "specialized": rows,
        "exact_targets": exact,
    }
    if jN is not None:
        doc["j_at_level_tau"] = jN.serialize()
    _emit(doc)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="mtv",
        description="Exact traces of eta-quotient and Eisenstein products "
        "from prime level to level 1, with newform decompositions and "
        "elliptic specializations.",
    )
    p.add_argument("--prec", type=int, default=None, help="working precision in bits "
                   "(default %d or MTV_PREC_BITS)" % DEFAULT_PREC_BITS)
    sub = p.add_subparsers(dest="command", required=True)

    np_ = sub.add_parser("newforms", help="level-1 Galois orbits at a weight")
    np_.add_argument("--weight", type=int, required=True)
    np_.add_argument("--order", type=int, default=16,
                     help="q-expansion order for the output")
    np_.set_defaults(func=cmd_newforms)

    tp = sub.add_parser("theorem", help="run both trace routes and decompose")
    tp.add_argument("--level", type=int, required=True)
    tp.add_argument("--eta", type=str, default=None,
                    help='cusp input as "d:r,d:r" (default: bundled for the level)')
    tp.add_argument("--eis-weight", "--lambda", dest="eis_weight", type=int,
                    required=True)
    tp.add_argument("--power", type=int, default=1)
    tp.add_argument("--order", type=int, default=64)
    tp.set_defaults(func=cmd_theorem)

    cp = sub.add_parser("corollary", help="specialize the trace identity at a curve")
    cp.add_argument("--level", type=int, required=True)
    cp.add_argument("--eta", type=str, default=None)
    cp.add_argument("--eis-weight", "--lambda", dest="eis_weight", type=int,
                    required=True)
    cp.add_argument("--power", type=int, default=1)
    cp.add_argument("--order", type=int, default=64)
    cp.add_argument("--curve", type=str, required=True,
                    help='"g2,g3" or "a1,a2,a3,a4,a6"')
    cp.set_defaults(func=cmd_corollary)

    pp = sub.add_parser("phi", help="transformation polynomial coefficients")
    pp.add_argument("--level", type=int, required=True)
    pp.add_argument("--eta", type=str, default=None)
    pp.add_argument("--eis-weight", "--lambda", dest="eis_weight", type=int,
                    required=True)
    pp.add_argument("--power", type=int, default=1)
    pp.add_argument("--order", type=int, default=32,
                    help="series order, raised as far as the top s_i needs")
    pp.add_argument("--curve", type=str, default=None)
    pp.set_defaults(func=cmd_phi)

    op = sub.add_parser("oracle", help="closed form vs coset sum at a point")
    op.add_argument("--eis-weight", "--lambda", dest="eis_weight", type=int,
                    required=True)
    op.add_argument("--level", type=int, required=True)
    op.add_argument("--tau", type=str, required=True, help='"re,im"')
    op.add_argument("--bound", type=int, default=100)
    op.add_argument("--series-order", type=int, default=128)
    op.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("specialize", help="numeric lattice recovery for a curve")
    sp.add_argument("--curve", type=str, required=True)
    sp.add_argument("--level", type=int, default=0,
                    help="also report j at level*tau when nonzero")
    sp.set_defaults(func=cmd_specialize)
    return p


_EXIT_BY_ERROR = (
    (VerificationError, 2),
    ((InputError, UnsupportedScopeError), 3),
    ((PrecisionError, ReconstructionError, TruncationError, ResourceLimitError), 4),
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.prec is None:
            args.prec = _default_prec()
        if args.prec < MIN_PREC_BITS:
            raise InputError("precision of %d bits is below the floor of %d"
                             % (args.prec, MIN_PREC_BITS))
        if args.prec > MAX_PREC_BITS:
            raise ResourceLimitError("precision of %d bits is above the cap of %d"
                                     % (args.prec, MAX_PREC_BITS))
        return args.func(args)
    except MtvError as exc:
        sys.stderr.write("error: %s\n" % exc)
        for kinds, code in _EXIT_BY_ERROR:
            if isinstance(exc, kinds):
                return code
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
