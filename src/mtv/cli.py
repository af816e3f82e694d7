"""Command line front end.

Every subcommand prints one deterministic JSON document to stdout.  Exit
codes: 0 success, 2 a verified identity failed, 3 the request is malformed
or out of scope, 4 a numeric resource limit (precision, truncation,
reconstruction, a size cap) was hit.

The front end only parses, calls the library and emits: every size of a
request and every cap on it is worked out in the library function that
pays for it, which refuses before any work (see the README's caps list).
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .elliptic import (
    CurveQ,
    condition_a,
    j_invariant_numeric,
    reconstruct_real,
    specialize_phi,
    tau_from_curve,
    verify_corollary,
)
from .errors import InputError, MtvError, ReconstructionError, VerificationError
from .numerics import DEFAULT_PREC_BITS, BigComplex, check_prec
from .qexp import EtaQuotientSpec, eisenstein_oracle
from .rational import format_decimal, format_exact, format_rational, parse_rational, round_bits
from .spaces import dim_cusp_level1, newform_basis_level1
from .trace import phi, verify_theorem

# cusp inputs shipped with the engine, keyed by prime level
BUNDLED_ETA = {2: {1: 8, 2: 8}, 3: {1: 6, 3: 6}, 5: {1: 4, 5: 4}}


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
    """"re,im" -> a point, each part rounded once to prec_bits bits, to
    nearest with ties to even."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise InputError("tau must be re,im")
    try:
        re, im = (round_bits(Fraction(p), prec_bits) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad tau %r" % text) from exc
    if im <= 0:
        raise InputError("tau must have positive imaginary part")
    s = max(re.denominator, im.denominator).bit_length() - 1
    return BigComplex(int(re * 2**s), int(im * 2**s), 0, -s)


def _default_prec():
    try:
        return int(os.environ.get("MTV_PREC_BITS", DEFAULT_PREC_BITS))
    except ValueError as exc:
        raise InputError("MTV_PREC_BITS must be an integer") from exc


def _eta_for(level, eta_text):
    if eta_text is not None:
        return parse_eta(eta_text)
    if level in BUNDLED_ETA:
        return EtaQuotientSpec(BUNDLED_ETA[level])
    raise InputError("no bundled cusp form at level %d; pass --eta explicitly" % level)


def _emit(doc):
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_newforms(args):
    k = args.weight
    orbit_set = newform_basis_level1(k, args.order)
    orbits = []
    for nf in orbit_set.orbits:
        orbits.append({
            "degree": nf.degree,
            "hecke_minpoly": nf.modulus.serialize(),
            "coefficients": [format_exact(nf.a(n)) for n in range(min(args.order, 16) + 1)],
            "totally_real": nf.field.is_totally_real(),
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
    spec = _eta_for(args.level, args.eta)
    res = verify_theorem(args.level, spec, args.eis_weight, args.power,
                         order=args.order)
    _emit(res.to_dict())
    return 0


def cmd_corollary(args):
    spec = _eta_for(args.level, args.eta)
    curve = parse_curve(args.curve)
    res = verify_corollary(args.level, spec, args.eis_weight, args.power,
                           curve, order=args.order, prec_bits=args.prec)
    _emit(res.to_dict())
    return 0


def cmd_phi(args):
    spec = _eta_for(args.level, args.eta)
    sym = phi(args.level, spec, args.eis_weight, args.power, args.order)
    doc = {
        "level": args.level,
        "eta": spec.serialize(),
        "eisenstein_weight": args.eis_weight,
        "weight": sym[0].weight,
        "degree": len(sym),
        "symmetric": [{"index": i, "weight": s.weight,
                       "head": [format_rational(c) for c in s.coeffs[:10]]}
                      for i, s in enumerate(sym, start=1)],
    }
    if args.curve:
        curve = parse_curve(args.curve)
        phiE = specialize_phi(sym, curve)
        irr, factors = condition_a(phiE)
        doc["specialized"] = {
            "curve": curve.serialize(),
            "polynomial": phiE.serialize(),
            "irreducible": irr,
            "factors": [{"poly": g_.serialize(), "multiplicity": m} for g_, m in factors],
        }
    _emit(doc)
    return 0


def cmd_oracle(args):
    tau = parse_tau(args.tau, args.prec)
    closed, lat = eisenstein_oracle(args.eis_weight, args.level, tau, args.bound,
                                    args.series_order, args.prec)
    _emit({
        "weight": args.eis_weight,
        "level": args.level,
        "tau": args.tau,
        "bound": args.bound,
        "closed_form": closed.serialize(),
        "lattice_sum": lat.serialize(),
        "difference": format_decimal(closed.distance(lat), 12),
        "certified_error_sum": format_decimal(closed.err + lat.err, 8, up=True),
    })
    return 0


def cmd_specialize(args):
    curve = parse_curve(args.curve)
    pair = tau_from_curve(curve, args.prec)
    names = ("E4", "E6", "Delta")
    rows = []
    for name, bc in zip(names, pair.images):
        # the largest denominator bound B whose separation radius 1/(2 B^2)
        # exceeds the value's error, at most 10^8
        err = bc.err
        B = math.isqrt((err.denominator - 1) // (2 * err.numerator)) if err else 10**8
        try:
            val = format_rational(reconstruct_real(bc, max(1, min(B, 10**8))))
        except (ReconstructionError, VerificationError) as exc:
            val = "unrecognized (%s)" % exc
        rows.append({"series": name, "numeric": bc.serialize(), "rational": val})
    exact = dict(zip(names, map(format_rational, curve.images)))
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


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a malformed request here
        return 3 if exc.code == 2 else exc.code
    try:
        # every subcommand, also one whose exact work reads no precision
        args.prec = check_prec(_default_prec() if args.prec is None else args.prec)
        return args.func(args)
    except MtvError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
