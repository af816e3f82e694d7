"""Elliptic-curve side: period lattice recovery and exact specialization.

A curve y^2 = 4x^3 - g2 x - g3 over Q with nonzero discriminant has a lattice
tau = omega2/omega1 from two real AGMs (Cohen, GTM 138, Alg. 7.4.7) on the
closed-form roots of x^3 - (g2/4) x - g3/4, in forms that do not cancel near
a singular curve (so with no guard bits), then certified through E4, E6 and
Delta.  j fixes where tau lies: Re tau = 0 for j >= 1728, the edge
|Re tau| = 1/2 for j <= 0, the arc |tau| = 1 between; the representative
reported is the one with Re tau >= 0.  Specialization sends
E4 -> 12 g2, E6 -> 216 g3, Delta -> g2^3 - 27 g3^2 after the (2 pi / w2)^k
rescaling, which on the triangular level-1 basis is a ring homomorphism we
can apply exactly to any level-1 form.
"""

import operator
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

from .errors import InputError, PrecisionError, VerificationError
from .numerics import BigComplex, eval_qseries, to_mpc, to_mpf
from .numfield import nf_trace
from .polynomial import UniPoly, _power, poly_factor_q
from .qexp import eisenstein_level1
from .rational import exact_fraction, format_rational, rational_reconstruct
from .spaces import delta_series, dim_modular_level1, level1_coordinates, miller_exponents
from .trace import verify_theorem


class CurveQ:
    """y^2 = 4x^3 - g2 x - g3 with rational invariants and nonzero discriminant."""

    __slots__ = ("g2", "g3")

    def __init__(self, g2, g3):
        self.g2 = Fraction(g2)
        self.g3 = Fraction(g3)
        if self.discriminant == 0:
            raise InputError("singular curve: g2^3 - 27 g3^2 = 0")

    @property
    def discriminant(self):
        return self.g2**3 - 27 * self.g3**2

    @property
    def j(self):
        return 1728 * self.g2**3 / self.discriminant

    @classmethod
    def from_ainvs(cls, a1, a2, a3, a4, a6):
        """Canonicalize a long Weierstrass model to (g2, g3)."""
        a1, a2, a3, a4, a6 = (Fraction(v) for v in (a1, a2, a3, a4, a6))
        b2 = a1**2 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3**2 + 4 * a6
        c4 = b2**2 - 24 * b4
        c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
        return cls(c4 / 12, c6 / 216)

    def serialize(self):
        return {
            "g2": format_rational(self.g2),
            "g3": format_rational(self.g3),
            "discriminant": format_rational(self.discriminant),
            "j": format_rational(self.j),
        }

    def __repr__(self):
        return "CurveQ(g2=%s, g3=%s)" % (self.g2, self.g3)


# -- numeric lattice -------------------------------------------------------

def _level1_series(trunc):
    """E4, E6 and Delta through q^trunc, read as prefixes of the series store."""
    return eisenstein_level1(4, trunc), eisenstein_level1(6, trunc), delta_series(trunc)


def _order_for(im_tau, prec_bits):
    # |q|^T = exp(-2 pi Im(tau) T) must undercut 2^-prec with headroom
    T = int(0.80 * prec_bits / im_tau) + 24
    return max(48, T)


def j_invariant_numeric(tau, prec_bits=256):
    """j(tau) = E4^3/Delta as a BigComplex with the series tail accounted."""
    tau = to_mpc(tau)
    if tau.imag <= 0:
        raise InputError("tau must be in the upper half plane")
    T = _order_for(float(tau.imag), prec_bits)
    E4, D = eisenstein_level1(4, T), delta_series(T)
    with mpmath.workprec(prec_bits + 16):
        e4 = eval_qseries(E4, tau, prec_bits + 16)
        dd = eval_qseries(D, tau, prec_bits + 16)
        num = e4 * e4 * e4
        dv = dd.value
        if abs(dv) <= 2 * dd.err:
            raise PrecisionError("discriminant series vanishes to working precision")
        val = num.value / dv
        # |A/B| error: (errA + |A/B| errB) / (|B| - errB), plus the roundings of
        # two products and a quotient (each component within 2^(-15-prec) of
        # its size), under 3.2 * 2^(-15-prec) |val| in all
        err = (num.err + abs(val) * dd.err) / (abs(dv) - dd.err)
        err += abs(val) * mpf(2) ** (-13 - prec_bits)
        return BigComplex(val, err)


class CurvePair:
    """A curve together with its lattice point tau and scaling 2 pi / w2."""

    __slots__ = ("curve", "tau", "scale", "omega2", "prec_bits", "order")

    def __init__(self, curve, tau, scale, prec_bits, order):
        self.curve = curve
        self.tau = tau
        self.scale = scale
        self.omega2 = 2 * mpmath.pi / scale
        self.prec_bits = prec_bits
        self.order = order

    def scale_bc(self):
        s = abs(self.scale)
        return BigComplex(self.scale, s * mpf(2) ** (-self.prec_bits + 8))

    def specialize_numeric(self, series, weight):
        """(2 pi / w2)^weight * series(tau) as a BigComplex."""
        with mpmath.workprec(self.prec_bits + 16):
            v = eval_qseries(series, self.tau, self.prec_bits + 16)
            s = self.scale_bc()
            p = int(weight)
            acc = _power(s, p, operator.mul) if p else BigComplex(mpc(1), mpf(0))
            return acc * v

    def serialize(self):
        return {
            "tau": mpmath.nstr(self.tau, 30),
            "omega2": mpmath.nstr(self.omega2, 30),
            "scale": mpmath.nstr(self.scale, 30),
            "prec_bits": self.prec_bits,
        }


def _period_tau(curve):
    """tau = omega2/omega1 from the real AGM at the working precision, on
    the boundary of the fundamental domain with Re tau >= 0 (j not 0, 1728).

    Cohen, GTM 138, Alg. 7.4.7, on the roots of x^3 - (g2/4) x - g3/4 in
    closed form: for disc > 0 their differences, sqrt(g2) times the sines of
    the trigonometric form, and for disc < 0 the real root e1 by real
    Cardano.  tau depends on g3 only through g3^2, so both forms run at
    |g3|.  There no step cancels below the size of the roots: the smallest
    difference is the sine of an angle from atan2, and 2b - a is
    -disc / (16 b^4 (2b + a)).  So a near-singular curve needs no guard
    bits: tau holds the working precision at |disc| / g2^3 = 2e-200 as at 1.
    """
    g2, g3, disc = to_mpf(curve.g2), to_mpf(abs(curve.g3)), curve.discriminant
    sqrt, agm = mpmath.sqrt, mpmath.agm
    if disc > 0:  # j > 1728: a rectangular lattice, Re tau = 0
        phi = mpmath.atan2(sqrt(to_mpf(disc)), sqrt(27) * g3) / 3
        third = mpmath.pi / 3
        r = sqrt(mpmath.sin(2 * third - phi))  # sqrt(e1 - e3), scaled
        m1 = agm(r, sqrt(mpmath.sin(third - phi)))
        m2 = agm(r, sqrt(mpmath.sin(phi)))
        return mpc(0, max(m1, m2) / min(m1, m2))
    # a rhombic lattice; Cohen's tau is -1/2 + i m1 / (2 m2)
    u = mpmath.cbrt(g3 / 8 + sqrt(to_mpf(-disc / 1728)))
    e1 = u + g2 / (12 * u)
    b = sqrt(3 * e1**2 - g2 / 4)
    s = 2 * b + 3 * e1  # 2b + a
    r = 2 * sqrt(b)
    m1 = agm(r, sqrt(s))
    m2 = agm(r, sqrt(to_mpf(-disc) / (16 * b**4 * s)))
    if curve.j < 0:  # the edge
        return mpc(0.5, max(m1, m2) / (2 * min(m1, m2)))
    # the arc, through the basis of the rhombus' two sides
    n = m1**2 + m2**2
    return mpc(abs(m1**2 - m2**2) / n, 2 * m1 * m2 / n)


def tau_from_curve(curve, prec_bits=256):
    """The period-lattice point tau of the curve and the scale 2 pi / w2.

    tau comes in closed form from the real AGM (`_period_tau`), or is
    rho = (1 + sqrt(-3))/2 at j = 0 and i at j = 1728.  It lies on the
    boundary of the fundamental domain, with Re tau >= 0: Re tau = 0 for
    j >= 1728, Re tau = 1/2 for j <= 0, |tau| = 1 between, whatever the
    precision.  Three certificates, all through the E4, E6 and Delta
    series at tau, are the proof: |E4^3 - j Delta| is small relative to
    |Delta|, the scale's branch reproduces g3, and scale^12 Delta(tau)
    reproduces the discriminant.  So the returned pair satisfies
    scale^4 E4(tau) = 12 g2 and scale^6 E6(tau) = 216 g3 to the certified
    working precision.
    """
    prec_bits = int(prec_bits)
    if prec_bits < 64:
        raise InputError("precision below 64 bits")
    jv = curve.j
    with mpmath.workprec(prec_bits + 32):
        if jv == 0:
            tau = (1 + mpmath.sqrt(-3)) / 2
        elif jv == 1728:
            tau = mpc(0, 1)
        else:
            tau = _period_tau(curve)
        T = _order_for(float(tau.imag), prec_bits)
        E4s, E6s, Ds = _level1_series(T)
        # certify |E4^3 - j Delta| relative to |Delta|
        e4 = eval_qseries(E4s, tau, prec_bits + 16)
        e6 = eval_qseries(E6s, tau, prec_bits + 16)
        dd = eval_qseries(Ds, tau, prec_bits + 16)
        lhs = e4 * e4 * e4
        rhs = dd * BigComplex(to_mpc(jv), mpf(0))
        diff = lhs - rhs
        gate = (abs(dd.value) + dd.err) * (1 + abs(to_mpc(jv))) * mpf(2) ** (
            -(prec_bits // 2)
        )
        if abs(diff.value) + diff.err > gate:
            raise PrecisionError(
                "j-inversion certificate failed: residual %s vs gate %s"
                % (mpmath.nstr(abs(diff.value) + diff.err, 8), mpmath.nstr(gate, 8))
            )
        # period branch
        if curve.g2 != 0:
            scale = (12 * to_mpc(curve.g2) / e4.value) ** Fraction(1, 4)
            if curve.g3 != 0:
                want = to_mpc(curve.g3)
                got = scale**6 * e6.value / 216
                if abs(got - want) > abs(got + want):
                    scale *= mpc(0, 1)
                got = scale**6 * e6.value / 216
                tol = mpf(2) ** (-(prec_bits // 3)) * (1 + abs(want))
                if abs(got - want) > tol:
                    raise PrecisionError("period branch fix failed on g3")
        else:
            scale = (216 * to_mpc(curve.g3) / e6.value) ** Fraction(1, 6)
        # final lattice certificate through the discriminant
        dE = to_mpc(curve.discriminant)
        got = scale**12 * dd.value
        tol = mpf(2) ** (-(prec_bits // 3)) * (1 + abs(dE))
        if abs(got - dE) > tol:
            raise PrecisionError("lattice certificate failed on the discriminant")
        return CurvePair(curve, tau, scale, prec_bits, T)


# -- exact specialization ----------------------------------------------------

def _specialize_all(forms, curve):
    """Exact specialized values of level-1 forms of even weight.

    One level1_coordinates call certifies every form and gives its
    coordinates in the triangular basis; the basis monomials map through
    E4 -> 12 g2, E6 -> 216 g3, Delta -> discriminant.  Coefficients may lie
    in a number field; the value then lies in the same field.
    """
    for f in forms:
        k = f.weight
        if k is None or k < 0 or k % 2:
            raise InputError("specialization needs an even nonnegative weight")
        d = dim_modular_level1(k)
        if f.trunc < d:
            raise InputError("series order %d below basis length %d" % (f.trunc, d))
    A = 12 * curve.g2
    B = 216 * curve.g3
    D = curve.discriminant
    values = []
    for f, coords in zip(forms, level1_coordinates(forms)):
        d, a, b = miller_exponents(f.weight)
        total = None
        for j in range(1, d + 1):
            mono = A**a * B ** (b + 2 * (d - j)) * D ** (j - 1)
            term = coords[j - 1] * mono
            total = term if total is None else total + term
        values.append(total)
    return values


def specialize_level1_exact(f, curve):
    """Exact specialized value of a level-1 form of even weight, certified
    level 1 through its whole truncation."""
    return _specialize_all([f], curve)[0]


def specialize_phi(symmetric, curve):
    """Specialized transformation polynomial X^mu - s1' X^(mu-1) + ... exactly."""
    mu = len(symmetric)
    coeffs = [Fraction(0)] * (mu + 1)
    coeffs[mu] = Fraction(1)
    sign = -1
    for i, v in enumerate(_specialize_all(symmetric, curve), start=1):
        if not isinstance(v, Fraction):
            raise InputError("transformation coefficients must be rational")
        coeffs[mu - i] = sign * v
        sign = -sign
    return UniPoly(coeffs)


def condition_a(poly):
    """Irreducibility over Q, with the certified factorization as evidence."""
    factors = poly_factor_q(poly)
    irreducible = (
        len(factors) == 1
        and factors[0][1] == 1
        and factors[0][0].degree == poly.degree
    )
    return irreducible, factors


def reconstruct_real(bc, denom_bound=10**6):
    """Recognize a certified BigComplex as a rational; error if ambiguous."""
    if abs(bc.value.imag) > bc.err + mpf(2) ** -40:
        raise VerificationError(
            "value has a nonreal part %s beyond its error bound"
            % mpmath.nstr(bc.value.imag, 8)
        )
    x = exact_fraction(bc.value.real)
    return rational_reconstruct(x, denom_bound, err=exact_fraction(mpf(bc.err)))


# -- the specialization corollary -------------------------------------------

class CorollaryResult:
    __slots__ = (
        "theorem", "curve", "lhs", "rhs", "equal", "condition_a",
        "phi_factor_degrees", "interpretation", "condition_b", "pair",
        "j_level_tau", "missing",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def to_dict(self):
        d = {
            "curve": self.curve.serialize(),
            "specialized_trace_lhs": format_rational(self.lhs),
            "newform_side_rhs": format_rational(self.rhs),
            "identity_holds": self.equal,
            "condition_a_irreducible": self.condition_a,
            "phi_factor_degrees": self.phi_factor_degrees,
            "interpretation": self.interpretation,
            "condition_b": self.condition_b,
            "theorem": self.theorem.to_dict(),
        }
        if self.pair is not None:
            d["lattice"] = self.pair.serialize()
        if self.j_level_tau is not None:
            d["j_at_level_tau"] = self.j_level_tau.serialize(30)
        if self.missing:
            d["missing_sections"] = self.missing
        return d


def verify_corollary(level, eta_pairs, eis_weight, power, curve, order=64,
                     prec_bits=192):
    """Exact check that the specialized trace equals the newform-side sum.

    LHS: specialize Tr(h^power) through the basis homomorphism.
    RHS: c * sum_i Tr_(K_i/Q)(ratio_i * specialize(f_i)).
    Both sides are rational numbers; they must be equal, not just close.
    """
    res = verify_theorem(level, eta_pairs, eis_weight, power, order=order)
    lhs = specialize_level1_exact(res.trace, curve)
    acc = Fraction(0)
    for nf, xi in zip(res.orbit_set.orbits, res.ratios):
        sv = specialize_level1_exact(nf.qexp, curve)
        acc += nf_trace(xi * sv) if nf.field is not None else xi * sv
    rhs = res.constant * acc
    if lhs != rhs:
        raise VerificationError(
            "specialization identity fails: trace side %s vs newform side %s"
            % (format_rational(lhs), format_rational(rhs))
        )
    phiE = specialize_phi(res.phi_symmetric, curve)
    irr, factors = condition_a(phiE)
    degrees = sorted(g.degree for g, m in factors for _ in range(m))
    if irr:
        interpretation = "full strength: specialized polynomial is irreducible"
    else:
        interpretation = (
            "identity holds; specialized polynomial splits, so the field "
            "interpretation degenerates to the factor fields"
        )
    # the numeric sections are optional; a precision failure drops them
    # with its reason instead of failing the exact identity
    pair = None
    jN = None
    missing = {}
    try:
        pair = tau_from_curve(curve, prec_bits)
    except PrecisionError as exc:
        missing["lattice"] = missing["j_at_level_tau"] = str(exc)
    if pair is not None:
        try:
            jN = j_invariant_numeric(pair.tau * level, prec_bits)
        except PrecisionError as exc:
            missing["j_at_level_tau"] = str(exc)
    return CorollaryResult(
        theorem=res,
        curve=curve,
        lhs=lhs,
        rhs=rhs,
        equal=(lhs == rhs),
        condition_a=irr,
        phi_factor_degrees=degrees,
        interpretation=interpretation,
        condition_b="base field is Q, coefficient comparison is exact; nothing further to check",
        pair=pair,
        j_level_tau=jN,
        missing=missing,
    )
