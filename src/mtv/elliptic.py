"""Elliptic-curve side: period lattice recovery and exact specialization.

A curve y^2 = 4x^3 - g2 x - g3 over Q with nonzero discriminant has a lattice
tau = omega2/omega1 from two real AGMs (Cohen, GTM 138, Alg. 7.4.7) on the
real roots of 4x^3 - g2 x - g3, then certified through E4, E6 and Delta.
j fixes where tau lies: Re tau = 0 for j >= 1728, the edge |Re tau| = 1/2
for j <= 0, the arc |tau| = 1 between; the representative reported is the
one with Re tau >= 0.  Specialization sends E4 -> 12 g2, E6 -> 216 g3,
Delta -> g2^3 - 27 g3^2 after the (2 pi / w2)^k rescaling, which on the
triangular level-1 basis is a ring homomorphism we can apply exactly to any
level-1 form.

The period lattice is computed in integers (fixed-point roots, isqrt AGMs),
trusted there and certified after the fact by three series evaluations
with proven tails, which the numeric specialization then reuses.  Every
numeric value is a BigComplex ball, so no function here loads mpmath.
"""

import math
from fractions import Fraction

from .errors import InputError, PrecisionError, VerificationError
from .numerics import (
    DEFAULT_PREC_BITS,
    BigComplex,
    _ball_root,
    _pi_fixed,
    _point,
    check_prec,
    eval_qseries,
    tail_order,
)
from .numfield import nf_trace
from .polynomial import UniPoly, poly_factor_q
from .qexp import _eisenstein_coeff_bound, eisenstein_level1
from .rational import format_decimal, format_rational, rational_reconstruct
from .spaces import delta_series, dim_modular_level1, level1_coordinates, miller_exponents
from .trace import verify_theorem

# Deligne: |tau(n)| <= d(n) n^(11/2) <= 2 n^6, a proven tail for Delta
_DELTA_BOUND = (Fraction(2), 6)


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

    @property
    def images(self):
        """The images 12 g2, 216 g3 and the discriminant of E4, E6 and Delta."""
        return 12 * self.g2, 216 * self.g3, self.discriminant

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

def _level1_values(tau, bits, weights=(4, 6, 12)):
    """E4, E6 and Delta (E_k for k in weights, Delta for 12) at tau as balls
    of `bits` bits, each through the least order whose proven tail lies 64
    bits below them (tail_order), and the largest of those orders."""
    y = _point(tau)[1]
    values, orders = [], []
    for k in weights:
        bound = _DELTA_BOUND if k == 12 else _eisenstein_coeff_bound(k, 1)
        T = tail_order(bound, y, bits + 64)
        ser = delta_series(T) if k == 12 else eisenstein_level1(k, T)
        values.append(eval_qseries(ser, tau, bits, bound))
        orders.append(T)
    return values, max(orders)


def j_invariant_numeric(tau, prec_bits=DEFAULT_PREC_BITS):
    """j(tau) = E4^3/Delta as a BigComplex, its radius proven."""
    y = _point(tau)[1]
    if y <= 0:
        raise InputError("tau must be in the upper half plane")
    (e4, dd), _ = _level1_values(tau, prec_bits + 16, (4, 12))
    return e4 * e4 * e4 / dd  # a PrecisionError when Delta's disc holds 0


class CurvePair:
    """A curve with its lattice point tau, scaling s = 2 pi / w2, and the
    certified balls s^4 E4(tau), s^6 E6(tau), s^12 Delta(tau) as images;
    order is the largest order of those three series, at least 2, so that
    series built at it span M_12 for specialize_numeric's certificate."""

    __slots__ = ("curve", "tau", "scale", "omega2", "prec_bits", "order", "images")

    def __init__(self, curve, tau, scale, prec_bits, order, images):
        self.curve = curve
        self.tau = tau
        self.scale = scale
        # 2 pi, within 4 units of 2^-(prec + 32)
        self.omega2 = BigComplex(_pi_fixed(prec_bits + 32) << 1, 0, 4, -prec_bits - 32) / scale
        self.prec_bits = prec_bits
        self.order = order
        self.images = images

    def specialize_numeric(self, series, weight):
        """(2 pi / w2)^weight * series(tau) as a BigComplex: the exact path's
        homomorphism (_specialize_all) on the images."""
        if weight != series.weight:
            raise InputError("weight %s is not the series' weight %s" % (weight, series.weight))
        return _specialize_all([series], self.images)[0]

    def serialize(self):
        return {
            "tau": self.tau.text(30),
            "omega2": self.omega2.text(30),
            "scale": self.scale.text(30),
            "prec_bits": self.prec_bits,
        }


def _agm(a, b):
    """The AGM of two positive integers in one fixed-point scale, by isqrt."""
    while abs(a - b) > 1:
        a, b = (a + b) >> 1, math.isqrt(a * b)
    return a


def _period_tau(curve, bits):
    """tau = omega2/omega1 from the real AGM (Cohen, GTM 138, Alg. 7.4.7) at
    `bits` fractional bits, on the boundary of the fundamental domain with
    Re tau >= 0 (j not 0, 1728); tau depends on g3 only through g3^2.

    x -> 2^k x brings the real roots of p = 4x^3 - g2 x - g3 below 2.  The
    exact discriminant, 16 prod (e_i - e_j)^2, sets guard bits g that cover
    every root gap and the squared imaginary part of a complex pair.  The
    largest root comes from Newton's rule in fixed point from x = 2, where p
    increases and is convex, so the steps fall to it; the smallest is minus
    the largest of -p(-x).  For disc > 0 the AGMs run on the root
    differences; for disc < 0 on b = |e1 - e2|, 2b + a and 2b - a =
    -disc / (16 b^4 (2b + a)), a = 3 e1, which does not cancel.
    """
    g2, g3 = curve.g2, abs(curve.g3)
    lg = lambda v: abs(v.numerator).bit_length() - v.denominator.bit_length()  # noqa: E731
    k = max((lg(g2) + 1) // 2, (lg(g3) + 2) // 3)
    g2, g3 = g2 / Fraction(4) ** k, g3 / Fraction(8) ** k
    disc = g2**3 - 27 * g3**2
    g = 16 + max(0, -lg(disc))
    F = bits + g
    D = math.lcm(g2.denominator, g3.denominator)
    A1, A0 = int(g2 * D), int(g3 * D)

    def top_root(A0):  # the largest root of D p in units of 2^-F
        X, f0 = 2, 0
        for f in (min(F, g + 64), F):  # the slow first steps at g + 64 bits
            X <<= f - f0
            for _ in range(4 * f):
                step = ((4 * D * X * X - (A1 << 2 * f)) * X - (A0 << 3 * f)) // (
                    12 * D * X * X - (A1 << 2 * f))
                X -= step
                if abs(step) <= 1:
                    break
            f0 = f
        return X

    e1 = top_root(A0)
    if disc > 0:  # j > 1728: a rectangular lattice, Re tau = 0
        e3 = -top_root(-A0)
        r = math.isqrt((e1 - e3) << F)
        m1 = _agm(r, math.isqrt((2 * e1 + e3) << F))
        m2 = _agm(r, math.isqrt((-e1 - 2 * e3) << F))
        return BigComplex(0, (max(m1, m2) << bits) // min(m1, m2), 0, -bits)
    # a rhombic lattice; Cohen's tau is -1/2 + i m1 / (2 m2)
    B = math.isqrt(3 * e1 * e1 - (A1 << 2 * F) // (4 * D))
    S = 2 * B + 3 * e1
    U = (-disc.numerator << 6 * F) // (16 * disc.denominator * B**4 * S)
    r = 2 * math.isqrt(B << F)
    m1, m2 = _agm(r, math.isqrt(S << F)), _agm(r, math.isqrt(U << F))
    if curve.j < 0:  # the edge
        return BigComplex(1 << (bits - 1), (max(m1, m2) << bits) // (2 * min(m1, m2)), 0, -bits)
    # the arc, through the basis of the rhombus' two sides
    n = m1 * m1 + m2 * m2
    return BigComplex((abs(m1 * m1 - m2 * m2) << bits) // n, (2 * m1 * m2 << bits) // n, 0, -bits)


def tau_from_curve(curve, prec_bits=DEFAULT_PREC_BITS):
    """The period-lattice point tau of the curve and the scale 2 pi / w2.

    tau comes from the real AGM in integers (`_period_tau`), or is
    rho = (1 + sqrt(-3))/2 at j = 0 and i at j = 1728: Re tau = 0 for
    j >= 1728, Re tau = 1/2 for j <= 0, |tau| = 1 between, whatever the
    precision.  The scale is the principal root of 12 g2 / E4(tau) (of
    216 g3 / E6(tau) when g2 = 0), a ball with a proven radius.  Three
    certificates through the E4, E6 and Delta series at tau, with proven
    tails, are the proof: |E4^3 - j Delta| is small relative to |Delta|,
    the scale's branch reproduces g3, and scale^12 Delta(tau) the
    discriminant, so scale^4 E4(tau) = 12 g2 and scale^6 E6(tau) = 216 g3
    to the certified working precision.
    """
    prec_bits = check_prec(prec_bits)
    W = prec_bits + 32
    jv = curve.j
    if jv == 0:
        tau = BigComplex(1 << W, math.isqrt(3 << 2 * W), 0, -W - 1)
    elif jv == 1728:
        tau = BigComplex(0, 1)
    else:
        tau = _period_tau(curve, W)
    (e4, e6, dd), T = _level1_values(tau, prec_bits + 16)
    # certify |E4^3 - j Delta| relative to |Delta|
    residual = (e4 * e4 * e4 - dd * jv).mag()
    gate = dd.mag() * (1 + abs(jv)) / 2 ** (prec_bits // 2)
    if residual > gate:
        raise PrecisionError("j-inversion certificate failed: residual %s vs gate %s"
                             % (format_decimal(residual, 8), format_decimal(gate, 8)))
    tol = lambda v: (1 + abs(v)) / 2 ** (prec_bits // 3)  # noqa: E731
    # the scale, and its branch: times i when that reproduces g3 better
    k, c, e = (4, 12 * curve.g2, e4) if curve.g2 else (6, 216 * curve.g3, e6)
    scale = BigComplex(*_ball_root((c / e)._ball(), k, prec_bits + 16))
    if curve.g2 and curve.g3:
        got = scale**6 * e6 / 216
        if got.distance(curve.g3) > got.distance(-curve.g3):
            scale = BigComplex(-scale.y, scale.x, scale.r, scale.e)
    images = (scale**4 * e4, scale**6 * e6, scale**12 * dd)
    # the certificates: the branch reproduces g3, the lattice the discriminant
    if curve.g2 and curve.g3 and (images[1] / 216 - curve.g3).mag() > tol(curve.g3):
        raise PrecisionError("period branch fix failed on g3")
    if (images[2] - curve.discriminant).mag() > tol(curve.discriminant):
        raise PrecisionError("lattice certificate failed on the discriminant")
    return CurvePair(curve, tau, scale, prec_bits, max(2, T), images)


# -- exact specialization ----------------------------------------------------

def _specialize_coordinates(weight, coords, images):
    """sum_j coords[j-1] h_j at images = (A, B, D): E4 -> A, E6 -> B and
    Delta -> D.  The value lies where the coordinates and images do: in Q,
    in an orbit's Hecke field, or in a ball, rounded only where a term is."""
    d, a, b = miller_exponents(weight)
    A, B, D = images
    terms = [c * (A**a * B ** (b + 2 * (d - j)) * D ** (j - 1))
             for j, c in enumerate(coords, start=1) if c]
    return sum(terms[1:], terms[0]) if terms else 0 * A


def _specialize_all(forms, images):
    """Specialized values of rational level-1 forms of even weight at
    images, CurveQ's (exact) or CurvePair's (balls).  One level1_coordinates
    call certifies every form, refusing one outside M_k, and gives the
    coordinates that _specialize_coordinates maps to a value.
    """
    for f in forms:
        k = f.weight
        if k is None or k < 0 or k % 2:
            raise InputError("specialization needs an even nonnegative weight")
        d = dim_modular_level1(k)
        if f.trunc < d:
            raise InputError("series order %d below basis length %d" % (f.trunc, d))
    return [_specialize_coordinates(f.weight, coords, images)
            for f, coords in zip(forms, level1_coordinates(forms))]


def specialize_level1_exact(f, curve):
    """Exact specialized value of a level-1 form of even weight, certified
    level 1 through its whole truncation."""
    return _specialize_all([f], curve.images)[0]


def specialize_phi(symmetric, curve):
    """Specialized transformation polynomial X^mu - s1' X^(mu-1) + ... exactly."""
    mu = len(symmetric)
    coeffs = [Fraction(0)] * (mu + 1)
    coeffs[mu] = Fraction(1)
    sign = -1
    for i, v in enumerate(_specialize_all(symmetric, curve.images), start=1):
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
    if abs(bc.imag) > bc.err + Fraction(1, 2**40):
        raise VerificationError("value has a nonreal part %s beyond its error bound"
                                % format_decimal(bc.imag, 8))
    return rational_reconstruct(bc.real, denom_bound, err=bc.err)


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
    The precision cap and every cap of verify_theorem refuse before any work.
    """
    check_prec(prec_bits)
    res = verify_theorem(level, eta_pairs, eis_weight, power, order=order)
    lhs = specialize_level1_exact(res.trace, curve)
    acc = Fraction(0)
    for nf, xi in zip(res.orbit_set.orbits, res.ratios):
        sv = _specialize_coordinates(nf.weight, nf.coordinates(), curve.images)
        acc += nf_trace(xi * sv)
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
