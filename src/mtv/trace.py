"""Trace from prime level to level 1, two independent ways.

Route 1 is the Fricke shortcut: Tr(f) = f + N^(1-w/2) U_N(f|w_N).

Route 2 goes through the transformation polynomial Phi(X) = prod (X - h|gamma)
over the N+1 cosets of the level-N group in the modular group.  Its signed
coefficients s_i are level-1 forms of weight w*i; Newton's identities turn
them into the power sum p_mu = Tr(h^mu).  The two routes share only the
Fricke image of h and must agree coefficient by coefficient, exactly.

The non-identity translates are (h|w_N)((z+j)/N) scaled by N^(-w/2): the
scaled Fricke image read as a series F in t = q^(1/N), with its t^m
coefficient twisted by zeta^(j m), zeta a primitive N-th root of unity.
Summed over j, their m-th powers keep N times the coefficients of F^m at
the powers of t divisible by N, that is N U_N(F^m) in q, and nothing else
(the root-of-unity sieve), so Phi is built over Q without ever forming
Q(zeta).  This is the one place that reads a series in a fractional power
of q.
"""

import math
import operator
from fractions import Fraction

from .errors import InputError, UnsupportedScopeError, VerificationError, require_within
from .linalg import bareiss_solve
from .numfield import nf_charpoly, nf_trace
from .polynomial import elementary_from_power_sums, power_sums_from_elementary
from .qexp import (
    MAX_SERIES_TERMS,
    EtaQuotientSpec,
    QSeries,
    _gate_once,
    _kron_mul,
    _require_eisenstein_weight,
    _require_newform_dim,
    _require_prime,
    _slash_agrees,
    dim_cusp_level1,
    dim_modular_level1,
    eisenstein_prime_level,
    eta_quotient,
    eval_eta_quotient,
    fricke_eisenstein,
    op_U,
)
from .rational import format_exact, format_rational
from .spaces import (
    conductor_of_space,
    level1_coordinates,
    miller_basis,  # noqa: F401 -- perfbench's harness checks its tracer rebinds it here
    newform_basis_level1,
)


# -- Fricke action on eta quotients ---------------------------------------

def fricke_eta_data(spec, level):
    """Partner spec and exact scalar c with (prod eta(dz)^r_d)|w_N = c * partner.

    Scope: every d divides the (prime or 1) level and the scalar must come out
    rational; otherwise UnsupportedScopeError.  The first use of each (spec,
    level) pair is validated numerically against the slash action, reading
    eta from its series (qexp.eval_eta_quotient), and recorded with the
    Eisenstein gates (qexp._gate_once).
    """
    if not isinstance(spec, EtaQuotientSpec):
        spec = EtaQuotientSpec(spec)
    level = int(level)
    if level != 1:
        _require_prime(level)
    partner = spec.fricke_partner(level)
    l = spec.weight
    if l % 2:
        raise UnsupportedScopeError("odd-weight Fricke eta scalar out of scope")
    # c = (-i)^l * N^(-l/2) * prod (N/d)^(r_d/2), and N/d is N for d = 1
    # and 1 for d = N: the N-exponent is -l/2, plus r_1/2 when N > 1
    nexp = Fraction(-l, 2)
    if level > 1:
        nexp += Fraction(dict(spec.pairs).get(1, 0), 2)
    if nexp.denominator != 1:
        raise UnsupportedScopeError("irrational Fricke eta scalar")
    scalar = Fraction((-1) ** (l // 2)) * Fraction(level) ** int(nexp)
    _gate_once((spec.pairs, level, "eta"), _check_fricke_eta, spec, partner, scalar, level, l)
    return partner, scalar


def _check_fricke_eta(spec, partner, scalar, level, weight):
    # at tau = i/m, m = isqrt(N), near the fixed point i/sqrt(N) of w_N, the
    # slash side reads spec at -1/(N tau) = i m/N, and both sides have Im
    # about 1/sqrt(N); each side is read from eta's own series
    f = lambda t: eval_eta_quotient(spec, t, 160)  # noqa: E731
    g = lambda t: eval_eta_quotient(partner, t, 160)  # noqa: E731
    m = math.isqrt(level)
    if not _slash_agrees(f, g, scalar, weight, level, (0, Fraction(1, m)), 160):
        raise VerificationError(
            "Fricke eta scalar %s fails the numeric slash check for %r at level %d"
            % (scalar, spec, level)
        )


def product_inputs(level, eta_spec, eis_weight, order):
    """h = (eta quotient) * (Eisenstein row) and its Fricke image h|w_N.

    h|w_N is known through q^T_in, T_in = N*order + 8, and h through
    q^(T_in // N): route 1 reads the Fricke image through U_N and route 2
    as a series in t = q^(1/N), so both reach q^(T_in // N) and read h no
    further.  An eta quotient that is its own Fricke partner is expanded
    once, at T_in.
    """
    spec = eta_spec if isinstance(eta_spec, EtaQuotientSpec) else EtaQuotientSpec(eta_spec)
    T_in = level * order + 8
    T_h = T_in // level
    partner, scalar = fricke_eta_data(spec, level)
    gfr = eta_quotient(partner, T_in, level=level)
    g = gfr.truncate(T_h) if partner == spec else eta_quotient(spec, T_h, level=level)
    E = eisenstein_prime_level(eis_weight, level, T_h)
    Efr = fricke_eisenstein(eis_weight, level, T_in)
    return g * E, gfr.scale(scalar) * Efr


# -- the size of a request ------------------------------------------------

# cap on the Miller dimension d = dim M_((N + 1) W) of the top s_(N+1) of
# Phi(h), h of weight W: that basis and its inputs set Phi's cost.  From the
# CLI on a 2-vCPU VM with CPython 3.11, phi --order 8 takes 3.2 s at level 2
# power 22 (d = 67, the most the cusp-dimension cap admits there), 1.9 s at
# level 5 power 16 (d = 65) and 3.4 s at power 17 (d = 69); theorem --level 5
# --eis-weight 264 (d = 135) took 83 s.
MAX_PHI_MILLER_DIM = 67

# cap on route 2's work at level N and input order T, counted as N^2 T: it
# forms about N/2 powers of the Fricke image, each N T + 8 long, and O(N^2)
# Newton products of length T, and its time grows like (N^2 T)^1.5.  On the
# same VM, phi with eta(z)^2 eta(N z)^2 and E_4 at its least order takes
# 1.7 s at level 47 (N^2 T = 53,016), 3.9 s at 59 (104,430), 9.1 s at 71
# (181,476), 23 s at 83 (289,338) and 86 s at 107 (618,246).
MAX_ROUTE2_WORK = 200000

# cap on the Miller work d K T, K = (N + 1) W the weight of the top s_(N+1):
# the s_i are certified against d Miller rows through q^T whose coefficients
# grow with K, and the Miller cap alone holds at order 8 only, since phi's
# order is order * power.  On the same VM, phi --eis-weight 4 takes 9.9 s at
# level 2 power 22 --order 16 (d K T = 18.7M), 10.0 s at level 3 power 20
# --order 16 (17.2M) and 17 s at level 5 power 16 --order 24 (19.2M); at the
# default --order 32, level 5 power 16 (25.6M) took 34 s and level 2 power
# 22 (37.4M) 44.7 s.
MAX_PHI_MILLER_WORK = 20000000


def _input_order(N, weight, order, lead):
    """The order T >= order of the inputs of Phi(h), h of the given weight at
    prime level N, at which the top s_(N+1) reaches d - lead leads of its
    Miller basis (the s_i reach q^(T + 8 // N)); d, the series length
    N T + 8, N^2 T and d K T are refused past their caps before any work."""
    K = (N + 1) * weight
    d = dim_modular_level1(K)
    require_within(d, MAX_PHI_MILLER_DIM, "the Miller dimension of s_%d, of weight %d,",
                   N + 1, K)
    T = max(order, d - lead)
    require_within(N * T + 8, MAX_SERIES_TERMS, "the series length at level %d, order %d", N, T)
    require_within(N * N * T, MAX_ROUTE2_WORK, "the route-2 work N^2 T at level %d, order %d",
                   N, T)
    require_within(d * K * T, MAX_PHI_MILLER_WORK, "the Miller work d K T of s_%d at order %d",
                   N + 1, T)
    return T


# -- the transformation polynomial ----------------------------------------

def _sieved_product(a, b, step):
    """op_U(a * b, step) for rational series a, b, without forming a * b.

    With the polyphase parts A_r = a[r::step] and B_r alike, the kept
    coefficients are A_0 B_0 + q * sum_(r>=1) A_r B_(step-r): step products
    of the output's length in place of one of step times that length.
    """
    T = min(a.trunc, b.trunc) // step
    x, y = a._num, b._num
    acc = _kron_mul(x[::step], y[::step], T + 1)
    for r in range(1, step):
        acc[1:] = map(operator.add, acc[1:], _kron_mul(x[r::step], y[step - r :: step], T))
    return QSeries._from_ints(acc, a._den * b._den, T, a.weight + b.weight,
                              math.lcm(a.level, b.level))


def transformation_polynomial(h, h_fricke, level):
    """Signed coefficients s_1..s_(N+1) of prod over cosets (X - h|gamma).

    Phi(X) = X^mu - s_1 X^(mu-1) + s_2 X^(mu-2) - ...; each s_i is returned
    as a level-1 rational q-series of weight w*i, certified a level-1 form
    through its whole truncation by one level1_coordinates call, which fails
    loudly naming the first s_i that is not.
    """
    N = _require_prime(level)
    w = h.weight
    if w is None or w % 2:
        raise InputError("transformation polynomial needs even-weight series")
    Tq = h_fricke.trunc // N
    if Tq < 1:
        raise InputError("Fricke image truncated below one full period")
    # base translate as a series in t = q^(1/N); its j-th twist shares all
    # power sums with exponent sieved to multiples of N, so sums over j stay
    # rational: the q^n coefficient of a sum is N times the t^(N n) one
    F = QSeries._from_ints(h_fricke._num[: N * Tq + 1], h_fricke._den * N ** (w // 2),
                           N * Tq, w, N)
    # F^m at full length for m <= ceil(N/2); past that only the powers of t
    # divisible by N in F^top * F^(m - top) are read, so only they are formed
    top = (N + 1) // 2
    pows = [F]
    while len(pows) < top:
        pows.append(pows[-1] * F)
    qs = [op_U(p, N).scale(N) for p in pows]
    for m in range(top + 1, N + 1):
        qs.append(_sieved_product(pows[-1], pows[m - top - 1], N).scale(N))
    es = elementary_from_power_sums(qs)
    hT = h.truncate(min(h.trunc, Tq))
    sym = []
    for i in range(1, N + 2):
        ei = es[i - 1] if i <= N else None
        prev = es[i - 2] if i >= 2 else None
        term = hT if prev is None else hT * prev
        si = term if ei is None else ei + term
        sym.append(si)
    for i, si in enumerate(sym, start=1):
        if si.weight != w * i:
            raise VerificationError("weight bookkeeping failed for s_%d" % i)
    try:
        level1_coordinates(sym)
    except VerificationError as exc:
        if not hasattr(exc, "index"):
            raise
        i = exc.index + 1
        raise VerificationError(
            "s_%d is not a level-1 form of weight %d: %s" % (i, w * i, exc)
        ) from exc
    return sym


def phi(level, eta_pairs, eis_weight, power=1, order=32):
    """The signed coefficients s_1..s_(N+1) of Phi(h^power) for
    h = (eta quotient) * (Eisenstein row) at prime level N.  The inputs
    reach order * power, raised only as far as the top s_(N+1) needs, so a
    longer order builds the same series; every cap refuses before any."""
    power, order = int(power), int(order)
    if power < 1:
        raise InputError("power must be >= 1")
    if order < 0:
        raise InputError("order must be nonnegative")
    eis_weight = _require_eisenstein_weight(eis_weight)
    N = _require_prime(level)
    spec = eta_pairs if isinstance(eta_pairs, EtaQuotientSpec) else EtaQuotientSpec(eta_pairs)
    # h^power has the weight whose cusp dimension verify_theorem caps
    W = (spec.weight + eis_weight) * power
    _require_newform_dim(W)
    order = _input_order(N, W, order * power, 1 + 8 // N)
    h, hfr = product_inputs(N, spec, eis_weight, order)
    if power != 1:
        h, hfr = h ** power, hfr ** power
    return transformation_polynomial(h, hfr, N)


# -- traces ----------------------------------------------------------------

def trace_to_level1(f, f_fricke, level, power=1):
    """Tr from prime level of F = f^power: F + N^(1 - w/2) * U_N(F|w_N), exact
    q-series, w the weight of F and F|w_N = (f|w_N)^power.

    For power >= 2, (f|w_N)^power is A * B with B = (f|w_N)^(power // 2),
    and that last product is formed on the exponents U_N reads only
    (_sieved_product with step N); f_fricke must then be rational.
    """
    N = _require_prime(level)
    F = f**power
    w = F.weight
    if w is None or w % 2:
        raise InputError("trace needs an even integer weight")
    if power == 1:
        u = op_U(f_fricke, N)
    else:
        b = f_fricke ** (power // 2)
        u = _sieved_product(b * f_fricke if power % 2 else b, b, N)
    t = F.truncate(min(F.trunc, u.trunc)) + u.scale(Fraction(N) ** (1 - w // 2))
    return t._with_values(t._num, t.trunc, level=1)


def main_constant(weight):
    """c = 3 * 4^(1-w) * (w-2)!, the constant of the trace to level 1."""
    w = int(weight)
    if w < 4 or w % 2:
        raise InputError("constant defined for even weight >= 4")
    return Fraction(3) * Fraction(4) ** (1 - w) * math.factorial(w - 2)


def expand_in_newforms(f, orbit_set):
    """Exact coefficients c_i in f = sum_i Tr_(K_i/Q)(c_i * f_i), one per orbit.

    f must be cuspidal of the orbit set's weight.  level1_coordinates
    certifies f through its whole truncation and gives its Miller cusp
    coordinates y; each orbit f_i is its coordinates C_i over K_i, so the
    c_i solve sum_i Tr(c_i C_i) = y, and the integer solve is checked
    exactly.  The cusp basis form b_k is q^k + O(q^(k+1)), so a residual
    whose first nonzero coordinate is the k-th starts at q^k.
    """
    if f.weight != orbit_set.weight:
        raise InputError("weight mismatch between series and orbit set")
    zero_f = f.coeff(0)
    if zero_f != 0:
        raise VerificationError("series has constant term %s; not cuspidal" % zero_f)
    if orbit_set.dim_cusp == 0:
        if not f.is_zero():
            raise VerificationError(
                "trace should vanish identically (no cusp forms at weight %d)"
                % orbit_set.weight
            )
        return []
    try:
        (y,) = level1_coordinates([f])
    except VerificationError as exc:
        raise VerificationError(
            "newform expansion residual is nonzero first at q^%d" % exc.start
        ) from exc
    fden = f._den
    Y = [v.numerator * (fden // v.denominator) for v in y[1:]]
    # Tr(z * c_ik) = sum_t w_t C_i[k][t] / den_i with w_t = sum_j z_j p_(j+t),
    # where z = sum_j z_j theta^j and p_m = Tr(theta^m); for z = theta^j this
    # is an integer column over den_i, the power sums of a monic integral T_2
    # factor being integers.  Each column is reduced by its content, so the
    # system is as small as the traces Tr(theta^j c_ik) themselves.
    blocks = []
    cols = []
    for nf in orbit_set.orbits:
        ps = nf.field.power_sums()
        d, den = nf.degree, nf.den
        scales = []
        for j in range(d):
            col = [sum(map(operator.mul, ps[j : j + d], row)) for row in nf.rows]
            g = math.gcd(den, *col)
            cols.append([v // g for v in col])
            scales.append(den // g)
        blocks.append((nf, scales))
    # with A X = D Y for the reduced columns, z_c = scale_c X_c / (D * fden)
    A = [list(row) for row in zip(*cols)]
    D, X = bareiss_solve(A, [[v] for v in Y])
    AX = [sum(a * x for a, (x,) in zip(row, X)) for row in A]
    miss = next((k for k, (u, v) in enumerate(zip(AX, Y), start=1) if u != D * v), None)
    if miss is not None:
        raise VerificationError(
            "newform expansion residual is nonzero first at q^%d" % miss
        )
    out = []
    for nf, scales in blocks:
        out.append(nf.element([s * x for s, (x,) in zip(scales, X)], D * fden))
        X = X[len(scales) :]
    return out


class TheoremResult:
    """Everything the level-lowering run produced, exact where it matters."""

    __slots__ = (
        "level", "eta_spec", "eis_weight", "power", "weight_h", "weight_total",
        "order", "route_agree_through", "trace", "constant", "orbit_set",
        "components", "ratios", "conductor", "admissible_levels",
        "single_orbit", "phi_symmetric",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def to_dict(self):
        orbits = []
        for nf, c, xi in zip(self.orbit_set.orbits, self.components, self.ratios):
            cp = nf_charpoly(xi)
            # the norm is the signed constant term of the charpoly
            norm = cp.coeffs[0] if cp.degree % 2 == 0 else -cp.coeffs[0]
            orbits.append({
                "degree": nf.degree,
                "hecke_minpoly": nf.modulus.serialize(),
                "coefficients_head": [format_exact(nf.a(n)) for n in range(8)],
                "component": format_exact(c),
                "ratio": format_exact(xi),
                "ratio_trace": format_rational(nf_trace(xi)),
                "ratio_norm": format_rational(norm),
                "ratio_charpoly": cp.serialize(),
                "totally_real": nf.field.is_totally_real(),
            })
        return {
            "level": self.level,
            "eta": self.eta_spec.serialize(),
            "eisenstein_weight": self.eis_weight,
            "power": self.power,
            "weight": self.weight_total,
            "order": self.order,
            "route_agree_through": self.route_agree_through,
            "trace_head": [format_rational(c) for c in self.trace.coeffs[:12]],
            "constant": format_rational(self.constant),
            "orbits": orbits,
            "orbit_count": len(self.orbit_set.orbits),
            "cusp_dimension": self.orbit_set.dim_cusp,
            "single_orbit": self.single_orbit,
            "conductor": self.conductor,
            "admissible_levels": self.admissible_levels,
        }


def verify_theorem(level, eta_pairs, eis_weight, power, order=64):
    """Run both trace routes for h = (eta quotient) * (Eisenstein row), compare
    exactly, and decompose the trace against the level-1 newform orbits."""
    N = _require_prime(level)
    spec = eta_pairs if isinstance(eta_pairs, EtaQuotientSpec) else EtaQuotientSpec(eta_pairs)
    eis_weight = _require_eisenstein_weight(eis_weight)
    power = int(power)
    if power < 1:
        raise InputError("power must be >= 1")
    order = int(order)
    if order < 8:
        raise InputError("order must be >= 8")
    if spec.leading_exponent < 1 or spec.fricke_partner(N).leading_exponent < 1:
        raise UnsupportedScopeError("eta quotient must vanish at both cusps")
    # the routes must reach the requested order, the validation of the s_i
    # (weights w*i, i <= N+1) the leads of the Miller basis, and the newform
    # expansion its dim S_W unknowns with 8 coefficients to spare
    w = spec.weight + eis_weight
    W = w * power
    _require_newform_dim(W)
    reach = _input_order(N, w, max(order, dim_cusp_level1(W) + 8), 0)
    # both routes reach q^(reach + 8 // N) (product_inputs); the basis comes
    # first, so that its own series cap refuses before any input is built
    orbit_set = newform_basis_level1(W, reach + 8 // N)
    h, hfr = product_inputs(N, spec, eis_weight, reach)

    route1 = trace_to_level1(h, hfr, N, power)
    sym = transformation_polynomial(h, hfr, N)
    route2 = power_sums_from_elementary(sym, power)[power - 1]
    through = min(route1.trunc, route2.trunc)
    if not route1.agrees_through(route2, through):
        raise VerificationError(
            "trace routes disagree within order %d for level %d" % (through, N)
        )

    trace = route1.truncate(through)
    cm = main_constant(W)
    comps = expand_in_newforms(trace, orbit_set)
    ratios = [c / cm for c in comps]
    conductor, admissible = conductor_of_space(W, N)
    return TheoremResult(
        level=N,
        eta_spec=spec,
        eis_weight=eis_weight,
        power=power,
        weight_h=w,
        weight_total=W,
        order=order,
        route_agree_through=through,
        trace=trace,
        constant=cm,
        orbit_set=orbit_set,
        components=comps,
        ratios=ratios,
        conductor=conductor,
        admissible_levels=admissible,
        single_orbit=orbit_set.single_orbit,
        phi_symmetric=sym,
    )
