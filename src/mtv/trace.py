"""Trace from prime level to level 1, two independent ways.

Route 1 is the Fricke shortcut: Tr(f) = f + N^(1-w/2) U_N(f|w_N).

Route 2 goes through the transformation polynomial Phi(X) = prod (X - h|gamma)
over the N+1 cosets of the level-N group in the modular group.  Its signed
coefficients s_i are level-1 forms of weight w*i; Newton's identities turn
them into the power sum p_mu = Tr(h^mu).  The two routes share only the
Fricke image of h and must agree coefficient by coefficient, exactly.

The non-identity translates are (h|w_N)((z+j)/N) scaled by N^(-w/2): the
q^(1/N)-series F of the scaled Fricke image with its q^(m/N) coefficient
twisted by zeta^(j m), zeta a primitive N-th root of unity.  Summed over j,
their m-th powers keep N times the integral exponents of F^m and nothing
else (the root-of-unity sieve), so Phi is built over Q without ever
forming Q(zeta).
"""

import math
import operator
from fractions import Fraction

import mpmath
from mpmath import mpc

from .errors import InputError, TruncationError, UnsupportedScopeError, VerificationError
from .linalg import bareiss_solve
from .numerics import eval_qseries, to_mpf
from .numfield import nf_charpoly, nf_trace
from .polynomial import elementary_from_power_sums, power_sums_from_elementary
from .qexp import (
    EtaQuotientSpec,
    QSeries,
    _kron_mul,
    _require_even_weight,
    _require_prime,
    eisenstein_prime_level,
    eta_quotient,
    fricke_eisenstein,
    op_U,
)
from .spaces import (
    _require_newform_dim,
    conductor_of_space,
    dim_cusp_level1,
    dim_modular_level1,
    level1_coordinates,
    miller_basis,  # noqa: F401 -- perfbench's harness checks its tracer rebinds it here
    newform_basis_level1,
)


# -- Fricke action on eta quotients ---------------------------------------

_FRICKE_ETA_OK = set()


def fricke_eta_data(spec, level):
    """Partner spec and exact scalar c with (prod eta(dz)^r_d)|w_N = c * partner.

    Scope: every d divides the (prime or 1) level and the scalar must come out
    rational; otherwise UnsupportedScopeError.  The first use of each (spec,
    level) pair is validated numerically against the slash action at tau = i.
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
    # c = (-i)^l * N^(-l/2) * prod (N/d)^(r_d/2); for prime N the product is
    # N^(r_1/2 + ... over d=1 terms), so track the N-exponent as a fraction
    nexp = Fraction(-l, 2)
    for d, r in spec.pairs:
        nexp += Fraction(r, 2) * _int_log(level, level // d)
    if nexp.denominator != 1:
        raise UnsupportedScopeError("irrational Fricke eta scalar")
    scalar = Fraction((-1) ** (l // 2)) * Fraction(level) ** int(nexp)
    key = (spec.pairs, level)
    if key not in _FRICKE_ETA_OK:
        _check_fricke_eta(spec, partner, scalar, level, l)
        _FRICKE_ETA_OK.add(key)
    return partner, scalar


def _int_log(base, value):
    """Exponent e with base^e = value (base prime or 1, value a power of it)."""
    if value == 1:
        return 0
    e = 0
    while value > 1:
        if value % base:
            raise InputError("%d is not a power of %d" % (value, base))
        value //= base
        e += 1
    return e


def _check_fricke_eta(spec, partner, scalar, level, weight):
    T = 128
    prec = 160
    f = eta_quotient(spec, T)
    g = eta_quotient(partner, T)
    with mpmath.workprec(prec):
        tau = mpc(0, 1)
        w = -1 / (level * tau)
        lhs = eval_qseries(f, w, prec)
        rhs = eval_qseries(g, tau, prec)
        lv = lhs.value * level ** (weight // 2) * (level * tau) ** (-weight)
        rv = rhs.value * to_mpf(scalar)
        tol = lhs.err + rhs.err + to_mpf(Fraction(1, 10**18)) * (1 + abs(lv) + abs(rv))
        if abs(lv - rv) > tol:
            raise VerificationError(
                "Fricke eta scalar %s fails the numeric slash check for %r at level %d"
                % (scalar, spec, level)
            )


def product_inputs(level, eta_spec, eis_weight, order):
    """h = (eta quotient) * (Eisenstein row) and its Fricke image h|w_N.

    h|w_N is known through q^T_in, T_in = N*order + 8, and h through
    q^(T_in // N): both trace routes read the Fricke image on the q^(1/N)
    grid, so they reach q^(T_in // N) and read h no further.  An eta
    quotient that is its own Fricke partner is expanded once, at T_in.
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


# -- the transformation polynomial ----------------------------------------

def _integral_exponent_part(s):
    """Restrict a q^(1/e) expansion to its integral exponents."""
    if s.e == 1:
        return s
    return QSeries._from_ints(s._num[:: s.e], s._den, 1, s.trunc, s.weight, s.level)


def _sieved_product(a, b, step=None):
    """Every step-th coefficient of a * b, for rational series on one q^(1/e) grid.

    With step = e (the default) this is _integral_exponent_part(a * b); with
    integral a, b and step = N it is op_U(a * b, N).  With the polyphase
    parts A_r = a[r::step] and B_r alike, the kept coefficients are
    A_0 B_0 + q * sum_(r>=1) A_r B_(step-r): step products of the output's
    length in place of one of step times that length.
    """
    step = a.e if step is None else step
    T = a.e * min(a.trunc, b.trunc) // step
    x, y = a._num, b._num
    acc = _kron_mul(x[::step], y[::step], T + 1)
    for r in range(1, step):
        acc[1:] = map(operator.add, acc[1:], _kron_mul(x[r::step], y[step - r :: step], T))
    return QSeries._from_ints(acc, a._den * b._den, 1, T, a.weight + b.weight,
                              math.lcm(a.level, b.level))


def transformation_polynomial(h, h_fricke, level, validate=True):
    """Signed coefficients s_1..s_(N+1) of prod over cosets (X - h|gamma).

    Phi(X) = X^mu - s_1 X^(mu-1) + s_2 X^(mu-2) - ...; each s_i is returned
    as a level-1 rational q-series of weight w*i.  With validate=True every
    s_i is also certified a level-1 form through its whole truncation by one
    level1_coordinates call, which fails loudly naming the first s_i that
    is not.
    """
    N = _require_prime(level)
    w = h.weight
    if w is None or w % 2 or h.e != 1 or h_fricke.e != 1:
        raise InputError("transformation polynomial needs even-weight integral series")
    Tq = h_fricke.trunc // N
    if Tq < 1:
        raise InputError("Fricke image truncated below one full period")
    # base translate as a q^(1/N)-series; its j-th twist shares all power sums
    # with exponent sieved to multiples of N, so sums over j stay rational
    F = QSeries._from_ints(
        h_fricke._num[: N * Tq + 1], h_fricke._den * N ** (w // 2), N, Tq, w, N
    )
    # F^m at full length for m <= ceil(N/2); past that only the integral
    # exponents of F^top * F^(m - top) are read, so only they are formed
    top = (N + 1) // 2
    pows = [F]
    while len(pows) < top:
        pows.append(pows[-1] * F)
    qs = [_integral_exponent_part(p).scale(N) for p in pows]
    for m in range(top + 1, N + 1):
        qs.append(_sieved_product(pows[-1], pows[m - top - 1]).scale(N))
    es = elementary_from_power_sums(qs)
    hT = h.truncate(min(h.trunc, Tq))
    sym = []
    for i in range(1, N + 2):
        ei = es[i - 1] if i <= N else None
        prev = es[i - 2] if i >= 2 else None
        term = hT if prev is None else hT * prev
        si = term if ei is None else ei + term
        sym.append(si)
    if validate:
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
    return t._with_values(t._comps, t.trunc, level=1)


def main_constant(weight, target_level=1):
    """c_M = 3 * 4^(1-w) * (w-2)! / [index of the target-level group]."""
    w = int(weight)
    if w < 4 or w % 2:
        raise InputError("constant defined for even weight >= 4")
    M = int(target_level)
    if M == 1:
        index = 1
    else:
        _require_prime(M)
        index = M + 1
    return Fraction(3) * Fraction(4) ** (1 - w) * math.factorial(w - 2) / index


def expand_in_newforms(f, orbit_set):
    """Exact coefficients c_i in f = sum_i Tr_(K_i/Q)(c_i * f_i), one per orbit.

    f must be cuspidal of the orbit set's weight; the residual is checked to
    vanish through the full common truncation order.
    """
    if f.weight != orbit_set.weight:
        raise InputError("weight mismatch between series and orbit set")
    if f.field is not None:
        raise InputError("expansion target must have rational coefficients")
    zero_f = f.coeff(0)
    if zero_f != 0:
        raise VerificationError("series has constant term %s; not cuspidal" % zero_f)
    r = orbit_set.dim_cusp
    if r == 0:
        if not f.is_zero():
            raise VerificationError(
                "trace should vanish identically (no cusp forms at weight %d)"
                % orbit_set.weight
            )
        return []
    # Tr(y * f_i) = sum_k w_k comp_k(f_i) / den_i with w_k = sum_j y_j p_(j+k),
    # where y = sum_j y_j theta^j and p_m = Tr(theta^m); for y = theta^j this
    # is an integer column over den_i, the power sums of a monic integral T_2
    # factor being integers.  Each column is reduced by its content, so the
    # system is as small as the traces Tr(theta^j a_n) themselves.
    T = min(f.trunc, min(nf.qexp.trunc for nf in orbit_set.orbits))
    if T < r:
        raise TruncationError(
            "coefficient of q^%d requested beyond truncation order %d" % (r, T)
        )
    n = T + 1
    blocks = []
    cols = []
    for nf in orbit_set.orbits:
        comps, den = nf.qexp._components(1, n)
        ps = nf.field.power_sums() if nf.field else (Fraction(1),)
        pden = math.lcm(*[p.denominator for p in ps])
        den *= pden
        hankel = [[int(p * pden) for p in ps[j : j + len(comps)]] for j in range(len(comps))]
        rows = list(zip(*[c[1 : r + 1] for c in comps]))
        scales = []
        for hj in hankel:
            col = [sum(map(operator.mul, hj, row)) for row in rows]
            g = math.gcd(den, *col)
            cols.append([v // g for v in col])
            scales.append(den // g)
        blocks.append((nf, comps, den, hankel, scales))
    # with A X = D (f_1, ..., f_r) for the reduced columns, x_c = scale_c X_c / D
    fnum, fden = f._num, f._den
    D, X = bareiss_solve([list(row) for row in zip(*cols)], [[v] for v in fnum[1 : r + 1]])
    out = []
    parts = []
    for nf, comps, den, hankel, scales in blocks:
        num = [s * y for s, (y,) in zip(scales, X)]
        X = X[len(scales) :]
        out.append(nf.qexp._value(num, D * fden))
        # Tr(c_i f_i) = sum_k W_k comp_k / (D * fden * den)
        parts.append(([sum(map(operator.mul, num, hk)) for hk in hankel], comps, den))
    # certify: rebuild f from the solution and compare everywhere, in integers
    L = math.lcm(*[den for _, _, den in parts])
    acc = [0] * n
    for W, comps, den in parts:
        for w, comp in zip(W, comps):
            if w:
                w *= L // den
                acc = [a + w * x for a, x in zip(acc, comp)]
    miss = next((m for m in range(n) if fnum[m] * D * L != acc[m]), None)
    if miss is not None:
        raise VerificationError(
            "newform expansion residual is nonzero first at q^%d" % miss
        )
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
        from .rational import format_rational

        def fmt_elem(x):
            if isinstance(x, Fraction):
                return format_rational(x)
            return [format_rational(v) for v in x.coords]

        orbits = []
        for nf, c, xi in zip(self.orbit_set.orbits, self.components, self.ratios):
            cp = nf_charpoly(xi)
            # the norm is the signed constant term of the charpoly
            norm = cp.coeffs[0] if cp.degree % 2 == 0 else -cp.coeffs[0]
            orbits.append({
                "degree": nf.degree,
                "hecke_minpoly": nf.modulus.serialize() if nf.modulus is not None else None,
                "coefficients_head": [fmt_elem(nf.a(n)) for n in range(8)],
                "component": fmt_elem(c),
                "ratio": fmt_elem(xi),
                "ratio_trace": format_rational(nf_trace(xi)),
                "ratio_norm": format_rational(norm),
                "ratio_charpoly": cp.serialize(),
                "totally_real": True if nf.field is None else nf.field.is_totally_real(),
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
    eis_weight = _require_even_weight(eis_weight)
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
    reach = max(order, dim_modular_level1(w * (N + 1)), dim_cusp_level1(W) + 8)
    h, hfr = product_inputs(N, spec, eis_weight, reach)

    route1 = trace_to_level1(h, hfr, N, power)
    sym = transformation_polynomial(h, hfr, N, validate=True)
    route2 = power_sums_from_elementary(sym, power)[power - 1]
    through = min(route1.trunc, route2.trunc)
    if not route1.agrees_through(route2, through):
        raise VerificationError(
            "trace routes disagree within order %d for level %d" % (through, N)
        )

    trace = route1.truncate(through)
    orbit_set = newform_basis_level1(W, trace.trunc)
    cm = main_constant(W, 1)
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
