"""Trace from prime level to level 1, two independent ways.

Route 1 is the Fricke shortcut: Tr(f) = f + N^(1-w/2) U_N(f|w_N).

Route 2 goes through the transformation polynomial Phi(X) = prod (X - h|gamma)
over the N+1 cosets of the level-N group in the modular group.  Its signed
coefficients s_i are level-1 forms of weight w*i; Newton's identities turn
them into the power sum p_mu = Tr(h^mu).  The two routes share only the
Fricke image of h and must agree coefficient by coefficient, exactly.

Cyclotomic bookkeeping: the non-identity translates are (h|w_N)((z+j)/N)
scaled by N^(-w/2), i.e. q^(1/N)-series with coefficients twisted by powers
of a primitive N-th root of unity.  Power sums over j kill every exponent
not divisible by N (the root-of-unity sieve), which is why the s_i come out
rational; coset_translates exposes the raw cyclotomic series so the sieve
itself can be tested against the definition.
"""

import math
import operator
from fractions import Fraction

import mpmath
from mpmath import mpc

from .errors import (
    InputError,
    NonconvergentError,
    UnsupportedScopeError,
    VerificationError,
)
from .linalg import MatQ
from .numerics import eval_qseries, to_mpf
from .numfield import CycloField, nf_charpoly, nf_norm, nf_trace, trace_form
from .polynomial import elementary_from_power_sums, power_sums_from_elementary
from .qexp import (
    EtaQuotientSpec,
    QSeries,
    eisenstein_prime_level,
    eta_quotient,
    fricke_eisenstein,
    op_U,
)
from .spaces import (
    conductor_of_space,
    dim_cusp_level1,
    dim_modular_level1,
    expand_in_triangular,
    miller_basis,
    newform_basis_level1,
)


def _is_prime(n):
    n = int(n)
    if n < 2:
        return False
    return all(n % t for t in range(2, int(n**0.5) + 1))


def _require_prime_level(level):
    level = int(level)
    if not _is_prime(level):
        raise InputError("level must be prime, got %d" % level)
    return level


class CosetData:
    """Right coset representatives of the level-N group in the modular group."""

    __slots__ = ("level", "index", "reps")

    def __init__(self, level):
        level = int(level)
        if level == 1:
            self.level = 1
            self.index = 1
            self.reps = ("I",)
            return
        _require_prime_level(level)
        self.level = level
        self.index = level + 1
        self.reps = ("I",) + tuple("S*T^%d" % j for j in range(level))

    def __repr__(self):
        return "CosetData(level=%d, index=%d)" % (self.level, self.index)


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
        _require_prime_level(level)
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


def fricke_eta_series(spec, level, trunc):
    """q-expansion of the Fricke image of the eta quotient, exact."""
    partner, scalar = fricke_eta_data(spec, level)
    return eta_quotient(partner, trunc, level=level).scale(scalar)


def product_inputs(level, eta_spec, eis_weight, order):
    """h = (eta quotient) * (Eisenstein row) and its Fricke image h|w_N.

    Both are known through q^(N*order + 8); the trace routes read the Fricke
    image on the q^(1/N) grid, so they reach q^(order + 8//N).
    """
    T_in = level * order + 8
    g = eta_quotient(eta_spec, T_in, level=level)
    gfr = fricke_eta_series(eta_spec, level, T_in)
    E = eisenstein_prime_level(eis_weight, level, T_in)
    Efr = fricke_eisenstein(eis_weight, level, T_in)
    return g * E, gfr * Efr


# -- translates and the transformation polynomial --------------------------

def coset_translates(h, h_fricke, level):
    """All index-many translates h|gamma as q^(1/N) expansions.

    Entry 0 is h itself; entry 1+j is the S*T^j translate, a series over the
    N-th cyclotomic field.  h_fricke must be the Fricke image of h.
    """
    N = _require_prime_level(level)
    w = h.weight
    if w is None or w % 2 or h.e != 1 or h_fricke.e != 1:
        raise InputError("translates need even-weight integral-grid series")
    Tq = h_fricke.trunc // N
    out = [h.truncate(min(h.trunc, Tq))]
    scale = Fraction(1, N ** (w // 2))
    K = CycloField(N)
    b = [c * scale for c in h_fricke.coeffs[: N * Tq + 1]]
    for j in range(N):
        coeffs = [K.zeta_power(j * m % N) * b[m] for m in range(N * Tq + 1)]
        out.append(
            QSeries(coeffs, e=N, trunc=Tq, weight=w, level=N, field=K)
        )
    return out


def _integral_exponent_part(s):
    """Restrict a q^(1/e) expansion to its integral exponents."""
    if s.e == 1:
        return s
    coeffs = s.coeffs[:: s.e]
    return QSeries(
        coeffs, e=1, trunc=s.trunc, weight=s.weight, level=s.level, field=s.field
    )


def transformation_polynomial(h, h_fricke, level, validate=True):
    """Signed coefficients s_1..s_(N+1) of prod over cosets (X - h|gamma).

    Phi(X) = X^mu - s_1 X^(mu-1) + s_2 X^(mu-2) - ...; each s_i is returned
    as a level-1 rational q-series of weight w*i.  With validate=True each
    s_i is also expanded against the level-1 triangular basis, which fails
    loudly if it is not a level-1 form as far as the truncation can see.
    """
    N = _require_prime_level(level)
    w = h.weight
    if w is None or w % 2 or h.e != 1 or h_fricke.e != 1:
        raise InputError("transformation polynomial needs even-weight integral series")
    Tq = h_fricke.trunc // N
    if Tq < 1:
        raise InputError("Fricke image truncated below one full period")
    # base translate as a q^(1/N)-series; its j-th twist shares all power sums
    # with exponent sieved to multiples of N, so sums over j stay rational
    scale = Fraction(1, N ** (w // 2))
    F = QSeries(
        [c * scale for c in h_fricke.coeffs[: N * Tq + 1]],
        e=N, trunc=Tq, weight=w, level=N,
    )
    qs = []
    cur = None
    for _ in range(N):
        cur = F if cur is None else cur * F
        qs.append(_integral_exponent_part(cur).scale(N))
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
            basis = miller_basis(w * i, si.trunc)
            try:
                expand_in_triangular(si, basis, strict=True)
            except VerificationError as exc:
                raise VerificationError(
                    "s_%d is not a level-1 form of weight %d: %s" % (i, w * i, exc)
                ) from exc
    return sym


# -- traces ----------------------------------------------------------------

def trace_to_level1(f, f_fricke, level):
    """Tr from prime level: f + N^(1 - w/2) * U_N(f|w_N), exact q-series."""
    N = _require_prime_level(level)
    w = f.weight
    if w is None or w % 2:
        raise InputError("trace needs an even integer weight")
    u = op_U(f_fricke, N)
    t = f.truncate(min(f.trunc, u.trunc)) + u.scale(Fraction(N) ** (1 - w // 2))
    return QSeries(t.coeffs, e=1, trunc=t.trunc, weight=w, level=1, field=t.field)


def main_constant(weight, target_level=1):
    """c_M = 3 * 4^(1-w) * (w-2)! / [index of the target-level group]."""
    w = int(weight)
    if w < 4 or w % 2:
        raise InputError("constant defined for even weight >= 4")
    M = int(target_level)
    if M == 1:
        index = 1
    else:
        _require_prime_level(M)
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
    # Tr(y * a_n) is linear in a_n's coordinates: one trace-form vector per
    # field element y, from the field's power sums
    cols = []
    for nf in orbit_set.orbits:
        if nf.field is None:
            cols.append([nf.a(n) for n in range(1, r + 1)])
            continue
        coords = [nf.a(n).coords for n in range(1, r + 1)]
        theta = nf.field.gen()
        for j in range(nf.degree):
            w = trace_form(theta**j)
            cols.append([sum(map(operator.mul, w, c)) for c in coords])
    A = MatQ([[cols[c][n] for c in range(r)] for n in range(r)])
    b = [f.coeff(n) for n in range(1, r + 1)]
    x = A.solve(b)
    out = []
    pos = 0
    for nf in orbit_set.orbits:
        d = nf.degree
        block = x[pos : pos + d]
        pos += d
        if nf.field is None:
            out.append(block[0])
        else:
            out.append(nf.field.elem(block))
    # certify: rebuild the series from the solution and compare everywhere
    forms = [None if nf.field is None else trace_form(c)
             for c, nf in zip(out, orbit_set.orbits)]
    T = min(f.trunc, min(nf.qexp.trunc for nf in orbit_set.orbits))
    for n in range(T + 1):
        acc = Fraction(0)
        for c, w, nf in zip(out, forms, orbit_set.orbits):
            an = nf.a(n)
            acc += c * an if w is None else sum(map(operator.mul, w, an.coords))
        if acc != f.coeff(n):
            raise VerificationError(
                "newform expansion residual is nonzero first at q^%d" % n
            )
    return out


def rankin_partial_sum(a_coeffs, b_coeffs, s, weight_a, weight_b, prec_bits=128):
    """Partial sum of sum a_n conj-free b_n n^(-s) with a convergence guard.

    Refuses (NonconvergentError) unless s > (weight_a - 1)/2 + weight_b, the
    region where the coefficient bounds make the tail go to zero.
    """
    s = Fraction(s)
    if s <= Fraction(weight_a - 1, 2) + weight_b:
        raise NonconvergentError(
            "nonconvergent at s=%s for weights (%d, %d); skipped"
            % (s, weight_a, weight_b)
        )
    with mpmath.workprec(prec_bits):
        acc = mpmath.mpf(0)
        nmax = min(len(a_coeffs), len(b_coeffs)) - 1
        for n in range(1, nmax + 1):
            acc += to_mpf(Fraction(a_coeffs[n]) * Fraction(b_coeffs[n])) * mpmath.mpf(
                n
            ) ** to_mpf(-s)
        return acc


class TheoremResult:
    """Everything the level-lowering run produced, exact where it matters."""

    __slots__ = (
        "level", "eta_spec", "eis_weight", "power", "weight_h", "weight_total",
        "order", "route_agree_through", "trace", "constant", "orbit_set",
        "components", "ratios", "conductor", "admissible_levels",
        "single_orbit", "rankin_status", "phi_symmetric",
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
            orbits.append({
                "degree": nf.degree,
                "hecke_minpoly": nf.modulus.serialize() if nf.modulus is not None else None,
                "coefficients_head": [fmt_elem(nf.a(n)) for n in range(8)],
                "component": fmt_elem(c),
                "ratio": fmt_elem(xi),
                "ratio_trace": format_rational(nf_trace(xi)),
                "ratio_norm": format_rational(nf_norm(xi)),
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
            "rankin_status": self.rankin_status,
        }


def verify_theorem(level, eta_pairs, eis_weight, power, order=64):
    """Run both trace routes for h = (eta quotient) * (Eisenstein row), compare
    exactly, and decompose the trace against the level-1 newform orbits."""
    N = _require_prime_level(level)
    spec = eta_pairs if isinstance(eta_pairs, EtaQuotientSpec) else EtaQuotientSpec(eta_pairs)
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
    w = spec.weight + int(eis_weight)
    reach = max(order, dim_modular_level1(w * (N + 1)),
                dim_cusp_level1(w * power) + 8)
    h, hfr = product_inputs(N, spec, eis_weight, reach)
    H = h**power
    Hfr = hfr**power
    W = w * power

    route1 = trace_to_level1(H, Hfr, N)
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
    # numeric Rankin sanity only makes sense where the series converges; at
    # the natural sample point s = W it never does for these weights
    s_nat = Fraction(W)
    bound = Fraction(W - 1, 2) + W
    if s_nat > bound:
        head = [Fraction(c) for c in trace.coeffs[: min(trace.trunc, 64) + 1]]
        val = rankin_partial_sum(head, head, s_nat, W, W)
        rankin_status = "partial sum at s=%s: %s" % (s_nat, mpmath.nstr(val, 12))
    else:
        rankin_status = "nonconvergent at s=%s (needs s > %s); skipped" % (s_nat, bound)
    return TheoremResult(
        level=N,
        eta_spec=spec,
        eis_weight=int(eis_weight),
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
        rankin_status=rankin_status,
        phi_symmetric=sym,
    )
