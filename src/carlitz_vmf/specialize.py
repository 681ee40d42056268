"""Specializations at roots of unity and at t = theta^(q^j).

A `RootContext` fixes a monic prime p of degree d, the residue field
F_{q^d} = F_q[y]/(p(y)), a chosen conjugate zeta^(q^l) of the root, and a
twin arithmetic context whose coefficient field is F_{q^d} so the series
machinery (argument scaling, coset traces, monic sums) can run on the
specialized side unchanged.  The residue field is the coded
``fields.residue_field`` of (F_q, p), one per prime, so the conjugate
root contexts of p share its operation tables, and an element of F_q has
the same code in it.  The twin records the F_q context as its parent and
borrows the F_q-rational series from it: u(a z) and E are built once
over F_q, for all the root contexts of that parent, and re-ringed over
F_{q^d} with no coefficient map.
"""

from __future__ import annotations

from .context import Context
from .errors import (CarlitzVMFError, NotInSpanError, NotIrreducibleError,
                     PrecisionError)
from .fields import residue_field, show_tuple
from .forms import ClassicalForm, a_expansion, express_in_gh, gen_E
from .polys import Poly, RatFunc
from .scalars import GradedScalar
from .useries import USeries, scale_arg, trace_div
from .vmf import VMForm, hecke


class RootContext:
    def __init__(self, ctx: Context, p, frobenius_power: int = 0):
        if not ctx.is_irreducible(p):
            raise NotIrreducibleError(f"{show_tuple(ctx.base_field, p)} is not "
                                      f"irreducible over F_{ctx.q}")
        self.ctx = ctx
        self.p = tuple(p)
        self.degree = len(p) - 1
        if not 0 <= frobenius_power < self.degree:
            raise ValueError("frobenius power out of range")
        self.frobenius_power = frobenius_power
        self.field = residue_field(ctx.base_field, self.p)
        self.zeta = self.field.gen()
        self.zeta_power = self.field.pow(self.zeta, ctx.q ** frobenius_power)
        self.spec_ctx = Context(q=ctx.q, coeff_field=self.field, parent=ctx)
        self.spec_ring = self.spec_ctx.ring
        self.character_exponent = ctx.q ** frobenius_power

    def conjugates(self):
        """Root contexts for all conjugate choices of the root."""
        return [RootContext(self.ctx, self.p, l) for l in range(self.degree)]

    def __repr__(self):
        return (f"RootContext(p={show_tuple(self.ctx.base_field, self.p)}, "
                f"l={self.frobenius_power})")


class SpecializedForm:
    """A u-expansion over F_{q^d}(theta) with level/character metadata."""

    __slots__ = ("rctx", "level_power", "weight", "type_", "character_exponent",
                 "series")

    def __init__(self, rctx: RootContext, weight: int, type_: int,
                 series: USeries, level_power: int = 1,
                 character_exponent: int | None = None):
        for c in series.c.values():
            for r in c.terms.values():
                if r.num.deg_t() > 0 or r.den.deg_t() > 0:
                    raise CarlitzVMFError("specialized coefficients must be t-free")
        self.rctx = rctx
        self.level_power = level_power
        self.weight = weight
        self.type_ = type_
        self.character_exponent = (rctx.character_exponent
                                   if character_exponent is None
                                   else character_exponent)
        self.series = series

    def __repr__(self):
        return (f"SpecializedForm(weight={self.weight}, type={self.type_}, "
                f"level=p^{self.level_power}, chi^{self.character_exponent}, "
                f"{self.series})")


def eval_root_form(H: VMForm, rctx: RootContext) -> SpecializedForm:
    """Specialize the first gauge coordinate at the chosen root."""
    series = H.h1.eval_root(rctx)
    return SpecializedForm(rctx, H.k, H.m + 1, series)


def eval_theta_power_vmf(H: VMForm, j: int):
    """Evaluate both gauge coordinates at t = theta^(q^j).

    Returns (eta1, eta3, classification) where the classification reports
    the expected membership of eta3: zero when q^j exceeds the weight,
    otherwise its expression in the g,h basis of weight k - q^j."""
    ctx = H.ctx
    q = ctx.q
    eta1 = H.h1.eval_theta_power(j)
    eta3 = H.h3.eval_theta_power(j)
    info = {"j": j, "weight": H.k, "qj": q ** j}
    if q ** j > H.k:
        info["expected"] = "zero"
        info["is_zero"] = eta3.is_zero()
    else:
        info["expected"] = f"modular of weight {H.k - q ** j}"
        pi_unit = GradedScalar(ctx.ring,
                               {(q ** j, 0): RatFunc(ctx.ring.one, None)})
        normalized = eta3.scale(pi_unit)
        form = ClassicalForm(ctx, H.k - q ** j, H.m + 1 - q ** j, normalized)
        try:
            info["gh_expression"] = express_in_gh(ctx, form)
            info["is_modular"] = True
        except (NotInSpanError, PrecisionError) as exc:
            info["is_modular"] = False
            info["error"] = str(exc)
    return eta1, eta3, info


# -- congruences ----------------------------------------------------------------


def _a_of_zeta(rctx: RootContext, a) -> Poly:
    """a(zeta) for a monic a over the enlarged field."""
    sctx = rctx.spec_ctx
    return sctx.chi(a).subs_t_elt(sctx.ring, rctx.zeta_power)


def congruence_check(rctx: RootContext, N: int) -> dict:
    """Coefficientwise divisibility of E - f_zeta by (theta - zeta)."""
    sctx = rctx.spec_ctx
    f_zeta = a_expansion(
        sctx, lambda a: GradedScalar.from_poly(_a_of_zeta(rctx, a)), 1, N)
    diff = gen_E(sctx, N).series - f_zeta
    bad = []
    for n, c in sorted(diff.c.items()):
        r = c.rational_part()
        if not r.den.is_one():
            bad.append((n, "non-polynomial coefficient"))
            continue
        if r.num.eval_theta_elt(rctx.zeta_power) != sctx.ring.field.zero:
            bad.append((n, r))
    return {
        "name": "congruence",
        "prime": rctx.p,
        "ok": not bad,
        "prec": diff.prec,
        "first_failure": bad[0] if bad else None,
    }


def vadic_check(rctx: RootContext, n: int, N: int) -> dict:
    """Divisibility of the coefficients of
    ev_{theta^(q^(n d))} h1 - ev_zeta h1 by (theta - zeta)^(q^(n d))."""
    if n < 1:
        raise ValueError("n must be positive")
    sctx = rctx.spec_ctx
    q, d = rctx.ctx.q, rctx.degree
    M = q ** (n * d)
    diff = a_expansion(sctx, lambda a: GradedScalar.from_poly(
        sctx.apoly(a) ** M - _a_of_zeta(rctx, a)), 1, N)
    lin = sctx.ring.theta - sctx.ring.const(rctx.zeta_power)
    divisor = lin ** M
    bad = []
    for exp, c in sorted(diff.c.items()):
        r = c.rational_part()
        if not r.den.is_one():
            bad.append((exp, "non-polynomial coefficient"))
            continue
        poly = r.num
        try:
            poly.exact_div(divisor)
        except ArithmeticError:
            bad.append((exp, poly))
    return {
        "name": "vadic",
        "prime": rctx.p,
        "power": n,
        "ok": not bad,
        "prec": diff.prec,
        "first_failure": bad[0] if bad else None,
    }


# -- hyperderivatives of the first coordinate ---------------------------------------


def hyperderiv_form(H: VMForm, n: int, rctx: RootContext) -> SpecializedForm:
    """ev_zeta of the (n-1)-st t-hyperderivative of h1; level p^n."""
    if n < 1:
        raise ValueError("n must be positive")
    series = H.h1.dt(n - 1).eval_root(rctx)
    return SpecializedForm(rctx, H.k, H.m + 1, series, level_power=n)


def hecke_compat_check(H: VMForm, p, rctx: RootContext, n: int) -> dict:
    """The commutation of the Hecke operator at p with hyperdifferentiation
    and evaluation at a root of the prime q0 underlying ``rctx``.

    Checks the pre-evaluation series identity for d_t^(n-1) of the first
    coordinate of the Hecke image, then the specialized identity: exact
    commutation when (q0, p) = 1, and the lower-level correction term when
    q0 = p (whose j = 0 summand dies since p vanishes at its own root)."""
    ctx = H.ctx
    q0 = rctx.p
    coprime = tuple(q0) != tuple(p)
    k = H.k
    pk = ctx.apoly(p) ** k
    chi_p = ctx.chi(p)
    TH = hecke(ctx, p, H)
    lhs = TH.h1.dt(n - 1)
    P = int(min(lhs._p(), H.h1._p()))

    sctx = rctx.spec_ctx
    ev = lambda f: f.eval_root(rctx)

    def chi_sum(acc, j0, spec):
        """acc plus the sum over j0 <= j < n of p^k d_t^(j) chi(p) times
        (d_t^(n-1-j) h1)(p z), all evaluated at the root when spec is set."""
        for j in range(j0, n):
            cj = chi_p.hyperderiv_t(j)
            if cj.is_zero():
                continue
            f = H.h1.dt(n - 1 - j)
            c = pk * cj
            if spec:
                f = ev(f)
                c = sctx.apoly(p) ** k * cj.subs_t_elt(sctx.ring, rctx.zeta_power)
            acc = acc + scale_arg(f, p, P).scale(GradedScalar.from_poly(c))
        return acc

    rhs = chi_sum(trace_div(H.h1.dt(n - 1), p), 0, False)
    pre_diff = lhs.first_difference(rhs)
    pre_ok = pre_diff is None

    # specialized side
    lhs_s = ev(lhs)
    hecke_spec = trace_div(ev(H.h1.dt(n - 1)), p)
    if coprime:
        hecke_spec = chi_sum(hecke_spec, 0, True)
        post_ok = lhs_s.eq_to_prec(hecke_spec)
        corr_matches = True
    else:
        correction = lhs_s - hecke_spec
        expected = chi_sum(USeries.zero(sctx, correction.prec), 1, True)
        corr_matches = correction.eq_to_prec(expected)
        post_ok = corr_matches
    return {
        "name": "hecke-spec-commute",
        "operator_prime": tuple(p),
        "level_prime": tuple(q0),
        "coprime": coprime,
        "n": n,
        "pre_ok": bool(pre_ok),
        "pre_first_difference": pre_diff,
        "post_ok": bool(post_ok),
        "correction_matches": bool(corr_matches),
        "ok": bool(pre_ok and post_ok),
    }


# -- the triangular character family ----------------------------------------------


def phi_rep(ctx: Context, n: int, a, rctx: RootContext | None = None):
    """Upper-triangular n x n matrix with (i, j) entry the (j-i)-th
    t-hyperderivative of the character value of a; optionally evaluated
    at the root."""
    if n < 1:
        raise ValueError("n must be positive")
    at = ctx.chi(a)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(None)
            else:
                row.append(at.hyperderiv_t(j - i))
        rows.append(row)
    if rctx is None:
        zero = ctx.ring.zero
        return [[zero if x is None else x for x in row] for row in rows]
    # evaluated entries are constants in F_{q^d}
    out = []
    for row in rows:
        new = []
        for x in row:
            if x is None:
                new.append(rctx.field.zero)
            else:
                p2 = x.subs_t_elt(rctx.spec_ring, rctx.zeta_power)
                if p2.deg_theta() > 0:
                    raise CarlitzVMFError("character value must be theta-free")
                new.append(p2.coeff(0, 0))
        out.append(new)
    return out


def enumerate_primes(ctx: Context, max_degree: int):
    """Monic irreducibles over F_q up to the given degree, (degree, lex)."""
    out = []
    for d in range(1, max_degree + 1):
        for a in ctx.monics(d):
            if ctx.is_irreducible(a):
                out.append(a)
    return out
