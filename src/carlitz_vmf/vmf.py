"""Vectorial modular forms in the unipotent gauge.

A form of weight k and type m is stored as the gauge pair (h1, h3): the
actual coordinate vector is (h1, h3 - chi h1) where chi is the character
extension carried by the gauge matrix, so both stored components are
honest u-series.  Stored series are period-normalized (the honest pair is
pi^k times the stored one).

The twist acts on the gauge by

    (h1, h3)  ->  (tau h1, tau h3 - (u (t-theta) om)^(-1) tau h1),

and the Hecke operator at a monic prime p acts by the coset formulas with
two correction terms r0, r1 coming from the failure of the character to
be multiplicative on arguments; both corrections are produced by the
functional equation of the Anderson generating function.

That failure is one list of terms, `_chi_terms`; the Eisenstein series
take their monic sums from one pass, `_eis_sums`; and F e1 + G tau(e1) is
written once, in `compose_structure`.
"""

from __future__ import annotations

import math

from .carlitz import b_poly_twist, period_lattice, zeta_ratio
from .context import Context
from .errors import (CarlitzVMFError, NotInSpanError, NotIrreducibleError,
                     PrecisionError)
from .fields import show_tuple
from .forms import (ClassicalForm, a_expansion, gen_goss_eis, gen_h, gh_basis,
                    gh_monomials, solve_in_span)
from .polys import RatFunc
from .scalars import GradedScalar
from .useries import USeries, goss_series, orbit_sum, scale_arg, trace_div


def regular_weight_ok(ctx: Context, k: int, m: int) -> bool:
    """Nonzero regular forms exist exactly for k = 2m + 1 (mod q-1)."""
    if ctx.q == 2:
        return True
    return (k - 2 * m - 1) % (ctx.q - 1) == 0


class VMForm:
    __slots__ = ("ctx", "k", "m", "h1", "h3", "regular", "lam")

    def __init__(self, ctx, k: int, m: int, h1: USeries, h3: USeries,
                 regular: bool = False, lam: GradedScalar | None = None):
        self.ctx = ctx
        self.k = k
        self.m = m % max(ctx.q - 1, 1)
        if regular:
            if h1.c and h1.val() < 1:
                raise CarlitzVMFError("regular form needs h1 in u T[[u]]")
            if h3.c and h3.val() < 0:
                raise CarlitzVMFError("regular form needs h3 in T[[u]]")
            if (h1.c or h3.c) and not regular_weight_ok(ctx, k, self.m):
                raise CarlitzVMFError(
                    f"no nonzero regular forms of weight {k}, type {self.m}"
                )
        self.h1 = h1
        self.h3 = h3
        self.regular = regular
        self.lam = lam

    def __add__(self, other):
        if (self.k, self.m) != (other.k, other.m):
            raise ValueError("weights/types differ")
        return VMForm(self.ctx, self.k, self.m, self.h1 + other.h1,
                      self.h3 + other.h3, regular=self.regular and other.regular)

    def __neg__(self):
        return VMForm(self.ctx, self.k, self.m, -self.h1, -self.h3,
                      regular=self.regular)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar: GradedScalar):
        return VMForm(self.ctx, self.k, self.m, self.h1.scale(scalar),
                      self.h3.scale(scalar), regular=self.regular, lam=self.lam)

    def mul_classical(self, f: ClassicalForm):
        return VMForm(self.ctx, self.k + f.weight, self.m + f.type_,
                      self.h1 * f.series, self.h3 * f.series)._flag_regular()

    def mul_series(self, s: USeries, dweight: int = 0, dtype: int = 0):
        return VMForm(self.ctx, self.k + dweight, self.m + dtype,
                      self.h1 * s, self.h3 * s)

    def truncate(self, N: int):
        return VMForm(self.ctx, self.k, self.m, self.h1.truncate(N),
                      self.h3.truncate(N), regular=self.regular, lam=self.lam)

    def eq_to_prec(self, other, at_least=None):
        return (self.h1.eq_to_prec(other.h1, at_least)
                and self.h3.eq_to_prec(other.h3, at_least))

    def first_difference(self, other):
        d1 = self.h1.first_difference(other.h1)
        if d1 is not None:
            return ("h1",) + d1
        d3 = self.h3.first_difference(other.h3)
        if d3 is not None:
            return ("h3",) + d3
        return None

    def is_regular_valued(self):
        return (not self.h1.c or self.h1.val() >= 1) and \
               (not self.h3.c or self.h3.val() >= 0)

    def _flag_regular(self):
        """Mark the form regular when its valuations and its weight allow."""
        self.regular = (self.is_regular_valued()
                        and regular_weight_ok(self.ctx, self.k, self.m))
        return self

    def __repr__(self):
        return (f"VMForm(k={self.k}, m={self.m}, regular={self.regular},\n"
                f"  h1={self.h1},\n  h3={self.h3})")


# -- gauge scalars -----------------------------------------------------------


def tau_omega_inv(ctx: Context) -> GradedScalar:
    """((t - theta) om)^(-1), the twisted reciprocal unit."""
    return GradedScalar.from_rat(RatFunc(ctx.ring.one, b_poly_twist(ctx, 1, 0)),
                                 0, -1)


def lambda_1(ctx: Context) -> GradedScalar:
    """Constant of the weight-one series: 1/((t - theta) om)."""
    return tau_omega_inv(ctx)


def lambda_q(ctx: Context) -> GradedScalar:
    """1/((t - theta^q)(t - theta) om)."""
    return GradedScalar.from_rat(RatFunc(ctx.ring.one, b_poly_twist(ctx, 2, 0)),
                                 0, -1)


# -- the character correction --------------------------------------------------


def _chi_terms(ctx: Context, a) -> tuple:
    """The terms of `chi_correction`, which `hecke`'s r0 traces one at a
    time: one (exponent, scalar) pair (-q^(i-l-1), [a]_i tau^(i-l)(b_l)
    om^(-1)) for each l < i <= deg a with [a]_i != 0; exponents may repeat.
    Built once per context and monic."""
    def build():
        coeffs = ctx.carlitz_coeffs(a)
        d = len(a) - 1
        return tuple((-ctx.q ** (i - l - 1),
                      GradedScalar.from_poly(
                          coeffs[i] * b_poly_twist(ctx, l, i - l), 0, -1))
                     for l in range(d) for i in range(l + 1, d + 1)
                     if not coeffs[i].is_zero())

    return ctx.memo(("chi_terms", a), build)


def chi_correction(ctx: Context, a, N: int | None = None) -> USeries:
    """The failure of multiplicativity of the character on arguments:
    chi(a z) = a(t) chi(z) + om^(-1) * (this Laurent polynomial in u).

    Exact and finitely supported; lowest exponent -q^(deg a - 1)."""
    out: dict = {}
    for n, c in _chi_terms(ctx, a):
        out[n] = out[n] + c if n in out else c
    return USeries(ctx, out, N)  # the constructor drops cancelled terms


# -- Eisenstein series -----------------------------------------------------------


def _eis_sums(ctx: Context, k: int, N: int):
    """(-sum a(t) G_k(u(a z)), sum chi_correction(a) G_k(u(a z))) over the
    monic a, both to O(u^N): the first coordinate of the weight-k series
    and the monic-indexed part of its second.

    Both sums are one accumulation (``orbit_sum``), so each G_k(u(a z))
    is packed once.  They stay apart by grade: a(t) and G_k(u(a z)) have
    grade (0, 0) and every term of `_chi_terms` grade (0, -1), so the
    first sum is the (0, 0) part of the total and the second its (0, -1)
    part.  Both terms are Galois-equivariant (a(t), and `_chi_terms` and
    the Goss polynomials lie over F_p[theta, t]), so the sum runs over one
    representative per Frobenius orbit, as in ``forms.a_expansion``.

    chi_correction(a) has a pole of order s = q^(deg a - 1), so u(a z) is
    asked to O(u^(N + s)) before any O(u^N) request: ``u_scale`` then
    inverts once per orbit and serves O(u^N) from its cache."""
    L = period_lattice(ctx)
    classes = {}
    for size, reps in ctx.orbits_below(N).items():
        terms = classes[size] = []
        for a in reps:
            cc = chi_correction(ctx, a).c
            G = goss_series(ctx, L, k, a, N - min(cc, default=0))  # min(cc) = -s
            terms.append((-GradedScalar.from_poly(ctx.chi(a)), G, 0))
            terms += [(c, G, n) for n, c in cc.items()]
    both = orbit_sum(ctx, classes, N)
    return both.grade_part(0, 0), both.grade_part(0, -1)


def eis1(ctx: Context, N: int) -> VMForm:
    """The weight-one series: h1 = -sum a(t) u(az),
    h3 = 1/((t-theta) om) + sum chi_corr(a) u(az)."""
    def build():
        h1, chi = _eis_sums(ctx, 1, N)
        h3 = USeries.const(ctx, lambda_1(ctx), N) + chi
        return VMForm(ctx, 1, 0, h1, h3, regular=True, lam=lambda_1(ctx))

    return ctx.memo_upto("eis1", N, build)


def eis_q(ctx: Context, N: int) -> VMForm:
    """The weight-q series from its displayed expansion:
    h1 = -sum a(t) u(az)^q,
    h3 = lambda_q + tau(om)^(-1) sum u(az)^(q-1) + sum chi_corr(a) u(az)^q;
    u(az)^q = G_q(u(az)), so `_eis_sums` at weight q gives two of the sums."""
    def build():
        q = ctx.q
        h1, chi = _eis_sums(ctx, q, N)
        mid = a_expansion(ctx, lambda a: GradedScalar.one(ctx.ring), q - 1, N)
        h3 = (USeries.const(ctx, lambda_q(ctx), N) + chi
              + mid.scale(tau_omega_inv(ctx)))
        return VMForm(ctx, q, 0, h1, h3, regular=True, lam=lambda_q(ctx))

    return ctx.memo_upto("eis_q", N, build)


def tau_vmf(H: VMForm) -> VMForm:
    """The twist in gauge coordinates."""
    ctx = H.ctx
    h1t = H.h1.tau()
    corr = h1t.shift(-1).scale(tau_omega_inv(ctx))
    h3t = H.h3.tau() - corr
    lam = H.lam.tau(ctx.q) if H.lam is not None else None
    return VMForm(ctx, H.k * ctx.q, H.m, h1t, h3t, regular=H.regular, lam=lam)


def untau_vmf(T: VMForm, k: int, m: int, regular: bool = False) -> VMForm:
    """Invert `tau_vmf`, recovering the pre-twist gauge pair."""
    ctx = T.ctx
    f1 = T.h1.untau()
    f3 = (T.h3 + T.h1.shift(-1).scale(tau_omega_inv(ctx))).untau()
    return VMForm(ctx, k, m, f1, f3, regular=regular)


def det_pair(H1: VMForm, H2: VMForm) -> ClassicalForm:
    """Determinant pairing; the gauge matrix is unipotent so the gauge
    components can be used directly."""
    ctx = H1.ctx
    series = H1.h1 * H2.h3 - H2.h1 * H1.h3
    return ClassicalForm(ctx, H1.k + H2.k, H1.m + H2.m + 1, series)


# -- Hecke action ------------------------------------------------------------------


def hecke(ctx: Context, p, H: VMForm) -> VMForm:
    """The Hecke operator at the monic prime p on a regular form.

    The trace terms fix the precision of the image: h1 known to O(u^P1)
    has a trace known to O(u^O1), O1 = ceil((P1 - 1) / q^deg p) + 1, and
    likewise P3, O3 for h3.  The traces are taken first, and the scaled
    components are computed only as far as the sums keep them: h3(p z) to
    min(P3, O3); h1(p z) to O1 for the new h1 and to O3 + s for
    r1 = chi_correction(p) * h1(p z), where s is the pole order of
    chi_correction(p), but never past P1 + s, so r1 is never known past P1."""
    if not ctx.is_irreducible(p):
        raise NotIrreducibleError(
            f"{show_tuple(ctx.base_field, p)} is not irreducible")
    if not H.regular:
        raise CarlitzVMFError(
            "the Hecke operator is only closed on forms regular at infinity"
        )
    k = H.k
    pk = GradedScalar.from_poly(ctx.apoly(p) ** k)
    chip = GradedScalar.from_poly(ctx.chi(p))
    P1 = H.h1._p()
    P3 = H.h3._p()
    if P1 == math.inf or P3 == math.inf:
        raise PrecisionError("Hecke needs truncated input")
    P1, P3 = int(P1), int(P3)
    tr1 = trace_div(H.h1, p)
    tr3 = trace_div(H.h3, p)

    # r0: traces of the shifted h1 against the torsion Goss polynomials
    r0 = USeries.zero(ctx)
    for n, coef in _chi_terms(ctx, p):
        shifted = H.h1.shift(n)
        pos = USeries(ctx, {m: c for m, c in shifted.c.items() if m >= 1},
                      shifted.prec)
        r0 = r0 + trace_div(pos, p).scale(coef)

    # r1: the non-multiplicative part of chi at p z against the scaled h1
    cc = chi_correction(ctx, p)
    s = -cc.val() if cc.c else 0
    O1, O3 = tr1._p(), tr3._p()
    h1_hi = scale_arg(H.h1, p, min(P1 + s, max(O1, O3 + s)))
    new_h1 = h1_hi.truncate(P1).scale(pk * chip) + tr1
    r1 = -(cc * h1_hi).scale(pk)

    new_h3 = (scale_arg(H.h3, p, min(P3, O3)).scale(pk)
              + tr3.scale(chip) + r0 + r1)
    out = VMForm(ctx, k, H.m, new_h1, new_h3, regular=False)
    if not out.is_regular_valued():
        raise CarlitzVMFError("Hecke image failed the regularity valuations")
    out.regular = True
    return out


# -- structure theorem -------------------------------------------------------------


def structure_decompose(ctx: Context, H: VMForm, N: int | None = None):
    """Write H = F e1 + G tau(e1) by Cramer elimination in the gauge.

    Returns (F, G) as ClassicalForms of weights k-1 and k-q; raises
    NotInSpanError with the residual when H is not in the module."""
    if not regular_weight_ok(ctx, H.k, H.m):
        raise CarlitzVMFError(
            f"weight {H.k} type {H.m} admits no nonzero regular forms"
        )
    P = min(H.h1._p(), H.h3._p())
    if N is None:
        if P == math.inf:
            raise PrecisionError("decomposition needs truncated input")
        N = int(P)
    e1 = eis1(ctx, N)
    eq = eis_q(ctx, N)
    # the inverse of den = det(E1, E_q) at full relative precision, once
    # per N.  num * inv equals num / den term for term and in precision:
    # with v = val(den), both are known below min(prec(num) - v,
    # val(num) + prec(den) - 2v), as a product is known only as far as
    # the lower relative precision of its factors.
    inv = ctx.memo(("structure_det", N),
                   lambda: det_pair(e1, eq).series.inverse())
    Fc = ClassicalForm(ctx, H.k - 1, H.m, det_pair(H, eq).series * inv)
    Gc = ClassicalForm(ctx, H.k - ctx.q, H.m, det_pair(e1, H).series * inv)
    res = compose_structure(ctx, Fc, Gc, N) - H
    if not res.h1.is_zero() or not res.h3.is_zero():
        raise NotInSpanError("form is not in the Eisenstein module",
                             residual=res.h1 if not res.h1.is_zero() else res.h3)
    return Fc, Gc


def compose_structure(ctx: Context, F: ClassicalForm, G: ClassicalForm,
                      N: int) -> VMForm:
    """F e1 + G tau(e1) for classical F, G."""
    e1 = eis1(ctx, N)
    eq = eis_q(ctx, N)
    return VMForm(ctx, F.weight + 1, F.type_,
                  F.series * e1.h1 + G.series * eq.h1,
                  F.series * e1.h3 + G.series * eq.h3)._flag_regular()


def eis_k(ctx: Context, k: int, N: int) -> VMForm:
    """The weight-k series, built through the structure theorem: the first
    coordinate is the monic-indexed expansion with the k-th Goss
    polynomial, the second is completed from the weight-1 and weight-q
    series by solving on first coordinates."""
    if k < 1:
        raise ValueError("k must be positive")
    if ctx.q > 2 and (k - 1) % (ctx.q - 1):
        raise ValueError(f"weight {k} is not 1 mod q-1")
    if k == 1:
        return eis1(ctx, N)

    def build():
        q = ctx.q
        h1, chi = _eis_sums(ctx, k, N)
        e1 = eis1(ctx, N)
        eq = eis_q(ctx, N)
        basis_F = gh_basis(ctx, gh_monomials(ctx, k - 1, 0), N)
        basis_G = gh_basis(ctx, gh_monomials(ctx, k - q, 0) if k >= q else [], N)
        cols = [b * e1.h1 for b in basis_F] + [b * eq.h1 for b in basis_G]
        if not cols:
            raise CarlitzVMFError("no basis columns; weight too small")
        if N <= len(cols) + 1:
            raise PrecisionError("truncation too small for the structure solve")
        sol = solve_in_span(ctx, cols, h1)

        def combine(basis, coeffs):
            return USeries.lincomb(ctx, [(c, b, 0) for b, c in zip(basis, coeffs)
                                         if not c.is_zero()], N)

        F = ClassicalForm(ctx, k - 1, 0, combine(basis_F, sol[:len(basis_F)]))
        G = ClassicalForm(ctx, k - q, 0, combine(basis_G, sol[len(basis_F):]))
        h3 = compose_structure(ctx, F, G, N).h3
        lam = extract_lambda(ctx, k, h3, chi, N)
        return VMForm(ctx, k, 0, h1.truncate(N), h3.truncate(N), regular=True,
                      lam=lam)

    return ctx.memo_upto(("eis_k", k), N, build)


def extract_lambda(ctx: Context, k: int, h3: USeries, chi: USeries, N: int):
    """Pull the weight-k constant out of h3 by removing the explicit part
    of the monic-indexed expansion, whose chi-sum (from `_eis_sums`) is
    ``chi``; raises if the remainder is not a constant (the cross-check of
    the expansion theorem)."""
    q = ctx.q
    eis = []
    l = 0
    while q ** l <= k - 1:
        w = k - q ** l
        E_l = gen_goss_eis(ctx, w, N)
        zr = zeta_ratio(ctx, w)
        # -1/((theta^(q^l) - t) D_l) om^(-1), from om's residue at theta^(q^l)
        den = b_poly_twist(ctx, 1, l) * ctx.D(l)
        coef = GradedScalar.from_rat(RatFunc(ctx.ring.one, den), 0, -1)
        eis.append((coef, USeries.const(ctx, zr, N) + E_l.series, 0))
        l += 1
    rest = h3 - chi + USeries.lincomb(ctx, eis, N)
    nonconst = {n: c for n, c in rest.c.items() if n != 0}
    if nonconst:
        raise CarlitzVMFError(
            f"lambda extraction left non-constant terms at {sorted(nonconst)}"
        )
    return rest.c.get(0, GradedScalar.zero(ctx.ring))


# -- the Legendre pair ------------------------------------------------------------


def legendre_fstar(ctx: Context, N: int):
    """Recover the weak weight -1 pair and its two coordinate series from
    the weight-one series by Laurent division and untwisting.

    Returns (fstar, d2, d3)."""
    def build():
        M = ctx.q * (N + 2)
        e1 = eis1(ctx, M)
        h = gen_h(ctx, M)
        # one inverse serves both quotients, as in structure_decompose
        inv = h.series.inverse()
        T1, T3 = (-(x * inv) for x in (e1.h1, e1.h3))
        T = VMForm(ctx, -ctx.q, -1, T1, T3, regular=False)
        fstar = untau_vmf(T, -1, -1, regular=False)
        d2 = -fstar.h1
        d3 = fstar.h3
        return fstar.truncate(N), d2.truncate(N), d3.truncate(N)

    return ctx.memo(("legendre", N), build)
