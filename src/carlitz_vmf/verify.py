"""Named verification suites over the identities the engine implements.

Every suite returns a report dictionary:

    {"suite": name, "q": q, "ok": True/False/None, "checks": [...],
     "first_discrepancy": ... }

``ok`` is None for the experimental suite, which computes and reports but
asserts nothing.  Reports are JSON-friendly apart from the discrepancy
payloads, which stringify exact scalars.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from . import serialize as ser
from .carlitz import b_poly_twist, goss_poly, period_lattice, zeta_ratio
from .context import Context
from .errors import CarlitzVMFError, PrecisionError
from .fields import show_tuple
from .forms import (ClassicalForm, a_expansion, gen_Delta, gen_E, gen_fs,
                    gen_g, gen_goss_eis, gen_h, gen_h_derivation, gh_basis,
                    gh_monomials, para_eisenstein, ramanujan_serre)
from .polys import Poly, RatFunc
from .scalars import GradedScalar, eval_theta_power
from .specialize import (RootContext, congruence_check, enumerate_primes,
                         hecke_compat_check, vadic_check)
from .useries import USeries, dz, goss_series, trace_div, u_scale
from .vmf import (compose_structure, det_pair, eis1, eis_k, eis_q, hecke,
                  lambda_q, legendre_fstar, structure_decompose, tau_omega_inv,
                  tau_vmf)

THETA = (0, 1)


def _report(suite, q, N, checks, asserting=True):
    ok = all(c["ok"] for c in checks) if asserting else None
    first = next((c for c in checks if c["ok"] is False), None)
    return {
        "suite": suite,
        "q": q,
        "trunc": N,
        "ok": ok,
        "checks": checks,
        "first_discrepancy": None if first is None else {
            "check": first["name"], "detail": str(first.get("detail")),
        },
    }


class Check:
    """One check's outcome: it holds iff every `ok` and `same` call holds;
    its detail is the first failing call's, else the last one given."""

    def __init__(self):
        self.passed, self.detail = True, None

    def ok(self, cond, detail=None):
        if self.passed and (detail is not None or not cond):
            self.detail = detail
        self.passed = self.passed and bool(cond)

    def same(self, got, want, where=""):
        """got equals want to their common precision; the detail names the
        first coefficient where they differ, after ``where``."""
        d = got.first_difference(want)
        if d is not None:
            *coord, n, a, b = d
            at = f"{coord[0]}[u^{n}]" if coord else f"u^{n}"
            d = f"{where}{at}: got {a}, expected {b}"
        self.ok(d is None, d)


class Checks(list):
    """One suite's report entries.  ``with checks(name) as c:`` records
    the `Check` that the block fills; an exception other than
    ``PrecisionError`` in the block fails that check alone, with detail
    ``Type: message``, and the suite goes on."""

    @contextmanager
    def __call__(self, name):
        c = Check()
        try:
            yield c
        except PrecisionError:
            raise
        except Exception as exc:
            c.ok(False, f"{type(exc).__name__}: {exc}")
        self.append({"name": name, "ok": c.passed, "detail": c.detail})


def prime_theta(ctx):
    return (ctx.base_field.zero, ctx.base_field.one)


def prime_theta_plus(ctx, c: int):
    return (ctx.base_field.from_int(c), ctx.base_field.one)


# -- 1. generator expansions ---------------------------------------------------


def suite_generators(ctx: Context, N: int | None = None, *, checks: Checks) -> dict:
    q = ctx.q
    v = q - 1
    if N is None:
        N = max(60, v * v + 2)  # E is read at u^(1 + (q-1)^2)
    top = v * (q * q - q + 1)
    # g to O(u^(N+1)) at least, so that the derivation route to h reads
    # its cut; that route also builds E to O(u^(N+1)) before E is read
    g = gen_g(ctx, max(N + 1, top + 2))
    h_derived = gen_h_derivation(ctx, N)
    one = GradedScalar.one(ctx.ring)
    br = GradedScalar.from_poly(ctx.D(1))
    with checks("g constant term = 1") as c:
        c.ok(g.series.coeff(0) == one)
    with checks("g coefficient at v = -[1]") as c:
        c.ok(g.series.coeff(v) == -br)
    with checks("g coefficient at v^(q^2-q+1) = -[1]") as c:
        c.ok(g.series.coeff(top) == -br)
    with checks("g intermediate coefficients vanish") as c:
        inter = [n for n in range(v + 1, top) if not g.series.coeff(n).is_zero()]
        c.ok(not inter, f"nonzero at {inter}" if inter else None)

    E = gen_E(ctx, N)
    with checks("E leading term u") as c:
        c.ok(E.series.coeff(1) == one and E.series.val() == 1)
    with checks("E coefficient at u^(1+(q-1)^2) = 1") as c:
        c.ok(E.series.coeff(1 + v * v) == one)

    h = gen_h(ctx, N)
    with checks("h leading coefficient -1") as c:
        c.ok(h.series.val() == 1 and h.series.coeff(1) == -one)
    with checks("h: derivation route == monic-indexed route") as c:
        c.same(h_derived.series, h.series)
    with checks("Delta == -h^(q-1)") as c:
        c.same(gen_Delta(ctx, N).series, -(h.series ** (q - 1)))
    return _report("generators", q, N, checks)


# -- 2. determinant identity ------------------------------------------------------


def suite_det(ctx: Context, N: int = 40, *, checks: Checks) -> dict:
    q = ctx.q
    e1 = eis1(ctx, N)
    eqf = eis_q(ctx, N)
    det = det_pair(e1, eqf)
    with checks("det[E1, tau E1] == lambda_q * h") as c:
        c.same(det.series, gen_h(ctx, N).series.scale(lambda_q(ctx)))
    with checks("determinant weight/type") as c:
        c.ok((det.weight, det.type_) == (q + 1, 1 % max(q - 1, 1)))
    for k in (q, 2 * q - 1):
        with checks(f"det[E1, E{k}] single cuspidal (valuation 1)") as c:
            c.ok(det_pair(e1, eis_k(ctx, k, N)).series.val() == 1)
    return _report("det", q, N, checks)


# -- 3. tau-difference equation and the matrix recursion --------------------------


def _normalized_e1(ctx, N):
    """Y = -(t-theta) om * E1: the L-normalized weight-one series."""
    return eis1(ctx, N).scale(
        GradedScalar.from_poly(-b_poly_twist(ctx, 1, 0), 0, 1))


def suite_tau_difference(ctx: Context, N: int = 40, *, checks: Checks) -> dict:
    q = ctx.q
    Y = _normalized_e1(ctx, N)
    tY = tau_vmf(Y)
    ttY = tau_vmf(tY)
    g = gen_g(ctx, N)
    Delta = gen_Delta(ctx, N)
    DeltaB = Delta.series.scale(GradedScalar.from_poly(b_poly_twist(ctx, 1, 1)))
    gq = g.series ** q
    for coord in ("h1", "h3"):
        with checks(f"difference equation on {coord}") as c:
            c.same(getattr(ttY, coord),
                   getattr(Y, coord) * DeltaB + getattr(tY, coord) * gq)

    # matrix recursion: tau^k(E*) = E* B tau(B) ... tau^(k-1)(B)
    B = [[USeries.zero(ctx), DeltaB],
         [USeries.one(ctx), gq]]

    def mat_tau(M):
        return [[e.tau() for e in row] for row in M]

    def mat_mul(A, Bm):
        return [[A[i][0] * Bm[0][j] + A[i][1] * Bm[1][j] for j in (0, 1)]
                for i in (0, 1)]

    powersY = [Y, tY, ttY]
    M = None
    Bk = B
    for k in (1, 2, 3):
        M = Bk if M is None else mat_mul(M, Bk)
        Bk = mat_tau(Bk)
        while len(powersY) < k + 2:
            powersY.append(tau_vmf(powersY[-1]))
        with checks(f"matrix recursion at k={k}") as c:
            for j in (0, 1):
                for coord in ("h1", "h3"):
                    c.same(getattr(powersY[k + j], coord), getattr(Y, coord)
                           * M[0][j] + getattr(tY, coord) * M[1][j], f"col {j} ")
    return _report("tau-difference", q, N, checks)


# -- 4/5. Hecke eigenforms, multiplicativity, twist compatibility ------------------


def suite_hecke_eigen(ctx: Context, N: int | None = None, primes=None,
                      *, checks: Checks) -> dict:
    q = ctx.q
    if primes is None:
        primes = [prime_theta(ctx), prime_theta_plus(ctx, 1)]
        if q == 2:
            primes.append((ctx.base_field.one, ctx.base_field.one, ctx.base_field.one))
    dmax = max(len(p) - 1 for p in primes)
    if N is None:
        N = q * q ** dmax + q * q + 2
    # the Legendre pair builds E1 and h to O(u^(q(N+2))); asked first, the
    # E1 and h to O(u^N) are its cuts
    fstar, _, _ = legendre_fstar(ctx, N)
    e1 = eis1(ctx, N)
    eqf = eis_q(ctx, N)
    hf = fstar.mul_classical(gen_h(ctx, N))
    for p in primes:
        ppol = ctx.apoly(p)
        for name, H, eigen in (("T_p E1 = p E1", e1, ppol),
                               ("T_p Eq = p^q Eq", eqf, ppol ** q),
                               ("T_p(h F*) = p h F*", hf, ppol)):
            with checks(f"{name} at p={show_tuple(ctx.base_field, p)}") as c:
                c.same(hecke(ctx, p, H), H.scale(GradedScalar.from_poly(eigen)))
    return _report("hecke-eigen", q, N, checks)


def suite_hecke_mult_tau(ctx: Context, N: int | None = None,
                         *, checks: Checks) -> dict:
    q = ctx.q
    if N is None:
        N = 20 if q == 2 else 24
    p1 = prime_theta(ctx)
    p2 = prime_theta_plus(ctx, 1)
    # first: the Legendre pair's E1 to O(u^(q(N+2))) serves E1 to O(u^N)
    fstar, _, _ = legendre_fstar(ctx, N)
    e1 = eis1(ctx, N)
    both = hecke(ctx, p1, hecke(ctx, p2, e1))
    t1e1 = hecke(ctx, p1, e1)  # read again by the twist check below
    swap = hecke(ctx, p2, t1e1)
    with checks("T_p T_q E1 = pq E1") as c:
        c.same(both, e1.scale(GradedScalar.from_poly(ctx.apoly(p1) * ctx.apoly(p2))))
    with checks("T_p T_q = T_q T_p on E1") as c:
        c.same(both, swap)
    hf = fstar.mul_classical(gen_h(ctx, N))
    for name, H, T1H in (("E1", e1, t1e1), ("hF*", hf, hecke(ctx, p1, hf))):
        with checks(f"tau T_p = T_p tau on {name}") as c:
            c.same(tau_vmf(T1H), hecke(ctx, p1, tau_vmf(H)))
    return _report("hecke-mult-tau", q, N, checks)


# -- 6. Legendre pair -----------------------------------------------------------


def suite_legendre(ctx: Context, N: int | None = None, *, checks: Checks) -> dict:
    q = ctx.q
    if N is None:
        N = max(64, (q - 1) * q * q + 1)  # d2 is read at u^((q-1) q^2)
    fstar, d2, d3 = legendre_fstar(ctx, N)
    b0 = b_poly_twist(ctx, 1, 0)  # t - theta
    b1 = b_poly_twist(ctx, 1, 1)  # t - theta^q
    sb0 = GradedScalar.from_poly(b0)
    v = q - 1
    exps = [0, v, v * (q * q - q + 1), v * q * q]
    expect = [GradedScalar.one(ctx.ring), -sb0, sb0, -sb0]
    for e, want in zip(exps, expect):
        with checks(f"d2 displayed coefficient at u^{e}") as c:
            got = d2.coeff(e)
            c.ok(got == want, f"got {got}, displayed {want}")

    tad3 = d3.scale(GradedScalar.from_poly(b0, 0, 1))  # tau(om) d3
    base = q - 2
    if q > 2:
        pts = [(base, -sb0), (base + q * v * v, -sb0)]
        zero_range = range(base + 1, base + q * v * v)
    else:
        # displayed as theta + t = t - theta and 1 + theta + t
        pts = [(0, sb0), (2, GradedScalar.one(ctx.ring) + sb0)]
        zero_range = range(1, 2)
    for e, want in pts:
        with checks(f"tau(om) d3 displayed coefficient at u^{e}") as c:
            got = tad3.coeff(e)
            c.ok(got == want, f"got {got}, displayed {want}")
    with checks("tau(om) d3 gap coefficients vanish") as c:
        bad = [n for n in zero_range if not tad3.coeff(n).is_zero()]
        c.ok(not bad, f"nonzero at {bad}" if bad else None)

    # the second-order twisted equation under the tau-reading of d2^(1)
    g = gen_g(ctx, N).series
    Delta = gen_Delta(ctx, N).series
    inner = d2 + (d2 - g * d2.tau()).scale(
        GradedScalar.from_rat(RatFunc(ctx.ring.one, b1))).shift(-(q - 1))
    psi = inner.shift(-1).scale(tau_omega_inv(ctx))
    with checks("d3 = (t-theta^q) Delta tau^2(d3) + g tau(d3) + psi") as c:
        c.same(d3, (Delta * d3.tau().tau()).scale(GradedScalar.from_poly(b1))
               + g * d3.tau() + psi)

    # psi's displayed leading expansion:
    # coefficients are tau(om)^{-1} * {theta-t, 1, theta-theta^q}
    toi = tau_omega_inv(ctx)
    want = [(base, toi.mul_rat(RatFunc(-b0, None))),
            (base + v * v, toi),
            (base + v * q, toi.mul_rat(RatFunc(b1 - b0, None)))]
    for e, w in want:
        with checks(f"psi displayed coefficient at u^{e}") as c:
            got = psi.coeff(e)
            c.ok(got == w, f"got {got}, displayed {w}")
    return _report("legendre", q, N, checks)


# -- (e). weight-k expansions ------------------------------------------------------


def suite_eis_aexp(ctx: Context, N: int = 24, *, checks: Checks) -> dict:
    q = ctx.q
    e1 = eis1(ctx, N)
    eqf = eis_q(ctx, N)
    with checks("weight 1 route equals the direct series") as c:
        ek1 = eis_k(ctx, 1, N)
        c.ok(ek1.h1.eq_to_prec(e1.h1) and ek1.h3.eq_to_prec(e1.h3))
    ekq = eis_k(ctx, q, N)
    with checks("weight q route equals the twisted series") as c:
        c.same(ekq, eqf)
    with checks("weight q route equals tau of weight 1") as c:
        c.same(ekq, tau_vmf(e1))
    with checks("lambda_q reproduced") as c:
        c.ok(ekq.lam == lambda_q(ctx), f"got {ekq.lam}")
    # eis_k raises where the extraction leaves non-constant terms
    k = 2 * q - 1
    with checks(f"lambda_{k} extraction is constant") as c:
        c.ok(True, str(eis_k(ctx, k, N).lam))
    with checks(f"structure decomposition of weight {k} round-trips") as c:
        ekk = eis_k(ctx, k, N)
        F, G = structure_decompose(ctx, ekk)
        c.ok(compose_structure(ctx, F, G, N).h1.eq_to_prec(ekk.h1))
    return _report("eisenstein-aexp", q, N, checks)


# -- 7. specializations -------------------------------------------------------------


def suite_specialize_petrov(ctx: Context, N: int | None = None,
                            *, checks: Checks) -> dict:
    q = ctx.q
    if N is None:
        N = q ** 3 + 2
    e1 = eis1(ctx, N)
    for dd in (1, 2):
        s = (q ** dd - 1) // (q - 1)
        with checks(f"ev at theta^(q^{dd}) of h1 equals -f_{s}") as c:
            c.same(e1.h1.eval_theta_power(dd), -gen_fs(ctx, s, N).series)
        with checks(f"eta3 vanishes at j={dd} (q^j > k)") as c:
            eta3 = e1.h3.eval_theta_power(dd)
            c.ok(eta3.is_zero(), str(eta3) if not eta3.is_zero() else None)
    # j = 0: eta1 = -E and eta3 is the constant -1/pi
    with checks("ev at theta of h1 equals -E") as c:
        c.same(e1.h1.eval_theta_power(0), -gen_E(ctx, N).series)
    minus_pi_inv = GradedScalar(ctx.ring, {(-1, 0): RatFunc(-ctx.ring.one, None)})
    with checks("ev at theta of h3 is the constant -1/pi") as c:
        eta3 = e1.h3.eval_theta_power(0)
        c.ok(dict(eta3.c) == {0: minus_pi_inv}, str(eta3))

    # para-Eisenstein ratio at k = 1: (D_1 alphahat_1)^q f_1 = f_(q+1)
    with checks("para-Eisenstein ratio identity at k=1") as c:
        a1 = para_eisenstein(ctx, 1, N)
        c.same((a1.series.scale(GradedScalar.from_poly(ctx.D(1)))) ** q
               * gen_fs(ctx, 1, N).series, gen_fs(ctx, q + 1, N).series)

    # Ramanujan-Serre comparison at k = 2q-1
    k = 2 * q - 1
    with checks("ev_theta det[E1,(k-1)Ek] = -pi^(-1) RS(E^(k-1))") as c:
        ekk = eis_k(ctx, k, N)
        det = det_pair(e1, ekk.scale(GradedScalar.from_int(ctx.ring, k - 1)))
        rs = ramanujan_serre(ctx, gen_goss_eis(ctx, k - 1, N))
        c.same(det.series.eval_theta_power(0), rs.series.scale(minus_pi_inv))
    return _report("specialize-petrov", q, N, checks)


# -- 8. congruences ------------------------------------------------------------------


def suite_congruence(ctx: Context, N: int = 32, *, checks: Checks) -> dict:
    for p in enumerate_primes(ctx, 2):
        for l in range(len(p) - 1):
            with checks("E = f_zeta mod (theta-zeta) at "
                        f"p={show_tuple(ctx.base_field, p)}, l={l}") as c:
                rc = RootContext(ctx, p, l)
                rep = congruence_check(rc, N)
                rc.spec_ctx.clear()  # its cached builds close over ctx
                c.ok(rep["ok"], rep["first_failure"])
    return _report("congruence", ctx.q, N, checks)


def suite_vadic(ctx: Context, N: int = 32, *, checks: Checks) -> dict:
    for p in enumerate_primes(ctx, 2):
        with checks("p-adic divisibility at "
                    f"p={show_tuple(ctx.base_field, p)}, n=1") as c:
            rc = RootContext(ctx, p)
            rep = vadic_check(rc, 1, N)
            rc.spec_ctx.clear()
            c.ok(rep["ok"], rep["first_failure"])
    return _report("vadic", ctx.q, N, checks)


# -- 9. hyperderivative/Hecke compatibility -------------------------------------------


def suite_hyperderiv_hecke(ctx: Context, N: int = 24, *, checks: Checks) -> dict:
    e1 = eis1(ctx, N)
    p = prime_theta(ctx)
    q0 = prime_theta_plus(ctx, 1)
    # built outside the checks: two checks read each of the first two reports
    rep = hecke_compat_check(e1, p, RootContext(ctx, q0), 2)
    with checks("coprime case: pre-evaluation identity") as c:
        c.ok(rep["pre_ok"], rep["pre_first_difference"])
    with checks("coprime case: exact commutation after evaluation") as c:
        c.ok(rep["post_ok"])
    rep = hecke_compat_check(e1, p, RootContext(ctx, p), 2)
    with checks("equal case: pre-evaluation identity") as c:
        c.ok(rep["pre_ok"], rep["pre_first_difference"])
    with checks("equal case: correction matches the lower-level sum") as c:
        c.ok(rep["correction_matches"])
    with checks("n=1 collapses to plain commutation") as c:
        c.ok(hecke_compat_check(e1, p, RootContext(ctx, q0), 1)["ok"])
    return _report("hyperderiv-hecke", ctx.q, N, checks)


# -- 10. oracle equivalences -----------------------------------------------------------


def coset_power_sums(ctx: Context, p, base: USeries, K: int):
    """Power sums sum_b u((w+b)/p)^n for 1 <= n <= K, with 1/u(w) given by
    the inverse of ``base``; computed by Newton's identities on the
    reversed coset polynomial, independently of the Goss machinery.

    Newton's identities fix p_n from p_1 ... p_(n-1), so the table to K'
    holds the table to any K < K', coefficient for coefficient and in
    precision: one table per base serves every check that reads it."""
    d = len(p) - 1
    M = ctx.q ** d
    e = base.inverse()
    coeffs = ctx.carlitz_coeffs(p)
    R = {0: USeries.one(ctx)}
    for i, c in enumerate(coeffs[:-1]):
        if not c.is_zero():
            R[M - ctx.q ** i] = USeries.const(ctx, GradedScalar.from_poly(c))
    R[M] = -e
    minus_base = -base
    # coefficients of the monic reversed polynomial, indexed from the top:
    # ehat_j is the Y^(M-j) coefficient of R / lead(R)
    ehat = {j: Rm * minus_base
            for j, Rm in ((M - d, c) for d, c in R.items()) if 1 <= j <= M}
    # Newton on plain coefficients: p_n = -(n ehat_n + sum ehat_i p_(n-i))
    sums = {}
    prev = []
    for n in range(1, K + 1):
        acc = USeries.zero(ctx)
        if n <= M and n in ehat:
            acc = acc + ehat[n].scale(GradedScalar.from_int(ctx.ring, n))
        for i in range(1, min(n, M + 1)):
            if i in ehat:
                acc = acc + ehat[i] * prev[n - i - 1]
        acc = -acc
        prev.append(acc)
        sums[n] = acc
    return sums


def _coset_sum(ctx: Context, sums: dict, terms: list, prec) -> USeries:
    """The sum of c * sums[n] over (n, c) in terms, known below prec: the
    coset trace of sum c u^n, term by term from the power sums of
    ``coset_power_sums``."""
    brute = USeries.zero(ctx, prec)
    for n, c in terms:
        brute = brute + sums[n].truncate(int(brute._p())).scale(c)
    return brute


def suite_oracles(ctx: Context, N: int | None = None, *, checks: Checks) -> dict:
    q = ctx.q
    if N is None:
        N = q ** 3 + 2
    p = prime_theta(ctx)
    u = USeries.u(ctx).truncate(N)
    # trace_div against the Newton brute force, coefficient by coefficient;
    # one table of power sums over u, to the top exponent of either series,
    # serves both
    named = (("E", gen_E(ctx, N).series), ("g", gen_g(ctx, N).series))
    sums = coset_power_sums(ctx, p, u, max(max(f.c) for _, f in named))
    for name, f in named:
        with checks(f"trace against brute-force coset sum on {name}") as c:
            lhs = trace_div(f, p)
            brute = _coset_sum(ctx, sums, [(n, a) for n, a in sorted(f.c.items())
                                           if n != 0], lhs._p())
            c.same(lhs, brute)

    # orthogonality of the torsion polynomials at degree one
    L = period_lattice(ctx)
    for a in (prime_theta_plus(ctx, 1), (ctx.base_field.one,)):
        # G_k has degree k: one table to the top k serves every k
        sums = coset_power_sums(ctx, p, u_scale(ctx, a, N), q + 1)
        for k in range(1, q + 2):
            with checks(f"coset orthogonality k={k}, "
                        f"a={show_tuple(ctx.base_field, a)} (coprime)") as c:
                G = goss_series(ctx, L, k, a, N)
                lhs = trace_div(G, p)
                rhs = G.scale(GradedScalar.from_poly(ctx.apoly(p) ** k))
                gk = goss_poly(ctx, L, k)
                brute = _coset_sum(ctx, sums, [(e, GradedScalar.from_rat(r))
                                               for e, r in gk.coeffs.items()],
                                   lhs._p())
                c.same(lhs, rhs)
                c.same(brute, rhs)
    # p | a: the trace must vanish
    pa = tuple([ctx.base_field.zero] + list(p))  # theta * p
    for k in range(1, q + 2):
        with checks(f"coset trace vanishes for p | a, k={k}") as c:
            lhs = trace_div(goss_series(ctx, L, k, pa, N), p)
            c.ok(lhs.is_zero(), str(lhs) if not lhs.is_zero() else None)

    # Goss polynomials against the additive-shift derivative kernel
    for k in range(1, q + 3):
        with checks(f"derivative kernel vs G_{k}") as c:
            lhs = dz(u, k - 1)
            P = int(lhs._p())
            gk = goss_series(ctx, L, k, (ctx.base_field.one,), P).truncate(P)
            pi_k = GradedScalar(ctx.ring, {(k - 1, 0): RatFunc(
                ctx.ring.from_int((-1) ** (k - 1)), None)})
            c.same(lhs, gk.scale(pi_k))
    # the weight-raising identity for the derivative of the Eisenstein series
    k = 2 * q - 1
    pi1 = GradedScalar(ctx.ring, {(1, 0): RatFunc(ctx.ring.from_int(k - 1), None)})
    with checks("derivative of E^(k-1) against the weighted expansion") as c:
        lhs = dz(gen_goss_eis(ctx, k - 1, N).series, 1)
        rhs = a_expansion(ctx, lambda a: GradedScalar.from_poly(ctx.apoly(a)), k, N)
        c.same(lhs, rhs.scale(pi1))

    # zeta ratios against frozen independently derived values
    D1 = ctx.D(1)
    with checks("zeta_ratio(q-1) == -1/D_1") as c:
        zr = zeta_ratio(ctx, q - 1)
        c.ok(zr == GradedScalar.from_rat(RatFunc(-ctx.ring.one, D1)), str(zr))
    with checks("zeta_ratio(2(q-1)) == 1/D_1^2") as c:
        zr = zeta_ratio(ctx, 2 * (q - 1))
        c.ok(zr == GradedScalar.from_rat(RatFunc(ctx.ring.one, D1 ** 2)), str(zr))
    # and the Eisenstein constant consistency with the g display
    with checks("[1] * E^(q-1)-normalized == g") as c:
        Ehat = gen_goss_eis(ctx, q - 1, N)
        c.same(Ehat.series.scale(GradedScalar.from_poly(ctx.D(1))),
               gen_g(ctx, N).series)
    return _report("oracles", q, N, checks)


# -- 11. property suites ----------------------------------------------------------------


def _random_poly(ctx, rng, maxdeg=2, tdeg=1):
    f = ctx.ring.field
    c = {}
    for i in range(maxdeg + 1):
        for j in range(tdeg + 1):
            v = rng.randrange(ctx.p)
            if v:
                c[(i, j)] = f.from_int(v)
    return Poly(ctx.ring, c)


def _random_rat(ctx, rng):
    num = _random_poly(ctx, rng)
    den = _random_poly(ctx, rng)
    while den.is_zero():
        den = _random_poly(ctx, rng)
    return RatFunc(num, den)


def _random_scalar(ctx, rng, with_grades=False):
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        g = (rng.randrange(-1, 2), rng.randrange(-1, 2)) if with_grades else (0, 0)
        r = _random_rat(ctx, rng)
        if not r.is_zero():
            terms[g] = r
    return GradedScalar(ctx.ring, terms)


def _random_series(ctx, rng, N, val=0, with_grades=False):
    c = {}
    for _ in range(5):
        n = rng.randrange(val, N)
        c[n] = _random_scalar(ctx, rng, with_grades)
    return USeries(ctx, c, N)


def suite_properties(ctx: Context, N: int = 24, seed: int = 7,
                     cases: int = 10, *, checks: Checks) -> dict:
    q = ctx.q
    rng = random.Random(seed)

    with checks("t-derivative Leibniz rule on rational functions") as c:
        for _ in range(cases):
            x = _random_rat(ctx, rng)
            y = _random_rat(ctx, rng)
            n = rng.randrange(1, 4)
            lhs = (x * y).hyperderiv_t(n)
            rhs = None
            for j in range(n + 1):
                t = x.hyperderiv_t(j) * y.hyperderiv_t(n - j)
                rhs = t if rhs is None else rhs + t
            c.ok(lhs == rhs)

    with checks("z-derivative Leibniz rule on series") as c:
        for _ in range(cases):
            fs = _random_series(ctx, rng, N, val=0)
            gs = _random_series(ctx, rng, N, val=0)
            c.ok(dz(fs * gs, 1).eq_to_prec(dz(fs, 1) * gs + fs * dz(gs, 1)))

    with checks("twist is multiplicative on series") as c:
        for _ in range(cases):
            fs = _random_series(ctx, rng, N, val=0, with_grades=True)
            gs = _random_series(ctx, rng, N, val=0, with_grades=True)
            c.ok((fs * gs).tau().eq_to_prec(fs.tau() * gs.tau()))

    with checks("untwist inverts the twist") as c:
        for _ in range(cases):
            x = _random_scalar(ctx, rng, with_grades=True)
            c.ok(x.tau(q).untau(q) == x)
            fs = _random_series(ctx, rng, N, val=0, with_grades=True)
            c.ok(fs.tau().untau().eq_to_prec(fs))

    # hyperderivative divisibility: for x in F_q + w^n F_q[t],
    # w divides the j-th derivative for 1 <= j <= n-1
    with checks("derivative divisibility for w^n-congruent polynomials") as c:
        for _ in range(cases):
            w = _random_poly(ctx, rng, maxdeg=0, tdeg=2)
            while w.deg_t() < 1:
                w = _random_poly(ctx, rng, maxdeg=0, tdeg=2)
            n = rng.randrange(2, 5)
            beta = _random_poly(ctx, rng, maxdeg=0, tdeg=2)
            alpha = ctx.ring.from_int(rng.randrange(ctx.p)) + w ** n * beta
            for j in range(1, n):
                dj = alpha.hyperderiv_t(j)
                if dj.is_zero():
                    continue
                try:
                    dj.exact_div(w)
                except ArithmeticError:
                    c.ok(False)

    # twisted evaluation compatibility on om-free scalars; eval_theta_power
    # is defined only where x is regular at t = theta^(q^j), and both sides
    # share that pole, so x is drawn again until it is regular there
    with checks("evaluation ladder commutes with the twist") as c:
        for _ in range(cases):
            r = _random_rat(ctx, rng)
            j = rng.randrange(0, 2)
            s = Poly(ctx.ring, {(q ** j, 0): ctx.ring.field.one})
            while r.den.t_order_at(s) > 0:
                r = _random_rat(ctx, rng)
            x = GradedScalar.from_rat(r)
            c.ok(eval_theta_power(x.tau(q), j + 1, ctx)
                 == eval_theta_power(x, j, ctx).tau(q))

    # structure decomposition round-trip on random classical pairs; a case
    # that raises fails on its own, so the later cases draw as before
    Nd = max(N, 16)

    def random_form(weight, pairs):
        terms = [(GradedScalar.from_int(ctx.ring, rng.randrange(ctx.p)), b, 0)
                 for b in gh_basis(ctx, pairs, Nd)]
        return ClassicalForm(ctx, weight, 0, USeries.lincomb(ctx, terms, Nd))

    with checks("structure decomposition round-trip") as c:
        for _ in range(cases):
            kF = rng.choice([q - 1, 2 * (q - 1), q + 1 + (q - 1)])
            pairsF = gh_monomials(ctx, kF, 0)
            pairsG = gh_monomials(ctx, kF + 1 - q, 0)
            if not pairsF or not pairsG:
                continue
            F = random_form(kF, pairsF)
            G = random_form(kF + 1 - q, pairsG)
            H = compose_structure(ctx, F, G, Nd)
            if H.h1.is_zero() and H.h3.is_zero():
                continue
            try:
                F2, G2 = structure_decompose(ctx, H)
            except CarlitzVMFError:
                c.ok(False)
                continue
            c.ok(F2.series.eq_to_prec(F.series) and G2.series.eq_to_prec(G.series))

    # precision soundness: the N-truncation of the 2N pipeline equals the N run
    # (two fresh contexts, so neither run reads the other's builds)
    with checks("precision soundness at N vs 2N") as c:
        cN, c2N = Context(q), Context(q)
        e1_N, e1_2N = eis1(cN, N), eis1(c2N, 2 * N)
        c.ok(e1_2N.h1.truncate(N).eq_to_prec(e1_N.h1)
             and e1_2N.h3.truncate(N).eq_to_prec(e1_N.h3))
        TN = hecke(cN, prime_theta(cN), e1_N)
        T2N = hecke(c2N, prime_theta(c2N), e1_2N)
        c.ok(T2N.h1.truncate(int(TN.h1._p())).eq_to_prec(TN.h1))
        c.ok(T2N.h3.truncate(int(TN.h3._p())).eq_to_prec(TN.h3))

    # serialization round-trips
    with checks("serialization round-trip") as c:
        for _ in range(cases):
            fs = _random_series(ctx, rng, N, val=-2, with_grades=True)
            c.ok(ser.series_from_json(ctx, ser.series_to_json(fs)).eq_to_prec(fs))
            x = _random_scalar(ctx, rng, with_grades=True)
            c.ok(ser.scalar_from_json(ctx.ring, ser.scalar_to_json(x)) == x)
        e1 = eis1(ctx, 10)
        back = ser.vmform_from_json(ctx, ser.vmform_to_json(e1))
        c.ok(back.h1.eq_to_prec(e1.h1) and back.h3.eq_to_prec(e1.h3)
             and back.lam == e1.lam)
    return _report("properties", q, N, checks)


# -- 12. the experimental weight q+2 computation -------------------------------------------


def suite_experimental(ctx: Context, N: int = 64, *, checks: Checks) -> dict:
    p = prime_theta(ctx)
    # on a match the detail is the last one given, the common precision
    with checks("T_p(h E1) compared with p^2 h E1") as c:
        he1 = eis1(ctx, N).mul_classical(gen_h(ctx, N))
        T = hecke(ctx, p, he1)
        expect = he1.scale(GradedScalar.from_poly(ctx.apoly(p) ** 2))
        c.same(T, expect)
        c.ok(True, "equal to common precision "
                   f"O(u^{T.h1.common_prec(expect.h1)})")
    rep = _report("weight-q2-experimental", ctx.q, N, checks, asserting=False)
    rep["verdict"] = ("agrees with eigenvalue p^2 to the computed precision"
                      if c.passed else "differs: " + c.detail)
    return rep


SUITES = {
    "generators": suite_generators,
    "det": suite_det,
    "tau-difference": suite_tau_difference,
    "hecke-eigen": suite_hecke_eigen,
    "hecke-mult-tau": suite_hecke_mult_tau,
    "legendre": suite_legendre,
    "eisenstein-aexp": suite_eis_aexp,
    "specialize-petrov": suite_specialize_petrov,
    "congruence": suite_congruence,
    "vadic": suite_vadic,
    "hyperderiv-hecke": suite_hyperderiv_hecke,
    "oracles": suite_oracles,
    "properties": suite_properties,
    "weight-q2-experimental": suite_experimental,
}


def run_suite(name: str, q: int, N: int | None = None, **kw) -> dict:
    """Run one suite over a fresh `Context(q)` and return its report.

    Every suite takes that context and records its checks on the
    `Checks` that this function hands it as ``checks``; a check that
    raises fails alone.  A suite that raises outside every check is
    reported as failed: the checks it recorded before the exception stay,
    and one more failed check carries the exception.  ``PrecisionError``
    propagates, since it asks the caller for a larger truncation rather
    than refuting a check.  However the suite ends, its context's caches
    are emptied, which breaks the cycle between the context and the
    cached builds that close over it.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn = SUITES[name]
    ctx = Context(q)
    checks = Checks()
    try:
        if N is None:
            return fn(ctx, checks=checks, **kw)
        return fn(ctx, N, checks=checks, **kw)
    except PrecisionError:
        raise
    except Exception as exc:
        checks.append({"name": "suite ran to completion", "ok": False,
                       "detail": f"{type(exc).__name__}: {exc}"})
        return _report(name, ctx.q, N, checks)
    finally:
        ctx.clear()
