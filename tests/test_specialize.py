import functools

import pytest

from carlitz_vmf import forms, specialize, useries
from carlitz_vmf.context import Context
from carlitz_vmf.errors import NotIrreducibleError
from carlitz_vmf.fields import residue_field
from carlitz_vmf.forms import gen_E, gen_h
from carlitz_vmf.polys import Poly, RatFunc
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.useries import USeries, u_scale
from carlitz_vmf.vmf import eis1, eis_q, legendre_fstar
from carlitz_vmf.specialize import (RootContext, congruence_check,
                                    enumerate_primes, eval_root_form,
                                    eval_theta_power_vmf, hecke_compat_check,
                                    hyperderiv_form, phi_rep,
                                    vadic_check)
from conftest import frobenius_orbits, shared_context


def theta(ctx):
    return (ctx.base_field.zero, ctx.base_field.one)


def test_root_context_validation(ctx):
    sq = (ctx.base_field.zero, ctx.base_field.zero, ctx.base_field.one)
    with pytest.raises(NotIrreducibleError):
        RootContext(ctx, sq)
    with pytest.raises(ValueError):
        RootContext(ctx, theta(ctx), frobenius_power=1)


def test_root_is_root(ctx):
    for p in enumerate_primes(ctx, 2):
        rc = RootContext(ctx, p)
        acc = rc.field.zero
        for i, c in enumerate(p):
            # an element of F_q keeps its code in the residue field
            acc = rc.field.add(acc, rc.field.mul(c, rc.field.pow(rc.zeta, i)))
        assert acc == rc.field.zero


def test_eval_root_form_expansion(ctx):
    N = 12
    e1 = eis1(ctx, N)
    p = enumerate_primes(ctx, 2)[-1]
    rc = RootContext(ctx, p)
    F = eval_root_form(e1, rc)
    # -sum a(zeta) u(az), leading coefficient -1 at u
    sctx = rc.spec_ctx
    expect = USeries.zero(sctx, N)
    for a in sctx.monics_below(N):
        az = sctx.chi(a).subs_t_elt(sctx.ring, rc.zeta_power)
        expect = expect - u_scale(sctx, a, N).scale(GradedScalar.from_poly(az))
    assert F.series.first_difference(expect) is None
    assert F.series.val() == 1
    assert (F.weight, F.type_) == (e1.k, e1.m + 1)


def test_conjugates_linearly_independent(ctx):
    deg2 = [p for p in enumerate_primes(ctx, 2) if len(p) == 3]
    p = deg2[0]
    rcs = RootContext(ctx, p).conjugates()
    assert len(rcs) == 2
    # the matrix of the first two character values over the monics
    field = rcs[0].field
    monics = [(ctx.base_field.one,), theta(ctx)]
    rows = []
    for rc in rcs:
        row = []
        for a in monics:
            sctx = rc.spec_ctx
            val = sctx.chi(a).subs_t_elt(sctx.ring, rc.zeta_power)
            row.append(val.coeff(0, 0))
        rows.append(row)
    det = field.sub(field.mul(rows[0][0], rows[1][1]),
                    field.mul(rows[0][1], rows[1][0]))
    assert det != field.zero


def test_quasimodular_classification(ctx):
    N = 14
    e1 = eis1(ctx, N)
    eta1, eta3, info = eval_theta_power_vmf(e1, 1)
    assert info["expected"] == "zero"
    assert info["is_zero"]
    eta1, eta3, info = eval_theta_power_vmf(e1, 0)
    assert info["expected"].startswith("modular of weight 0")
    assert info["is_modular"]
    # the weight-0 expression is the constant -1 (after removing pi^(-1))
    assert info["gh_expression"] == {(0, 0): GradedScalar.from_int(ctx.ring, -1)}


def test_quasimodular_classification_lets_program_faults_through(monkeypatch):
    # only "not in the span" and "too little precision" mean not modular
    ctx = shared_context(2)
    e1 = eis1(ctx, 14)

    def broken(ctx, form):
        raise TypeError("a fault in the solver")

    monkeypatch.setattr(specialize, "express_in_gh", broken)
    with pytest.raises(TypeError, match="a fault in the solver"):
        eval_theta_power_vmf(e1, 0)


def test_congruence_and_vadic_reports(ctx):
    p = theta(ctx)
    rc = RootContext(ctx, p)
    rep = congruence_check(rc, 10)
    assert rep["ok"]
    rep = vadic_check(rc, 1, 8)
    assert rep["ok"]


def test_congruence_zero_series_trivial(ctx):
    # the checker on an identically-zero difference accepts trivially:
    # take p = theta and N = 2 so only the a = 1 term survives, which
    # cancels exactly
    rc = RootContext(ctx, theta(ctx))
    rep = congruence_check(rc, 2)
    assert rep["ok"]


def test_hyperderiv_form(ctx):
    N = 12
    e1 = eis1(ctx, N)
    p = theta(ctx)
    rc = RootContext(ctx, p)
    f1 = hyperderiv_form(e1, 1, rc)
    f0 = eval_root_form(e1, rc)
    assert f1.series.first_difference(f0.series) is None
    assert f1.level_power == 1
    f2 = hyperderiv_form(e1, 2, rc)
    assert f2.level_power == 2
    # the expansion is -sum ev(d_t a(t)) u(az): the a=1 slot dies
    sctx = rc.spec_ctx
    expect = USeries.zero(sctx, N)
    for a in sctx.monics_below(N):
        da = sctx.chi(a).hyperderiv_t(1).subs_t_elt(sctx.ring, rc.zeta_power)
        expect = expect - u_scale(sctx, a, N).scale(GradedScalar.from_poly(da))
    assert f2.series.first_difference(expect) is None
    assert f2.series.coeff(1).is_zero()


def test_bounded_at_infinity_shadow(ctx):
    N = 12
    corpus = [eis1(ctx, N), eis_q(ctx, N)]
    fstar, _, _ = legendre_fstar(ctx, N)
    corpus.append(fstar.mul_classical(gen_h(ctx, N)))
    for p in enumerate_primes(ctx, 2):
        for rc in RootContext(ctx, p).conjugates():
            for H in corpus:
                ev1 = H.h1.eval_root(rc)
                ev3 = H.h3.eval_root(rc)
                assert not ev1.c or ev1.val() >= 0
                assert not ev3.c or ev3.val() >= 0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3])
def test_hecke_compat_both_cases(q, n):
    ctx = shared_context(q)
    N = 20
    e1 = eis1(ctx, N)
    p = theta(ctx)
    q0 = (ctx.base_field.one, ctx.base_field.one)
    rep = hecke_compat_check(e1, p, RootContext(ctx, q0), n)
    assert rep["pre_ok"] and rep["pre_first_difference"] is None
    assert rep["post_ok"] and rep["ok"]
    rep = hecke_compat_check(e1, p, RootContext(ctx, p), n)
    assert rep["pre_ok"] and rep["pre_first_difference"] is None
    assert rep["correction_matches"] and rep["ok"]


def test_phi_rep(ctx):
    a = theta(ctx)
    m1 = phi_rep(ctx, 1, a)
    assert m1 == [[ctx.chi(a)]]
    # multiplicativity at n = 3 over a quadratic residue field
    deg2 = [p for p in enumerate_primes(ctx, 2) if len(p) == 3]
    rc = RootContext(ctx, deg2[0])
    b = (ctx.base_field.one, ctx.base_field.one)
    ab = _mul(ctx, a, b)
    A, B, AB = (phi_rep(ctx, 3, x, rc) for x in (a, b, ab))
    F = rc.field
    prod = [[functools.reduce(F.add, (F.mul(A[i][k], B[k][j]) for k in range(3)))
             for j in range(3)] for i in range(3)]
    assert prod == AB


def _mul(ctx, a, b):
    base = ctx.base_field
    out = [base.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = base.add(out[i + j], base.mul(x, y))
    return tuple(out)


def test_phi_kernel_is_prime_power(ctx):
    p = theta(ctx)
    rc = RootContext(ctx, p)
    n = 2
    pp = _mul(ctx, p, p)
    zero = [[rc.field.zero] * n for _ in range(n)]
    # sweep all a of degree < 2 deg(p) + 1
    base = ctx.base_field
    sweep = []
    for d in range(0, 4):
        sweep.extend(ctx.monics(d))
    for a in sweep:
        M = phi_rep(ctx, n, a, rc)
        vanishes = M == zero
        divisible = _divides(ctx, pp, a)
        assert vanishes == divisible, (a, M)
        # invertibility happens exactly when a(zeta) != 0
        diag = M[0][0]
        det_nonzero = diag != rc.field.zero
        a_at_root = ctx.chi(a).subs_t_elt(rc.spec_ring, rc.zeta_power).coeff(0, 0)
        assert det_nonzero == (a_at_root != rc.field.zero)


def _divides(ctx, d, a):
    # polynomial divisibility over the base field via coefficient lists
    base = ctx.base_field
    a = list(a)
    dd = list(d)
    while len(a) >= len(dd):
        if all(x == base.zero for x in a):
            return True
        lead = a[-1]
        if lead == base.zero:
            a.pop()
            continue
        # subtract lead * theta^(len(a)-len(dd)) * d
        k = len(a) - len(dd)
        for i, c in enumerate(dd):
            a[k + i] = base.sub(a[k + i], base.mul(lead, c))
        while a and a[-1] == base.zero:
            a.pop()
    return all(x == base.zero for x in a)


# -- the F_(q^d) context borrows u(a z) and E from its F_q parent ----------


BORROW_N = {2: 12, 3: 12, 4: 20}  # every case reaches a monic of degree 2


def _orphan(rc):
    """A context over the residue field of rc with no F_q parent: it
    solves every u(a z) and sums E over F_(q^d) itself."""
    return Context(rc.ctx.q, coeff_field=residue_field(rc.ctx.base_field, rc.p))


def _borrowed_equals_solved(sctx, orphan, N):
    same = [u_scale(sctx, a, N).c == u_scale(orphan, a, N).c
            for a in sctx.monics_below(N)]
    E, E0 = gen_E(sctx, N).series, gen_E(orphan, N).series
    return all(same) and E.c == E0.c and E.prec == E0.prec == N


@pytest.mark.parametrize("q", [2, 3, 4])
def test_borrowed_series_equal_a_solve_over_the_residue_field(q):
    ctx = Context(q)
    N = BORROW_N[q]
    for d in (1, 2):
        p = next(p for p in enumerate_primes(ctx, 2) if len(p) == d + 1)
        rc = RootContext(ctx, p)
        orphan = _orphan(rc)
        assert rc.spec_ctx.parent is ctx and orphan.parent is None
        assert _borrowed_equals_solved(rc.spec_ctx, orphan, N)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_conjugate_root_contexts_share_one_solve_per_monic(monkeypatch, q):
    """congruence_check on every conjugate root of every prime of degree
    <= 2 inverts the Carlitz series once per Frobenius orbit of monics,
    over F_q (once per monic over a prime field)."""
    solved = []
    inverse = USeries.inverse

    def counted(self, *args):
        solved.append(self.ctx)
        return inverse(self, *args)

    monkeypatch.setattr(USeries, "inverse", counted)
    ctx = Context(q)
    N = BORROW_N[q]
    for p in enumerate_primes(ctx, 2):
        for rc in RootContext(ctx, p).conjugates():
            assert congruence_check(rc, N)["ok"]
    assert len(solved) == len(frobenius_orbits(
        ctx, [a for a in ctx.monics_below(N) if len(a) > 1]))
    assert all(c is ctx for c in solved)


def test_a_frobenius_twisted_embedding_is_caught(monkeypatch):
    """The equality above fails for an embedding composed with x -> x^p.
    Over F_4 that moves the coefficients outside F_2; over F_2 and F_3 it
    is the identity on F_q, so only q = 4 can show it."""
    ctx = Context(4)
    rc = RootContext(ctx, theta(ctx))
    sctx, orphan = rc.spec_ctx, _orphan(rc)
    embed, field = useries.embed_series, sctx.coeff_field

    def twist(p):
        return Poly(p.ring, {k: field.frobenius(v) for k, v in p.c.items()})

    def twisted(ctx, f):
        return embed(ctx, f).map_scalars(lambda c: GradedScalar(c.ring, {
            g: RatFunc(twist(r.num), twist(r.den), reduce=False)
            for g, r in c.terms.items()}))

    for mod in (useries, forms):
        monkeypatch.setattr(mod, "embed_series", twisted)
    assert not _borrowed_equals_solved(sctx, orphan, BORROW_N[4])
