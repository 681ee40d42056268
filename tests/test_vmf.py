import pytest

from carlitz_vmf import forms, vmf
from carlitz_vmf.carlitz import carlitz_binomial
from carlitz_vmf.context import Context
from carlitz_vmf.errors import (CarlitzVMFError, NotInSpanError,
                                NotIrreducibleError)
from carlitz_vmf.forms import gen_E, gen_g, gen_goss_eis, gen_h
from carlitz_vmf.polys import Poly, RatFunc
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.serialize import canonical_dumps, series_to_json
from carlitz_vmf.useries import USeries, goss_series, u_scale
from carlitz_vmf.vmf import (VMForm, chi_correction, det_pair, eis1, eis_k,
                             eis_q, hecke, lambda_1, lambda_q, legendre_fstar,
                             structure_decompose, tau_omega_inv, tau_vmf,
                             untau_vmf)
from conftest import frobenius_orbits, shared_context


def theta(ctx):
    return (ctx.base_field.zero, ctx.base_field.one)


def test_chi_correction_degree_zero(ctx):
    assert chi_correction(ctx, (ctx.base_field.one,)).is_zero()


def test_chi_correction_theta(ctx):
    """chi(theta z) = t chi(z) + om^(-1) e_c(z): one term at u^(-1)."""
    cc = chi_correction(ctx, theta(ctx))
    assert dict(cc.c) == {-1: GradedScalar.from_poly(ctx.ring.one, om=-1)}


def test_chi_correction_valuation(ctx):
    for d in (1, 2):
        for a in ctx.monics(d)[:2]:
            cc = chi_correction(ctx, a)
            if cc.is_zero():
                continue
            assert cc.val() >= -ctx.q ** (d - 1)
            shifted = cc.shift(ctx.q ** d)
            assert shifted.val() >= 0


def test_chi_correction_has_no_laurent_floor():
    """A monic of degree d has a pole of order q^(d-1): at q=2, theta^8 + 1
    reaches u^(-128), below the -q^6 that no longer bounds series."""
    ctx = Context(2)
    f = ctx.base_field
    a = (f.one,) + (f.zero,) * 7 + (f.one,)
    assert chi_correction(ctx, a).val() == -128


def test_chi_correction_uses_carlitz_binomials(ctx):
    # coefficients come from E_i(a) (tested equal to the action coefficients)
    a = ctx.monics(2)[0]
    coeffs = ctx.carlitz_coeffs(a)
    for i, c in enumerate(coeffs):
        assert carlitz_binomial(ctx, i, a) == GradedScalar.from_poly(c)


def test_eis1_shape(ctx):
    N = 12
    e1 = eis1(ctx, N)
    assert e1.regular and (e1.k, e1.m) == (1, 0)
    assert e1.h1.val() == 1
    assert e1.h1.coeff(1) == GradedScalar.from_int(ctx.ring, -1)
    assert e1.h3.coeff(0) == lambda_1(ctx)
    assert e1.lam == lambda_1(ctx)


def test_eis_q_matches_twist(ctx):
    N = 14
    assert tau_vmf(eis1(ctx, N)).first_difference(eis_q(ctx, N)) is None


def test_tau_untau_round_trip(ctx):
    N = 10
    e1 = eis1(ctx, N)
    T = tau_vmf(e1)
    back = untau_vmf(T, e1.k, e1.m, regular=True)
    assert back.first_difference(e1) is None


def test_regularity_constructor(ctx):
    bad_h1 = USeries.one(ctx, 5)  # valuation 0
    with pytest.raises(CarlitzVMFError):
        VMForm(ctx, 1, 0, bad_h1, USeries.zero(ctx, 5), regular=True)
    if ctx.q == 3:
        # weight 2 type 0 admits no nonzero regular forms (2 != 1 mod 2)
        with pytest.raises(CarlitzVMFError):
            VMForm(ctx, 2, 0, USeries.u(ctx, 5), USeries.zero(ctx, 5),
                   regular=True)


def test_weak_form_loses_regularity_under_twist(ctx):
    N = 10
    fstar, d2, d3 = legendre_fstar(ctx, N)
    Ehat = gen_goss_eis(ctx, ctx.q - 1, N)
    weak = fstar.mul_classical(Ehat)
    # first gauge coordinate has valuation 0: constant term is nonzero
    assert weak.h1.val() == 0
    assert not weak.regular
    T = tau_vmf(weak)
    assert T.h3.val() < 0  # the twisted second coordinate becomes Laurent


def test_det_pair_antisymmetry(ctx):
    N = 10
    e1 = eis1(ctx, N)
    assert det_pair(e1, e1).series.is_zero()


def test_structure_decompose_basis(ctx):
    N = 14
    eqf = eis_q(ctx, N)
    F, G = structure_decompose(ctx, eqf)
    assert F.series.is_zero()
    assert G.series.coeff(0).is_one()
    assert all(G.series.coeff(n).is_zero() for n in range(1, int(G.series._p())))


def test_structure_decompose_hfstar(ctx):
    N = 16
    fstar, _, _ = legendre_fstar(ctx, N)
    hf = fstar.mul_classical(gen_h(ctx, N))
    F, G = structure_decompose(ctx, hf)
    e1 = eis1(ctx, N)
    eqf = eis_q(ctx, N)
    back1 = F.series * e1.h1 + G.series * eqf.h1
    back3 = F.series * e1.h3 + G.series * eqf.h3
    assert back1.eq_to_prec(hf.h1)
    assert back3.eq_to_prec(hf.h3)
    assert (F.weight, G.weight) == (hf.k - 1, hf.k - ctx.q)


def _decomposable(ctx, N):
    """E1, and g e1 + tau(e1), at N."""
    one = forms.ClassicalForm(ctx, 0, 0, USeries.one(ctx).truncate(N))
    return eis1(ctx, N), vmf.compose_structure(ctx, gen_g(ctx, N), one, N)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_structure_decompose_builds_det_once_per_precision(monkeypatch, q):
    """Two decompositions at one N in one context build det(E1, E_q) once
    and invert it once; a decomposition at another N builds and inverts
    its own.  Each F and G equals num / den, formed by division in a
    fresh context, in coefficients and precision."""
    N, M = 14, 11
    want = []
    c0 = Context(q)
    den = det_pair(eis1(c0, N), eis_q(c0, N)).series
    for H in _decomposable(c0, N):
        for num in (det_pair(H, eis_q(c0, N)), det_pair(eis1(c0, N), H)):
            quo = num.series / den
            want.append((quo.c, quo.prec))

    ctx = Context(q)
    forms_at_N = _decomposable(ctx, N)
    eis_q(ctx, N)
    pairs, inverses = [], []
    pair, inverse = vmf.det_pair, USeries.inverse
    monkeypatch.setattr(vmf, "det_pair",
                        lambda H1, H2: pairs.append(1) or pair(H1, H2))
    monkeypatch.setattr(USeries, "inverse", lambda self, *args: (
        inverses.append(self.prec) or inverse(self, *args)))
    got = []
    for H in forms_at_N:
        got += [(s.series.c, s.series.prec)
                for s in structure_decompose(ctx, H)]
    assert got == want
    # two numerators per call, one determinant and one inverse per N
    assert (len(pairs), len(inverses)) == (5, 1)
    structure_decompose(ctx, eis1(ctx, M))
    assert (len(pairs), len(inverses)) == (8, 2)
    assert inverses[1] < inverses[0]


def test_structure_decompose_weight_check(ctx):
    if ctx.q == 2:
        pytest.skip("every weight admits regular forms when q = 2")
    H = VMForm(ctx, 2, 0, USeries.zero(ctx, 8), USeries.zero(ctx, 8))
    with pytest.raises(CarlitzVMFError):
        structure_decompose(ctx, H)


def test_eis_k_weight_validation(ctx):
    if ctx.q > 2:
        with pytest.raises(ValueError):
            eis_k(ctx, 2, 10)
    with pytest.raises(ValueError):
        eis_k(ctx, 0, 10)


def test_hecke_requires_regular_and_prime(ctx):
    N = 12
    e1 = eis1(ctx, N)
    sq = (ctx.base_field.zero, ctx.base_field.zero, ctx.base_field.one)
    with pytest.raises(NotIrreducibleError):
        hecke(ctx, sq, e1)
    weak = VMForm(ctx, 1, 0, e1.h1, e1.h3, regular=False)
    with pytest.raises(CarlitzVMFError):
        hecke(ctx, theta(ctx), weak)


def test_hecke_eigen_small(ctx):
    N = 3 * ctx.q + ctx.q ** 2
    e1 = eis1(ctx, N)
    p = theta(ctx)
    T = hecke(ctx, p, e1)
    assert T.first_difference(e1.scale(GradedScalar.from_poly(ctx.apoly(p)))) is None
    assert T.regular


def test_legendre_displays_match_engine_values(ctx):
    """The q = 2 displayed values and the engine-forced q = 3 values; the
    source-display discrepancies at q = 3 are exercised in the acceptance
    suite, which reports them as stated."""
    N = 24
    fstar, d2, d3 = legendre_fstar(ctx, N)
    tm = ctx.ring.t - ctx.ring.theta
    assert d2.coeff(0).is_one()
    assert d2.coeff(ctx.q - 1) == -GradedScalar.from_poly(tm)
    assert not fstar.regular
    assert (fstar.k, fstar.m) == (-1, (-1) % max(ctx.q - 1, 1))
    # tau(om) d3 leading data
    s = GradedScalar(ctx.ring, {(0, 1): RatFunc(tm, None)})
    taud3 = d3.scale(s)
    if ctx.q == 2:
        assert taud3.coeff(0) == GradedScalar.from_poly(ctx.ring.theta + ctx.ring.t)
    else:
        assert taud3.val() == ctx.q - 2
        assert taud3.coeff(ctx.q - 2) == GradedScalar.from_poly(
            ctx.ring.theta - ctx.ring.t)


def test_lambda_values(ctx):
    q = ctx.q
    tq = Poly(ctx.ring, {(q, 0): ctx.ring.field.one})
    lq = lambda_q(ctx)
    want = GradedScalar(
        ctx.ring,
        {(0, -1): RatFunc(ctx.ring.one,
                          (ctx.ring.t - tq) * (ctx.ring.t - ctx.ring.theta))})
    assert lq == want
    # the twist of lambda_1's reciprocal normalization:
    # tau(lambda_1) relates the two constants
    l1 = lambda_1(ctx)
    assert l1.tau(q) == GradedScalar(
        ctx.ring,
        {(0, -1): RatFunc(ctx.ring.one,
                          (ctx.ring.t - tq) * (ctx.ring.t - ctx.ring.theta))})


def test_eis_k_refuses_a_first_coordinate_outside_the_span(monkeypatch):
    # a fresh context, so no cached eis_k answers before the solve
    ctx = Context(2)
    N, k = 16, 3
    real = vmf._eis_sums

    def stray(ctx, weight, N):
        h1, chi = real(ctx, weight, N)
        if weight == k:
            h1 = h1 + USeries(ctx, {N - 1: GradedScalar.one(ctx.ring)}, N)
        return h1, chi

    monkeypatch.setattr(vmf, "_eis_sums", stray)
    with pytest.raises(NotInSpanError) as exc:
        eis_k(ctx, k, N)
    residual = exc.value.residual
    assert residual is not None and not residual.is_zero()


def test_eis_k_lambda_and_regularity(ctx):
    N = 16
    k = 2 * ctx.q - 1
    ek = eis_k(ctx, k, N)
    assert ek.regular
    assert ek.lam is not None
    assert ek.lam.single_grade()[0] == (0, -1)
    # the lowest exponent of the weight-k expansion is the valuation of
    # the k-th lattice polynomial, which exceeds 1 once k > q
    assert 1 <= ek.h1.val() <= k


@pytest.mark.parametrize("q, N, p, precs", [
    (2, 32, (0, 1), (17, 16)),
    (2, 32, (1, 1), (17, 16)),
    (2, 32, (1, 1, 1), (9, 9)),
    (3, 27, (1, 0, 1), (4, 4)),
], ids=["q2-theta", "q2-theta+1", "q2-theta2+theta+1", "q3-theta2+1"])
def test_hecke_image_precision(q, N, p, precs):
    """The trace terms fix the precision of T_p E1: ceil((N-1)/q^deg p)+1 in
    h1, and possibly less in h3, whose r0 part traces h1 shifted down by up
    to q^(deg p - 1)."""
    ctx = shared_context(q)
    e1 = eis1(ctx, N)
    T = hecke(ctx, p, e1)
    assert (T.h1.prec, T.h3.prec) == precs
    assert T.first_difference(e1.scale(GradedScalar.from_poly(ctx.apoly(p)))) is None


# -- the builders: term-by-term sums and one inverse per monic ------------------


def _plain(ctx, terms, N):
    """{n: sum of c f_m over the (c, f, k) in terms with m + k = n < N}, for
    f a dict {m: f_m} and c a GradedScalar or None, by GradedScalar
    arithmetic."""
    out = {}
    for c, f, k in terms:
        for m, fm in f.items():
            if m + k < N:
                v = fm if c is None else c * fm
                out[m + k] = out.get(m + k, GradedScalar.zero(ctx.ring)) + v
    return {n: v for n, v in out.items() if not v.is_zero()}


def _plain_pow(ctx, S, e, N):
    out = {0: GradedScalar.one(ctx.ring)}
    for _ in range(e):
        out = _plain(ctx, [(c, S, n) for n, c in out.items()], N)
    return out


@pytest.mark.parametrize("q, N", [(2, 16), (3, 12), (4, 20)],
                         ids=["q2", "q3", "q4"])
def test_builders_match_term_by_term_sums(q, N):
    """E, g, E1 and E_q equal their monic-indexed sums taken one term and
    one coefficient at a time, byte for byte once serialized."""
    ctx = Context(q)
    one, monics = GradedScalar.one(ctx.ring), ctx.monics_below(N)
    # u(a z) far enough that chi_correction(a) * u(a z) is known below N
    S = {a: u_scale(ctx, a, 2 * N).c for a in monics}
    Sq = {a: _plain_pow(ctx, S[a], q, 2 * N) for a in monics}
    S_q1 = {a: _plain_pow(ctx, S[a], q - 1, N) for a in monics}
    cc = {a: chi_correction(ctx, a).c for a in monics}
    chi = {a: -GradedScalar.from_poly(ctx.chi(a)) for a in monics}
    E = _plain(ctx, [(GradedScalar.from_poly(ctx.apoly(a)), S[a], 0)
                     for a in monics], N)
    g = _plain(ctx, [(None, {0: one}, 0)] + [
        (-GradedScalar.from_poly(ctx.D(1)), S_q1[a], 0) for a in monics], N)
    e1_h1 = _plain(ctx, [(chi[a], S[a], 0) for a in monics], N)
    e1_h3 = _plain(ctx, [(lambda_1(ctx), {0: one}, 0)] + [
        (c, S[a], n) for a in monics for n, c in cc[a].items()], N)
    eq_h1 = _plain(ctx, [(chi[a], Sq[a], 0) for a in monics], N)
    eq_h3 = _plain(ctx, [(lambda_q(ctx), {0: one}, 0)] + [
        (tau_omega_inv(ctx), S_q1[a], 0) for a in monics] + [
        (c, Sq[a], n) for a in monics for n, c in cc[a].items()], N)
    e1, eq = eis1(ctx, N), eis_q(ctx, N)
    for built, plain in ((gen_E(ctx, N).series, E), (gen_g(ctx, N).series, g),
                         (e1.h1, e1_h1), (e1.h3, e1_h3),
                         (eq.h1, eq_h1), (eq.h3, eq_h3)):
        assert canonical_dumps(series_to_json(built)) == \
            canonical_dumps(series_to_json(USeries(ctx, plain, N)))


@pytest.mark.parametrize("q, N, build", [
    (2, 32, eis1),
    (3, 12, eis_q),
    (4, 40, lambda ctx, N: eis_k(ctx, 4, N)),
    (3, 15, lambda ctx, N: eis_k(ctx, 5, N)),
], ids=["eis1-q2", "eis_q-q3", "eis_k4-q4", "eis_k5-q3"])
def test_one_inverse_per_monic(monkeypatch, q, N, build):
    """u_scale is asked for the higher precision first, so a builder on a
    fresh context inverts once per Frobenius orbit of monics of degree
    >= 1 below N (once per monic over a prime field)."""
    calls = []
    inverse = USeries.inverse

    def counted(self, *args):
        calls.append(self)
        return inverse(self, *args)

    monkeypatch.setattr(USeries, "inverse", counted)
    ctx = Context(q)
    build(ctx, N)
    assert len(calls) == len(frobenius_orbits(
        ctx, [a for a in ctx.monics_below(N) if len(a) > 1]))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_chi_terms_sum_to_chi_correction(q):
    """Each monic of degree <= 3: the terms (-q^(i-l-1),
    [a]_i tau^(i-l)(b_l) om^(-1)), one per l < i <= deg a with [a]_i != 0,
    written out here from b_l = prod_(j<l) (t - theta^(q^j)); summed, they
    are chi_correction(a)."""
    ctx = Context(q)
    one = ctx.ring.field.one

    def twisted_b(l, n):
        out = ctx.ring.one
        for j in range(l):
            out = out * (ctx.ring.t - Poly(ctx.ring, {(q ** (j + n), 0): one}))
        return out

    for d in range(4):
        for a in ctx.monics(d):
            coeffs = ctx.carlitz_coeffs(a)
            pairs = [(l, i) for l in range(d) for i in range(l + 1, d + 1)
                     if not coeffs[i].is_zero()]
            expect = {}
            for l, i in pairs:
                c = GradedScalar.from_poly(coeffs[i] * twisted_b(l, i - l), om=-1)
                n = -q ** (i - l - 1)
                expect[n] = expect[n] + c if n in expect else c
            expect = {n: c for n, c in expect.items() if not c.is_zero()}
            terms = vmf._chi_terms(ctx, a)
            assert len(terms) == len(pairs)
            summed = {}
            for n, c in terms:
                summed[n] = summed[n] + c if n in summed else c
            summed = {n: c for n, c in summed.items() if not c.is_zero()}
            assert summed == expect == dict(chi_correction(ctx, a).c)


@pytest.mark.parametrize("q, k, N", [(2, 3, 16), (3, 5, 15), (4, 7, 20)],
                         ids=["q2-k3", "q3-k5", "q4-k7"])
def test_eis_k_evaluates_goss_once_per_monic(monkeypatch, q, k, N):
    """On a fresh context, eis_k(k) evaluates G_k at u(a z) once for each
    Frobenius orbit of monics a below N (once per monic over a prime
    field): the first coordinate and the chi-sum of the second come from
    the same evaluations."""
    seen = []
    real = goss_series

    def counted(ctx, L, weight, a, prec):
        if weight == k:
            seen.append(a)
        return real(ctx, L, weight, a, prec)

    for mod in (forms, vmf):
        monkeypatch.setattr(mod, "goss_series", counted)
    ctx = Context(q)
    eis_k(ctx, k, N)
    assert len(seen) == len(frobenius_orbits(ctx, ctx.monics_below(N)))
