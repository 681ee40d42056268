import pytest

from carlitz_vmf.errors import (NotInSpanError, NotIrreducibleError,
                                PrecisionError)
from carlitz_vmf.forms import (ClassicalForm, a_expansion, express_in_gh,
                               gen_Delta, gen_E, gen_fs, gen_g, gen_goss_eis,
                               gen_h, gen_h_derivation, gh_monomials,
                               level_Ep, para_eisenstein,
                               ramanujan_serre, w_involution_check)
from carlitz_vmf.polys import RatFunc
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.useries import USeries
from conftest import shared_context


def test_g_display(ctx):
    q = ctx.q
    v = q - 1
    top = v * (q * q - q + 1)
    g = gen_g(ctx, top + 4)
    assert g.series.coeff(0).is_one()
    br = GradedScalar.from_poly(ctx.D(1))
    assert g.series.coeff(v) == -br
    assert g.series.coeff(top) == -br
    for n in range(v + 1, top):
        assert g.series.coeff(n).is_zero()


def test_E_display(ctx):
    q = ctx.q
    E = gen_E(ctx, (q - 1) ** 2 + 4)
    assert E.series.val() == 1
    assert E.series.coeff(1).is_one()
    assert E.series.coeff(1 + (q - 1) ** 2).is_one()
    assert (E.weight, E.type_) == (2, 1 % max(q - 1, 1))


def test_h_leading_and_both_routes(ctx):
    N = 3 * ctx.q
    h = gen_h(ctx, N)
    assert h.series.val() == 1
    assert h.series.coeff(1) == GradedScalar.from_int(ctx.ring, -1)
    h2 = gen_h_derivation(ctx, N)
    assert h2.series.prec == h.series.prec == N
    assert h.series.eq_to_prec(h2.series)
    # the displayed second term -u(1 + v^(q-1) + ...)
    e = 1 + (ctx.q - 1) ** 2
    if e < N:
        assert h.series.coeff(e) == GradedScalar.from_int(ctx.ring, -1)


def test_delta_is_minus_h_power(ctx):
    N = 20
    Delta = gen_Delta(ctx, N)
    h = gen_h(ctx, N)
    assert Delta.series.eq_to_prec(-(h.series ** (ctx.q - 1)))
    assert (Delta.weight, Delta.type_) == (ctx.q ** 2 - 1, 0)


def test_a_expansion_zero_coefficient(ctx):
    z = a_expansion(ctx, lambda a: GradedScalar.zero(ctx.ring), 1, 10)
    assert z.is_zero()


def test_weight_type_bookkeeping(ctx):
    N = 12
    g = gen_g(ctx, N)
    h = gen_h(ctx, N)
    prod = g * h
    assert prod.weight == g.weight + h.weight
    assert prod.type_ == (g.type_ + h.type_) % max(ctx.q - 1, 1)
    with pytest.raises(ValueError):
        g + h


def test_express_in_gh_basics(ctx):
    N = 14
    Delta = gen_Delta(ctx, N)
    expr = express_in_gh(ctx, Delta)
    assert expr == {(0, ctx.q - 1): GradedScalar.from_int(ctx.ring, -1)}
    g = gen_g(ctx, N)
    assert express_in_gh(ctx, g) == {(1, 0): GradedScalar.one(ctx.ring)}
    # E is quasimodular, not modular
    E = gen_E(ctx, N)
    with pytest.raises(NotInSpanError) as exc:
        express_in_gh(ctx, E)
    residual = exc.value.residual
    assert residual is not None and not residual.coeff(1).is_zero()


def test_express_in_gh_round_trip_random(ctx):
    import random

    rng = random.Random(17)
    N = 50
    q = ctx.q
    g = gen_g(ctx, N)
    h = gen_h(ctx, N)
    for _ in range(5):
        weight = rng.choice([q * q - 1, (q - 1) + (q + 1)])
        type_ = (weight // (q + 1)) % max(q - 1, 1)
        pairs = gh_monomials(ctx, weight, type_)
        if not pairs:
            continue
        want = {}
        series = USeries.zero(ctx, N)
        for pair in pairs:
            c = GradedScalar.from_int(ctx.ring, rng.randrange(ctx.p))
            if c.is_zero():
                continue
            want[pair] = c
            mono = (g.series ** pair[0] * h.series ** pair[1]).truncate(N)
            series = series + mono.scale(c)
        f = ClassicalForm(ctx, weight, type_, series)
        got = express_in_gh(ctx, f)
        assert got == want


def test_express_in_gh_underdetermined(ctx):
    f = ClassicalForm(ctx, ctx.q ** 2 - 1, 0, USeries.one(ctx, 2))
    with pytest.raises(PrecisionError):
        express_in_gh(ctx, f)


def test_eisenstein_span_nonsingular(ctx):
    # g^(q+1) and Delta span the weight q^2-1 space: both express uniquely
    N = 14
    g = gen_g(ctx, N)
    combo = ClassicalForm(ctx, ctx.q ** 2 - 1, 0,
                          (g.series ** (ctx.q + 1)).truncate(N)
                          + gen_Delta(ctx, N).series.scale(
                              GradedScalar.from_int(ctx.ring, 1)))
    expr = express_in_gh(ctx, combo)
    assert expr[(ctx.q + 1, 0)] == GradedScalar.one(ctx.ring)
    assert expr[(0, ctx.q - 1)] == GradedScalar.from_int(ctx.ring, -1)


def test_goss_eisenstein_and_g(ctx):
    N = 16
    Ehat = gen_goss_eis(ctx, ctx.q - 1, N)
    lhs = Ehat.series.scale(GradedScalar.from_poly(ctx.D(1)))
    assert lhs.eq_to_prec(gen_g(ctx, N).series)
    if ctx.q > 2:
        with pytest.raises(ValueError):
            gen_goss_eis(ctx, ctx.q, N)


def test_para_eisenstein(ctx):
    N = 12
    a0 = para_eisenstein(ctx, 0, N)
    assert a0.series.eq_to_prec(USeries.one(ctx, N))
    a1 = para_eisenstein(ctx, 1, N)
    expect = gen_g(ctx, N).series.scale(
        GradedScalar.from_rat(RatFunc(ctx.ring.one, ctx.D(1))))
    assert a1.series.eq_to_prec(expect)
    assert a1.weight == ctx.q - 1
    a2 = para_eisenstein(ctx, 2, N)
    assert a2.weight == ctx.q ** 2 - 1


def test_ramanujan_serre(ctx):
    N = 14
    g = gen_g(ctx, N)
    d = ramanujan_serre(ctx, g)
    assert (d.weight, d.type_) == (g.weight + 2, (g.type_ + 1) % max(ctx.q - 1, 1))
    # weight divisible by the characteristic kills the E-term
    const = ClassicalForm(ctx, 0, 0, USeries.one(ctx, N))
    d0 = ramanujan_serre(ctx, const)
    assert d0.series.is_zero()


def test_level_form(ctx):
    N = 4 * ctx.q
    theta = (ctx.base_field.zero, ctx.base_field.one)
    Ep = level_Ep(ctx, theta, N)
    assert Ep.series.val() == 1
    assert Ep.series.coeff(1).is_one()
    with pytest.raises(ValueError):
        level_Ep(ctx, (ctx.base_field.one,), N)  # degree zero
    sq = (ctx.base_field.zero, ctx.base_field.zero, ctx.base_field.one)
    with pytest.raises(NotIrreducibleError):
        level_Ep(ctx, sq, N)


def test_w_involution(ctx):
    theta = (ctx.base_field.zero, ctx.base_field.one)
    rep = w_involution_check(ctx, theta, 8)
    assert rep["ok"]
    p2 = (ctx.base_field.one, ctx.base_field.one)
    assert w_involution_check(ctx, p2, 8)["ok"]
    if ctx.q == 2:
        p3 = (ctx.base_field.one, ctx.base_field.one, ctx.base_field.one)
        assert w_involution_check(ctx, p3, 8)["ok"]


def test_fs_family(ctx):
    N = 12
    f1 = gen_fs(ctx, 1, N)
    assert f1.series.val() == 1
    assert f1.weight == 2 + (ctx.q - 1)
    # h = -f_1
    h = gen_h(ctx, N)
    assert h.series.eq_to_prec(-f1.series)
    with pytest.raises(ValueError):
        gen_fs(ctx, 0, N)
