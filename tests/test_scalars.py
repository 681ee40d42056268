import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from carlitz_vmf.context import Context
from carlitz_vmf.errors import (EvaluationPoleError, MixedGradeError,
                                NotTauImageError)
from carlitz_vmf.polys import Poly, RatFunc
from carlitz_vmf.scalars import GradedScalar, eval_root, eval_theta_power
from conftest import shared_context


def lam1(ctx):
    return GradedScalar(
        ctx.ring, {(0, -1): RatFunc(ctx.ring.one, ctx.ring.t - ctx.ring.theta)}
    )


def test_grade_addition_under_product(ctx3):
    ctx = ctx3
    pi = GradedScalar.from_poly(ctx.ring.one, pi=1)
    om = GradedScalar.from_poly(ctx.ring.one, om=1)
    prod = pi * om
    assert prod.single_grade()[0] == (1, 1)


def test_single_grade_inverse(ctx3):
    ctx = ctx3
    x = GradedScalar(ctx.ring,
                     {(0, 1): RatFunc(ctx.ring.t - ctx.ring.theta, None)})
    y = x.inv()
    assert (x * y).is_one()
    assert y.single_grade()[0] == (0, -1)


def test_mixed_grade_inverse_raises(ctx3):
    ctx = ctx3
    x = GradedScalar.one(ctx.ring) + GradedScalar.from_poly(ctx.ring.one, om=1)
    with pytest.raises(MixedGradeError):
        x.inv()
    with pytest.raises(ZeroDivisionError):
        GradedScalar.zero(ctx.ring).inv()


def test_tau_rules(ctx):
    q = ctx.q
    th = GradedScalar.from_poly(ctx.ring.theta)
    assert th.tau(q) == GradedScalar.from_poly(
        Poly(ctx.ring, {(q, 0): ctx.ring.field.one}))
    pi = GradedScalar.from_poly(ctx.ring.one, pi=1)
    assert pi.tau(q).single_grade()[0] == (q, 0)
    # the twisted value of -1/((t-theta) om)
    x = -lam1(ctx)
    got = x.tau(q)
    tq = Poly(ctx.ring, {(q, 0): ctx.ring.field.one})
    den = (ctx.ring.t - tq) * (ctx.ring.t - ctx.ring.theta)
    assert got == GradedScalar(ctx.ring, {(0, -1): RatFunc(-ctx.ring.one, den)})


def test_untau_examples(ctx):
    q = ctx.q
    tq = GradedScalar.from_poly(Poly(ctx.ring, {(q, 0): ctx.ring.field.one}))
    assert tq.untau(q) == GradedScalar.from_poly(ctx.ring.theta)
    piq = GradedScalar.from_poly(ctx.ring.one, pi=q)
    assert piq.untau(q).single_grade()[0] == (1, 0)
    bad = GradedScalar.from_poly(
        Poly(ctx.ring, {(q + 1, 0): ctx.ring.field.one}))
    with pytest.raises(NotTauImageError):
        bad.untau(q)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
       st.integers(-1, 1), st.integers(-1, 1), st.data())
def test_untau_inverts_tau(i, j, k, a, b, data):
    ctx = shared_context(3)
    c = {(i, j): ctx.ring.field.from_int(data.draw(st.integers(1, 2))),
         (j, k): ctx.ring.field.from_int(data.draw(st.integers(0, 2)))}
    num = Poly(ctx.ring, {k2: v for k2, v in c.items() if v})
    if num.is_zero():
        num = ctx.ring.one
    x = GradedScalar(ctx.ring, {(a, b): RatFunc(num, ctx.ring.theta + ctx.ring.one)})
    assert x.tau(ctx.q).untau(ctx.q) == x


def test_tau_is_ring_homomorphism(ctx):
    rng = random.Random(3)
    q = ctx.q

    def rand():
        terms = {}
        for _ in range(2):
            g = (rng.randrange(-1, 2), rng.randrange(-1, 2))
            num = Poly(ctx.ring, {(rng.randrange(2), rng.randrange(2)):
                                  ctx.ring.field.from_int(1)})
            terms[g] = RatFunc(num, ctx.ring.t + ctx.ring.one)
        return GradedScalar(ctx.ring, terms)

    for _ in range(10):
        x, y = rand(), rand()
        assert (x * y).tau(q) == x.tau(q) * y.tau(q)
        assert (x + y).tau(q) == x.tau(q) + y.tau(q)


def test_hyperderivative_rejects_omega_grade(ctx3):
    x = GradedScalar.from_poly(ctx3.ring.one, om=1)
    with pytest.raises(MixedGradeError):
        x.hyperderiv_t(1)


def test_hyperderivative_divisibility_instance():
    # q = 2: alpha = 1 + (t^2+t)^2 t has first derivative divisible by t^2+t
    ctx = shared_context(2)
    t = ctx.ring.t
    w = t * t + t
    alpha = ctx.ring.one + w * w * t
    d = GradedScalar.from_poly(alpha).hyperderiv_t(1)
    quotient = d.rational_part().num.exact_div(w)
    assert not quotient.is_zero()


def sympy_eval_oracle(q, j, content_num, content_den, b):
    """Limit as t -> theta^(q^j) of (num/den) * omega_model^b, where
    omega_model = r/(theta^(q^j) - t) + REG with symbolic residue r and an
    opaque regular part REG."""
    t, th, r, REG = sympy.symbols("t th r REG")
    point = th ** (q ** j)
    omega = r / (point - t) + REG
    expr = (content_num / content_den) * omega ** b
    lim = sympy.limit(expr, t, point)
    return sympy.simplify(lim)


def test_eval_theta_power_against_sympy_oracle():
    ctx = shared_context(3)
    q = ctx.q
    # lambda_1 = om^{-1}/(t-theta): at j=1 the oracle limit is 0
    t, th, r, REG = sympy.symbols("t th r REG")
    lim = sympy_eval_oracle(q, 1, sympy.Integer(1), (t - th), -1)
    assert lim == 0
    got = eval_theta_power(lam1(ctx), 1, ctx)
    assert got.is_zero()
    # at j=0 the oracle gives -1/r, i.e. -1/pi with r = pi^(q^0)/D_0
    lim = sympy_eval_oracle(q, 0, sympy.Integer(1), (t - th), -1)
    assert sympy.simplify(lim + 1 / r) == 0
    got = eval_theta_power(lam1(ctx), 0, ctx)
    assert got == GradedScalar(ctx.ring,
                               {(-1, 0): RatFunc(-ctx.ring.one, None)})


def test_eval_theta_power_rational_substitution(ctx):
    # (t + theta) at t = theta gives 2 theta
    x = GradedScalar.from_poly(ctx.ring.t + ctx.ring.theta)
    got = eval_theta_power(x, 0, ctx)
    assert got == GradedScalar.from_poly(ctx.ring.theta.scale(
        ctx.ring.field.from_int(2)))


def test_eval_theta_power_pole_detected(ctx3):
    ctx = ctx3
    # om^2 * 1/(t-theta) has an uncancelled pole at t = theta
    x = GradedScalar(ctx.ring,
                     {(0, 2): RatFunc(ctx.ring.one, ctx.ring.t - ctx.ring.theta)})
    with pytest.raises(EvaluationPoleError):
        eval_theta_power(x, 0, ctx)


def test_eval_theta_power_excess_order_gives_zero(ctx3):
    ctx = ctx3
    # (t - theta)^2 om has order 2 > grade 1: evaluates to 0
    tm = ctx.ring.t - ctx.ring.theta
    x = GradedScalar(ctx.ring, {(0, 1): RatFunc(tm * tm, None)})
    assert eval_theta_power(x, 0, ctx).is_zero()


def test_eval_ladder_commutes_with_twist(ctx):
    rng = random.Random(9)
    q = ctx.q
    for _ in range(10):
        num = Poly(ctx.ring, {(rng.randrange(3), rng.randrange(2)):
                              ctx.ring.field.from_int(1 + rng.randrange(ctx.p - 1))})
        x = GradedScalar.from_rat(RatFunc(num, ctx.ring.t + ctx.ring.one))
        j = rng.randrange(2)
        assert eval_theta_power(x.tau(q), j + 1, ctx) == \
            eval_theta_power(x, j, ctx).tau(q)


def test_eval_ladder_domain_at_q2(ctx2):
    # the ladder identity holds only where x is regular at t = theta^(q^j);
    # this x has a pole at t = theta, and both sides share it
    ctx = ctx2
    th, t, one = ctx.ring.theta, ctx.ring.t, ctx.ring.one
    num = th * th * t + th * th + th * t + t + one
    x = GradedScalar.from_rat(RatFunc(num, th * (th + t)))
    with pytest.raises(EvaluationPoleError):
        eval_theta_power(x, 0, ctx)
    with pytest.raises(EvaluationPoleError):
        eval_theta_power(x.tau(2), 1, ctx)
    # moving the pole off the point makes both sides defined and equal
    y = GradedScalar.from_rat(RatFunc(num, th * (th + t + one)))
    for j in range(2):
        assert eval_theta_power(y.tau(2), j + 1, ctx) == \
            eval_theta_power(y, j, ctx).tau(2)


def test_eval_root_examples():
    from carlitz_vmf.specialize import RootContext

    ctx = shared_context(2)
    p = (ctx.base_field.one, ctx.base_field.one, ctx.base_field.one)
    rctx = RootContext(ctx, p)
    # a(t) = t^2 + t evaluates to 1 at the root of t^2+t+1
    t = ctx.ring.t
    x = GradedScalar.from_poly(t * t + t)
    got = eval_root(x, rctx)
    assert got == GradedScalar.from_poly(rctx.spec_ring.one)
    # constants are fixed
    one = eval_root(GradedScalar.one(ctx.ring), rctx)
    assert one.is_one()
    # p(t) in a denominator is a pole
    pt = t * t + t + ctx.ring.one
    bad = GradedScalar.from_rat(RatFunc(ctx.ring.one, pt))
    with pytest.raises(EvaluationPoleError):
        eval_root(bad, rctx)
