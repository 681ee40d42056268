import math
import random

import pytest

from carlitz_vmf import useries
from carlitz_vmf.carlitz import goss_poly, period_lattice
from carlitz_vmf.context import Context
from carlitz_vmf.errors import (MixedGradeError, NotTauImageError,
                                PrecisionError)
from carlitz_vmf.forms import (ClassicalForm, gen_E, gen_g, gen_h,
                               ramanujan_serre)
from carlitz_vmf.fields import GF, residue_field
from carlitz_vmf.polys import Poly, RatFunc, _f2_packer, _solve
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.useries import USeries, dz, scale_arg, trace_div, u_scale
from conftest import shared_context


def test_basic_arithmetic(ctx):
    u = USeries.u(ctx)
    assert (u * u).c == {2: GradedScalar.one(ctx.ring)}
    two = GradedScalar.from_int(ctx.ring, 2)
    expected = {} if two.is_zero() else {1: two}
    assert (u + u).c == expected


def test_laurent_inverse_of_minus_u():
    ctx = shared_context(3)
    f = USeries(ctx, {1: GradedScalar.from_int(ctx.ring, -1),
                      2: GradedScalar.one(ctx.ring)}, 5)
    inv = f.inverse()
    # 1/(-u(1 - u)) = -u^{-1} (1 + u + u^2 + ...)
    expect = USeries(ctx, {n: GradedScalar.from_int(ctx.ring, -1)
                           for n in range(-1, 3)}, 3)
    assert inv.eq_to_prec(expect)
    assert inv.prec == 3


def test_inverse_claims_no_more_than_the_series_carries():
    """At q = 2, 1/u(theta z) = C_theta(1/u) = u^-2 + theta u^-1 exactly.
    Known below u^5, u(theta z) has valuation 2, so its inverse is known
    only below u^(5 - 2 - 2) = u^1, whatever larger target is asked; a
    claim past that would read theta^3 at u^1 from the missing terms."""
    ctx = Context(2)
    exact = {-2: GradedScalar.one(ctx.ring),
             -1: GradedScalar.from_poly(ctx.ring.theta)}
    S = u_scale(ctx, (0, 1), 5)
    assert S.val() == 2
    for inv in (S.inverse(10), USeries.monomial(ctx, -1).substitute(S)):
        assert inv.prec == 1
        assert inv.c == exact
    assert S.inverse(2).prec == 0
    full = USeries.monomial(ctx, -1).substitute(u_scale(ctx, (0, 1), 40))
    assert full.prec == 8
    assert full.c == exact


def test_division_by_mixed_grade_leading_coefficient_fails(ctx3):
    ctx = ctx3
    mixed = GradedScalar.one(ctx.ring) + GradedScalar.from_poly(ctx.ring.one, om=1)
    f = USeries(ctx, {0: mixed, 1: GradedScalar.one(ctx.ring)}, 6)
    with pytest.raises(MixedGradeError):
        f.inverse()


def test_precision_tracking(ctx3):
    ctx = ctx3
    f = USeries(ctx, {1: GradedScalar.one(ctx.ring)}, 5)       # u + O(u^5)
    g = USeries(ctx, {2: GradedScalar.one(ctx.ring)}, 7)       # u^2 + O(u^7)
    prod = f * g
    assert prod.prec == min(5 + 2, 7 + 1)
    with pytest.raises(PrecisionError):
        prod.coeff(prod.prec)
    assert (f + g).prec == 5


def test_truncation_and_coeff_guard(ctx3):
    f = USeries(ctx3, {0: GradedScalar.one(ctx3.ring)}, 4)
    assert f.truncate(2).prec == 2
    with pytest.raises(PrecisionError):
        f.coeff(4)
    exact = USeries.one(ctx3)
    assert exact.coeff(10).is_zero()


def test_twist_and_untwist(ctx):
    q = ctx.q
    u = USeries.u(ctx, prec=6)
    tu = u.tau()
    assert tu.c == {q: GradedScalar.one(ctx.ring)}
    assert tu.prec == 6 * q
    assert tu.untau().eq_to_prec(u)
    if q == 2:
        with pytest.raises(NotTauImageError):
            USeries(shared_context(2), {3: GradedScalar.one(ctx.ring)}, 8).untau()


def test_twist_multiplicative_randomized(ctx):
    rng = random.Random(12)
    N = 32
    for _ in range(50):
        f = _rand_series(ctx, rng, N)
        g = _rand_series(ctx, rng, N)
        assert (f * g).tau().eq_to_prec(f.tau() * g.tau())


def _rand_series(ctx, rng, N):
    c = {}
    for _ in range(4):
        num = Poly(ctx.ring, {(rng.randrange(2), rng.randrange(2)):
                              ctx.ring.field.from_int(1 + rng.randrange(ctx.p - 1))})
        c[rng.randrange(0, N)] = GradedScalar.from_rat(
            RatFunc(num, ctx.ring.theta + ctx.ring.one))
    return USeries(ctx, c, N)


def test_dz_basics(ctx):
    u = USeries.u(ctx)
    assert dz(u, 0).eq_to_prec(u)
    d1 = dz(u, 1)
    minus_pi = GradedScalar(ctx.ring, {(1, 0): RatFunc(-ctx.ring.one, None)})
    assert d1.c == {2: minus_pi}


def test_dz_leibniz_randomized(ctx):
    rng = random.Random(23)
    N = 32
    for _ in range(50):
        f = _rand_series(ctx, rng, N)
        g = _rand_series(ctx, rng, N)
        lhs = dz(f * g, 1)
        rhs = dz(f, 1) * g + f * dz(g, 1)
        assert lhs.eq_to_prec(rhs)


def test_dz_second_order_leibniz(ctx3):
    rng = random.Random(4)
    N = 16
    f = _rand_series(ctx3, rng, N)
    g = _rand_series(ctx3, rng, N)
    lhs = dz(f * g, 2)
    rhs = dz(f, 2) * g + dz(f, 1) * dz(g, 1) + f * dz(g, 2)
    assert lhs.eq_to_prec(rhs)


def _rand_graded_laurent(ctx, rng, lo, hi, prec):
    """A Laurent series whose coefficients are fractions of random grades."""
    c = {}
    for _ in range(6):
        num = Poly(ctx.ring, {(rng.randrange(3), rng.randrange(2)):
                              ctx.ring.field.from_int(1 + rng.randrange(ctx.p - 1))})
        den = ctx.ring.theta + ctx.ring.one if rng.randrange(2) else ctx.ring.one
        grade = (rng.randrange(-1, 2), rng.randrange(-1, 2))
        c[rng.randrange(lo, hi)] = GradedScalar(ctx.ring, {grade: RatFunc(num, den)})
    return USeries(ctx, c, prec)


@pytest.mark.parametrize("q", [2, 3, 4, 5], ids=lambda q: f"q{q}")
def test_dz_composition_rule(q):
    # D^(j) D^(i) = C(i+j, i) D^(i+j) for divided-power derivatives
    ctx = shared_context(q)
    rng = random.Random(40 + q)
    N = 2 * q + 4
    for f in (_rand_graded_laurent(ctx, rng, -3, N, N),
              _rand_graded_laurent(ctx, rng, 0, N, N),
              gen_g(ctx, N).series):
        for i in range(1, q + 2):
            di = dz(f, i)
            assert di.prec == f.prec + 1
            for j in range(1, q + 3 - i):
                lhs = dz(di, j)
                assert lhs.prec == f.prec + 2
                binom = GradedScalar.from_int(ctx.ring, math.comb(i + j, i))
                rhs = dz(f, i + j).scale(binom)
                assert lhs.eq_to_prec(rhs, at_least=f.prec + 1)


def test_dz_of_zero_series(ctx):
    for n in (1, 2, ctx.q + 1):
        d = dz(USeries.zero(ctx, 10), n)
        assert d.is_zero() and d.prec == 11
        d = dz(USeries.zero(ctx), n)
        assert d.is_zero() and d.prec is None
    # an inner derivative that vanishes: D^(1) of a constant
    assert dz(dz(USeries.one(ctx, 6), 1), 1).prec == 8
    zero = ClassicalForm(ctx, ctx.q - 1, 0, USeries.zero(ctx, 8))
    h = ramanujan_serre(ctx, zero)
    assert h.series.is_zero() and h.series.prec >= 8
    assert h.weight == ctx.q + 1


def _pow_cases(ctx):
    rng = random.Random(60 + ctx.q)
    return [
        _rand_series(ctx, rng, 9),                       # truncated
        _rand_laurent(ctx, rng, 0, 5, None),             # exact
        _rand_graded_laurent(ctx, rng, -2, 6, 6),        # negative valuation
        USeries.zero(ctx, 4),                            # zero, finite prec
        USeries.zero(ctx),
    ]


def test_pow_matches_repeated_product(ctx, monkeypatch):
    for f in _pow_cases(ctx):
        prod = USeries.one(ctx)
        for n in range(10):
            got = f ** n
            assert got.c == prod.c and got.prec == prod.prec, (f, n)
            prod = prod * f
    # left to right from the top bit: f^1 is f, and no product by one
    calls = []
    mul = USeries.__mul__
    monkeypatch.setattr(USeries, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    f = _pow_cases(ctx)[0]
    assert f ** 1 is f and not calls
    for n in range(2, 10):
        calls.clear()
        f ** n
        assert len(calls) == n.bit_length() + bin(n).count("1") - 2
    assert (f ** 0).c == {0: GradedScalar.one(ctx.ring)} and (f ** 0).prec is None


def test_dt_series(ctx):
    t = ctx.ring.t
    f = USeries(ctx, {2: GradedScalar.from_poly(t)}, 8)
    d = f.dt(1)
    assert d.c == {2: GradedScalar.one(ctx.ring)}
    bad = USeries(ctx, {0: GradedScalar.from_poly(ctx.ring.one, om=-1)}, 4)
    with pytest.raises(MixedGradeError):
        bad.dt(1)
    # Leibniz
    rng = random.Random(31)
    for _ in range(20):
        f = _rand_series(ctx, rng, 16)
        g = _rand_series(ctx, rng, 16)
        lhs = (f * g).dt(1)
        rhs = f.dt(1) * g + f * g.dt(1)
        assert lhs.eq_to_prec(rhs)


def test_u_scale(ctx):
    q = ctx.q
    one = (ctx.base_field.one,)
    assert u_scale(ctx, one, 9).eq_to_prec(USeries.u(ctx).truncate(9))
    theta = (ctx.base_field.zero, ctx.base_field.one)
    S = u_scale(ctx, theta, 3 * q + 2)
    # u(theta z) = u^q (1 - theta u^(q-1) + theta^2 u^(2(q-1)) - ...)
    th = ctx.ring.theta
    expect = {q: GradedScalar.one(ctx.ring),
              q + (q - 1): GradedScalar.from_poly(-th),
              q + 2 * (q - 1): GradedScalar.from_poly(th * th)}
    for n, c in expect.items():
        if n < S.prec:
            assert S.coeff(n) == c
    assert S.val() == q
    assert S.coeff(q).is_one()


def test_u_scale_multiplicativity(ctx):
    rng = random.Random(8)
    N = 3 * ctx.q ** 2
    monics = ctx.monics(1)
    for _ in range(4):
        a = monics[rng.randrange(len(monics))]
        b = monics[rng.randrange(len(monics))]
        ab = _poly_mul(ctx, a, b)
        lhs = u_scale(ctx, ab, N)
        rhs = u_scale(ctx, a, N).substitute(u_scale(ctx, b, N))
        assert lhs.eq_to_prec(rhs, at_least=ctx.q ** 2)


def _poly_mul(ctx, a, b):
    base = ctx.base_field
    out = [base.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = base.add(out[i + j], base.mul(x, y))
    return tuple(out)


def test_scale_arg(ctx):
    N = 4 * ctx.q
    theta = (ctx.base_field.zero, ctx.base_field.one)
    one_const = USeries.one(ctx, N)
    assert scale_arg(one_const, theta).eq_to_prec(USeries.one(ctx, N * ctx.q))
    h = gen_h(ctx, N)
    hp = scale_arg(h.series, theta, N * ctx.q)
    assert hp.val() == ctx.q
    assert hp.coeff(ctx.q) == GradedScalar.from_int(ctx.ring, -1)
    with pytest.raises(PrecisionError):
        scale_arg(USeries.u(ctx), theta)  # exact input needs a target


def _scale_arg_oracle(f, a, prec=None):
    """f(a z) by substituting the whole of f, then truncating."""
    ctx = f.ctx
    Q = ctx.q ** (len(a) - 1)
    target = int(min(Q * f._p(), math.inf if prec is None else prec))
    big = target + (1 - min(f.val(), 0)) * Q
    return f.substitute(u_scale(ctx, a, big)).truncate(target)


def _rand_laurent(ctx, rng, lo, hi, prec):
    c = {}
    for _ in range(5):
        num = Poly(ctx.ring, {(rng.randrange(2), rng.randrange(2)):
                              ctx.ring.field.from_int(1 + rng.randrange(ctx.p - 1))})
        c[rng.randrange(lo, hi)] = GradedScalar.from_rat(
            RatFunc(num, ctx.ring.theta + ctx.ring.one))
    return USeries(ctx, c, prec)


@pytest.mark.parametrize("d", [1, 2])
def test_scale_arg_matches_untruncated_substitution(ctx, d):
    rng = random.Random(17 * ctx.q + d)
    Q = ctx.q ** d
    N = 8 if d == 1 else 5
    monics = ctx.monics(d)
    cases = []
    for lo in (0, -2):
        cases.append((_rand_laurent(ctx, rng, lo, N, N), None))
        cases.append((_rand_laurent(ctx, rng, lo, N, N), N + Q // 2))
        cases.append((_rand_laurent(ctx, rng, lo, N, None), Q * N // 2 + 1))
    assert any(f.val() < 0 for f, _ in cases)
    for f, prec in cases:
        a = monics[rng.randrange(len(monics))]
        got = scale_arg(f, a, prec)
        want = _scale_arg_oracle(f, a, prec)
        assert got.prec == want.prec
        assert got.c == want.c


def test_trace_div(ctx):
    q = ctx.q
    theta = (ctx.base_field.zero, ctx.base_field.one)
    # f = u: G_(p,1)(p u) = p u
    got = trace_div(USeries.u(ctx).truncate(10), theta)
    assert got.coeff(1) == GradedScalar.from_poly(ctx.ring.theta)
    # constants die
    assert trace_div(USeries.one(ctx, 8), theta).is_zero()
    # coprime scaling: sum_b u(a(z+b)/p) = p u(az)
    N = 2 * q * q
    a = (ctx.base_field.one, ctx.base_field.one)  # theta + 1
    Sa = u_scale(ctx, a, N)
    got = trace_div(Sa, theta)
    expect = Sa.scale(GradedScalar.from_poly(ctx.ring.theta)).truncate(int(got._p()))
    assert got.eq_to_prec(expect)
    # p | a: the trace vanishes
    pa = (ctx.base_field.zero, ctx.base_field.zero, ctx.base_field.one)
    Spa = u_scale(ctx, pa, N)
    assert trace_div(Spa, theta).is_zero()
    # negative valuation refused
    with pytest.raises(ValueError):
        trace_div(USeries.monomial(ctx, -1, prec=5), theta)


def test_eval_series_on_plain_coefficients(ctx):
    from carlitz_vmf.specialize import RootContext

    theta = (ctx.base_field.zero, ctx.base_field.one)
    rctx = RootContext(ctx, theta)
    f = gen_g(ctx, 8).series
    ev = f.eval_root(rctx)
    # coefficients of g are theta-polynomials: the evaluation keeps each
    # coefficient's code in the residue field and touches no exponent
    from carlitz_vmf.polys import Poly
    for n, c in f.c.items():
        num = c.rational_part().num
        expect = Poly(rctx.spec_ring, {(i, j): v for i, j, v in num.terms()})
        assert ev.c[n].rational_part().num == expect


def test_precision_soundness_pipeline(ctx):
    N = 12
    E_N = gen_E(ctx, N).series
    E_2N = gen_E(ctx, 2 * N).series
    assert E_2N.truncate(N).eq_to_prec(E_N)
    g_N = gen_g(ctx, N).series
    g_2N = gen_g(ctx, 2 * N).series
    assert g_2N.truncate(N).eq_to_prec(g_N)


# -- series products over F_2 and its extensions (packed path) ---------------

# coefficient fields over F_2 that the packed path takes: Conway fields
# and residue fields F_2[y]/(P) of degree 1 and 3
PACKED_FIELDS = {
    "F2": lambda: GF(2),
    "F4": lambda: GF(2, 2),
    "F8": lambda: GF(2, 3),
    "F16": lambda: GF(2, 4),
    "res1": lambda: residue_field(GF(2), (1, 1)),
    "res3": lambda: residue_field(GF(2), (1, 0, 1, 1)),
}


def _packed_ctx(name):
    field = PACKED_FIELDS[name]()
    ctx = Context(4) if field == GF(2, 2) else Context(2, coeff_field=field)
    assert _f2_packer(ctx.ring.field) is not None
    return ctx


def _rand_poly(ring, rng, deg_theta, deg_t, terms):
    els = [x for x in ring.field.elements() if x != ring.field.zero]
    return Poly(ring, {(rng.randrange(deg_theta + 1), rng.randrange(deg_t + 1)):
                       rng.choice(els) for _ in range(terms)})


def _poly_series(ctx, rng, lo, hi, prec, grade=(0, 0), deg_t=2):
    c = {}
    for n in range(lo, hi):
        if rng.random() < 0.8:
            p = _rand_poly(ctx.ring, rng, 12, deg_t, rng.randrange(1, 9))
            c[n] = GradedScalar.from_poly(p, *grade)
    return USeries(ctx, c, prec)


def _num(s):
    ((_, c),) = s.terms.items()
    assert c.den.is_one()
    return c.num


def _oracle_product(f, g, prec):
    """{n: sum of f_n1 g_n2 over n1 + n2 = n < prec}, by Poly arithmetic."""
    zero = f.ctx.ring.zero
    out = {}
    for n1, a in f.c.items():
        for n2, b in g.c.items():
            if n1 + n2 < prec:
                out[n1 + n2] = out.get(n1 + n2, zero) + _num(a) * _num(b)
    return {n: p for n, p in out.items() if not p.is_zero()}


def _packed_product(f, g, prec):
    """The packed kernel on the terms ``USeries.__mul__`` hands it."""
    return useries._packed_lincomb(
        f.ctx, [(c, g, n) for n, c in f.c.items()], prec)


def _assert_product(f, g, grade):
    h = f * g
    prec = min(f._p() + g.val(), g._p() + f.val())
    assert h.prec == (None if prec == math.inf else prec)
    assert {n: _num(c) for n, c in h.c.items()} == _oracle_product(f, g, prec)
    assert all(c.grades() == {grade} for c in h.c.values())
    # the packed product itself computes nothing at or past prec
    packed = _packed_product(f, g, prec)
    assert packed is not None and all(n < prec for n in packed)
    assert {n: _num(c) for n, c in packed.items()} == \
        {n: _num(c) for n, c in h.c.items()}


@pytest.mark.parametrize("name", list(PACKED_FIELDS))
def test_packed_product_matches_oracle(name):
    ctx = _packed_ctx(name)
    rng = random.Random(name)
    for _ in range(4):
        # negative valuations, both truncated: the prec cut-off decides
        f = _poly_series(ctx, rng, -3, 9, 9, grade=(1, -1))
        g = _poly_series(ctx, rng, -2, 7, 7, grade=(0, 2))
        _assert_product(f, g, (1, 1))
        # exact times truncated, both ways round
        e = _poly_series(ctx, rng, -1, 5, None, grade=(0, 0))
        _assert_product(e, g, (0, 2))
        _assert_product(g, e, (0, 2))
        # t-free coefficients
        a = _poly_series(ctx, rng, 0, 6, 6, deg_t=0)
        _assert_product(a, a, (0, 0))


@pytest.mark.parametrize("name", list(PACKED_FIELDS))
def test_packed_product_cancels_to_zero(name):
    ctx = _packed_ctx(name)
    R = ctx.ring
    rng = random.Random(name + "0")
    c = _rand_poly(R, rng, 6, 2, 5)
    d = _rand_poly(R, rng, 6, 2, 5)
    gs = GradedScalar.from_poly
    # (c + c u)(d + d u) = cd + 2cd u + cd u^2: the u term cancels
    f = USeries(ctx, {0: gs(c), 1: gs(c)}, None)
    g = USeries(ctx, {0: gs(d), 1: gs(d)}, 3)
    h = f * g
    assert sorted(h.c) == [0, 2]
    assert _num(h.c[0]) == c * d == _num(h.c[2])
    _assert_product(f, g, (0, 0))
    # a coefficient whose t^1 part alone cancels
    t = R.t
    f = USeries(ctx, {0: gs(R.one + t), 1: gs(t)}, 4)
    g = USeries(ctx, {0: gs(R.one), 1: gs(R.one)}, 4)
    assert _num((f * g).c[1]) == R.one
    _assert_product(f, g, (0, 0))


def _assert_inverse(f, rel):
    inv = f.inverse(rel)
    v = f.val()
    assert inv.prec == rel - v
    assert all(c.grades() == {tuple(-x for x in f.c[v].grades().pop())}
               for c in inv.c.values())
    one = _oracle_product(f, inv, rel)
    assert one == {0: f.ctx.ring.one}


@pytest.mark.parametrize("name", list(PACKED_FIELDS))
def test_packed_inverse_matches_oracle(name):
    ctx = _packed_ctx(name)
    R = ctx.ring
    rng = random.Random(name + "inv")
    els = [x for x in R.field.elements() if x != R.field.zero]
    for lead in els:
        f = _poly_series(ctx, rng, -2, 8, 8, grade=(2, -1))
        f = USeries(ctx, {**f.c, -3: GradedScalar.from_poly(R.const(lead),
                                                              2, -1)}, 8)
        _assert_inverse(f, 11)


def test_packed_inverse_with_non_unit_lead_in_f4():
    ctx = _packed_ctx("F4")
    R = ctx.ring
    w = R.field.gen()
    rng = random.Random(44)
    for lead in (w, R.field.mul(w, w)):
        f = _poly_series(ctx, rng, 1, 10, 10)
        f = USeries(ctx, {**f.c, 0: GradedScalar.from_poly(R.const(lead))},
                    10)
        inv = f.inverse()
        assert _num(inv.c[0]) == R.const(R.field.inv(lead))
        _assert_inverse(f, 10)
    # a lead that is not a constant goes to the schoolbook, with a fraction
    f = USeries(ctx, {0: GradedScalar.from_poly(R.theta),
                      1: GradedScalar.one(ctx.ring)}, 6)
    inv = f.inverse()
    assert inv.c[0] == GradedScalar.from_poly(R.theta).inv()
    assert (f * inv).eq_to_prec(USeries.one(ctx, 6))


def _graded_inverse(f, rel):
    """The coefficients of 1 / f below u^(rel - val f), by ``polys._solve``
    on GradedScalars."""
    v = f.val()
    terms = sorted((n - v, c) for n, c in f.c.items() if n > v)
    y = _solve({0: GradedScalar.one(f.ctx.ring)}, terms, rel, f.c[v].inv())
    return {n - v: c for n, c in y.items()}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_poly_solve_matches_graded_solve(q, monkeypatch):
    """``USeries.inverse`` and ``_power_of_y`` run ``_poly_solve`` (packed
    over F_2 and F_4, on Polys over F_3 and F_5) and equal ``_solve`` on
    GradedScalars.  The inverses take every nonzero constant as lead, so
    a lead other than 1 at q > 2; Y^e takes e = p^2 + p + 1, whose three
    base-p digits chain two divisions, for a monic of degree 1 and one of
    degree 2 (a divisor of two terms)."""
    calls = []
    poly_solve = useries._poly_solve
    monkeypatch.setattr(useries, "_poly_solve",
                        lambda *args: calls.append(args) or poly_solve(*args))
    ctx = Context(q)
    R = ctx.ring
    rng = random.Random(q)
    for lead in R.field.elements():
        if lead == R.field.zero:
            continue
        f = _poly_series(ctx, rng, 1, 10, 10, grade=(1, -1), deg_t=1)
        f = USeries(ctx, {**f.c, 0: GradedScalar.from_poly(R.const(lead),
                                                             1, -1)}, 10)
        n = len(calls)
        inv = f.inverse()
        assert len(calls) == n + 1
        assert inv.prec == 10 and inv.c == _graded_inverse(f, 10)
    p = ctx.p
    e = p * p + p + 1
    for a, rel in ((ctx.monics(1)[-1], 6 * q),
                   (ctx.monics(2)[-1], q * q + 2 * q)):
        Q = q ** (len(a) - 1)
        S = u_scale(ctx, a, rel + Q)
        Y = {n - Q: c.grade_part(0, 0).num for n, c in S.c.items()}
        n = len(calls)
        got = useries._power_of_y(ctx, a, Y, e, rel)
        assert len(calls) == n + 2
        P = USeries(ctx, {Q - q ** i: GradedScalar.from_poly(c)
                          for i, c in enumerate(ctx.carlitz_coeffs(a))
                          if not c.is_zero()}, rel)
        assert got.prec == rel and got.c == _graded_inverse(P ** e, rel)


def _oracle_lincomb(ctx, terms, prec=None):
    """(coefficients, precision) of sum c u^k f over the (c, f, k) in terms,
    one coefficient at a time by GradedScalar arithmetic."""
    P = math.inf if prec is None else prec
    for _, f, k in terms:
        P = min(P, f._p() + k)
    out = {}
    for c, f, k in terms:
        for m, fm in f.c.items():
            if m + k < P:
                v = fm if c is None else c * fm
                out[m + k] = out.get(m + k, GradedScalar.zero(ctx.ring)) + v
    return {n: v for n, v in out.items() if not v.is_zero()}, P


def _schoolbook(f, g, prec):
    """{n: sum of f_n1 g_n2} by GradedScalar arithmetic."""
    return _oracle_lincomb(f.ctx, [(c, g, n) for n, c in f.c.items()], prec)[0]


def test_fallback_keeps_the_schoolbook():
    rng = random.Random(5)
    cases = []
    ctx3 = shared_context(3)          # odd characteristic
    cases.append((ctx3, _poly_series(ctx3, rng, 0, 6, 6),
                  _poly_series(ctx3, rng, 0, 6, 6)))
    ctx2 = _packed_ctx("F2")
    R = ctx2.ring
    mixed = _poly_series(ctx2, rng, 0, 6, 6)
    mixed.c[2] = (mixed.c.get(2, GradedScalar.one(ctx2.ring))
                  + GradedScalar.from_poly(R.theta, om=1))
    cases.append((ctx2, mixed, _poly_series(ctx2, rng, 0, 6, 6)))
    frac = _poly_series(ctx2, rng, 0, 6, 6)
    frac.c[1] = GradedScalar.from_rat(RatFunc(R.one, R.t + R.theta))
    cases.append((ctx2, _poly_series(ctx2, rng, 0, 6, 6), frac))
    ctx4 = shared_context(4)          # a tower over F_4
    tower = Context(4, coeff_field=residue_field(
        ctx4.base_field, (ctx4.base_field.gen(), ctx4.base_field.one)))
    assert _f2_packer(tower.ring.field) is None
    cases.append((tower, _poly_series(tower, rng, 0, 5, 5),
                  _poly_series(tower, rng, 0, 5, 5)))
    for ctx, f, g in cases:
        prec = min(f._p() + g.val(), g._p() + f.val())
        assert _packed_product(f, g, prec) is None
        assert (f * g).c == _schoolbook(f, g, prec)


# -- linear combinations (USeries.lincomb) -----------------------------------


def _assert_lincomb(ctx, terms, prec=None, packed=True):
    """lincomb equals the oracle, in coefficients and in precision, and
    the packed kernel takes the terms (packed=True) or declines them."""
    coeffs, P = _oracle_lincomb(ctx, terms, prec)
    h = USeries.lincomb(ctx, terms, prec)
    assert h.prec == (None if P == math.inf else P)
    assert h.c == coeffs
    direct = useries._packed_lincomb(ctx, terms, P)
    if packed:
        assert direct == coeffs
    else:
        assert direct is None
    return h


@pytest.mark.parametrize("name", list(PACKED_FIELDS))
def test_lincomb_packed_matches_oracle(name):
    ctx = _packed_ctx(name)
    R = ctx.ring
    rng = random.Random(name + "lincomb")
    gs = GradedScalar.from_poly
    # f and g of grade (1, 0); e of grade (0, 1) pairs with scalars of
    # grade (1, -1), so every term lands on grade (1, 0)
    f = _poly_series(ctx, rng, -2, 10, 10, grade=(1, 0))
    g = _poly_series(ctx, rng, 0, 14, 14, grade=(1, 0))
    e = _poly_series(ctx, rng, 1, 7, None, grade=(0, 1))
    scalars = [None, GradedScalar.one(ctx.ring), gs(_rand_poly(R, rng, 5, 2, 6))]
    others = [x for x in R.field.elements() if x not in (R.field.zero, R.field.one)]
    if others:                       # a constant other than 1
        scalars.append(gs(R.const(others[0])))
    for c in scalars:
        # shifts of both signs, one series in two terms
        _assert_lincomb(ctx, [(c, f, -3), (c, g, 2), (c, f, 4)])
        _assert_lincomb(ctx, [(c, g, 0), (gs(_rand_poly(R, rng, 4, 1, 4), 1, -1), e, -1)])
    theta_t = gs(R.theta * R.t + R.one)
    lift = gs(R.theta + R.t, 1, -1)  # takes e to grade (1, 0)
    one = GradedScalar.one(ctx.ring)
    # the precision: from f.prec + k (both signs), from prec, and from an
    # empty f with a finite precision
    assert _assert_lincomb(ctx, [(theta_t, f, 3)]).prec == 13
    assert _assert_lincomb(ctx, [(theta_t, f, -3), (lift, e, 0)]).prec == 7
    assert _assert_lincomb(ctx, [(theta_t, g, 0), (one, f, 1)], 6).prec == 6
    assert _assert_lincomb(ctx, [(None, USeries.zero(ctx, 4), 1),
                                 (theta_t, g, -1)]).prec == 5
    assert _assert_lincomb(ctx, [(None, e, 0)]).prec is None
    # grades that differ between terms, through a scalar or a series: one
    # packed table per grade
    f0 = _poly_series(ctx, rng, 0, 8, 8)
    g1 = _poly_series(ctx, rng, -1, 6, 9, grade=(0, 1))
    _assert_lincomb(ctx, [(None, f0, 0), (gs(R.theta, 1, 0), f0, 1)])
    _assert_lincomb(ctx, [(gs(R.t), f0, 0), (None, g1, 2)])
    # terms that cancel to an exact zero
    p = _rand_poly(R, rng, 6, 2, 5)
    for terms in ([(None, f, 1), (one, f, 1)],
                  [(gs(p), g, -1), (gs(p * R.one), g, -1)],
                  [(gs(p), f, 0), (lift, e, 2), (gs(p), f, 0),
                   (lift, e, 2)]):
        h = _assert_lincomb(ctx, terms)
        assert h.is_zero()


def test_lincomb_fallback_matches_oracle():
    rng = random.Random(8)
    ctx2 = _packed_ctx("F2")
    R = ctx2.ring
    f = _poly_series(ctx2, rng, 0, 8, 8)
    cases = [
        # a fraction scalar
        (ctx2, [(None, f, 0),
                (GradedScalar.from_rat(RatFunc(R.one, R.t + R.theta)), f, 1)]),
    ]
    ctx3 = shared_context(3)         # odd characteristic
    f3 = _poly_series(ctx3, rng, -1, 6, 6)
    cases.append((ctx3, [(GradedScalar.from_poly(ctx3.ring.theta), f3, 1),
                         (None, f3, -1)]))
    ctx4 = shared_context(4)         # a tower over F_4
    tower = Context(4, coeff_field=residue_field(
        ctx4.base_field, (ctx4.base_field.gen(), ctx4.base_field.one)))
    ft = _poly_series(tower, rng, 0, 5, 5)
    cases.append((tower, [(GradedScalar.from_poly(tower.ring.t), ft, 0),
                          (None, ft, 2)]))
    for ctx, terms in cases:
        _assert_lincomb(ctx, terms, packed=False)


# -- G_k(u(a z)) by twists and sparse divisions (goss_series) ----------------


def _goss_oracle(ctx, L, k, a, prec):
    """(coefficients, precision) of sum c_e S^e over the terms c_e X^e of
    G_k, S = u_scale(ctx, a, prec) and S^e by repeated products."""
    S = u_scale(ctx, a, prec)
    powers = {1: S}
    g = goss_poly(ctx, L, k).coeffs
    for e in range(2, max(g) + 1):
        powers[e] = powers[e - 1] * S
    return _oracle_lincomb(ctx, [(GradedScalar.from_rat(c), powers[e], 0)
                                 for e, c in g.items()])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_goss_series_matches_dense_powers(q):
    """Every monic a of degree <= 2, k a power of p, q - 1, q + 1 and
    2q - 1 (several base-p digits, (q - 1) | k, k > q), prec just above
    Q = q^(deg a) and well above it: coefficients and precision equal
    those of dense powers of u(a z).  Over F_4, F_8 and F_9 the twist
    acts on the field too."""
    ctx = Context(q)
    L = period_lattice(ctx)
    ks = sorted({ctx.p, q - 1, q, q + 1, 2 * q - 1})
    for d in range(3):
        Q = q ** d
        for a in ctx.monics(d):
            for prec in (Q + 1, 3 * Q + q):
                for k in ks:
                    coeffs, P = _goss_oracle(ctx, L, k, a, prec)
                    got = useries.goss_series(ctx, L, k, a, prec)
                    assert got.prec == P, (a, k, prec)
                    assert got.c == coeffs, (a, k, prec)


def test_goss_series_up_to_weight_q_takes_no_product(monkeypatch):
    """G_k = X^k for k <= q: on a fresh q = 4 context, G_4(u(a z)) is a
    twist of u_scale's series, with no series product or sum."""
    calls = []
    lincomb, mul = USeries.lincomb, USeries.__mul__
    monkeypatch.setattr(USeries, "lincomb", staticmethod(
        lambda *args: calls.append("lincomb") or lincomb(*args)))
    monkeypatch.setattr(USeries, "__mul__",
                        lambda f, g: calls.append("mul") or mul(f, g))
    ctx = Context(4)
    L = period_lattice(ctx)
    for d in range(3):
        for a in ctx.monics(d):
            G = useries.goss_series(ctx, L, 4, a, 40)
            assert G.val() == 4 * 4 ** d
    assert calls == []
