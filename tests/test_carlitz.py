import random

import pytest
import sympy

from carlitz_vmf.carlitz import (b_poly_twist, carlitz_binomial,
                                 carlitz_factorial, goss_poly, period_lattice,
                                 torsion_lattice, zeta_ratio)
from carlitz_vmf.errors import NotIrreducibleError
from carlitz_vmf.polys import Poly, RatFunc
from carlitz_vmf.scalars import GradedScalar
from conftest import shared_context


def theta_power(ctx, n):
    return Poly(ctx.ring, {(n, 0): ctx.ring.field.one})


def test_d_sequence(ctx):
    q = ctx.q
    assert ctx.D(0).is_one()
    assert ctx.D(1) == theta_power(ctx, q) - ctx.ring.theta
    if q == 2:
        want = (theta_power(ctx, 4) - theta_power(ctx, 2)) * \
               (theta_power(ctx, 4) - ctx.ring.theta)
        assert ctx.D(2) == want


def test_carlitz_action_composition_oracle(ctx):
    # C_1 = X
    one = (ctx.base_field.one,)
    assert [c for c in ctx.carlitz_coeffs(one)] == [ctx.ring.one]
    # C_(theta^2) by explicit composition of C_theta with itself:
    # C_theta(X) = theta X + X^q; substitute into itself.
    q = ctx.q
    th = ctx.ring.theta
    # coefficients of C_theta o C_theta: X: theta^2; X^q: theta + theta^q;
    # X^(q^2): 1
    a2 = (ctx.base_field.zero, ctx.base_field.zero, ctx.base_field.one)
    got = ctx.carlitz_coeffs(a2)
    assert got[0] == th * th
    assert got[1] == th + theta_power(ctx, q)
    assert got[2] == ctx.ring.one


def test_carlitz_action_functional_equation(ctx):
    """C_a applied (with twists) to the exponential's coefficient sequence
    reproduces the a-scaled exponential, as truncated series in z."""
    q = ctx.q
    bound = q ** 3
    # e(z) = sum pi^(q^j) z^(q^j) / D_j as {z-exponent: scalar}
    def exp_series(scale_pow):
        # scale_pow: z -> theta^..., here coefficient of (theta^s z)
        out = {}
        j = 0
        while q ** j <= bound:
            coef = GradedScalar(
                ctx.ring,
                {(q ** j, 0): RatFunc(theta_power(ctx, scale_pow * q ** j),
                                      ctx.D(j))})
            out[q ** j] = coef
            j += 1
        return out

    E = exp_series(0)
    # C_theta(E) = theta E + E^q (the twist raises coefficients to q)
    lhs = {}
    for n, c in E.items():
        lhs[n] = c * GradedScalar.from_poly(ctx.ring.theta)
    for n, c in E.items():
        if n * q <= bound:
            # the twisted term: on these scalars the q-th power is the twist
            lhs[n * q] = lhs.get(n * q, GradedScalar.zero(ctx.ring)) + c ** q
    rhs = exp_series(1)  # e(theta z)
    keys = {k for k in set(lhs) | set(rhs) if k <= bound}
    for k in keys:
        zero = GradedScalar.zero(ctx.ring)
        assert lhs.get(k, zero) == rhs.get(k, zero)


def test_goss_polynomials_small(ctx):
    q = ctx.q
    L = period_lattice(ctx)
    g1 = goss_poly(ctx, L, 1)
    assert g1.coeffs == {1: RatFunc(ctx.ring.one, None)}
    g2 = goss_poly(ctx, L, 2)
    assert g2.coeffs == {2: RatFunc(ctx.ring.one, None)}
    gq1 = goss_poly(ctx, L, q + 1)
    assert gq1.coeffs == {
        q + 1: RatFunc(ctx.ring.one, None),
        2: RatFunc(ctx.ring.one, ctx.D(1)),
    }
    # X divides G_k, degree <= k
    for k in range(1, 2 * q + 2):
        gk = goss_poly(ctx, L, k)
        assert min(gk.coeffs) >= 1
        assert max(gk.coeffs) <= k


def test_goss_for_torsion(ctx):
    p = (ctx.base_field.zero, ctx.base_field.one)
    g1 = goss_poly(ctx, torsion_lattice(ctx, p), 1)
    assert g1.coeffs == {1: RatFunc(ctx.ring.one, None)}
    for k in range(1, ctx.q + 2):
        gk = goss_poly(ctx, torsion_lattice(ctx, p), k)
        assert min(gk.coeffs) >= 1
    red = tuple([ctx.base_field.zero, ctx.base_field.zero, ctx.base_field.one])
    with pytest.raises(NotIrreducibleError):
        goss_poly(ctx, torsion_lattice(ctx, red), 1)


def test_torsion_lattice_alpha0_is_one(ctx):
    p = (ctx.base_field.zero, ctx.base_field.one)
    L = torsion_lattice(ctx, p)
    assert L.alpha(0).is_one()
    assert L.alpha(len(p)).is_zero()


def test_carlitz_binomial(ctx):
    q = ctx.q
    assert b_poly_twist(ctx, 0, 0).is_one()
    assert b_poly_twist(ctx, 1, 0) == ctx.ring.t - ctx.ring.theta
    # E_d(a) = 1 for monic a of degree d
    for d in (1, 2):
        for a in ctx.monics(d)[:3]:
            assert carlitz_binomial(ctx, d, a).is_one()
    # E_i(a) = 0 for deg a < i
    one = (ctx.base_field.one,)
    assert carlitz_binomial(ctx, 1, one).is_zero()
    # E_i(a) agrees with the Carlitz action coefficient [a]_i
    rng = random.Random(1)
    for _ in range(6):
        d = rng.randrange(1, 3)
        a = ctx.monics(d)[rng.randrange(len(ctx.monics(d)))]
        coeffs = ctx.carlitz_coeffs(a)
        for i in range(d + 1):
            assert carlitz_binomial(ctx, i, a) == GradedScalar.from_poly(coeffs[i])


def test_carlitz_factorial(ctx):
    q = ctx.q
    assert carlitz_factorial(ctx, q) == GradedScalar.from_poly(ctx.D(1))
    assert carlitz_factorial(ctx, 0).is_one()
    assert carlitz_factorial(ctx, q + 1) == GradedScalar.from_poly(ctx.D(1))


def test_zeta_ratio(ctx):
    q = ctx.q
    zr = zeta_ratio(ctx, q - 1)
    assert zr == GradedScalar.from_rat(RatFunc(-ctx.ring.one, ctx.D(1)))
    if q > 2:
        with pytest.raises(ValueError):
            zeta_ratio(ctx, q)  # q is not divisible by q-1 when q > 2
    with pytest.raises(ValueError):
        zeta_ratio(ctx, 0)


def test_monic_enumeration_order(ctx):
    m1 = ctx.monics(1)
    assert len(m1) == ctx.q
    assert all(a[-1] == ctx.base_field.one for a in m1)
    assert m1 == tuple(sorted(m1))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_monics_in_lexicographic_digit_order(q):
    # check names of the congruence and vadic suites follow this order
    ctx = shared_context(q)
    base = ctx.base_field

    def digit_vector(a):
        return [base.digits(c) for c in a]

    for d in range(4):
        monics = ctx.monics(d)
        assert len(set(monics)) == len(monics) == q ** d
        assert all(len(a) == d + 1 and a[-1] == base.one for a in monics)
        assert list(monics) == sorted(monics, key=digit_vector)


@pytest.mark.parametrize("q,top", [(2, 8), (3, 5), (4, 4), (5, 3)],
                         ids=["q2", "q3", "q4", "q5"])
def test_irreducibility(q, top):
    ctx = shared_context(q)
    assert ctx.is_irreducible((ctx.base_field.zero, ctx.base_field.one))
    # theta^2 factors
    assert not ctx.is_irreducible(
        (ctx.base_field.zero, ctx.base_field.zero, ctx.base_field.one))
    if ctx.q == 2:
        assert ctx.is_irreducible((ctx.base_field.one, ctx.base_field.one,
                                   ctx.base_field.one))
        # theta^2 + 1 = (theta+1)^2 over F_2
        assert not ctx.is_irreducible((ctx.base_field.one, ctx.base_field.zero,
                                       ctx.base_field.one))
    # Gauss: (1/n) sum_{d | n} mu(d) q^(n/d) monic irreducibles of degree n
    for n in range(1, top + 1):
        count = sum(sympy.mobius(d) * q ** (n // d)
                    for d in sympy.divisors(n)) // n
        assert sum(map(ctx.is_irreducible, ctx.monics(n))) == count
