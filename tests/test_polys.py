import random

import pytest
import sympy

from carlitz_vmf.context import Context
from carlitz_vmf.polys import (Poly, PolyRing, RatFunc, _bivar_gcd,
                               _univar_gcd, poly_gcd)
from carlitz_vmf.fields import GF


def ring(q=3):
    return PolyRing(GF(q))


def test_canonical_fraction_is_unique():
    R = ring(3)
    th, t = R.theta, R.t
    two = R.from_int(2)
    a = RatFunc(two * th, two * (th * t + R.one))
    b = RatFunc(th, th * t + R.one)
    assert a == b
    # denominator comes out monic in the graded-lex order
    assert a.den.lead()[1] == R.field.one


def test_gcd_cancellation_bivariate():
    R = ring(3)
    th, t = R.theta, R.t
    common = th * t + R.one
    f = RatFunc(common * (th + t), common * (t + R.one))
    assert f == RatFunc(th + t, t + R.one)
    g = poly_gcd(common * (th + t), common * common)
    assert g == common.monic()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_univariate_gcd(q):
    """poly_gcd of theta-only polynomials: gcd(f g, f h) = monic(f) for
    distinct monic irreducibles g, h of one degree; over F_p also sympy."""
    ctx = Context(q)
    F = ctx.base_field
    rng = random.Random(q)
    elems = list(F.elements())

    def rand_coeffs(deg):
        return [rng.choice(elems) for _ in range(deg)] + [
            rng.choice([x for x in elems if x != F.zero])]

    irreducible = [a for a in ctx.monics(3) if ctx.is_irreducible(a)]
    for _ in range(6):
        f = ctx.apoly(rand_coeffs(rng.randrange(1, 5)))
        g, h = rng.sample(irreducible, 2)
        assert poly_gcd(f * ctx.apoly(g), f * ctx.apoly(h)) == f.monic()
    if F.e > 1:
        return
    x = sympy.Symbol("x")

    def to_sympy(coeffs):
        return sympy.Poly(list(reversed(coeffs)), x, modulus=q)

    for _ in range(12):
        c, u, v = (rand_coeffs(rng.randrange(0, 4)) for _ in range(3))
        a = ctx.apoly(c) * ctx.apoly(u)
        b = ctx.apoly(c) * ctx.apoly(v)
        want = to_sympy(c).mul(to_sympy(u)).gcd(to_sympy(c).mul(to_sympy(v)))
        want = [int(w) % q for w in reversed(want.all_coeffs())]
        assert poly_gcd(a, b) == ctx.apoly(want)


def _t_coeff(poly, j):
    """The coefficient of t^j, a polynomial in theta."""
    return Poly(poly.ring, {(i, 0): v for (i, k), v in poly.c.items()
                            if k == j})


def _content_theta(poly, g=None):
    """Monic gcd over F[theta] of the t-coefficients of poly and, when
    given, the t-free g."""
    ring = poly.ring
    acc = [] if g is None else [g.coeff(i, 0)
                                for i in range(g.deg_theta() + 1)]
    for j in {j for _, j in poly.c}:
        c = _t_coeff(poly, j)
        acc = _univar_gcd(acc, [c.coeff(i, 0)
                                for i in range(c.deg_theta() + 1)],
                          ring.field)
    return ring.theta_poly(acc)


def _prem_t(a, b):
    """Pseudo-remainder of a by b in the main variable t."""
    db = b.deg_t()
    lb, r = _t_coeff(b, db), a
    while not r.is_zero() and r.deg_t() >= db:
        dr = r.deg_t()
        shift = r.ring.monomial(r.ring.field.one, 0, dr - db)
        r = lb * r - _t_coeff(r, dr) * shift * b
    return r


def _prs_gcd(a, b):
    """Monic gcd by the primitive PRS in t, on Polys alone: the oracle the
    theta-row kernel is checked against."""
    ca, cb = _content_theta(a), _content_theta(b)
    pa, pb = a.exact_div(ca), b.exact_div(cb)
    while not pb.is_zero():
        r = _prem_t(pa, pb)
        pa = pb
        pb = r if r.is_zero() else r.exact_div(_content_theta(r))
    return (_content_theta(cb, ca) * pa).monic()


def _assert_gcds_match_prs(a, b):
    """poly_gcd and _bivar_gcd, either way round, equal the oracle and
    come out monic."""
    want = _prs_gcd(a, b)
    assert want.lead()[1] == a.ring.field.one
    for g in (poly_gcd(a, b), poly_gcd(b, a), _bivar_gcd(a, b),
              _bivar_gcd(b, a)):
        assert g == want


def _random_poly(R, rng, max_i, max_j, n_terms):
    """Random polynomial of t-degree max_j and theta-degree <= max_i."""
    F = R.field
    nonzero = [x for x in F.elements() if x != F.zero]
    c = {(rng.randrange(max_i + 1), rng.randrange(max_j + 1)): rng.choice(nonzero)
         for _ in range(n_terms)}
    c[(rng.randrange(max_i + 1), max_j)] = rng.choice(nonzero)
    return Poly(R, c)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_gcd_shortcuts_match_prs(q):
    """poly_gcd takes exact shortcuts for an operand of t-degree 0 or 1,
    also one with no constant row; each must equal the primitive PRS gcd
    of the oracle and come out monic."""
    R = Context(q).ring
    rng = random.Random(100 + q)
    pairs = []
    for _ in range(8):
        A = _random_poly(R, rng, 3, 2, 4)        # t-degree 2
        B = _random_poly(R, rng, 3, 3, 5)        # t-degree 3
        x = _random_poly(R, rng, 3, 0, 3) * R.theta + R.one  # t-free
        c = _random_poly(R, rng, 2, 0, 2) * R.theta + R.one  # content, deg >= 1
        lin = c * _random_poly(R, rng, 3, 1, 4)  # b1(theta) t + b0(theta)
        monic_lin = R.t - _random_poly(R, rng, 3, 0, 3)  # t - s(theta)
        pairs += [
            (x, B),                    # t-free against bivariate
            (x * c, c * B),            # ... with a common factor
            (lin, lin * A),            # linear operand divides the other
            (lin, c * A),              # only its content is shared
            (lin, B),                  # linear operand does not divide
            (lin, x * c * A + R.one),  # nor here
            (monic_lin, monic_lin * x * A),
            (monic_lin, A),
            (c * R.t, R.t * A),        # L = t, no constant row
            (c * R.t, c * A + R.t),    # t does not divide the other
            (c * R.t, x * c * B),
        ]
    for a, b in pairs:
        assert min(a.deg_t(), b.deg_t()) <= 1
        assert len(a.terms()) > 1 and len(b.terms()) > 1
        _assert_gcds_match_prs(a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_exact_div_recovers_factor(q):
    R = Context(q).ring
    rng = random.Random(200 + q)
    for _ in range(10):
        f = _random_poly(R, rng, 6, 3, 12)
        d = _random_poly(R, rng, 4, 2, 6)
        assert len(d.terms()) > 1
        assert (f * d).exact_div(d) == f
        with pytest.raises(ArithmeticError):
            (f * d + R.one).exact_div(d)


def test_terms_and_coeff():
    R = ring(3)
    p = R.t * R.theta + R.from_int(2) + R.t
    assert p.terms() == [(0, 0, 2), (0, 1, 1), (1, 1, 1)]
    assert p.coeff(1, 1) == 1 and p.coeff(0, 0) == 2
    assert p.coeff(1, 0) == 0 and p.coeff(7, 7) == 0
    assert R.zero.terms() == []
    F4 = PolyRing(GF(2, 2))
    digits = F4.field.from_digits
    assert F4.one.coeff(0, 0) == digits([1, 0])
    assert F4.one.coeff(0, 1) == digits([0, 0])


def test_exact_div_raises_on_inexact():
    R = ring(2)
    with pytest.raises(ArithmeticError):
        (R.theta + R.one).exact_div(R.t)


def test_zero_denominator_rejected():
    R = ring(3)
    with pytest.raises(ZeroDivisionError):
        RatFunc(R.one, R.zero)


def test_hyperderivative_monomial_rule():
    R = ring(3)
    t = R.t
    # D^(1) t^2 = 2t
    assert (t * t).hyperderiv_t(1) == R.from_int(2) * t
    # D^(3) t^3 = binom(3,3) = 1
    assert (t * t * t).hyperderiv_t(3) == R.one
    # binom(3,1) = 3 = 0 mod 3
    assert (t * t * t).hyperderiv_t(1).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hyperderivative_against_sympy(p):
    """Divided-power derivatives of integer polynomials reduce mod p."""
    rng = random.Random(11)
    R = PolyRing(GF(p))
    ts = sympy.Symbol("t")
    ths = sympy.Symbol("th")
    for _ in range(8):
        coeffs = {(i, j): rng.randrange(p) for i in range(3) for j in range(4)}
        f = Poly(R, {k: v % p for k, v in coeffs.items() if v % p})
        fs = sum(c * ths ** i * ts ** j for (i, j), c in coeffs.items())
        n = rng.randrange(1, 4)
        expected = sympy.expand(sympy.diff(fs, ts, n) / sympy.factorial(n))
        got = f.hyperderiv_t(n)
        poly = sympy.Poly(expected, ths, ts)
        want = {}
        for (i, j), c in poly.terms():
            c = int(c) % p
            if c:
                want[(i, j)] = c
        assert got.c == want


def test_ratfunc_hyperderivative_leibniz():
    rng = random.Random(5)
    R = ring(3)

    def rand_poly():
        c = {}
        for i in range(2):
            for j in range(2):
                v = rng.randrange(3)
                if v:
                    c[(i, j)] = v
        return Poly(R, c)

    for _ in range(12):
        num, den = rand_poly(), rand_poly()
        if den.is_zero():
            continue
        x = RatFunc(num if not num.is_zero() else R.one, den)
        y = RatFunc(rand_poly() + R.one, R.one + R.t)
        n = rng.randrange(1, 4)
        lhs = (x * y).hyperderiv_t(n)
        rhs = None
        for j in range(n + 1):
            term = x.hyperderiv_t(j) * y.hyperderiv_t(n - j)
            rhs = term if rhs is None else rhs + term
        assert lhs == rhs


def test_orders_of_vanishing():
    R = ring(3)
    th, t = R.theta, R.t
    s = th * th * th  # theta^3
    f = (t - s) * (t - s) * (t + R.one)
    assert f.t_order_at(s) == 2
    assert (t + R.one).t_order_at(s) == 0
    zeta = R.field.from_int(2)
    g = (th - R.const(zeta)) * th
    assert g.theta_order_at(zeta) == 1


def test_subs_theta_power_is_multiplicative():
    R = ring(2)
    th, t = R.theta, R.t
    a = th * t + R.one
    b = th + t
    q = 2
    assert (a * b).subs_theta_power(q) == a.subs_theta_power(q) * b.subs_theta_power(q)


def _from_scratch(num, den):
    """num/den normalized by the oracle's primitive PRS alone."""
    if num.is_zero():
        return RatFunc(num, None, reduce=False)
    g = _prs_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    inv = den.ring.field.inv(den.lead()[1])
    return RatFunc(num.scale(inv), den.scale(inv), reduce=False)


def _random_fraction(R, rng, den_factor=None):
    """A random canonical fraction; its denominator has t-degree >= 1 and
    carries den_factor when given."""
    num = _random_poly(R, rng, 2, rng.randrange(3), 3)
    den = _random_poly(R, rng, 2, rng.randrange(1, 3), 3)
    if den_factor is not None:
        den = den * den_factor
    return _from_scratch(num, den)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_henrici_sum_matches_from_scratch(q):
    """Sums of fractions with different non-trivial denominators, coprime
    or sharing a factor, with and without cancellation against the shared
    factor, and sums that cancel to 0."""
    R = Context(q).ring
    rng = random.Random(300 + q)
    for _ in range(6):
        c = _random_poly(R, rng, 2, 1, 3)
        x = _random_fraction(R, rng, c)
        y = _random_fraction(R, rng, c)
        s = _random_fraction(R, rng)
        d = _from_scratch(s.num * x.den - x.num * s.den, s.den * x.den)
        z = _random_fraction(R, rng)
        pairs = [(x, y), (x, z), (x, d)]
        for a, b in pairs:
            assert a.den != b.den and not a.den.is_one() and not b.den.is_one()
            want = _from_scratch(a.num * b.den + b.num * a.den, a.den * b.den)
            assert a + b == want and b + a == want
            assert want == RatFunc(a.num * b.den + b.num * a.den,
                                   a.den * b.den)
        assert x + d == s  # the shared factor of x.den and d.den cancels
        assert (x + z) + y + (-(x + y)) + (-z) == RatFunc(R.zero)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_tau_and_pow_match_from_scratch(q):
    """The twist and powers take no gcd; they must still be canonical,
    including a denominator whose graded-lex lead moves under the twist."""
    ctx = Context(q)
    R, F = ctx.ring, ctx.base_field
    rng = random.Random(400 + q)
    c = [x for x in F.elements() if x not in (F.zero, F.one)]
    moved = R.t * R.t + R.theta.scale(c[0]) if c else R.t * R.t + R.theta
    fracs = [_random_fraction(R, rng) for _ in range(8)]
    fracs.append(_from_scratch(R.theta * R.t + R.one, moved))
    for x in fracs:
        want = _from_scratch(x.num.subs_theta_power(q),
                             x.den.subs_theta_power(q))
        assert x.tau(q) == want
        assert x.tau(q) == RatFunc(x.num.subs_theta_power(q),
                                   x.den.subs_theta_power(q))
        for n in (0, 1, 2, 3, -1, -2):
            num, den = (x.num, x.den) if n >= 0 else (x.den, x.num)
            assert x ** n == _from_scratch(num ** abs(n), den ** abs(n))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_gcd_of_higher_t_degree_matches_prs(q):
    """poly_gcd on operands of t-degree >= 2: equal operands, coprime
    pairs (decided at a point), planted common factors of positive
    t-degree, shared theta-content, and a common factor whose t-lead
    vanishes at theta = 0, where the images at that point are coprime."""
    R = Context(q).ring
    th, t = R.theta, R.t
    rng = random.Random(500 + q)
    shared = th * t + R.one
    pairs = [(shared * (t + th), shared * (t * t + th + R.one))]
    for _ in range(6):
        A = _random_poly(R, rng, 3, 2, 4)
        B = _random_poly(R, rng, 3, 3, 5)
        G = _random_poly(R, rng, 2, rng.randrange(1, 3), 3) + R.t
        c = _random_poly(R, rng, 2, 0, 2) * th + R.one
        pairs += [(A, B), (A, A), (G * A, G * B), (c * A, c * B),
                  (c * G * A, G * B), (shared * A, shared * B)]
    for a, b in pairs:
        assert min(a.deg_t(), b.deg_t()) >= 2
        _assert_gcds_match_prs(a, b)
    assert poly_gcd(*pairs[0]) == shared.monic()


def test_gcd_counts(monkeypatch):
    """tau and ** take no gcd, a sum over coprime denominators takes one,
    and the properties suite at q=4 reaches the PRS at most 200 times."""
    from carlitz_vmf import polys
    from carlitz_vmf.cli import main

    calls = {"poly_gcd": 0, "_bivar_gcd": 0}

    def counted(name):
        fn = getattr(polys, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(polys, name, counted(name))
    R = ring(3)
    th, t = R.theta, R.t
    x = RatFunc(th + t, th * t + R.one)
    y = RatFunc(th * th + R.one, t * t + th)
    calls["poly_gcd"] = 0
    x.tau(3)
    y.tau(9)
    x ** 3
    x ** -2
    assert calls["poly_gcd"] == 0
    x + y
    assert calls["poly_gcd"] == 1
    calls["_bivar_gcd"] = 0
    assert main(["verify", "--suite", "properties", "--q", "4"]) == 0
    assert calls["_bivar_gcd"] <= 200
