"""Carlitz-module combinatorics: D_j, action polynomials, binomials,
factorials, zeta ratios, and Goss polynomials of F_q-lattice exponentials.

Goss polynomials are produced from the generating identity

    sum_{k >= 1} G_k(X) w^(k-1) = X / (1 - X e(w)),    e(w) = sum_j alpha_j w^(q^j),

by coefficient extraction, so the hyperderivative relation for the
uniformizer is a theorem of the construction rather than an input.
"""

from __future__ import annotations

from .context import Context
from .errors import NotIrreducibleError
from .fields import show_tuple
from .polys import Poly, RatFunc, _solve
from .scalars import GradedScalar


class LatticeExp:
    """Exponential coefficients alpha_j of an F_q-lattice (alpha_0 = 1)."""

    def __init__(self, ctx: Context, alpha_fn, max_index=None, key=None):
        self.ctx = ctx
        self._alpha = alpha_fn
        self.max_index = max_index
        self.key = key

    def alpha(self, j: int) -> RatFunc:
        if self.max_index is not None and j > self.max_index:
            return RatFunc(self.ctx.ring.zero, None, reduce=False)
        return self._alpha(j)

    def alpha_scalar(self, j: int) -> GradedScalar:
        return GradedScalar.from_rat(self.alpha(j))


def period_lattice(ctx: Context) -> LatticeExp:
    """alpha_j = 1/D_j: the exponential of the rank-1 period lattice in
    the rescaled variable w = pi*z."""
    return LatticeExp(
        ctx,
        lambda j: RatFunc(ctx.ring.one, ctx.D(j)),
        max_index=None,
        key=("period",),
    )


def torsion_lattice(ctx: Context, p) -> LatticeExp:
    """Exponential of the p-torsion lattice: alpha_j = [p]_j / p."""
    if not ctx.is_irreducible(p):
        raise NotIrreducibleError(f"{show_tuple(ctx.base_field, p)} is not "
                                  f"irreducible over F_{ctx.q}")
    coeffs = ctx.carlitz_coeffs(p)
    pp = ctx.apoly(p)
    return LatticeExp(
        ctx,
        lambda j: RatFunc(coeffs[j], pp),
        max_index=len(p) - 1,
        key=("torsion", p),
    )


class GossPoly:
    """G_k(X) with rational-function coefficients, X | G_k."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs: dict):
        self.k = k
        self.coeffs = coeffs  # X-exponent -> RatFunc

    def __repr__(self):
        terms = [f"({c})*X^{e}" for e, c in sorted(self.coeffs.items())]
        return f"G_{self.k} = " + " + ".join(terms)


def _goss_table(ctx: Context, L: LatticeExp, K: int):
    """T_0..T_{K-1} with G_k = X*T_{k-1}; cached per lattice."""
    key = ("goss_table", L.key)
    table = ctx.cache.get(key)
    if table is None:
        table = [{0: RatFunc(ctx.ring.one, None, reduce=False)}]
        ctx.cache[key] = table
    while len(table) < K:
        n = len(table)
        acc: dict = {}
        j = 0
        while ctx.q ** j <= n:
            a = L.alpha(j)
            if not a.is_zero():
                prev = table[n - ctx.q ** j]
                for e, c in prev.items():
                    v = c * a
                    if (e + 1) in acc:
                        s = acc[e + 1] + v
                        if s.is_zero():
                            del acc[e + 1]
                        else:
                            acc[e + 1] = s
                    elif not v.is_zero():
                        acc[e + 1] = v
            j += 1
        table.append(acc)
    return table


def goss_poly(ctx: Context, L: LatticeExp, k: int) -> GossPoly:
    """The k-th Goss polynomial of the lattice exponential L."""
    if k < 1:
        raise ValueError("k must be positive")
    table = _goss_table(ctx, L, k)
    return GossPoly(k, {e + 1: c for e, c in table[k - 1].items()})


def carlitz_binomial(ctx: Context, i: int, a) -> GradedScalar:
    """E_i(a) = D_i^(-1) prod_{c in A(i)} (a - c), by the product."""
    prod = ctx.ring.one
    for c in ctx.poly_space(i):
        prod = prod * (ctx.apoly(a) - ctx.apoly(c))
        if prod.is_zero():
            break
    return GradedScalar.from_rat(RatFunc(prod, ctx.D(i)))


def b_poly_twist(ctx: Context, l: int, n: int) -> Poly:
    """tau^n(b_l) = prod_{j<l} (t - theta^(q^(j+n))), where
    b_l = prod_{j<l} (t - theta^(q^j)) and tau^l(om) = b_l om; the one
    builder of products of the factors t - theta^(q^j)."""
    out = ctx.ring.one
    f = ctx.ring.field
    for j in range(l):
        out = out * (ctx.ring.t - Poly(ctx.ring, {(ctx.q ** (j + n), 0): f.one}))
    return out


def carlitz_factorial(ctx: Context, m: int) -> GradedScalar:
    """Pi(m) = prod D_i^(m_i) over the base-q digits of m."""
    if m < 0:
        raise ValueError("m must be non-negative")
    out = ctx.ring.one
    i = 0
    while m:
        mi = m % ctx.q
        if mi:
            out = out * ctx.D(i) ** mi
        m //= ctx.q
        i += 1
    return GradedScalar.from_poly(out)


def zeta_ratio(ctx: Context, m: int) -> GradedScalar:
    """zeta(m)/pi^m for (q-1) | m, m > 0: the w^m coefficient of w/e(w)
    for the period-lattice exponential, the series y with (e(w)/w) y = 1
    (``polys._solve``)."""
    if m <= 0:
        raise ValueError("m must be positive")
    if (ctx.q - 1) > 1 and m % (ctx.q - 1):
        raise ValueError(f"{m} is not divisible by q-1")

    def build():
        # e(w)/w has coefficient 1/D_j at w^(q^j - 1)
        f = []
        j = 1
        while ctx.q ** j - 1 <= m:
            f.append((ctx.q ** j - 1, RatFunc(ctx.ring.one, ctx.D(j))))
            j += 1
        y = _solve({0: RatFunc(ctx.ring.one, None, reduce=False)}, f, m + 1)
        return y.get(m, RatFunc(ctx.ring.zero, None, reduce=False))

    return GradedScalar.from_rat(ctx.memo(("zeta_ratio", m), build))
