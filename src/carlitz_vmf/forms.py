"""Scalar Drinfeld modular forms as truncated u-expansions.

All stored series are period-normalized: the honest expansion of a weight
k form equals pi^k times the stored one, and the stored coefficients are
rational (grade zero).  The generators g, h, Delta, E and the special
families are produced from their expansions indexed by monic polynomials,
h among them as -sum a^q u(az) (Gekeler 1988); the weight-raising
derivation applied to g (``gen_h_derivation``) is the independent route
the checks compare it with.  ``gen_E``, ``gen_g``, ``gen_h``,
``gen_Delta``, ``gen_fs`` and ``gen_goss_eis`` keep their highest build
per context (``Context.memo_upto``) and serve lower precisions from it.
"""

from __future__ import annotations

from .carlitz import period_lattice, zeta_ratio
from .context import Context
from .errors import NotInSpanError, NotIrreducibleError, PrecisionError
from .fields import show_tuple
from .polys import Poly, RatFunc
from .scalars import GradedScalar
from .useries import (USeries, dz, embed_series, goss_series, orbit_sum,
                      scale_arg)


class ClassicalForm:
    """A weight/type-tagged u-expansion, optionally with a g,h expression."""

    __slots__ = ("ctx", "weight", "type_", "series", "gh")

    def __init__(self, ctx, weight: int, type_: int, series: USeries, gh=None):
        self.ctx = ctx
        self.weight = weight
        self.type_ = type_ % max(ctx.q - 1, 1)
        self.series = series
        self.gh = gh

    def __mul__(self, other):
        return ClassicalForm(
            self.ctx,
            self.weight + other.weight,
            self.type_ + other.type_,
            self.series * other.series,
        )

    def __add__(self, other):
        if (self.weight, self.type_) != (other.weight, other.type_):
            raise ValueError("weights/types differ")
        return ClassicalForm(self.ctx, self.weight, self.type_, self.series + other.series)

    def __neg__(self):
        return ClassicalForm(self.ctx, self.weight, self.type_, -self.series)

    def __sub__(self, other):
        return self + (-other)

    def __pow__(self, n):
        return ClassicalForm(
            self.ctx, self.weight * n, self.type_ * n, self.series ** n
        )

    def scale(self, scalar: GradedScalar):
        return ClassicalForm(self.ctx, self.weight, self.type_, self.series.scale(scalar))

    def truncate(self, N: int):
        return ClassicalForm(self.ctx, self.weight, self.type_,
                             self.series.truncate(N), self.gh)

    def __repr__(self):
        return f"ClassicalForm(weight={self.weight}, type={self.type_}, {self.series})"


def a_expansion(ctx: Context, coeff_fn, k: int, N: int) -> USeries:
    """sum over monic a of coeff_fn(a) * G_k(u(a z)), exact below u^N.

    ``coeff_fn`` takes the coefficient tuple of a monic a and returns a
    GradedScalar (or None to skip the term).  The sum runs over one
    representative per Frobenius orbit (``Context.orbits_below``), and
    ``orbit_sum`` adds each orbit size's terms and their conjugates in one
    accumulation.
    So on a context with orbits ``coeff_fn`` must be Galois-equivariant:
    sigma(coeff_fn(a)) = coeff_fn(sigma(a)) for sigma: x -> x^p on the F_q
    coefficients.  1, a(theta)^k and a(t) are; so is G_k(u(a z)), since
    the Carlitz module and the period lattice are defined over F_p[theta].
    """
    if k < 1:
        raise ValueError("k must be positive")
    L = period_lattice(ctx)
    classes = {}
    for s, reps in ctx.orbits_below(N).items():
        terms = classes[s] = []
        for a in reps:
            c = coeff_fn(a)
            if c is None or c.is_zero():
                continue
            terms.append((c, goss_series(ctx, L, k, a, N), 0))
    return orbit_sum(ctx, classes, N)


def gen_E(ctx: Context, N: int) -> ClassicalForm:
    """False Eisenstein series of weight 2, type 1: sum a u(az).  Over
    F_{q^d} with an F_q parent context it is the parent's E, embedded."""
    def build():
        if ctx.parent is not None:
            s = embed_series(ctx, gen_E(ctx.parent, N).series)
        else:
            s = a_expansion(ctx, lambda a: GradedScalar.from_poly(ctx.apoly(a)),
                            1, N)
        return ClassicalForm(ctx, 2, 1, s)

    return ctx.memo_upto("E", N, build)


def gen_g(ctx: Context, N: int) -> ClassicalForm:
    """Weight q-1, type 0: 1 - (theta^q - theta) sum u(az)^(q-1)."""
    def build():
        q = ctx.q
        br = ctx.D(1)
        s = a_expansion(ctx, lambda a: GradedScalar.one(ctx.ring), q - 1, N)
        series = USeries.one(ctx, N) - s.scale(GradedScalar.from_poly(br))
        return ClassicalForm(ctx, q - 1, 0, series)

    return ctx.memo_upto("g", N, build)


def gen_Delta(ctx: Context, N: int) -> ClassicalForm:
    """The discriminant: -sum a^(q^2-q) u(az)^(q-1), weight q^2-1.

    The sign is pinned by the rank-2 module coefficient derived from the
    lattice exponential (equivalently by Delta = -h^(q-1)); the unsigned
    monic-indexed sum equals +h^(q-1)."""
    def build():
        q = ctx.q
        s = a_expansion(
            ctx, lambda a: GradedScalar.from_poly(ctx.apoly(a) ** (q * q - q)),
            q - 1, N
        )
        return ClassicalForm(ctx, q * q - 1, 0, -s)

    return ctx.memo_upto("Delta", N, build)


def gen_fs(ctx: Context, s: int, N: int) -> ClassicalForm:
    """Single-cuspidal family: sum a^(1+s(q-1)) u(az)."""
    if s < 1:
        raise ValueError("s must be positive")

    def build():
        exp = 1 + s * (ctx.q - 1)
        series = a_expansion(
            ctx, lambda a: GradedScalar.from_poly(ctx.apoly(a) ** exp), 1, N)
        return ClassicalForm(ctx, 2 + s * (ctx.q - 1), 1, series)

    return ctx.memo_upto(("fs", s), N, build)


def gen_goss_eis(ctx: Context, m: int, N: int) -> ClassicalForm:
    """Period-normalized Eisenstein series of weight m, (q-1) | m:
    -zeta_ratio(m) - sum_a G_m(u(az))."""
    def build():
        zr = zeta_ratio(ctx, m)
        s = a_expansion(ctx, lambda a: GradedScalar.one(ctx.ring), m, N)
        series = USeries.const(ctx, -zr, N) - s
        return ClassicalForm(ctx, m, 0, series)

    return ctx.memo_upto(("goss_eis", m), N, build)


def ramanujan_serre(ctx: Context, f: ClassicalForm) -> ClassicalForm:
    """Weight-raising derivation: pi^(-1) D_z f + (weight) E f."""
    N = f.series.prec
    pi_inv = GradedScalar(ctx.ring, {(-1, 0): RatFunc(ctx.ring.one, None, reduce=False)})
    d = dz(f.series, 1).scale(pi_inv)
    kE = GradedScalar.from_int(ctx.ring, f.weight)
    if kE.is_zero():
        series = d
    else:
        if N is None:
            raise PrecisionError("derivation of an exact series needs a truncation")
        series = d + gen_E(ctx, N).series.scale(kE) * f.series
    return ClassicalForm(ctx, f.weight + 2, f.type_ + 1, series)


def gen_h(ctx: Context, N: int) -> ClassicalForm:
    """Weight q+1, type 1, leading coefficient -1: -sum a^q u(az), one
    monic sum over the u(az) (Gekeler, Invent. Math. 93, 1988)."""
    def build():
        series = -a_expansion(
            ctx, lambda a: GradedScalar.from_poly(ctx.apoly(a) ** ctx.q), 1, N)
        return ClassicalForm(ctx, ctx.q + 1, 1, series)

    return ctx.memo_upto("h", N, build)


def gen_h_derivation(ctx: Context, N: int) -> ClassicalForm:
    """Independent route to h: the weight-raising derivation applied to g,
    run one order higher (g and E to O(u^(N+1))) and cut to O(u^N)."""
    d = ramanujan_serre(ctx, gen_g(ctx, N + 1))
    return ClassicalForm(ctx, ctx.q + 1, 1, d.series.truncate(N))


def para_eisenstein(ctx: Context, k: int, N: int) -> ClassicalForm:
    """Normalized coefficient forms of the rank-2 lattice exponential:
    alpha_0 = 1, alpha_1 = g/D_1, and

        alpha_k (theta^(q^k) - theta) = g alpha_(k-1)^q + Delta alpha_(k-2)^(q^2).
    """
    if k < 0:
        raise ValueError("k must be non-negative")

    def build():
        if k == 0:
            return ClassicalForm(ctx, 0, 0, USeries.one(ctx, N))
        g = gen_g(ctx, N)
        if k == 1:
            series = g.series.scale(
                GradedScalar.from_rat(RatFunc(ctx.ring.one, ctx.D(1))))
            return ClassicalForm(ctx, ctx.q - 1, 0, series)
        Delta = gen_Delta(ctx, N)
        am1 = para_eisenstein(ctx, k - 1, N)
        am2 = para_eisenstein(ctx, k - 2, N)
        q = ctx.q
        f = ctx.ring.field
        den = Poly(ctx.ring, {(q ** k, 0): f.one}) - ctx.ring.theta
        series = (
            g.series * am1.series ** q + Delta.series * am2.series ** (q * q)
        ).scale(GradedScalar.from_rat(RatFunc(ctx.ring.one, den)))
        return ClassicalForm(ctx, q ** k - 1, 0, series)

    return ctx.memo(("para", k, N), build)


# -- expression in the g, h monomial basis ---------------------------------


def gh_monomials(ctx: Context, weight: int, type_: int):
    """Exponent pairs (alpha, beta) with alpha(q-1) + beta(q+1) = weight
    and beta = type (mod q-1)."""
    q = ctx.q
    mod = q - 1
    out = []
    for beta in range(weight // (q + 1) + 1):
        rem = weight - beta * (q + 1)
        if mod == 1:
            out.append((rem, beta))
        elif rem % mod == 0 and (beta - type_) % mod == 0:
            out.append((rem // mod, beta))
    return out


def gh_basis(ctx: Context, pairs, N: int) -> list:
    """The monomials g^alpha h^beta for the (alpha, beta) in pairs, to O(u^N)."""
    g = gen_g(ctx, N).series
    h = gen_h(ctx, N).series
    return [(g ** al * h ** be).truncate(N) if (al or be) else USeries.one(ctx, N)
            for (al, be) in pairs]


def solve_in_span(ctx: Context, basis, series: USeries) -> list:
    """Coefficients c_i with sum c_i basis_i = series below series.prec,
    one per basis series, free variables zero.

    The basis series are read through their rational (grade (0,0)) parts,
    and each grade of the series is solved on its own by exact
    elimination.  Raises NotInSpanError, with the residual series, when no
    combination matches the series to its precision.
    """
    N = series.prec
    zero = GradedScalar.zero(ctx.ring)
    lo = min(min((b.val() for b in basis), default=0), series.val() if series.c else 0)
    rows = range(int(lo), N)
    mat = [[b.c.get(n, zero).rational_part() for b in basis] for n in rows]
    grades = set().union(*(c.grades() for c in series.c.values())) or {(0, 0)}
    solution = [zero] * len(basis)
    residual: dict = {}
    for grade in sorted(grades):
        rhs = [series.c.get(n, zero).grade_part(*grade) for n in rows]
        sol = _gauss_pivot_solution(ctx, mat, rhs)
        for n, row, acc in zip(rows, mat, rhs):
            for m, s in zip(row, sol):
                if not m.is_zero() and not s.is_zero():
                    acc = acc - m * s
            if not acc.is_zero():
                residual[n] = residual.get(n, zero) + GradedScalar.from_rat(acc, *grade)
        solution = [c if s.is_zero() else c + GradedScalar.from_rat(s, *grade)
                    for c, s in zip(solution, sol)]
    if residual:
        raise NotInSpanError("series is not in the span to its precision",
                             residual=USeries(ctx, residual, N))
    return solution


def express_in_gh(ctx: Context, f: ClassicalForm) -> dict:
    """Write f as a combination of g^alpha h^beta monomials.

    Raises NotInSpanError (with the residual series) when f is not in the
    span to its known precision, and PrecisionError when the truncation
    does not even exceed the number of admissible monomials.
    """
    series = f.series
    if series.prec is None:
        raise PrecisionError("an exact series has no tracked truncation to solve against")
    N = series.prec
    pairs = gh_monomials(ctx, f.weight, f.type_)
    if not pairs:
        if series.is_zero():
            return {}
        raise NotInSpanError("no admissible monomials for this weight/type",
                             residual=series)
    if N <= len(pairs):
        raise PrecisionError(f"truncation {N} must exceed {len(pairs)} monomials")
    sol = solve_in_span(ctx, gh_basis(ctx, pairs, N), series)
    return {pair: c for pair, c in zip(pairs, sol) if not c.is_zero()}


def _gauss_pivot_solution(ctx, mat, rhs):
    """Exact Gaussian elimination; returns the pivot-variable solution
    (free variables zero) without asserting consistency."""
    m = [row[:] + [r] for row, r in zip(mat, rhs)]
    nrows, ncols = len(m), len(mat[0])
    piv_rows = []
    r0 = 0
    for col in range(ncols):
        piv = None
        for r in range(r0, nrows):
            if not m[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        m[r0], m[piv] = m[piv], m[r0]
        inv = m[r0][col].inv()
        m[r0] = [x * inv for x in m[r0]]
        for r in range(nrows):
            if r != r0 and not m[r][col].is_zero():
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[r0])]
        piv_rows.append((r0, col))
        r0 += 1
        if r0 == nrows:
            break
    sol = [RatFunc(ctx.ring.zero, None, reduce=False)] * ncols
    for r, c in piv_rows:
        sol[c] = m[r][ncols]
    return sol


# -- level structures --------------------------------------------------------


def level_Ep(ctx: Context, p, N: int) -> ClassicalForm:
    """E - p E(p z): weight 2, type 1 at Hecke level p."""
    if len(p) - 1 < 1:
        raise ValueError("level must have positive degree")
    if not ctx.is_irreducible(p):
        raise NotIrreducibleError(
            f"{show_tuple(ctx.base_field, p)} is not irreducible")
    E = gen_E(ctx, N)
    scaled = scale_arg(E.series, p, N).scale(GradedScalar.from_poly(ctx.apoly(p)))
    return ClassicalForm(ctx, 2, 1, E.series - scaled)


def w_involution_check(ctx: Context, p, N: int):
    """Verify the Fricke-type sign on E - p E(pz) symbolically.

    Expressions are dictionaries {(symbol, z-power): scalar} over the
    symbols E(z), E(pz) and 1; only substitutions by the inversion
    (z -> -1/z, a unimodular move) and by z -> pz are used, exactly the
    steps that are legitimate for a depth-1 quasi-modular pair.
    """
    if not ctx.is_irreducible(p):
        raise NotIrreducibleError(
            f"{show_tuple(ctx.base_field, p)} is not irreducible")
    ring = ctx.ring
    one = GradedScalar.one(ctx.ring)
    pp = GradedScalar.from_poly(ctx.apoly(p))
    pi_inv = GradedScalar(ring, {(-1, 0): RatFunc(ring.one, None, reduce=False)})

    def add_into(d, key, val):
        cur = d.get(key)
        s = val if cur is None else cur + val
        if s.is_zero():
            d.pop(key, None)
        else:
            d[key] = s

    # E_p = E(z) - p E(pz)
    ep = {}
    add_into(ep, ("E", 0), one)
    add_into(ep, ("Ep", 0), -pp)

    # images of the symbols under w := -1/(p z):
    #   E(w)     = (p z)^2 E(pz) - (p z)/pi        [inversion at p z]
    #   E(p w)   = E(-1/z) = z^2 E(z) - z/pi       [inversion at z]
    img_E = {("Ep", 2): pp * pp, ("1", 1): -(pp * pi_inv)}
    img_Ep = {("E", 2): one, ("1", 1): -pi_inv}

    transformed = {}
    for (sym, zk), coef in ep.items():
        img = {"E": img_E, "Ep": img_Ep, "1": {("1", 0): one}}[sym]
        # w^zk factor: (-1)^zk p^(-zk) z^(-zk)
        for (sym2, zk2), c2 in img.items():
            factor = coef * c2
            if zk:
                factor = factor * (-(pp.inv())) ** zk
            add_into(transformed, (sym2, zk2 - zk), factor)

    # slash by W: det^1 j^(-2) = p (p z)^(-2)
    final = {}
    for (sym, zk), coef in transformed.items():
        add_into(final, (sym, zk - 2), coef * pp.inv())

    target = {}
    add_into(target, ("E", 0), -one)
    add_into(target, ("Ep", 0), pp)
    ok = final == target
    return {"ok": ok, "got": final, "expected": target}
