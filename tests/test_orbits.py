"""Monic sums by Frobenius orbits.

sigma: x -> x^p on the F_q coefficients sends the Carlitz action of a to
that of sigma(a), so u(sigma(a) z) = sigma(u(a z)) and every Eisenstein
term of sigma(a) is sigma of the term of a.  ``Context.orbits_below``
groups the monics into orbits, ``u_scale`` conjugates the representative's
series for the other members, and the monic sums add Tr_s = sum_{j<s}
sigma^j of the sum over the representatives of each orbit size s
(``useries.orbit_sum``): over F_{2^e} slot by slot on packed rows, and
elsewhere by conjugating each size's sum.
"""

import random

import pytest

from carlitz_vmf import useries
from carlitz_vmf.carlitz import period_lattice
from carlitz_vmf.context import Context
from carlitz_vmf.polys import Poly
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.useries import (USeries, conjugate, goss_series, orbit_sum,
                                 u_scale)
from carlitz_vmf.vmf import _eis_sums, chi_correction, eis1, lambda_1
from conftest import frobenius_orbits


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_orbits_partition_the_monics(q):
    """Every monic below q^2 + 1 lies in exactly one orbit, whose first
    monic is its representative and whose size is its class."""
    ctx = Context(q)
    N = q * q + 1
    monics = ctx.monics_below(N)
    classes = ctx.orbits_below(N)
    assert sum(s * len(reps) for s, reps in classes.items()) == len(monics)
    expect = {}
    for orbit in frobenius_orbits(ctx, monics):
        expect.setdefault(len(orbit), []).append(orbit[0])
        for j, a in enumerate(orbit):
            assert ctx.orbit_rep(a) == (orbit[0], j)
    assert classes == expect
    reps = [r for rs in classes.values() for r in rs]
    assert len(set(reps)) == len(reps)


def test_f2_rational_monics_are_fixed_at_q4():
    """The monics over F_2 = {0, 1} inside F_4 are fixed by sigma: their
    orbits have size 1, not e = 2, and no other orbit does."""
    ctx = Context(4)
    rational = {a for a in ctx.monics_below(17) if set(a) <= {0, 1}}
    assert len(rational) == 7
    assert set(ctx.orbits_below(17)[1]) == rational


@pytest.mark.parametrize("q", [2, 3, 5])
def test_prime_fields_have_one_class(q):
    ctx = Context(q)
    assert ctx.orbits_below(30) == {1: ctx.monics_below(30)}


@pytest.mark.parametrize("q, N, degrees", [(4, 40, (1, 2)), (8, 30, (1,)),
                                           (9, 30, (1,))],
                         ids=["q4", "q8", "q9"])
def test_conjugated_u_scale_equals_a_fresh_solve(q, N, degrees):
    """For every monic that is not its orbit's representative, the
    conjugated u(a z) equals the inverse of its own P_a =
    sum_i [a]_i u^(Q - q^i), coefficients and precision."""
    ctx = Context(q)
    checked = 0
    for d in degrees:
        Q = q ** d
        for a in ctx.monics(d):
            r, j = ctx.orbit_rep(a)
            if not j:
                continue
            P = USeries(ctx, {Q - q ** i: GradedScalar.from_poly(c)
                              for i, c in enumerate(ctx.carlitz_coeffs(a))
                              if not c.is_zero()})
            fresh = P.inverse(N - Q).shift(Q).truncate(N)
            got = u_scale(ctx, a, N)
            assert got.c == fresh.c and got.prec == fresh.prec == N
            assert got.c == conjugate(u_scale(ctx, r, N), j).c
            checked += 1
    assert checked


def _eis1_matches_per_monic(ctx, N):
    """eis1 against -sum a(t) u(a z) and lambda_1 + sum chi_corr(a) u(a z),
    one term per monic, each u(a z) a fresh inverse of its P_a."""
    q = ctx.q
    h1, h3 = [], [(lambda_1(ctx), USeries.one(ctx), 0)]
    for a in ctx.monics_below(N):
        cc = chi_correction(ctx, a).c
        prec = N - min(cc, default=0)
        if len(a) == 1:
            S = USeries.u(ctx).truncate(prec)
        else:
            Q = q ** (len(a) - 1)
            P = USeries(ctx, {Q - q ** i: GradedScalar.from_poly(c)
                              for i, c in enumerate(ctx.carlitz_coeffs(a))
                              if not c.is_zero()})
            S = P.inverse(prec - Q).shift(Q).truncate(prec)
        h1.append((-GradedScalar.from_poly(ctx.chi(a)), S, 0))
        h3 += [(c, S, n) for n, c in cc.items()]
    e1 = eis1(ctx, N)
    return all(built.c == plain.c and built.prec == plain.prec
               for built, plain in ((e1.h1, USeries.lincomb(ctx, h1, N)),
                                    (e1.h3, USeries.lincomb(ctx, h3, N))))


@pytest.mark.parametrize("q, N", [(4, 40), (8, 20), (9, 20)],
                         ids=["q4", "q8", "q9"])
def test_eis1_by_orbits_equals_the_per_monic_sum(q, N):
    assert _eis1_matches_per_monic(Context(q), N)


def test_a_subfield_orbit_traced_as_full_is_caught(monkeypatch):
    """Report theta + 1, an F_2-rational monic over F_4, as an orbit of
    size 2: its term is then added twice, which is zero in
    characteristic 2, and eis1 no longer equals the per-monic sum."""
    real = Context.orbits_below
    a = (1, 1)

    def mutated(self, bound_val):
        classes = {s: list(reps) for s, reps in real(self, bound_val).items()}
        classes[1].remove(a)
        classes[2].append(a)
        return classes

    monkeypatch.setattr(Context, "orbits_below", mutated)
    assert not _eis1_matches_per_monic(Context(4), 40)


def _rand_poly(ctx, rng):
    els = [x for x in ctx.ring.field.elements() if x != ctx.ring.field.zero]
    return Poly(ctx.ring, {(rng.randrange(10), rng.randrange(3)): rng.choice(els)
                           for _ in range(rng.randrange(1, 6))})


def _rand_terms(ctx, rng):
    """Packed-eligible (c, f, k) terms over two series, landing on two
    grades: f of grade (0, 0) and g of grade (0, 1) with scalars of grade
    (0, -1) and (0, -2)."""
    gs = GradedScalar.from_poly
    f = USeries(ctx, {n: gs(_rand_poly(ctx, rng)) for n in range(12)}, 12)
    g = USeries(ctx, {n: gs(_rand_poly(ctx, rng), 0, 1) for n in range(-2, 10)},
                14)
    return [(gs(_rand_poly(ctx, rng)), f, 0), (None, f, 3),
            (gs(_rand_poly(ctx, rng), 0, -1), g, 1),
            (gs(_rand_poly(ctx, rng), 0, -2), g, 0)]


def _conjugate_sum(ctx, terms, s):
    """sum_{j<s} sigma^j of the lincomb of terms, conjugate by conjugate."""
    f = USeries.lincomb(ctx, terms)
    out = f
    for j in range(1, s):
        out = out + conjugate(f, j)
    return out


@pytest.mark.parametrize("q", [4, 8, 16])
def test_packed_orbit_trace_equals_the_sum_of_conjugates(q, monkeypatch):
    """For every orbit size s (every divisor of e), the trace of a random
    packed sum taken on its rows equals the sum of its s conjugates, in
    coefficients and precision, alone and with every size at once; the
    packed route conjugates no series."""
    ctx = Context(q)
    rng = random.Random(q)
    sizes = [s for s in range(1, ctx.e + 1) if ctx.e % s == 0]
    classes = {s: _rand_terms(ctx, rng) for s in sizes}
    want = {s: _conjugate_sum(ctx, terms, s) for s, terms in classes.items()}
    calls = []
    monkeypatch.setattr(useries, "conjugate",
                        lambda *args: calls.append(args) or conjugate(*args))
    for s in sizes[1:]:
        got = orbit_sum(ctx, {s: classes[s]}, 40)
        assert got.c == want[s].c and got.prec == want[s].prec
    total = USeries.zero(ctx)
    for f in want.values():
        total = total + f
    got = orbit_sum(ctx, classes, 40)
    assert got.c == total.c and got.prec == total.prec
    assert {g for c in got.c.values() for g in c.grades()} == {(0, 0), (0, -1)}
    assert not calls


@pytest.mark.parametrize("k", ["1", "q"])
@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_merged_eis_sums_equal_two_separate_sums(q, k):
    """``_eis_sums`` takes h1 and the chi-sum in one accumulation and
    splits them by grade; each equals its own sum, taken as one lincomb
    per orbit size plus its conjugates, in coefficients and precision.
    N = q^3 reaches a nonzero chi-sum at k = q."""
    ctx = Context(q)
    k = 1 if k == "1" else q
    N = q ** 3
    L = period_lattice(ctx)
    conj = ([], [])
    for size, reps in ctx.orbits_below(N).items():
        h1_s, chi_s = [], []
        for a in reps:
            cc = chi_correction(ctx, a).c
            G = goss_series(ctx, L, k, a, N - min(cc, default=0))
            h1_s.append((-GradedScalar.from_poly(ctx.chi(a)), G, 0))
            chi_s += [(c, G, n) for n, c in cc.items()]
        for out, terms in zip(conj, (h1_s, chi_s)):
            f = USeries.lincomb(ctx, terms, N)
            out += [(None, conjugate(f, j), 0) for j in range(size)]
    for got, terms in zip(_eis_sums(ctx, k, N), conj):
        want = USeries.lincomb(ctx, terms, N)
        assert got.c == want.c and got.prec == want.prec == N
        assert got.c
