"""Monic sums by Frobenius orbits.

sigma: x -> x^p on the F_q coefficients sends the Carlitz action of a to
that of sigma(a), so u(sigma(a) z) = sigma(u(a z)) and every Eisenstein
term of sigma(a) is sigma of the term of a.  ``Context.orbits_below``
groups the monics into orbits, ``u_scale`` conjugates the representative's
series for the other members, and the monic sums add the conjugates of a
sum over representatives (``useries.orbit_sum``).
"""

import pytest

from carlitz_vmf.context import Context
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.useries import USeries, conjugate, u_scale
from carlitz_vmf.vmf import chi_correction, eis1, lambda_1
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
