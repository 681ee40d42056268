"""Precision-monotone memo (``Context.memo_upto``) and the builders it serves.

For each builder, a build at N on a fresh context must equal a build at
M > N cut to N: the same coefficients, the same precision (both gauge
coordinates of a vectorial form), the same ``regular`` flag and ``lam``.
The N of each case is an exponent where the M build has a nonzero
coefficient, so a cut that keeps one coefficient too many shows, and the
precisions are compared, so a build that comes out at N - 1 shows.  And
asking for M and then N in one context runs the build once.
"""

import pytest

from carlitz_vmf import forms, useries, vmf
from carlitz_vmf.context import Context


def _series_of(value):
    """The series a builder's value carries, as a tuple."""
    if isinstance(value, vmf.VMForm):
        return (value.h1, value.h3)
    if isinstance(value, forms.ClassicalForm):
        return (value.series,)
    return (value,)


def _facts(value):
    """Coefficients and precision of every series, plus the flags of a
    vectorial form."""
    out = [(dict(s.c), s.prec) for s in _series_of(value)]
    if isinstance(value, vmf.VMForm):
        out.append((value.k, value.m, value.regular, value.lam))
    if isinstance(value, forms.ClassicalForm):
        out.append((value.weight, value.type_))
    return out


def _monic(q, *lower):
    """The monic with the given lower coefficients (integers), over F_q."""
    f = Context(q).base_field
    return tuple(f.from_int(c) for c in lower) + (f.one,)


# (memo key, builder (ctx, N) -> value, lowest N to try)
def _builders(q):
    k = 2 * q - 1
    a1, a2 = _monic(q, 1), _monic(q, 0, 1)
    return [
        ("E", forms.gen_E, 6),
        ("g", forms.gen_g, 6),
        ("h", forms.gen_h, 6),
        ("Delta", forms.gen_Delta, 6),
        (("fs", 1), lambda ctx, N: forms.gen_fs(ctx, 1, N), 6),
        (("goss_eis", q - 1), lambda ctx, N: forms.gen_goss_eis(ctx, q - 1, N),
         6),
        ("eis1", vmf.eis1, 6),
        ("eis_q", vmf.eis_q, 6),
        (("eis_k", k), lambda ctx, N: vmf.eis_k(ctx, k, N), 12),
        (("u_scale", a1), lambda ctx, N: useries.u_scale(ctx, a1, N), 6),
        (("u_scale", a2), lambda ctx, N: useries.u_scale(ctx, a2, N),
         q * q + 1),
    ]


def _nonzero_at_or_above(value, n0, top):
    """The lowest exponent n0 <= n < top where some series of value has a
    nonzero coefficient."""
    exps = sorted({n for s in _series_of(value) for n in s.c if n0 <= n < top})
    assert exps, "no nonzero coefficient to cut at"
    return exps[0]


def _counting(ctx):
    """Record the keys that ``ctx.memo`` builds (not the ones it finds)."""
    built = []
    memo = ctx.memo

    def counted(key, build):
        if key not in ctx.cache:
            built.append(key)
        return memo(key, build)

    ctx.memo = counted
    return built


@pytest.mark.parametrize("q", [2, 3, 4])
def test_builders_cut_from_a_higher_build(q):
    for key, build, n0 in _builders(q):
        M = n0 + 3 * q * q
        big_ctx = Context(q)
        big = build(big_ctx, M)
        N = _nonzero_at_or_above(big, n0, M - 1)
        fresh = build(Context(q), N)
        cut = build(big_ctx, N)
        assert _facts(cut) == _facts(fresh), (key, N, M)
        assert all(s.prec == N for s in _series_of(fresh)), (key, N)
        # the cut left the coefficient at u^N behind
        assert all(N not in s.c for s in _series_of(cut))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_higher_then_lower_request_builds_once(q):
    for key, build, n0 in _builders(q):
        ctx = Context(q)
        built = _counting(ctx)
        M = n0 + 3 * q * q
        build(ctx, M)
        build(ctx, n0)
        build(ctx, M - 1)
        mine = [b for b in built if b[0] == key]
        assert mine == [(key, M)], (key, mine)
        # one top build is kept per key
        assert [k for k in ctx.cache if k[0] == key] == [(key, M)]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_power_of_y_memo(q):
    """Y^e of ``_power_of_y`` at rel from a fresh context equals the one
    cut from a higher rel, and the higher request builds it once."""
    for a in (_monic(q, 1), _monic(q, 0, 1)):
        for e in sorted({q - 1, q + 1, 2 * q - 1}):
            big_ctx = Context(q)
            built = _counting(big_ctx)
            Q = q ** (len(a) - 1)
            S = useries.u_scale(big_ctx, a, 5 * Q + 8)
            Y = {n - Q: c.grade_part(0, 0).num for n, c in S.c.items()}
            R = 4 * Q + 8
            big = useries._power_of_y(big_ctx, a, Y, e, R)
            r = min(n for n in big.c if n > 0)
            cut = useries._power_of_y(big_ctx, a, Y, e, r)
            fresh = useries._power_of_y(Context(q), a, Y, e, r)
            assert (cut.c, cut.prec) == (fresh.c, fresh.prec), (a, e, r)
            assert fresh.prec == r and r not in cut.c
            assert [b for b in built if b[0] == ("Y^e", a, e)] == \
                [(("Y^e", a, e), R)]


def test_memo_upto_keeps_the_top_build():
    ctx = Context(2)
    runs = []

    class Cut:
        def __init__(self, n):
            self.n = n

        def truncate(self, n):
            return Cut(min(self.n, n))

    def ask(n):
        return ctx.memo_upto("x", n, lambda: runs.append(n) or Cut(n)).n

    assert [ask(5), ask(3), ask(5), ask(8), ask(2)] == [5, 3, 5, 8, 2]
    assert runs == [5, 8]
    assert [k for k in ctx.cache if k[0] == "x"] == [("x", 8)]
