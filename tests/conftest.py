import pytest

from carlitz_vmf.context import Context

_CTX = {}


def shared_context(q: int) -> Context:
    """One context per field for the whole session, so caches are shared."""
    if q not in _CTX:
        _CTX[q] = Context(q)
    return _CTX[q]


def frobenius_orbits(ctx: Context, monics) -> list:
    """The orbits of x -> x^p, applied to the coefficients, among the given
    monics, each as the list a, sigma(a), ... from its first monic; taken
    from ``field.frobenius`` alone, not from ``Context.orbits_below``.
    Over a prime field every orbit is one monic."""
    frob = ctx.base_field.frobenius
    seen, out = set(), []
    for a in monics:
        if a not in seen:
            orbit = []
            while a not in seen:
                seen.add(a)
                orbit.append(a)
                a = tuple(frob(x) for x in a)
            out.append(orbit)
    return out


@pytest.fixture(params=[2, 3], ids=["q2", "q3"])
def ctx(request):
    return shared_context(request.param)


@pytest.fixture
def ctx2():
    return shared_context(2)


@pytest.fixture
def ctx3():
    return shared_context(3)
