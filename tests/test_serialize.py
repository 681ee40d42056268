import json
import random

import pytest

from carlitz_vmf import serialize as ser
from carlitz_vmf.fields import GF, PolyExtField
from carlitz_vmf.polys import Poly, RatFunc
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.useries import USeries
from carlitz_vmf.vmf import eis1, legendre_fstar
from carlitz_vmf.forms import gen_g, gen_Delta
from conftest import shared_context


def _rand_scalar(ctx, rng):
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        num = Poly(ctx.ring, {(rng.randrange(3), rng.randrange(2)):
                              ctx.ring.field.from_int(1 + rng.randrange(ctx.p - 1))})
        den = ctx.ring.t + ctx.ring.theta if rng.randrange(2) else ctx.ring.one
        terms[(rng.randrange(-2, 3), rng.randrange(-1, 2))] = RatFunc(num, den)
    return GradedScalar(ctx.ring, terms)


def test_scalar_round_trip(ctx):
    rng = random.Random(2)
    for _ in range(20):
        x = _rand_scalar(ctx, rng)
        back = ser.scalar_from_json(ctx.ring, ser.scalar_to_json(x))
        assert back == x


def test_series_round_trip(ctx):
    rng = random.Random(3)
    for _ in range(10):
        c = {rng.randrange(-3, 12): _rand_scalar(ctx, rng) for _ in range(4)}
        f = USeries(ctx, c, 12)
        back = ser.series_from_json(ctx, ser.series_to_json(f))
        assert back.eq_to_prec(f) and back.prec == f.prec
    exact = USeries.one(ctx)
    back = ser.series_from_json(ctx, ser.series_to_json(exact))
    assert back.prec is None and back.eq_to_prec(exact)


# 263 is past the listed prime fields, and its codes run to three digits
@pytest.mark.parametrize("q", [2, 3, 11, 263], ids=lambda q: f"q{q}")
def test_vmform_round_trip_through_envelope(q):
    ctx = shared_context(q)
    e1 = eis1(ctx, 8)
    env = ser.envelope(ctx, "vmform", 8, ser.vmform_to_json(e1))
    text = ser.canonical_dumps(env)
    back = ser.load_envelope(ctx, text)
    assert back.first_difference(e1) is None
    assert back.k == e1.k and back.m == e1.m and back.regular
    assert back.lam == e1.lam


def test_classical_round_trip(ctx):
    g = gen_g(ctx, 10)
    data = ser.classical_to_json(g)
    back = ser.classical_from_json(ctx, data)
    assert back.series.eq_to_prec(g.series)
    assert (back.weight, back.type_) == (g.weight, g.type_)


@pytest.mark.parametrize("q", [2, 3, 11], ids=lambda q: f"q{q}")
def test_specialized_round_trip(q):
    from carlitz_vmf.specialize import RootContext, eval_root_form

    ctx = shared_context(q)
    # over F_11, a quadratic prime gives residue-field elements of two digits
    d = 2 if ctx.p > 10 else 1
    p = next(a for a in ctx.monics(d) if ctx.is_irreducible(a))
    rc = RootContext(ctx, p)
    F = eval_root_form(eis1(ctx, 8), rc)
    data = ser.specialized_to_json(F)
    back = ser.specialized_from_json(ctx, data)
    assert back.series.first_difference(F.series) is None
    assert back.character_exponent == F.character_exponent


def test_digit_strings():
    F11 = GF(11)
    F121 = PolyExtField(F11, (1, 0, 1))
    assert ser.digits_str(F11, 10) == "10"
    assert ser.elt_from_digits(F11, "10") == 10
    assert ser.digits_str(F121, (3, 10)) == "3,10"
    assert ser.elt_from_digits(F121, "3,10") == (3, 10)
    # without a separator, each character is one digit
    assert ser.elt_from_digits(F121, "10") == (1, 0)
    assert ser.digits_str(GF(3, 2), GF(3, 2).from_digits([2, 1])) == "21"
    for field, s in ((GF(2), "2"), (F11, "11"), (F121, "3,11"),
                     (GF(3, 2), "13")):
        with pytest.raises(ValueError):
            ser.elt_from_digits(field, s)


def test_non_canonical_digits_are_refused():
    F121 = PolyExtField(GF(11), (1, 0, 1))
    for field in (GF(7), GF(11)):
        for s in ("+3", " 3", "3 ", "03", "-0", "1_0", "00"):
            with pytest.raises(ValueError):
                ser.elt_from_digits(field, s)
    assert ser.elt_from_digits(GF(11), "0") == 0
    for s in ("3,+1", "3, 1", " 3,1", "03,1", "3,1_0", "3,-0", "3,"):
        with pytest.raises(ValueError):
            ser.elt_from_digits(F121, s)
    # what the writer produces reads back unchanged
    for field in (GF(7), GF(11), F121):
        for x in field.elements():
            assert ser.elt_from_digits(field, ser.digits_str(field, x)) == x


@pytest.mark.parametrize("q", [2, 3, 4], ids=lambda q: f"q{q}")
def test_non_canonical_polynomials_are_refused(q):
    R = shared_context(q).ring
    zero, one = (ser.digits_str(R.field, x) for x in (R.field.zero,
                                                      R.field.one))
    assert ser.poly_from_json(R, [[0, 0, one], [1, 0, one]]) == \
        R.one + R.theta
    for data in ([[0, 0, zero]],                 # stored zero
                 [[1, 0, one], [0, 0, zero]],
                 [[1, 0, one], [1, 0, one]],     # repeated monomial
                 [[0, -1, one]]):
        with pytest.raises(ValueError):
            ser.poly_from_json(R, data)


@pytest.mark.parametrize("q", [2, 3, 4], ids=lambda q: f"q{q}")
def test_non_canonical_fractions_are_refused(q):
    ctx = shared_context(q)
    R, F = ctx.ring, ctx.ring.field
    js = ser.poly_to_json
    tm = R.theta - R.t                                # monic: theta > t
    good = [[0, 0, js(R.theta), js(tm)], [1, -1, js(R.t), js(R.one)]]
    back = ser.scalar_from_json(R, good)
    assert back == GradedScalar(R, {(0, 0): RatFunc(R.theta, tm),
                                    (1, -1): RatFunc(R.t, None)})
    w = F.from_int(2) if q == 3 else F.gen() if q == 4 else None
    bad = [
        [[0, 0, js(R.one), js(R.zero)]],              # zero denominator
        [[0, 0, js(R.zero), js(R.one)]],              # zero under a grade
        [[0, 0, js(R.theta), js(tm * R.theta)]],      # common factor theta
        [[0, 0, js(tm * tm), js(tm * (R.t + R.one))]],
        [[0, 0, js(R.one), js(R.one)], [0, 0, js(R.t), js(R.one)]],  # twice
    ]
    if w is not None:                                 # non-monic denominator
        bad.append([[0, 0, js(R.one), js(tm.scale(w))]])
        bad.append([[0, 0, js(R.one), js(R.const(w))]])
    for data in bad:
        with pytest.raises(ValueError):
            ser.scalar_from_json(R, data)


@pytest.mark.parametrize("q", [2, 3, 4], ids=lambda q: f"q{q}")
def test_non_canonical_series_are_refused(q):
    ctx = shared_context(q)
    one = ser.scalar_to_json(GradedScalar.one(ctx.ring))
    theta = ser.scalar_to_json(GradedScalar.from_poly(ctx.ring.theta))
    good = {"prec": 5, "coeffs": [[-1, one], [4, theta]]}
    back = ser.series_from_json(ctx, good)
    assert ser.series_to_json(back) == good
    exact = {"prec": None, "coeffs": [[7, one]]}
    assert ser.series_to_json(ser.series_from_json(ctx, exact)) == exact
    for data in (
        {"prec": 5, "coeffs": [[-1, one], [5, theta]]},   # at the precision
        {"prec": 5, "coeffs": [[9, one]]},                # past it
        {"prec": 5, "coeffs": [[2, one], [2, theta]]},    # exponent twice
        {"prec": None, "coeffs": [[2, theta], [2, theta]]},
        {"prec": 5, "coeffs": [[1, one], [3, []]]},       # stored zero
        {"prec": None, "coeffs": [[0, []]]},
    ):
        with pytest.raises(ValueError):
            ser.series_from_json(ctx, data)


def test_envelope_validation(ctx):
    e1 = eis1(ctx, 6)
    env = ser.envelope(ctx, "vmform", 6, ser.vmform_to_json(e1))
    bad = dict(env)
    bad["schema"] = "other/9"
    with pytest.raises(ValueError):
        ser.load_envelope(ctx, json.dumps(bad))
    bad = dict(env)
    bad["field"] = {"p": 7, "e": 1}
    with pytest.raises(ValueError):
        ser.load_envelope(ctx, json.dumps(bad))
    bad = dict(env)
    bad["kind"] = "mystery"
    with pytest.raises(ValueError):
        ser.load_envelope(ctx, json.dumps(bad))


def test_canonical_dumps_deterministic(ctx):
    Delta = gen_Delta(ctx, 8)
    a = ser.canonical_dumps(ser.envelope(ctx, "classical", 8,
                                         ser.classical_to_json(Delta)))
    b = ser.canonical_dumps(ser.envelope(ctx, "classical", 8,
                                         ser.classical_to_json(gen_Delta(ctx, 8))))
    assert a == b
    assert " " not in a


def test_laurent_series_round_trip(ctx):
    _, d2, d3 = legendre_fstar(ctx, 8)
    for f in (d2, d3):
        back = ser.series_from_json(ctx, ser.series_to_json(f))
        assert back.eq_to_prec(f)
