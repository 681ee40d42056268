import pytest

from carlitz_vmf.context import Context
from carlitz_vmf.fields import (
    _CONWAY, GF, PolyExtField, PrimeField, field_from_order, is_prime,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_q_power_frobenius_fixes_field(q):
    F = field_from_order(q)
    for x in F.elements():
        assert F.pow(x, q) == x


@pytest.mark.parametrize("q", [4, 8, 9])
def test_p_power_frobenius_is_bijective(q):
    F = field_from_order(q)
    images = {F.frobenius(x) for x in F.elements()}
    assert len(images) == q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27])
def test_inverses(q):
    F = field_from_order(q)
    for x in F.elements():
        if x == F.zero:
            with pytest.raises(ZeroDivisionError):
                F.inv(x)
        else:
            assert F.mul(x, F.inv(x)) == F.one


def test_conway_modulus_has_no_roots_in_prime_field():
    # degree-2 and 3 moduli are irreducible iff rootless
    for (p, e) in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
        F = GF(p, e)
        base = GF(p)
        for x in base.elements():
            acc = base.zero
            for i, c in enumerate(F.modulus):
                acc = base.add(acc, base.mul(c, base.pow(x, i)))
            assert acc != base.zero


def test_digit_round_trip():
    for q in (4, 9, 8):
        F = field_from_order(q)
        for x in F.elements():
            assert F.from_digits(F.digits(x)) == x


def test_extension_of_extension():
    # F_4[y]/(irreducible quadratic) = F_16
    F4 = GF(2, 2)
    a = F4.gen()
    # y^2 + y + a is irreducible over F_4 (no roots)
    mod = (a, F4.one, F4.one)
    F16 = PolyExtField(F4, mod)
    # F_64 = F_4[y]/(a cubic that the irreducibility test accepts)
    ctx4 = Context(4)
    cubic = next(c for c in ctx4.monics(3) if ctx4.is_irreducible(c))
    F64 = PolyExtField(F4, cubic)
    for F, order in ((F16, 16), (F64, 64)):
        assert F.order == order
        count = 0
        for x in F.elements():
            if x != F.zero:
                assert F.mul(x, F.inv(x)) == F.one
            count += 1
        assert count == order


@pytest.mark.parametrize("p, e", sorted(k for k in _CONWAY if k[1] > 1))
def test_tables_agree_with_schoolbook(p, e):
    F = GF(p, e)
    ref = PolyExtField(PrimeField(p), _CONWAY[(p, e)], name="x")
    assert F._mul is not None and ref._mul is None
    # Context compares coefficient fields, so the two must be one field
    assert F == ref and hash(F) == hash(ref)
    els = list(ref.elements())
    assert list(F.elements()) == els
    for a in els:
        assert F.neg(a) == ref.neg(a)
        if a == ref.zero:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        else:
            assert F.inv(a) == ref.inv(a)
        for b in els:
            assert F.add(a, b) == ref.add(a, b)
            assert F.sub(a, b) == ref.sub(a, b)
            assert F.mul(a, b) == ref.mul(a, b)


def _f16():
    # F_16 = F_4[y]/(y^2 + y + x), an untabulated extension of a tabulated one
    F4 = GF(2, 2)
    return PolyExtField(F4, (F4.gen(), F4.one, F4.one))


def test_pow_is_repeated_multiplication():
    F = _f16()
    for a in F.elements():
        up = F.one
        powers = [up]
        for _ in range(2 * F.order):
            up = F.mul(up, a)
            powers.append(up)
        for n, want in enumerate(powers):
            assert F.pow(a, n) == want
        if a == F.zero:
            continue
        down, ainv = F.one, F.inv(a)
        for n in range(1, F.order + 1):
            down = F.mul(down, ainv)
            assert F.pow(a, -n) == down


def test_square_is_one_multiplication(monkeypatch):
    F = _f16()
    calls = []
    mul = F.mul

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(F, "mul", counted)
    a = F.gen()
    assert F.pow(a, 2) == mul(a, a)
    assert len(calls) == 1


def test_field_from_order_rejects_non_prime_powers():
    for n in (6, 12, 1):
        with pytest.raises(ValueError):
            field_from_order(n)
    assert not is_prime(1)
