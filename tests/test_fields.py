import pytest

from carlitz_vmf.context import Context
from carlitz_vmf.fields import GF, PolyExtField, field_from_order, is_prime


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


def test_field_from_order_rejects_non_prime_powers():
    for n in (6, 12, 1):
        with pytest.raises(ValueError):
            field_from_order(n)
    assert not is_prime(1)
