import copy
import itertools

import pytest

from carlitz_vmf.context import Context
from carlitz_vmf.fields import (
    _CONWAY, GF, PolyExtField, PrimeField, field_from_order, is_prime,
    residue_field, show, show_tuple,
)
from carlitz_vmf.polys import PolyRing


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


CONWAY_EXT = sorted(k for k in _CONWAY if k[1] > 1)


@pytest.mark.parametrize("p, e", CONWAY_EXT)
def test_tables_agree_with_schoolbook(p, e):
    F = GF(p, e)
    ref = PolyExtField(PrimeField(p), _CONWAY[(p, e)], name="x")
    assert F.coded and not ref.coded
    # GF and the F_2 packer are caches keyed on the field: the int-coded
    # field and the digit-tuple field on the same modulus must not collide
    assert F != ref
    els = list(ref.elements())
    code = {a: F.from_digits(list(a)) for a in els}
    assert list(F.elements()) == [code[a] for a in els]
    for a in els:
        assert F.neg(code[a]) == code[ref.neg(a)]
        if a == ref.zero:
            with pytest.raises(ZeroDivisionError):
                F.inv(code[a])
        else:
            assert F.inv(code[a]) == code[ref.inv(a)]
        for b in els:
            assert F.add(code[a], code[b]) == code[ref.add(a, b)]
            assert F.sub(code[a], code[b]) == code[ref.sub(a, b)]
            assert F.mul(code[a], code[b]) == code[ref.mul(a, b)]


def _code(p, t):
    """The int code of a digit tuple, written out: sum_k t[k] p^k."""
    return sum(d * p ** k for k, d in enumerate(t))


def _oracle_failures(F, p, e):
    """Every way the coded field F departs from the schoolbook field on
    digit tuples, read through the code map written out in ``_code``."""
    ref = PolyExtField(PrimeField(p), _CONWAY[(p, e)], name="x")
    els = list(itertools.product(range(p), repeat=e))
    bad = []
    if list(F.elements()) != [_code(p, t) for t in els]:
        bad.append("element order")
    for t in els:
        c = _code(p, t)
        if F.digits(c) != list(t) or F.from_digits(list(t)) != c:
            bad.append(f"digits of {t}")
        if show(F, c) != str(t):
            bad.append(f"display of {t}")
        if F.neg_table[c] != _code(p, ref.neg(t)):
            bad.append(f"neg {t}")
        if c and F.inv_table[c] != _code(p, ref.inv(t)):
            bad.append(f"inv {t}")
        for u in els:
            for name in ("add", "sub", "mul"):
                table = getattr(F, name + "_table")
                if table[c][_code(p, u)] != _code(p, getattr(ref, name)(t, u)):
                    bad.append(f"{name} {t} {u}")
    return bad


@pytest.mark.parametrize("p, e", CONWAY_EXT)
def test_tables_match_the_written_out_code_map(p, e):
    assert _oracle_failures(GF(p, e), p, e) == []


def _swap_codes(F, c1, c2):
    """F as ``_code`` would build it with the codes c1 and c2 swapped in
    its map from digit tuples to ints."""
    codes = range(F.order)
    swap = list(codes)
    swap[c1], swap[c2] = c2, c1
    G = copy.copy(F)
    G.encode = lambda t: swap[F.encode(t)]
    G.decode = lambda c: F.decode(swap[c])
    for name in ("add", "sub", "mul"):
        table = getattr(F, name + "_table")
        setattr(G, name + "_table", [[swap[table[swap[a]][swap[b]]] for b in codes]
                                     for a in codes])
    G.neg_table = [swap[F.neg_table[swap[a]]] for a in codes]
    G.inv_table = [None] + [swap[F.inv_table[swap[a]]] for a in codes[1:]]
    return G


@pytest.mark.parametrize("p, e", CONWAY_EXT)
def test_oracle_catches_two_swapped_codes(p, e):
    # swapping x and x + 1 in F_4 is the Frobenius: the tables survive it,
    # and only the digits, the order and the display give it away
    F = GF(p, e)
    assert _oracle_failures(_swap_codes(F, p, p + 1), p, e)
    assert _oracle_failures(_swap_codes(F, 1, F.order - 1), p, e)


# residue fields F_q[y]/(P): q = 2 at degrees 1 and 3 (the towers the F_2
# packer takes), q = 3 at degree 2, and q = 4 at degree 2 over coded F_4
RESIDUE = {
    "q2-deg1": (2, (1, 1)),
    "q2-deg3": (2, (1, 0, 1, 1)),
    "q3-deg2": (3, (1, 0, 1)),
    "q4-deg2": (4, (2, 1, 1)),
}


def _residue_code(n, t):
    """The int code of a coordinate tuple over a base of n elements,
    written out: sum_k t[k] n^k."""
    return sum(c * n ** k for k, c in enumerate(t))


def _residue_failures(q, modulus):
    """Every way the coded residue field departs from the schoolbook
    field on coordinate tuples, read through ``_residue_code``."""
    base = field_from_order(q)
    F, ref = residue_field(base, modulus), PolyExtField(base, modulus)
    els = list(ref.elements())

    def code(t):
        return _residue_code(q, t)

    bad = []
    if not F.coded or (F.zero, F.one) != (0, 1):
        bad.append("zero and one")
    if list(F.elements()) != [code(t) for t in els]:
        bad.append("element order")
    if F.gen() != code(ref.gen()):
        bad.append("generator")
    for t in els:
        c = code(t)
        if F.digits(c) != ref.digits(t) or F.from_digits(ref.digits(t)) != c:
            bad.append(f"digits of {t}")
        if show(F, c) != show(ref, t):
            bad.append(f"display of {t}")
        if F.neg_table[c] != code(ref.neg(t)) or F.neg(c) != F.neg_table[c]:
            bad.append(f"neg {t}")
        if c and (F.inv_table[c] != code(ref.inv(t)) or F.inv(c) != F.inv_table[c]):
            bad.append(f"inv {t}")
        for u in els:
            # t - u is t + (-u) as well as the schoolbook's difference
            if ref.sub(t, u) != ref.add(t, ref.neg(u)):
                bad.append(f"schoolbook sub {t} {u}")
            for name in ("add", "sub", "mul"):
                want = code(getattr(ref, name)(t, u))
                got = getattr(F, name + "_table")[c][code(u)]
                if got != want or getattr(F, name)(c, code(u)) != want:
                    bad.append(f"{name} {t} {u}")
    # the embedding of F_q is the identity on codes
    zeros = (base.zero,) * (len(modulus) - 2)
    for a in base.elements():
        if code((a,) + zeros) != a or F.from_digits(ref.digits((a,) + zeros)) != a:
            bad.append(f"embedding of {a}")
        for b in base.elements():
            if F.mul_table[a][b] != base.mul(a, b) or F.add_table[a][b] != base.add(a, b):
                bad.append(f"F_q arithmetic {a} {b}")
    return bad


@pytest.mark.parametrize("q, modulus", RESIDUE.values(), ids=RESIDUE.keys())
def test_residue_field_matches_the_schoolbook(q, modulus):
    assert _residue_failures(q, modulus) == []


def test_residue_fields_are_shared_and_fill_on_first_use():
    F4 = GF(2, 2)
    F = residue_field(F4, (2, 1, 1))
    assert residue_field(F4, (2, 1, 1)) is F
    assert F == residue_field(F4, (2, 1, 1)) != PolyExtField(F4, (2, 1, 1))
    F125 = residue_field(GF(5), (1, 1, 0, 1))
    assert isinstance(F125.mul_table, dict)
    assert F125.mul(3, 5) == F125.mul_table[3][5]
    assert 5 in F125.mul_table[3] and len(F125.mul_table[3]) < F125.order


@pytest.mark.parametrize("p", [257, 263])
def test_prime_field_tables_agree_with_mod_p(p):
    F = GF(p)
    assert F.coded and (F.zero, F.one) == (0, 1)
    for a in (0, 1, 2, 100, p - 2, p - 1):
        assert F.neg_table[a] == -a % p
        if a:
            assert F.inv_table[a] * a % p == 1
        for b in (0, 1, 3, 200, p - 1):
            assert F.add_table[a][b] == (a + b) % p
            assert F.sub_table[a][b] == (a - b) % p
            assert F.mul_table[a][b] == a * b % p


def test_a_large_prime_field_stores_no_table_entry():
    listed, computed = PrimeField(257), PrimeField(263)
    assert len(listed.mul_table) == 257 and len(listed.mul_table[5]) == 257
    # 263 is past the small ints: a row per left operand, no entry kept
    for b in range(263):
        computed.add_table[7][b], computed.mul_table[7][b]
    assert len(computed.add_table) == len(computed.mul_table) == 1
    assert not hasattr(computed.mul_table[7], "__len__")


def test_an_uncoded_field_is_refused():
    F4 = GF(2, 2)
    tuples = PolyExtField(F4, (F4.gen(), F4.one, F4.one))
    with pytest.raises(ValueError, match=r"GF\(16\) on modulus \(2, 1, 1\)"):
        PolyRing(tuples)
    with pytest.raises(ValueError, match="not int codes"):
        Context(4, coeff_field=tuples)
    # the schoolbook reads its base's tables
    with pytest.raises(ValueError, match=r"base field GF\(16\) is not coded"):
        PolyExtField(tuples, (tuples.zero, tuples.one))


def test_tower_elements_are_tuples_of_base_codes():
    F4 = GF(2, 2)
    F16 = PolyExtField(F4, (F4.gen(), F4.one, F4.one))
    assert F16.zero == (0, 0) and F16.one == (1, 0) and F16.gen() == (0, 1)
    assert F16.digits((2, 3)) == [0, 1, 1, 1]
    assert F16.from_digits([0, 1, 1, 1]) == (2, 3)
    assert show(F16, (2, 3)) == "((0, 1), (1, 1))"
    assert show_tuple(F4, (2, 3, 1)) == "((0, 1), (1, 1), (1, 0))"
    assert show_tuple(GF(3), (2, 1)) == "(2, 1)"


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
