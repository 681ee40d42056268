"""Finite fields F_q = F_{p^e} and finite extensions of them.

Prime-field elements are plain ints in ``{0, ..., p-1}``.  F_{p^e} for
e > 1 is always built on the Conway polynomial for (p, e), so element
encodings are stable across runs and machines.  Its element with
little-endian F_p digits (d_0, ..., d_(e-1)) is the int code
c = sum_k d_k p^k: code 0 is zero, code 1 is one and code p is the
generator x.  These fields have at most 49 elements, so ``GF`` tabulates
them once: ``add``, ``sub`` and ``mul`` over all pairs, ``neg`` and
``inv`` over all elements, as lists indexed by code, each entry filled by
the schoolbook operation on digit tuples that it replaces.  The five
operations are then list lookups, and ``Poly`` reads the same tables
inline.

Other extensions (the residue fields F_q[y]/(P(y)) on a user-supplied
irreducible, Rabin's quotient rings in ``Context.is_irreducible``) keep
their modulus and stay untabulated: their elements are little-endian
tuples over the base field (of base codes when the base is a Conway
field), and their operations are the schoolbook ones.

Digits, digit strings and the order of ``elements()`` are those of the
digit tuples, and ``show`` prints an element as the str() of its digit
tuple, so serialized artifacts, check names and messages do not depend
on the encoding.
"""

from __future__ import annotations

import functools
import itertools

# Conway polynomials, little-endian coefficient lists over F_p (monic).
_CONWAY = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (13, 1): (11, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


class PrimeField:
    """F_p with int elements."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.e = 1
        self.order = p
        self.zero = 0
        self.one = 1
        self.char = p
        self.int_elements = True  # elements are plain ints mod p
        self.coded = False  # ints mod p, not codes into operation tables

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        if n < 0:
            return self.inv(pow(a, -n, self.p) if a else 0)
        return pow(a, n, self.p)

    def frobenius(self, a, n: int = 1):
        # x -> x^(p^n) is the identity on the prime field
        return a

    def from_int(self, n: int):
        return n % self.p

    def elements(self):
        return range(self.p)

    def digits(self, a):
        """Little-endian base-p digit list of an element."""
        return [a]

    def from_digits(self, ds):
        if len(ds) != 1 or not 0 <= ds[0] < self.p:
            raise ValueError(f"{ds} is not the digit of an element of {self}")
        return ds[0]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class PolyExtField:
    """base[y]/(modulus), elements as little-endian tuples over base, or
    as int codes once ``_code`` has tabulated a field over F_p.

    ``modulus`` is a monic coefficient tuple of length degree+1 over the
    base field.  ``add``/``mul``/``pow`` are the ring operations of
    base[y]/(modulus) and hold for any monic modulus; only ``inv`` (and a
    negative ``pow``) needs the modulus irreducible.  That is the caller's
    responsibility (checked for the Conway table; user-supplied moduli
    come from an explicit irreducibility test at the call site).
    """

    def __init__(self, base, modulus, name="y"):
        self.base = base
        self.modulus = tuple(modulus)
        self.deg = len(self.modulus) - 1
        if self.deg < 1:
            raise ValueError("modulus must have positive degree")
        if self.modulus[-1] != base.one:
            raise ValueError("modulus must be monic")
        self.p = base.p
        self.e = base.e * self.deg
        self.order = base.order ** self.deg
        self.char = base.char
        self.name = name
        self.int_elements = False
        self.zero = tuple([base.zero] * self.deg)
        self.one = tuple([base.one] + [base.zero] * (self.deg - 1))
        # y^(deg+k) reduced, for k = 0..deg-2 (enough for products)
        self._red = self._reduction_table()
        # int codes and the operation tables over them, set by _code()
        self.coded = False
        self.add_table = self.sub_table = self.mul_table = None
        self.neg_table = self.inv_table = None

    def _code(self):
        """Switch a field over F_p to int codes: the tuple t becomes
        sum_k t[k] p^k, and each operation a list indexed by code whose
        entries are the schoolbook operations on tuples."""
        p = self.p
        tuples = list(self.elements())
        code = {t: sum(d * p ** k for k, d in enumerate(t)) for t in tuples}
        by_code = sorted(tuples, key=code.get)
        tables = [[[code[op(a, b)] for b in by_code] for a in by_code]
                  for op in (self.add, self.sub, self.mul)]
        neg = [code[self.neg(a)] for a in by_code]
        inv = [None] + [code[self.inv(a)] for a in by_code[1:]]
        self._elements = [code[t] for t in tuples]
        self._digits = by_code
        self.add_table, self.sub_table, self.mul_table = tables
        self.neg_table, self.inv_table = neg, inv
        self.zero, self.one, self.coded = 0, 1, True

    def _reduction_table(self):
        b, d = self.base, self.deg
        top = [b.neg(c) for c in self.modulus[:-1]]  # y^d = top(y)
        table = [tuple(top)]
        for _ in range(d - 2):
            prev = table[-1]
            shifted = [b.zero] + list(prev[: d - 1])
            carry = prev[d - 1]
            row = [b.add(shifted[i], b.mul(carry, top[i])) for i in range(d)]
            table.append(tuple(row))
        return table

    def gen(self):
        if self.coded:
            return self.p
        d = self.deg
        if d == 1:
            return self._red[0]
        return tuple([self.base.zero, self.base.one] + [self.base.zero] * (d - 2))

    def add(self, a, b):
        if self.coded:
            return self.add_table[a][b]
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        if self.coded:
            return self.sub_table[a][b]
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        if self.coded:
            return self.neg_table[a]
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        if self.coded:
            return self.mul_table[a][b]
        base, d = self.base, self.deg
        prod = [base.zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if x == base.zero:
                continue
            for j, y in enumerate(b):
                if y == base.zero:
                    continue
                prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c == base.zero:
                continue
            row = self._red[k - d]
            out = [base.add(out[i], base.mul(c, row[i])) for i in range(d)]
        return tuple(out)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in extension field")
        if self.coded:
            return self.inv_table[a]
        # Fermat: a^(order-1) = 1 in a field
        return self.pow(a, self.order - 2)

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        if n == 0:
            return self.one
        # left to right from the top bit: a^2 is one squaring
        out = a
        for bit in bin(n)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def frobenius(self, a, n: int = 1):
        return self.pow(a, self.char ** n)

    def embed(self, a):
        """Embed a base-field element."""
        if self.coded:
            return a
        return tuple([a] + [self.base.zero] * (self.deg - 1))

    def from_int(self, n: int):
        return self.embed(self.base.from_int(n))

    def elements(self):
        """All elements, in the order of their digit tuples' product."""
        if self.coded:
            return iter(self._elements)
        return itertools.product(self.base.elements(), repeat=self.deg)

    def digits(self, a):
        if self.coded:
            return list(self._digits[a])
        out = []
        for x in a:
            out.extend(self.base.digits(x))
        return out

    def from_digits(self, ds):
        k = self.base.e
        if len(ds) != k * self.deg:
            raise ValueError("digit vector has wrong length")
        t = tuple(
            self.base.from_digits(list(ds[i * k : (i + 1) * k])) for i in range(self.deg)
        )
        if self.coded:
            return sum(d * self.p ** i for i, d in enumerate(t))
        return t

    def __eq__(self, other):
        return (
            isinstance(other, PolyExtField)
            and other.coded == self.coded
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("PolyExtField", self.base, self.modulus, self.coded))

    def __repr__(self):
        return f"GF({self.order})"


def _digit_tuple(field, x):
    """x as nested tuples of F_p digits: an int of F_p as it is, a coded
    element as its digit tuple, any other element as the tuple of its
    coordinates over the base."""
    if field.int_elements:
        return x
    if field.coded:
        return field._digits[x]
    return tuple(_digit_tuple(field.base, c) for c in x)


def show(field, x) -> str:
    """The printed form of an element: str() of its digit tuple, e.g.
    ``(0, 1)`` for the generator of F_4."""
    return str(_digit_tuple(field, x))


def show_tuple(field, a) -> str:
    """The printed form of a tuple of elements, e.g. of a monic of
    F_q[theta]: str() of the tuple of their digit tuples."""
    return str(tuple(_digit_tuple(field, x) for x in a))


@functools.cache
def GF(p: int, e: int = 1):
    """The field F_{p^e} on its Conway polynomial."""
    if e == 1:
        return PrimeField(p)
    if (p, e) not in _CONWAY:
        raise ValueError(f"no Conway polynomial stored for ({p}, {e})")
    field = PolyExtField(PrimeField(p), _CONWAY[(p, e)], name="x")
    field._code()
    return field


def field_from_order(q: int):
    """Resolve q = p^e to GF(p, e)."""
    for p in range(2, q + 1):
        if not is_prime(p):
            continue
        e, n = 0, q
        while n % p == 0:
            n //= p
            e += 1
        if n == 1 and e >= 1:
            return GF(p, e)
        if q % p == 0:
            break
    raise ValueError(f"{q} is not a prime power")
