"""Finite fields F_q = F_{p^e} and finite extensions of them.

Every field that polynomials are computed over is *coded*: an element is
an int code, and the five operations are tables indexed by code,
``add_table``, ``sub_table`` and ``mul_table`` by rows, ``neg_table`` and
``inv_table`` by entries, which ``Poly`` reads inline.  F_p codes its
elements {0, ..., p-1} by themselves.  An extension base[y]/(P) of degree
d over a coded base codes the element with little-endian coordinates
(t_0, ..., t_(d-1)) over the base as c = sum_k t_k n^k, n = |base|, and
``decode`` takes c back apart by ``divmod``.  So code 0 is zero, code 1
is one, and an element of the base has the same code in every extension
built over it: reading a series over F_q as one over F_{q^d} maps no
coefficient.

F_{p^e} for e > 1 is always built on the Conway polynomial for (p, e), so
codes are stable across runs and machines.  ``GF`` fills the tables of
these fields (at most 49 elements) and of F_p, p <= 257, as lists up
front; a larger F_p computes each entry on lookup and stores none.
``residue_field`` builds the residue fields F_q[y]/(P) of a
user-supplied irreducible P once per (F_q, P) and fills each table entry
on first use.  Every entry of an extension's table is the schoolbook
operation on coordinate tuples that it replaces, which an uncoded
``PolyExtField`` computes from its base's tables: that field stays the
filler, the reference of the tests, and the quotient ring of Rabin's test
in ``Context.is_irreducible``.

Digits, digit strings and the order of ``elements()`` are those of the
coordinate tuples, and ``show`` prints an element as the str() of its
nested digit tuple, so serialized artifacts, check names and messages do
not depend on the encoding.
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


class _Filled(dict):
    """A table indexed by code whose entry for a is ``fn(a)``, computed on
    first use and kept."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, a):
        v = self[a] = self.fn(a)
        return v


class _Row:
    """Row a of an operation table of F_p whose entry b is computed on each
    lookup and never stored; a subclass names the operation."""

    __slots__ = ("a", "p")

    def __init__(self, a, p):
        self.a, self.p = a, p


class _AddRow(_Row):
    __slots__ = ()

    def __getitem__(self, b):
        return (self.a + b) % self.p


class _SubRow(_Row):
    __slots__ = ()

    def __getitem__(self, b):
        return (self.a - b) % self.p


class _MulRow(_Row):
    __slots__ = ()

    def __getitem__(self, b):
        return self.a * b % self.p


class _PowRow(_Row):
    """b -> b^a; at a = p - 2 the inverse of a nonzero b."""

    __slots__ = ()

    def __getitem__(self, b):
        return pow(b, self.a, self.p)


def _tabulate(field, rows, neg, inv, fill_now: bool):
    """Set the five operation tables of ``field`` from functions on codes:
    ``rows`` for add, sub and mul, each taking a to the function b -> a op b,
    then neg and inv.  Filled now the tables are lists; otherwise each
    entry is filled on first use."""
    if fill_now:
        codes = range(field.order)
        field.add_table, field.sub_table, field.mul_table = (
            [list(map(row(a), codes)) for a in codes] for row in rows)
        field.neg_table = [neg(a) for a in codes]
        field.inv_table = [None] + [inv(a) for a in codes[1:]]
    else:
        field.add_table, field.sub_table, field.mul_table = (
            _Filled(lambda a, row=row: _Filled(row(a))) for row in rows)
        field.neg_table, field.inv_table = _Filled(neg), _Filled(inv)


# F_p lists its tables while every entry, an int below p, is one of
# CPython's shared small ints (at most 256): the three p^2 tables then hold
# only pointers, 1.6 MB filled in about 30 ms at p = 257.  A larger F_p
# would keep an int object per entry (18 MB and 0.15 s at p = 509, 97 MB
# and 0.5 s at p = 1021), so it computes each entry on lookup (``_Row``).
_LISTED_UP_TO = 257


class PrimeField:
    """F_p with int elements, each its own code."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.e = 1
        self.order = p
        self.zero = 0
        self.one = 1
        self.char = p
        self.coded = True
        if p <= _LISTED_UP_TO:
            rows = [functools.partial(functools.partial, op)
                    for op in (self.add, self.sub, self.mul)]
            _tabulate(self, rows, self.neg, self.inv, fill_now=True)
        else:
            # a row per left operand, made on first use: at most p rows
            self.add_table, self.sub_table, self.mul_table = (
                _Filled(functools.partial(row, p=p))
                for row in (_AddRow, _SubRow, _MulRow))
            self.neg_table, self.inv_table = _SubRow(0, p), _PowRow(p - 2, p)

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
    """base[y]/(modulus) over a coded base, elements as little-endian
    tuples of base codes, or as int codes once ``_code`` has tabulated the
    field.

    ``modulus`` is a monic coefficient tuple of length degree+1 over the
    base field.  The schoolbook operations on tuples read the base's
    tables.  ``add``/``mul``/``pow`` are the ring operations of
    base[y]/(modulus) and hold for any monic modulus; only ``inv`` (and a
    negative ``pow``) needs the modulus irreducible.  That is the caller's
    responsibility (checked for the Conway table; user-supplied moduli
    come from an explicit irreducibility test at the call site).
    """

    def __init__(self, base, modulus, name="y"):
        if not base.coded:
            raise ValueError(f"the base field {base!r} is not coded")
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
        self.zero = tuple([base.zero] * self.deg)
        self.one = tuple([base.one] + [base.zero] * (self.deg - 1))
        # y^(deg+k) reduced, for k = 0..deg-2 (enough for products)
        self._red = self._reduction_table()
        # int codes and the operation tables over them, set by _code()
        self.coded = False
        self.add_table = self.sub_table = self.mul_table = None
        self.neg_table = self.inv_table = None

    def _code(self, fill_now: bool):
        """Switch a field over a coded base to int codes: the tuple t
        becomes sum_k t[k] |base|^k, and each operation a table indexed by
        code whose entries are the schoolbook operations on tuples, filled
        now or on first use."""
        school = PolyExtField(self.base, self.modulus, self.name)
        enc, dec = self.encode, self.decode

        def rows(op):
            def row(a):
                t = dec(a)
                return lambda b: enc(op(t, dec(b)))
            return row

        _tabulate(self, [rows(school.add), rows(school.sub), rows(school.mul)],
                  lambda a: enc(school.neg(dec(a))),
                  lambda a: enc(school.inv(dec(a))), fill_now)
        self.zero, self.one, self.coded = 0, 1, True

    def encode(self, t):
        """The code of the coordinate tuple t over the base."""
        n, c = self.base.order, 0
        for x in reversed(t):
            c = c * n + x
        return c

    def decode(self, c):
        """The coordinate tuple over the base of the code c."""
        n, out = self.base.order, []
        for _ in range(self.deg):
            c, x = divmod(c, n)
            out.append(x)
        return tuple(out)

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
        d = self.deg
        if d == 1:
            g = self._red[0]
        else:
            g = tuple([self.base.zero, self.base.one] + [self.base.zero] * (d - 2))
        return self.encode(g) if self.coded else g

    def add(self, a, b):
        if self.coded:
            return self.add_table[a][b]
        add = self.base.add_table
        return tuple(add[x][y] for x, y in zip(a, b))

    def sub(self, a, b):
        if self.coded:
            return self.sub_table[a][b]
        sub = self.base.sub_table
        return tuple(sub[x][y] for x, y in zip(a, b))

    def neg(self, a):
        if self.coded:
            return self.neg_table[a]
        neg = self.base.neg_table
        return tuple(neg[x] for x in a)

    def mul(self, a, b):
        if self.coded:
            return self.mul_table[a][b]
        add, mul, d = self.base.add_table, self.base.mul_table, self.deg
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                row = mul[x]
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = add[prod[i + j]][row[y]]
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            if prod[k]:
                row = mul[prod[k]]
                out = [add[o][row[r]] for o, r in zip(out, self._red[k - d])]
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

    def from_int(self, n: int):
        c = self.base.from_int(n)
        if self.coded:
            return c
        return tuple([c] + [self.base.zero] * (self.deg - 1))

    def elements(self):
        """All elements, in the order of their coordinate tuples' product."""
        tuples = itertools.product(self.base.elements(), repeat=self.deg)
        return map(self.encode, tuples) if self.coded else tuples

    def digits(self, a):
        if self.coded:
            a = self.decode(a)
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
        return self.encode(t) if self.coded else t

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
    """x as nested tuples of F_p digits: an element of F_p as it is, any
    other element as the tuple of its coordinates over the base."""
    if isinstance(field, PrimeField):
        return x
    if field.coded:
        x = field.decode(x)
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
    """The field F_{p^e} on its Conway polynomial, coded."""
    if e == 1:
        return PrimeField(p)
    if (p, e) not in _CONWAY:
        raise ValueError(f"no Conway polynomial stored for ({p}, {e})")
    field = PolyExtField(GF(p), _CONWAY[(p, e)], name="x")
    field._code(fill_now=True)
    return field


@functools.cache
def residue_field(base, modulus):
    """The coded field base[y]/(modulus) for a coded base and a monic
    irreducible modulus tuple, one per (base, modulus): its tables fill on
    first use and are shared by every caller."""
    field = PolyExtField(base, modulus, name="zeta")
    field._code(fill_now=False)
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
