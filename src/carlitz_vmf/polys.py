"""Sparse polynomials in (theta, t) over a finite field, and the rational
function field built on them.

Monomials are exponent pairs ``(i, j)`` for theta^i t^j.  The monomial
order everywhere is graded lexicographic with theta > t, i.e. compare
``(i + j, i)``.  Rational functions are kept in the canonical form
``num/den`` with gcd(num, den) = 1 and den monic for that order, so
equality is literal dictionary equality.

Coefficients are the int codes of a coded field (``fields``): 0 is zero
and 1 is one, and every sum, product, negation and inverse is a lookup in
the field's add, sub, mul, neg and inv tables, one path for F_p, the
Conway fields and the residue fields alike; ``PolyRing`` refuses a field
that is not coded.  ``repr`` prints a coefficient as ``fields.show``
does, as its digit tuple.

Normalizing a fraction takes gcds, and the fraction operations take as
few and as small ones as they can.  A sum over different denominators d1,
d2 is normalized by Henrici's rule: with g = gcd(d1, d2) its numerator
n1 d2/g + n2 d1/g can share a factor only with g, so one gcd against g
suffices (none when g = 1).  Products cross-cancel the reduced pairs.  The
twist theta -> theta^q and powers take no gcd at all: they map coprime
pairs to coprime pairs.

The gcd kernel reads each operand once into theta-rows, {t-degree j:
little-endian list of the codes of the theta-coefficient of t^j}, runs
every branch on those code lists through the field's tables and builds
one ``Poly``, the answer.  An operand of t-degree 0 or 1 needs only
univariate gcds over F[theta] and, for degree 1, one divisibility
identity, evaluated as products of code lists.  When both operands have
t-degree at least 2, images at a few points theta = x that are coprime in
F[t] prove the gcd t-free, and it is the gcd of the theta-contents; only
when no point decides does the primitive PRS in t (``_bivar_gcd``) run,
with its pseudo-remainders and contents on rows too.  Exact division pops
the graded-lex lead of the remainder from a heap.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from .fields import show


def _glex(key):
    i, j = key
    return (i + j, i)


class PolyRing:
    """Polynomials over ``field`` in theta and t."""

    def __init__(self, field):
        if not field.coded:
            raise ValueError(
                f"{field!r} on modulus {field.modulus} holds tuples, not int "
                "codes: build a coded extension with fields.residue_field")
        self.field = field
        self.zero = Poly(self, {})
        self.one = Poly(self, {(0, 0): field.one})
        self.theta = Poly(self, {(1, 0): field.one})
        self.t = Poly(self, {(0, 1): field.one})

    def const(self, c):
        if c == self.field.zero:
            return self.zero
        return Poly(self, {(0, 0): c})

    def from_int(self, n):
        return self.const(self.field.from_int(n))

    def monomial(self, c, i, j):
        if c == self.field.zero:
            return self.zero
        return Poly(self, {(i, j): c})

    def theta_poly(self, coeffs):
        """Polynomial in theta from little-endian field coefficients."""
        f = self.field
        return Poly(self, {(i, 0): c for i, c in enumerate(coeffs) if c != f.zero})

    def t_poly(self, coeffs):
        f = self.field
        return Poly(self, {(0, j): c for j, c in enumerate(coeffs) if c != f.zero})

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.field == self.field

    def __hash__(self):
        return hash(("PolyRing", self.field))

    def __repr__(self):
        return f"{self.field}[theta, t]"


class Poly:
    __slots__ = ("ring", "c", "_hash")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.c = coeffs
        self._hash = None

    # -- basic structure ------------------------------------------------

    def is_zero(self):
        return not self.c

    def is_one(self):
        return self.c == {(0, 0): self.ring.field.one}

    def terms(self):
        """Sorted ``(i, j, coefficient)`` triples of the nonzero terms."""
        return [(i, j, v) for (i, j), v in sorted(self.c.items())]

    def coeff(self, i, j):
        """Coefficient of theta^i t^j (the field's zero when absent)."""
        return self.c.get((i, j), self.ring.field.zero)

    def deg_theta(self):
        return max((k[0] for k in self.c), default=-1)

    def deg_t(self):
        return max((k[1] for k in self.c), default=-1)

    def lead(self):
        """(monomial, coefficient) for the graded-lex order."""
        if not self.c:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.c, key=_glex)
        return k, self.c[k]

    def __eq__(self, other):
        return isinstance(other, Poly) and other.ring == self.ring and other.c == self.c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self.c.items()))))
        return self._hash

    def __repr__(self):
        if not self.c:
            return "0"
        f = self.ring.field
        parts = []
        for (i, j) in sorted(self.c, key=_glex, reverse=True):
            coef = self.c[(i, j)]
            s = "" if coef == f.one and (i or j) else show(f, coef)
            if i:
                s += ("*" if s else "") + ("theta" if i == 1 else f"theta^{i}")
            if j:
                s += ("*" if s else "") + ("t" if j == 1 else f"t^{j}")
            parts.append(s or show(f, coef))
        return " + ".join(parts)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        out = dict(self.c)
        get, add = out.get, self.ring.field.add_table
        # a sum is 0 only where k is set
        for k, v in other.c.items():
            s = add[get(k, 0)][v]
            if s:
                out[k] = s
            else:
                del out[k]
        return Poly(self.ring, out)

    def __neg__(self):
        neg = self.ring.field.neg_table
        return Poly(self.ring, {k: neg[v] for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.c or not other.c:
            return self.ring.zero
        f = self.ring.field
        if len(self.c) == 1:
            ((i0, j0), v0), = self.c.items()
            if v0 == 1:
                return Poly(self.ring,
                            {(i + i0, j + j0): v for (i, j), v in other.c.items()})
            row = f.mul_table[v0]
            return Poly(self.ring, {(i + i0, j + j0): row[v]
                                    for (i, j), v in other.c.items()})
        if len(other.c) == 1:
            return other * self
        out = {}
        get, other_items = out.get, other.c.items()
        # one table row per term of self; a sum is 0 only where k is set
        add, mul = f.add_table, f.mul_table
        for (i1, j1), v1 in self.c.items():
            row = mul[v1]
            for (i2, j2), v2 in other_items:
                k = (i1 + i2, j1 + j2)
                s = add[get(k, 0)][row[v2]]
                if s:
                    out[k] = s
                else:
                    del out[k]
        return Poly(self.ring, out)

    def scale(self, c):
        if not c:
            return self.ring.zero
        row = self.ring.field.mul_table[c]
        return Poly(self.ring, {k: row[v] for k, v in self.c.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _pow(self, n, self.ring.one)

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.c:
            return self
        _, lc = self.lead()
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    # -- division --------------------------------------------------------

    def exact_div(self, d):
        """Quotient self / d, assuming the division is exact.

        The remainder's monomials sit in a heap keyed on graded-lex order;
        subtracting a multiple of d only adds monomials below the current
        lead, so each step pops its lead instead of scanning the remainder.
        Keys cancelled after they were pushed are skipped when popped.
        """
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if d.is_one():
            return self
        f = self.ring.field
        (di, dj), dc = d.lead()
        d_items = list(d.c.items())
        rem = dict(self.c)
        heap = [(-i - j, -i) for i, j in rem]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        q = {}
        sub, mul = f.sub_table, f.mul_table
        dinv, neg = f.inv_table[dc], f.neg_table
        while rem:
            s, ni = pop(heap)
            k = (-ni, ni - s)
            v = rem.get(k)
            if v is None:
                continue
            i, j = k[0] - di, k[1] - dj
            if i < 0 or j < 0:
                raise ArithmeticError("division is not exact")
            coef = q[(i, j)] = mul[v][dinv]
            row = mul[coef]
            for (mi, mj), w in d_items:
                kk = (mi + i, mj + j)
                old = rem.get(kk)
                if old is None:
                    rem[kk] = neg[row[w]]
                    push(heap, (-kk[0] - kk[1], -kk[0]))
                else:
                    r = sub[old][row[w]]
                    if r:
                        rem[kk] = r
                    else:
                        del rem[kk]
        return Poly(self.ring, q)

    # -- substitutions ----------------------------------------------------

    def subs_theta_power(self, q):
        """theta -> theta^q.  Coefficients in F_q are fixed by x -> x^q."""
        return Poly(self.ring, {(i * q, j): v for (i, j), v in self.c.items()})

    def subs_t_poly(self, s):
        """t -> s for a t-free polynomial s (in theta)."""
        out = self.ring.zero
        powers = [self.ring.one]

        def spow(n):
            while len(powers) <= n:
                powers.append(powers[-1] * s)
            return powers[n]

        for (i, j), v in self.c.items():
            out = out + spow(j).scale(v) * self.ring.monomial(self.ring.field.one, i, 0)
        return out

    def subs_t_elt(self, ring2, elt):
        """t -> elt, an element of ring2's field, which is this ring's field
        or an extension of it: a coefficient keeps its code there."""
        f2 = ring2.field
        out = {}
        for (i, j), v in self.c.items():
            w = f2.mul(v, f2.pow(elt, j)) if j else v
            k = (i, 0)
            s = f2.add(out.get(k, f2.zero), w)
            if s == f2.zero:
                out.pop(k, None)
            else:
                out[k] = s
        return Poly(ring2, out)

    def eval_theta_elt(self, zeta):
        """Value at theta = zeta for a t-free polynomial; element of the field."""
        f = self.ring.field
        acc = f.zero
        for (i, j), v in self.c.items():
            if j:
                raise ValueError("polynomial must be t-free")
            acc = f.add(acc, f.mul(v, f.pow(zeta, i)))
        return acc

    def t_order_at(self, s):
        """Order of vanishing at t = s (s a t-free polynomial)."""
        if self.is_zero():
            raise ValueError("zero polynomial has infinite order")
        tm = self.ring.t - s
        n, cur = 0, self
        while True:
            if not cur.subs_t_poly(s).is_zero():
                return n
            cur = cur.exact_div(tm)
            n += 1

    def theta_order_at(self, zeta):
        """Order of vanishing at theta = zeta (element of the field), t-free."""
        if self.is_zero():
            raise ValueError("zero polynomial has infinite order")
        lin = self.ring.theta - self.ring.const(zeta)
        n, cur = 0, self
        while True:
            if cur.eval_theta_elt(zeta) != self.ring.field.zero:
                return n
            cur = cur.exact_div(lin)
            n += 1

    # -- hyperderivative in t ---------------------------------------------

    def hyperderiv_t(self, n):
        """n-th divided-power derivative in t: t^m -> C(m, n) t^(m-n)."""
        if n == 0:
            return self
        f = self.ring.field
        p = f.char
        out = {}
        for (i, j), v in self.c.items():
            if j < n:
                continue
            b = _lucas_binom(j, n, p)
            if b == 0:
                continue
            w = f.mul(v, f.from_int(b))
            k = (i, j - n)
            s = f.add(out.get(k, f.zero), w)
            if s == f.zero:
                out.pop(k, None)
            else:
                out[k] = s
        return Poly(self.ring, out)


def _pow(x, n: int, one):
    """x^n for n >= 0, left to right from the top bit: no product by one,
    and x^1 is x itself."""
    if n == 0:
        return one
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


def _solve(x: dict, f: list, rel: int, lead_inv=None) -> dict:
    """{n: y_n} for n < rel with y_n = c (x_n - sum_(1<=k<=n) f_k y_(n-k)),
    c = lead_inv (None for 1): the series y with f y = x, for f = f_0 +
    sum f_k u^k, c = 1/f_0 and x = {n: x_n} with n >= 0.

    f lists the (k, f_k) with k >= 1 in increasing k, since the sum stops
    at the first k > n.  The coefficients are whatever ring elements x and
    f hold: GradedScalars (``USeries.inverse``), Polys
    (``useries._poly_solve``) or RatFuncs (``carlitz.zeta_ratio``)."""
    y: dict = {}
    for n in range(rel):
        acc = None
        for k, fk in f:
            if k > n:
                break
            b = y.get(n - k)
            if b is not None:
                t = fk * b
                acc = t if acc is None else acc + t
        xn = x.get(n)
        if acc is not None:
            xn = -acc if xn is None else xn - acc
        if xn is not None and not xn.is_zero():
            y[n] = xn if lead_inv is None else lead_inv * xn
    return y


def _lucas_binom(m, n, p):
    """binomial(m, n) mod p via Lucas."""
    out = 1
    while n:
        mi, ni = m % p, n % p
        if ni > mi:
            return 0
        num = den = 1
        for k in range(ni):
            num = num * (mi - k) % p
            den = den * (k + 1) % p
        out = out * num * pow(den, p - 2, p) % p
        m //= p
        n //= p
    return out % p


# -- packed polynomials in characteristic 2 ---------------------------------

@functools.cache
def _f2_packer(field):
    """The ``_F2Packer`` of F_2 or of an extension of the prime field F_2,
    built on first use and kept; None for every other field."""
    if field.p == 2 and (field.e == 1 or field.base.e == 1):
        return _F2Packer(field)
    return None


class _F2Packer:
    """Polynomials over F = F_2[x]/(m) of degree e over F_2, packed.

    A packed polynomial is ``[rows, terms, multiples]``.  ``rows`` lists
    ``(j, r)``: the F_2 digits of the coefficient of theta^i t^j sit in bits
    [i e, i e + e) of the int r, so sums are XORs.  ``terms`` lists
    ``(i e, j, d)`` with d the element's digits read as an int: its code,
    which is the element itself.  ``multiples`` is filled when first needed:
    entry d holds the rows times the element of code d.  Multiplying rows
    by x moves every slot up one bit and folds the bits that leave a slot
    back in with the reduction row of x^e, so a product is XORs and shifts
    of ints only.
    """

    def __init__(self, field):
        self.e = field.e
        if self.e > 1:
            self.red = sum(b << k for k, b in enumerate(field._red[0]))
        self.bits = self.ones = self.low = 0

    def pack(self, poly):
        e = self.e
        rows, terms = {}, []
        for (i, j), d in poly.c.items():
            s = i * e
            rows[j] = rows.get(j, 0) | (d << s)
            terms.append((s, j, d))
        return [list(rows.items()), terms, None]

    def unpack(self, ring, rows):
        """(Poly, packed) of rows whose zero ints are left out."""
        e = self.e
        c, terms = {}, []
        if e == 1:
            for j, r in rows:
                v = r
                while v:
                    low = v & -v
                    s = low.bit_length() - 1
                    c[(s, j)] = 1
                    terms.append((s, j, 1))
                    v ^= low
        else:
            mask = (1 << e) - 1
            for j, r in rows:
                v = r
                while v:
                    b = (v & -v).bit_length() - 1
                    s = b - b % e
                    d = (v >> s) & mask
                    c[(s // e, j)] = d
                    terms.append((s, j, d))
                    v ^= d << s
        return Poly(ring, c), [rows, terms, None]

    def _grow(self, r):
        """Widen ``ones`` (bit 0 of every slot) and ``low`` (the slot bits
        below the top one) to cover the int r."""
        if r.bit_length() > self.bits:
            e = self.e
            self.bits = 2 * e * -(-r.bit_length() // e)
            self.ones = ((1 << self.bits) - 1) // ((1 << e) - 1)
            self.low = self.ones * ((1 << (e - 1)) - 1)

    def _times_x(self, r):
        self._grow(r)
        return ((r & self.low) << 1) ^ (
            ((r >> (self.e - 1)) & self.ones) * self.red)

    def map_slots(self, r, images):
        """The row r with an F_2-linear map applied to every slot: bit k of
        a slot stands for x^k, which the map sends to the code images[k].
        Each bit plane is spread over its slots by one product with an
        image below 2^e, so slots never carry into each other."""
        self._grow(r)
        ones, out = self.ones, 0
        for k, c in enumerate(images):
            if c:
                out ^= ((r >> k) & ones) * c
        return out

    def multiples(self, a):
        """Entry d: the rows of packed a times the element of code d."""
        if a[2] is None:
            rows, e = a[0], self.e
            if e == 1:
                a[2] = [None, rows]
                return a[2]
            xk = [rows]
            for _ in range(e - 1):
                xk.append([(j, self._times_x(r)) for j, r in xk[-1]])
            out = [None] * (1 << e)
            for d in range(1, 1 << e):
                low = d & -d
                k = low.bit_length() - 1
                out[d] = xk[k] if d == low else [
                    (j, r ^ s) for (j, r), (_, s) in zip(out[d ^ low], xk[k])]
            a[2] = out
        return a[2]

    def mul_into(self, acc, a, b):
        """acc ^= a * b, for acc a dict t-degree -> int: the terms of one
        factor select shifted multiples of the other, whichever makes
        fewer XORs."""
        if len(a[1]) * len(b[0]) > len(b[1]) * len(a[0]):
            a, b = b, a
        mults = b[2] or self.multiples(b)
        get = acc.get
        for s, j, d in a[1]:
            for jb, r in mults[d]:
                k = j + jb
                acc[k] = get(k, 0) ^ (r << s)


# -- gcd ------------------------------------------------------------------
#
# The kernel works on theta-rows: {t-degree j: the little-endian list of
# the codes of the theta-coefficient of t^j}.  A zero coefficient has no
# row, and every row ends in a nonzero code.


def _theta_rows(poly):
    """The theta-rows of a nonzero polynomial."""
    rows = {}
    for (i, j), v in poly.c.items():
        row = rows.get(j)
        if row is None:
            rows[j] = row = [0] * (i + 1)
        elif len(row) <= i:
            row.extend([0] * (i + 1 - len(row)))
        row[i] = v
    return rows


def _rows_poly(ring, rows):
    """The polynomial of theta-rows, scaled to a graded-lex lead of 1 (the
    lead is the top of a row)."""
    top = max(rows, key=lambda j: (len(rows[j]) + j, len(rows[j])))
    f = ring.field
    row = f.mul_table[f.inv_table[rows[top][-1]]]
    return Poly(ring, {(i, j): row[v] for j, r in rows.items()
                       for i, v in enumerate(r) if v})


def _deg(u, n):
    """Degree of the coefficient list u, knowing u[n + 1:] is zero."""
    while n >= 0 and not u[n]:
        n -= 1
    return n


def _univar_gcd(a, b, field):
    """Monic gcd of two little-endian coefficient lists over a coded field
    (Euclid, through its tables)."""
    a, b = list(a), list(b)
    sub, mul, inv = field.sub_table, field.mul_table, field.inv_table
    da, db = _deg(a, len(a) - 1), _deg(b, len(b) - 1)
    while db >= 0:
        if da < db:
            a, b, da, db = b, a, db, da
            continue
        row = mul[mul[a[da]][inv[b[db]]]]
        off = da - db
        for i in range(db + 1):
            if b[i]:
                a[off + i] = sub[a[off + i]][row[b[i]]]
        da = _deg(a, da - 1)
        if da < db:
            a, b, da, db = b, a, db, da
    row = mul[inv[a[da]]]
    return [row[x] for x in a[: da + 1]]


def _mul(u, v, field):
    """Product of two nonzero code lists."""
    add, mul = field.add_table, field.mul_table
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            row = mul[x]
            for k, y in enumerate(v, i):
                out[k] = add[out[k]][row[y]]
    return out


def _add(u, v, field):
    """Sum of two code lists, without top zeros."""
    if len(u) < len(v):
        u, v = v, u
    add = field.add_table
    out = list(u)
    for i, y in enumerate(v):
        if y:
            out[i] = add[out[i]][y]
    while out and not out[-1]:
        out.pop()
    return out


def _quo(u, d, field):
    """u / d for code lists, d monic and dividing u exactly."""
    sub, mul = field.sub_table, field.mul_table
    m = len(d) - 1
    u = list(u)
    out = [0] * (len(u) - m)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = u[k + m]
        if c:
            row = mul[c]
            for i in range(m):
                if d[i]:
                    u[k + i] = sub[u[k + i]][row[d[i]]]
    return out


def _content(rows, field, g=None):
    """Monic gcd over F[theta] of the rows and, when given, the code list
    g; stops as soon as it reaches 1."""
    acc = [] if g is None else g
    for row in sorted(rows.values(), key=len):
        acc = _univar_gcd(acc, row, field)
        if len(acc) == 1:
            break
    return acc


def _primitive(rows, field):
    """(content, primitive part) of theta-rows."""
    c = _content(rows, field)
    if len(c) == 1:
        return c, rows
    return c, {j: _quo(r, c, field) for j, r in rows.items()}


def _monomial_gcd(mono: Poly, other: Poly) -> Poly:
    ((i0, j0), _), = mono.c.items()
    i1 = min((k[0] for k in other.c), default=0)
    j1 = min((k[1] for k in other.c), default=0)
    return Poly(mono.ring, {(min(i0, i1), min(j0, j1)): mono.ring.field.one})


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic (graded-lex) gcd in F[theta, t].

    A zero or monomial operand is answered on the ``Poly``s.  Otherwise
    each operand is read once into theta-rows, and every branch works on
    those code lists through the field's tables: an operand of t-degree
    0, whose gcd with b is the gcd in F[theta] of it and the rows of b;
    an operand of t-degree 1 (``_linear_gcd``); two theta-free operands,
    a gcd in F[t]; equal operands.  Otherwise both operands have t-degree
    at least 2, and Brown's evaluation test comes next
    (``_coprime_at_a_point``): when a(x, t) and b(x, t) are coprime for
    one of a few points x where the t-lead of a does not vanish, the gcd
    is the gcd of the theta-contents.  The primitive PRS (``_bivar_gcd``)
    runs only when no point decides.  One ``Poly`` is built, the answer.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if len(a.c) == 1:
        return _monomial_gcd(a, b)
    if len(b.c) == 1:
        return _monomial_gcd(b, a)
    ring = a.ring
    f = ring.field
    ra, rb = _theta_rows(a), _theta_rows(b)
    da, db = max(ra), max(rb)
    if da > db:
        a, b, ra, rb, da, db = b, a, rb, ra, db, da
    if da == 0:
        return ring.theta_poly(_content(rb, f, ra[0]))
    if da == 1:
        return _linear_gcd(ring, ra, rb)
    if all(len(r) == 1 for r in ra.values()) and all(
            len(r) == 1 for r in rb.values()):
        ta = [ra[j][0] if j in ra else 0 for j in range(da + 1)]
        tb = [rb[j][0] if j in rb else 0 for j in range(db + 1)]
        return ring.t_poly(_univar_gcd(ta, tb, f))
    if ra == rb:
        return a.monic()
    if _coprime_at_a_point(ra, rb, f):
        return ring.theta_poly(_content(rb, f, _content(ra, f)))
    return _bivar_gcd(a, b)


_EVAL_POINTS = 4


def _image(rows, d, mx, add):
    """The t-coefficient list of theta-rows at theta = x, where mx is the
    mul table row of x (Horner on each row)."""
    out = [0] * (d + 1)
    for j, row in rows.items():
        v = 0
        for c in reversed(row):
            v = add[mx[v]][c]
        out[j] = v
    return out


def _coprime_at_a_point(ra, rb, field):
    """True when a(x, t) and b(x, t) are coprime in F[t] for one of the
    first ``_EVAL_POINTS`` elements x of F at which the t-lead of a does
    not vanish (Brown's test), for a and b given by their theta-rows.
    Then gcd(a, b) has t-degree 0: a factor G of positive t-degree would
    keep its t-degree at x, since a does, and G(x, t) would divide both
    images."""
    add, mul = field.add_table, field.mul_table
    da, db = max(ra), max(rb)
    for x in itertools.islice(field.elements(), _EVAL_POINTS):
        image_a = _image(ra, da, mul[x], add)
        if not image_a[da]:
            continue
        image_b = _image(rb, db, mul[x], add)
        if len(_univar_gcd(image_a, image_b, field)) == 1:
            return True
    return False


def _linear_gcd(ring, ra, rb):
    """gcd(a, b) for a of t-degree 1, from the theta-rows of a and b.

    Write a = c (b1 t + b0) with c the theta-content of a.  The primitive
    part L = b1 t + b0 has t-degree 1, so it is irreducible (Gauss's
    lemma), and gcd(a, b) = gcd(c, content b) * (L if L | b else 1).  L
    divides b exactly when b vanishes at t = -b0/b1, i.e. when
    sum_j b_j (-b0)^j b1^(d - j) = 0 for d = deg_t b, which Horner's rule
    evaluates as products of code lists.
    """
    f = ring.field
    c = _content(ra, f)
    b1, b0 = ra[1], ra.get(0, [])
    if len(c) == 1:
        g = c
    else:
        b1, b0 = _quo(b1, c, f), _quo(b0, c, f)
        g = _content(rb, f, c)
    neg = f.neg_table
    x, unit = [neg[v] for v in b0], b1 == [1]
    d = max(rb)
    acc, b1_pow = rb[d], [1]
    for j in range(d - 1, -1, -1):
        acc = _mul(acc, x, f) if acc and x else []
        if not unit:
            b1_pow = _mul(b1_pow, b1, f)
        bj = rb.get(j)
        if bj is not None:
            acc = _add(acc, bj if unit else _mul(bj, b1_pow, f), f)
    if acc:
        return ring.theta_poly(g)
    rows = {1: _mul(g, b1, f)}
    if b0:
        rows[0] = _mul(g, b0, f)
    return _rows_poly(ring, rows)


def _prem(a, b, field):
    """Pseudo-remainder of theta-rows a by theta-rows b in t: while
    deg_t r >= deg_t b, r becomes lb r - lr t^(deg_t r - deg_t b) b, with
    lb and lr the t-leads."""
    neg = field.neg_table
    db = max(b)
    lb = b[db]
    r = a
    while r:
        dr = max(r)
        if dr < db:
            break
        minus_lr, shift = [neg[v] for v in r[dr]], dr - db
        # the t^dr terms cancel
        out = {j: _mul(lb, row, field) for j, row in r.items() if j != dr}
        for j, row in b.items():
            if j == db:
                continue
            k = j + shift
            v = _mul(minus_lr, row, field)
            if k in out:
                v = _add(out[k], v, field)
                if not v:
                    del out[k]
                    continue
            out[k] = v
        r = out
    return r


def _bivar_gcd(a, b):
    """Primitive PRS gcd with t as the main variable, on theta-rows."""
    ring = a.ring
    f = ring.field
    ca, pa = _primitive(_theta_rows(a), f)
    cb, pb = _primitive(_theta_rows(b), f)
    g = _univar_gcd(ca, cb, f)
    while pb:
        r = _prem(pa, pb, f)
        pa, pb = pb, _primitive(r, f)[1]
    if len(g) > 1:
        pa = {j: _mul(g, row, f) for j, row in pa.items()}
    return _rows_poly(ring, pa)


# -- rational functions -----------------------------------------------------


class RatFunc:
    """Canonical fraction num/den of polynomials."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly | None = None, reduce: bool = True):
        ring = num.ring
        if den is None:
            den = ring.one
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = ring.one
        elif reduce and not den.is_one():
            g = poly_gcd(num, den)
            if not g.is_one():
                num, den = num.exact_div(g), den.exact_div(g)
            num, den = RatFunc._lead_one(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def _lead_one(num, den):
        """num and den scaled so that den's graded-lex lead is 1."""
        _, lc = den.lead()
        f = den.ring.field
        if lc == f.one:
            return num, den
        inv = f.inv(lc)
        return num.scale(inv), den.scale(inv)

    @property
    def ring(self):
        return self.num.ring

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num})/({self.den})"

    def __add__(self, other):
        d1one, d2one = self.den.is_one(), other.den.is_one()
        if d1one and d2one:
            return RatFunc(self.num + other.num, None, reduce=False)
        if d2one:
            # gcd(n1 + n2 d1, d1) = gcd(n1, d1) = 1: already canonical
            return RatFunc(self.num + other.num * self.den, self.den,
                           reduce=False)
        if d1one:
            return RatFunc(other.num + self.num * other.den, other.den,
                           reduce=False)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return RatFunc(self.num + other.num, d1)
        # Henrici: with g = gcd(d1, d2) the sum is
        # (n1 d2/g + n2 d1/g) / (d1 d2/g), and its numerator can share a
        # factor only with g, so one gcd against g (none when g = 1)
        g = poly_gcd(d1, d2)
        if not g.is_one():
            d1, d2 = d1.exact_div(g), d2.exact_div(g)
        num = self.num * d2 + other.num * d1
        if not g.is_one():
            h = poly_gcd(num, g)
            if not h.is_one():
                num, g = num.exact_div(h), g.exact_div(h)
        return RatFunc(*RatFunc._lead_one(num, d1 * d2 * g), reduce=False)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.num.is_zero() or other.num.is_zero():
            return RatFunc(self.ring.zero, None, reduce=False)
        d1one, d2one = self.den.is_one(), other.den.is_one()
        if d1one and d2one:
            return RatFunc(self.num * other.num, None, reduce=False)
        # cross-cancel: coprimality of each reduced pair makes the result
        # canonical without a gcd on the full product
        n1, d2 = self.num, other.den
        if not d2one:
            g = poly_gcd(n1, d2)
            if not g.is_one():
                n1, d2 = n1.exact_div(g), d2.exact_div(g)
        n2, d1 = other.num, self.den
        if not d1one:
            g = poly_gcd(n2, d1)
            if not g.is_one():
                n2, d1 = n2.exact_div(g), d1.exact_div(g)
        return RatFunc(*RatFunc._lead_one(n1 * n2, d1 * d2), reduce=False)

    def inv(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(*RatFunc._lead_one(self.den, self.num), reduce=False)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        # powers of a coprime pair are coprime, and of a monic den monic
        return RatFunc(self.num ** n, self.den ** n, reduce=False)

    def tau(self, q):
        """theta -> theta^q (t fixed; F_q coefficients fixed).

        The twist is an injective ring map that fixes t, so it keeps
        t-degrees, Res_t(tau a, tau b) = tau(Res_t(a, b)) != 0, and it
        maps theta-contents to theta-contents: the twist of a coprime pair
        is coprime, and no gcd is taken.  Only den's graded-lex lead can
        move, so only that coefficient is renormalized."""
        return RatFunc(*RatFunc._lead_one(self.num.subs_theta_power(q),
                                          self.den.subs_theta_power(q)),
                       reduce=False)

    def hyperderiv_t(self, n):
        """n-th divided-power t-derivative, via the Leibniz convolution."""
        if n == 0:
            return self
        if self.den.is_one():
            return RatFunc(self.num.hyperderiv_t(n), None)
        derivs = [RatFunc(self.num.hyperderiv_t(0), self.den)]
        dens = [RatFunc(self.den.hyperderiv_t(j), None) for j in range(n + 1)]
        nums = [RatFunc(self.num.hyperderiv_t(j), None) for j in range(n + 1)]
        for m in range(1, n + 1):
            acc = nums[m]
            for j in range(m):
                acc = acc - derivs[j] * dens[m - j]
            derivs.append(acc / dens[0])
        return derivs[n]
