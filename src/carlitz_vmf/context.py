"""Shared arithmetic context: the field F_q, the coefficient ring, caches.

A `Context` fixes q = p^e and the coefficient field of the series
engine.  The structure constants (monic enumeration, Carlitz data) always
live over F_q; specializations at roots of unity reuse the same machinery
with the coefficient field enlarged to a coded F_{q^d}
(``fields.residue_field``), in which an element of F_q keeps its code, so
a tuple over F_q is read over F_{q^d} as it is.  Such a context records
the F_q context it extends as ``parent``, and the F_q-rational series
(``u_scale``'s u(a z) and ``gen_E``'s E) are built once there and only
re-ringed over F_{q^d}.

The Carlitz module is defined over F_p[theta], so sigma: x -> x^p on the
F_q coefficients of a monic a (theta, t and exponents fixed) sends u(a z)
to u(sigma(a) z) and each Eisenstein term of a to that of sigma(a).  On
an F_q context with e > 1 and no parent, ``orbits_below(N)`` groups the
monics below N by orbit size, {s: representatives}, each representative
the member of its orbit that comes first in ``monics``, and
``orbit_rep(a)`` gives (r, j) with sigma^j(r) = a.  An orbit has size s
dividing e; the F_p-rational monics have size 1.  ``u_scale`` solves
once per orbit and the monic sums take Tr_s = sum_{j<s} sigma^j of the
sum over the representatives of each size s, all sizes in one
accumulation (``useries.orbit_sum``).  Every other context has one
class of size 1 holding all the monics: the character sums over the
F_{q^d} contexts of ``specialize`` are not Galois-equivariant.

Two caches sit on a context.  ``memo(key, build)`` keeps one value per
key.  ``memo_upto(key, N, build)`` keeps one value per key for the
truncated series that a precision N names: it serves a request at N from
the highest build so far, cut to N, and keeps only that top build.  It
serves ``u_scale``, the Y^e of ``useries._power_of_y``, the forms
``gen_E``, ``gen_g``, ``gen_h``, ``gen_Delta``, ``gen_fs`` and
``gen_goss_eis``, and the vectorial series ``eis1``, ``eis_q`` and
``eis_k``: a build at M > N cut to N equals a build at N, coefficients,
precision and flags (the truncation tests pin this per builder).
``clear()`` empties both caches; ``verify.run_suite`` calls it when a
suite ends, so a finished suite's series do not wait for the cyclic
collector (the cached builds close over their context).
"""

from __future__ import annotations

from itertools import product

from .fields import PolyExtField, field_from_order
from .polys import Poly, PolyRing, _univar_gcd
from .scalars import GradedScalar


class Context:
    def __init__(self, q: int, *, coeff_field=None,
                 parent: "Context | None" = None):
        self.base_field = field_from_order(q)
        self.p = self.base_field.p
        self.e = self.base_field.e
        self.q = self.base_field.order
        self.coeff_field = coeff_field if coeff_field is not None else self.base_field
        self.ring = PolyRing(self.coeff_field)
        self.cache: dict = {}
        self.tops: dict = {}
        if parent is not None and (parent.q != self.q or
                                   parent.coeff_field != parent.base_field):
            raise ValueError("a parent context must be F_q itself")
        self.parent = parent
        if (self.coeff_field != self.base_field
                and self.coeff_field.base != self.base_field):
            raise ValueError("coefficient field must extend F_q directly")

    def __repr__(self):
        tag = f"q={self.q}"
        if self.coeff_field != self.base_field:
            tag += f", coeffs={self.coeff_field}"
        return f"Context({tag})"

    def clear(self):
        """Empty both caches together: `memo_upto` trusts ``tops[key]`` to
        name a build still held in ``cache``."""
        self.cache.clear()
        self.tops.clear()

    def memo(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]

    def memo_upto(self, key, N: int, build):
        """The value that ``build`` makes at precision N, served from the
        highest build of key so far: with a build at M >= N on hand it is
        that build cut to N (``value.truncate(N)``); otherwise ``build``
        runs through `memo` under (key, N) and replaces the build at M, so
        one build per key is kept.  ``build`` takes no arguments (it
        closes over N), so a tracer of `memo` charges it to the builder
        that defined it."""
        M = self.tops.get(key)
        if M is not None and M >= N:
            out = self.memo((key, M), build)
            if M == N:
                return out
            return out.truncate(N)
        out = self.memo((key, N), build)
        if M is not None:
            del self.cache[(key, M)]
        self.tops[key] = N
        return out

    def gs(self, p: Poly, pi: int = 0, om: int = 0) -> GradedScalar:
        """`GradedScalar.from_poly`, kept only because
        `perfbench/workloads.py` calls it; build scalars with the
        `GradedScalar` constructors instead.  It goes with the next change
        to the benchmark."""
        return GradedScalar.from_poly(p, pi, om)

    # -- A = F_q[theta] ------------------------------------------------------

    def apoly(self, a) -> Poly:
        """theta-polynomial of a coefficient tuple over F_q."""
        return self.ring.theta_poly(a)

    def chi(self, a) -> Poly:
        """The character value: same coefficients read in the variable t."""
        return self.ring.t_poly(a)

    def monics(self, d: int):
        """Monic elements of degree d as little-endian coefficient tuples,
        ordered lexicographically on the coefficient vector."""
        def build():
            base = self.base_field
            elems = sorted(base.elements(), key=base.digits)
            return tuple(v + (base.one,) for v in product(elems, repeat=d))

        return self.memo(("monics", d), build)

    def monics_below(self, bound_val: int):
        """All monic a with q^(deg a) < bound_val, by (degree, lex)."""
        out = []
        d = 0
        while self.q ** d < bound_val:
            out.extend(self.monics(d))
            d += 1
        return out

    def sigma(self, j: int) -> tuple:
        """sigma^j, sigma: x -> x^p, as a table over the codes of F_q."""
        return self.memo(("sigma", j), lambda: tuple(
            self.base_field.frobenius(x, j) for x in range(self.q)))

    def _conjugates(self, a) -> list:
        """The orbit a, sigma(a), ..., sigma^(s-1)(a) of a monic; s
        divides e."""
        frob = self.sigma(1)
        out = [a]
        b = tuple(frob[x] for x in a)
        while b != a:
            out.append(b)
            b = tuple(frob[x] for x in b)
        return out

    def _has_orbits(self) -> bool:
        return (self.parent is None and self.coeff_field is self.base_field
                and self.e > 1)

    def orbit_rep(self, a):
        """(r, j) with sigma^j(r) = a, r the member of a's orbit that comes
        first in `monics`; (a, 0) on a context without orbits."""
        if not self._has_orbits():
            return a, 0
        conj = self._conjugates(a)
        digits = self.base_field.digits
        i = min(range(len(conj)), key=lambda i: [digits(x) for x in conj[i]])
        return conj[i], -i % len(conj)

    def orbits_below(self, bound_val: int) -> dict:
        """{orbit size: representatives} over ``monics_below(bound_val)``,
        each list in the order of `monics`.  Only an F_q context with
        e > 1 and no parent has orbits; every other context gets one class
        of size 1 holding all the monics."""
        if not self._has_orbits():
            return {1: self.monics_below(bound_val)}

        def build():
            out: dict = {}
            seen = set()
            for a in self.monics_below(bound_val):
                if a not in seen:
                    conj = self._conjugates(a)
                    seen.update(conj)
                    out.setdefault(len(conj), []).append(a)
            return out

        return self.memo(("orbits_below", bound_val), build)

    def poly_space(self, d: int):
        """A(d): all polynomials of degree < d (including 0), lex ordered."""
        def build():
            base = self.base_field
            elems = sorted(base.elements(), key=base.digits)
            out = []
            for v in product(elems, repeat=d):
                n = d
                while n and v[n - 1] == base.zero:
                    n -= 1
                out.append(v[:n])
            return tuple(out)

        return self.memo(("poly_space", d), build)

    # -- Carlitz structure constants ------------------------------------------

    def D(self, j: int) -> Poly:
        """D_0 = 1, D_j = prod_{i<j} (theta^(q^j) - theta^(q^i))."""
        def build():
            if j == 0:
                return self.ring.one
            f = self.ring.field
            top = Poly(self.ring, {(self.q ** j, 0): f.one})
            out = self.ring.one
            for i in range(j):
                out = out * (top - Poly(self.ring, {(self.q ** i, 0): f.one}))
            return out

        return self.memo(("D", j), build)

    def carlitz_theta_power(self, i: int):
        """Coefficients [theta^i]_j of the module action of theta^i."""
        def build():
            if i == 0:
                return (self.ring.one,)
            prev = self.carlitz_theta_power(i - 1)
            theta = self.ring.theta
            out = []
            for jj in range(i + 1):
                term = self.ring.zero
                if jj <= i - 1:
                    term = term + theta * prev[jj]
                if jj >= 1:
                    term = term + prev[jj - 1].subs_theta_power(self.q)
                out.append(term)
            return tuple(out)

        return self.memo(("Ctheta", i), build)

    def carlitz_coeffs(self, a) -> tuple:
        """Coefficients [a]_j of the Carlitz action polynomial of a."""
        def build():
            d = len(a) - 1
            out = [self.ring.zero] * (d + 1)
            for i, c in enumerate(a):
                if c == self.base_field.zero:
                    continue
                row = self.carlitz_theta_power(i)
                for jj, p in enumerate(row):
                    out[jj] = out[jj] + p.scale(c)
            return tuple(out)

        return self.memo(("Ca", a), build)

    def is_irreducible(self, a) -> bool:
        """Rabin's test for a monic a of degree n over F_q: a is irreducible
        iff x^(q^n) = x mod a and gcd(x^(q^(n/r)) - x, a) = 1 for every
        prime r | n.  The powers are taken in the ring F_q[x]/(a)."""
        base = self.base_field
        n = len(a) - 1
        if n < 1:
            return False
        if a[-1] != base.one:
            raise ValueError("element must be monic")
        if n == 1:
            return True
        R = PolyExtField(base, a)
        x = R.gen()
        if R.pow(x, self.q ** n) != x:
            return False
        for r in set(_prime_factors(n)):
            diff = R.sub(R.pow(x, self.q ** (n // r)), x)
            if len(_univar_gcd(a, diff, base)) > 1:
                return False
        return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out

