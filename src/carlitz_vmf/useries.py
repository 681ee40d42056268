"""Truncated Laurent series in the uniformizer u with graded coefficients.

A series knows its truncation: coefficients at exponents ``< prec`` are
exact, everything above is undetermined (``prec is None`` marks an exact,
finitely supported series).  Every operation computes the precision of
its output from the precisions and valuations of its inputs, so a
coefficient is never reported beyond what is actually known.

Products, scalings and the monic-indexed sums of the form builders are
all linear combinations sum c * u^k * f, taken by one kernel,
``USeries.lincomb``.  Over F_2 and its extensions F_2[x]/(m) (the Conway
fields F_{2^e} and the residue fields of F_2[theta]) it takes a packed
path when every series is a polynomial series of one grade and every
scalar a polynomial of one grade: each series is packed once into
bitmask rows (``polys._F2Packer``), coefficient products are XORs of
shifted rows accumulated per grade and output exponent across all terms,
so terms of different grades share one pass, and one ``Poly`` is built
per grade and output coefficient.  Odd characteristic, a denominator, a
series or scalar that mixes grades, or a tower over F_4 stay on the
schoolbook loop; both give the same coefficients.  The packed codec
reads a coefficient's code as its F_2 digits, which it is in every
extension of F_2.

The monic sums over Frobenius orbits (``orbit_sum``) take the trace
Tr_s = sum_{j<s} sigma^j of each orbit size's sum on those rows: sigma is
F_2-linear on a slot's e bits, so Tr_s maps every slot by the images of
x^0 .. x^(e-1), and all sizes accumulate into one total that is unpacked
once per output coefficient.

Series inverses and the divisions below are one recurrence, y with
f y = x (``polys._solve``).  A series of polynomials of one grade with a
constant lowest coefficient runs it on ``Poly`` coefficients through
``_poly_solve``, packed over F_2 and its extensions F_2[x]/(m) and
plain over every other field; every other series runs it on GradedScalars.

``goss_series`` takes G_k(u(a z)) with no series product.  u(a z) =
u^Q Y with Y = 1 / P_a, P_a = sum_i [a]_i u^(Q - q^i) sparse, and in
characteristic p a p^j-th power of a series is its coefficientwise
Frobenius image.  So u(a z)^e is a Frobenius image of the Y that
``u_scale`` caches, divided by a twist Frob^j(P_a) once per remaining
unit of the base-p digits of e; a division is ``_poly_solve`` over the
sparse P_a.  Both u(a z) and each Y^e are kept per context at
their highest precision (``Context.memo_upto``), and a context over
F_{q^d} reads u(a z) from its F_q parent (``embed_series``): an element
of F_q has the same code in F_{q^d}, so each polynomial is only
re-ringed.
"""

from __future__ import annotations

import math

from .carlitz import goss_poly, period_lattice, torsion_lattice
from .context import Context
from .errors import MixedGradeError, NotTauImageError, PrecisionError
from .polys import Poly, RatFunc, _f2_packer, _lucas_binom, _pow, _solve
from .scalars import GradedScalar, eval_root, eval_theta_power


class USeries:
    __slots__ = ("ctx", "c", "prec")

    def __init__(self, ctx: Context, coeffs: dict, prec: int | None = None):
        if prec is not None:
            coeffs = {n: c for n, c in coeffs.items() if n < prec}
        coeffs = {n: c for n, c in coeffs.items() if not c.is_zero()}
        self.ctx = ctx
        self.c = coeffs
        self.prec = prec

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(ctx, prec=None):
        return USeries(ctx, {}, prec)

    @staticmethod
    def const(ctx, scalar: GradedScalar, prec=None):
        return USeries(ctx, {0: scalar}, prec)

    @staticmethod
    def one(ctx, prec=None):
        return USeries.const(ctx, GradedScalar.one(ctx.ring), prec)

    @staticmethod
    def monomial(ctx, n: int, scalar=None, prec=None):
        s = scalar if scalar is not None else GradedScalar.one(ctx.ring)
        return USeries(ctx, {n: s}, prec)

    @staticmethod
    def u(ctx, prec=None):
        return USeries.monomial(ctx, 1, prec=prec)

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.c

    def val(self):
        """Valuation of the known part (inf for a zero series)."""
        return min(self.c) if self.c else math.inf

    def _p(self):
        return math.inf if self.prec is None else self.prec

    def coeff(self, n: int) -> GradedScalar:
        if self.prec is not None and n >= self.prec:
            raise PrecisionError(f"coefficient u^{n} beyond truncation {self.prec}")
        return self.c.get(n, GradedScalar.zero(self.ctx.ring))

    def truncate(self, prec: int):
        new = prec if self.prec is None else min(self.prec, prec)
        return USeries(self.ctx, self.c, new)

    def __repr__(self):
        parts = [f"({self.c[n]})*u^{n}" for n in sorted(self.c)[:8]]
        if len(self.c) > 8:
            parts.append("...")
        if self.prec is not None:
            parts.append(f"O(u^{self.prec})")
        return " + ".join(parts) if parts else "0"

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        prec = min(self._p(), other._p())
        out = dict(self.c)
        for n, c in other.c.items():
            if n in out:
                s = out[n] + c
                if s.is_zero():
                    del out[n]
                else:
                    out[n] = s
            else:
                out[n] = c
        return USeries(self.ctx, out, None if prec == math.inf else prec)

    def __neg__(self):
        return USeries(self.ctx, {n: -c for n, c in self.c.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        vg = other.val() if other.c else other._p()
        return USeries.lincomb(self.ctx,
                               [(c, other, n) for n, c in self.c.items()],
                               self._p() + vg)

    def scale(self, scalar: GradedScalar):
        if scalar.is_zero():
            return USeries.zero(self.ctx)
        return USeries.lincomb(self.ctx, [(scalar, self, 0)])

    @staticmethod
    def lincomb(ctx: Context, terms, prec=None):
        """sum of c * u^k * f over the ``(c, f, k)`` in terms, where c is a
        GradedScalar or None for 1.

        The result is known below min(prec, f.prec + k over every term, an
        empty f included).  ``_packed_lincomb`` takes the sum when it can;
        every other case runs the schoolbook loop below, the one loop for
        products and sums of scaled series.
        """
        P = _lincomb_prec(terms, prec)
        out = _packed_lincomb(ctx, terms, P)
        if out is None:
            out = {}
            items: dict = {}
            for c, f, k in terms:
                fs = items.get(id(f))
                if fs is None:
                    fs = items[id(f)] = sorted(f.c.items())
                for n, fc in fs:
                    n += k
                    if n >= P:
                        break
                    prod = fc if c is None else c * fc
                    if n in out:
                        s = out[n] + prod
                        if s.is_zero():
                            del out[n]
                        else:
                            out[n] = s
                    elif not prod.is_zero():
                        out[n] = prod
        return USeries(ctx, out, None if P == math.inf else P)

    def shift(self, k: int):
        prec = None if self.prec is None else self.prec + k
        return USeries(self.ctx, {n + k: c for n, c in self.c.items()}, prec)

    def inverse(self, rel_prec: int | None = None):
        """Inverse of a Laurent series with invertible lowest coefficient, to
        relative precision rel_prec, capped at the relative precision that
        the series itself carries."""
        if not self.c:
            raise ZeroDivisionError("inverse of zero series")
        v = self.val()
        if self.prec is not None:
            known = self.prec - v
            rel_prec = known if rel_prec is None else min(rel_prec, known)
        elif rel_prec is None:
            raise PrecisionError("inverse of an exact series needs a target precision")
        lead = self.c[v]
        try:
            lead_inv = lead.inv()
        except MixedGradeError:
            raise MixedGradeError("lowest coefficient is not invertible (mixed grade)")
        f = sorted((n - v, c) for n, c in self.c.items() if n > v)
        ring = self.ctx.ring
        g = _poly_grade([lead] + [c for _, c in f])
        p0 = None if g is None else lead.terms[g].num
        if p0 is None or p0.deg_theta() or p0.deg_t():
            out = _solve({0: GradedScalar.one(ring)}, f, rel_prec, lead_inv)
        else:
            ((grade, c0),) = lead_inv.terms.items()
            y = _poly_solve(ring, {0: ring.one},
                            [(k, s.terms[g].num) for k, s in f], rel_prec,
                            c0.num.coeff(0, 0))
            out = {n: GradedScalar(ring, {grade: RatFunc(p, None,
                                                         reduce=False)})
                   for n, p in y.items()}
        return USeries(self.ctx, {n - v: c for n, c in out.items()},
                       rel_prec - v)

    def __truediv__(self, other):
        if not other.c:
            raise ZeroDivisionError("division by zero series")
        vg = other.val()
        if other._p() == math.inf and self._p() == math.inf:
            if len(other.c) == 1:
                return self * USeries.monomial(self.ctx, -vg, other.c[vg].inv())
            raise PrecisionError("dividing exact by exact needs a truncation")
        # the relative precision of the inverse that the quotient needs
        return self * other.inverse(min(
            self._p() - self.val() if self.c else self._p() - vg,
            other._p() - vg))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _pow(self, n, USeries.one(self.ctx))

    # -- comparisons ------------------------------------------------------------

    def common_prec(self, other):
        return min(self._p(), other._p())

    def eq_to_prec(self, other, at_least: int | None = None) -> bool:
        prec = self.common_prec(other)
        if at_least is not None and prec < at_least:
            raise PrecisionError(f"comparison needs O(u^{at_least}), have O(u^{prec})")
        a = {n: c for n, c in self.c.items() if n < prec}
        b = {n: c for n, c in other.c.items() if n < prec}
        return a == b

    def first_difference(self, other):
        """(exponent, this coefficient, other coefficient) or None."""
        prec = self.common_prec(other)
        exps = sorted(set(self.c) | set(other.c))
        for n in exps:
            if n >= prec:
                break
            if self.c.get(n) != other.c.get(n):
                z = GradedScalar.zero(self.ctx.ring)
                return (n, self.c.get(n, z), other.c.get(n, z))
        return None

    # -- coefficient maps ---------------------------------------------------------

    def map_scalars(self, fn, prec=None):
        out = {}
        for n, c in self.c.items():
            v = fn(c)
            if not v.is_zero():
                out[n] = v
        return USeries(self.ctx, out, self.prec if prec is None else prec)

    def grade_part(self, pi: int, om: int):
        """The (pi, om) part of every coefficient, at the same precision."""
        g = (pi, om)
        ring = self.ctx.ring
        return USeries(self.ctx, {n: GradedScalar(ring, {g: c.terms[g]})
                                  for n, c in self.c.items() if g in c.terms},
                       self.prec)

    def tau(self):
        """Frobenius twist: coefficients tau'd, u^n -> u^(qn)."""
        q = self.ctx.q
        prec = None if self.prec is None else q * self.prec
        return USeries(self.ctx, {q * n: c.tau(q) for n, c in self.c.items()}, prec)

    def untau(self):
        """Inverse twist; exponents must be multiples of q, coefficients
        twist images."""
        q = self.ctx.q
        for n in self.c:
            if n % q:
                raise NotTauImageError(f"exponent {n} not divisible by {q}")
        prec = None if self.prec is None else math.ceil(self.prec / q)
        return USeries(
            self.ctx, {n // q: c.untau(q) for n, c in self.c.items()}, prec
        )

    def dt(self, n: int):
        """Coefficientwise divided-power t-derivative."""
        if n == 0:
            return self
        return self.map_scalars(lambda c: c.hyperderiv_t(n))

    # -- composition -------------------------------------------------------------

    def substitute(self, S: "USeries"):
        """f(u := S) for S of positive valuation."""
        if S.is_zero() or S.val() < 1:
            raise ValueError("substitution needs positive valuation")
        vS = S.val()
        tail = None if self.prec is None else vS * self.prec
        if not self.c:
            return USeries.zero(self.ctx, tail)
        exps = sorted(self.c, reverse=True)
        # e -> S^e for e >= 1, each power taken once, by the binary chain
        # S^e = (S^(e // 2))^2, times S when e is odd
        powers = {1: S}

        def spow(e):
            if e not in powers:
                h = spow(e // 2)
                powers[e] = h * h if e % 2 == 0 else h * h * S
            return powers[e]

        acc = USeries.const(self.ctx, self.c[exps[0]])
        for i in range(1, len(exps)):
            gap = exps[i - 1] - exps[i]
            acc = acc * spow(gap) + USeries.const(self.ctx, self.c[exps[i]])
        n0 = exps[-1]
        if n0 > 0:
            acc = acc * spow(n0)
        elif n0 < 0:
            rel = acc._p()
            if rel == math.inf and tail is None:
                big = max(abs(n0) * vS + 8, 2 * vS)
                acc = acc * S.inverse(big) ** (-n0)
            else:
                target = min(rel if rel != math.inf else math.inf,
                             tail if tail is not None else math.inf)
                acc = acc * S.inverse(int(target) + (1 - n0) * vS) ** (-n0)
        if tail is not None:
            acc = acc.truncate(tail)
        return acc

    # -- specializations -----------------------------------------------------------

    def eval_theta_power(self, j: int):
        return self.map_scalars(lambda c: eval_theta_power(c, j, self.ctx))

    def eval_root(self, rctx):
        out = {}
        for n, c in self.c.items():
            v = eval_root(c, rctx)
            if not v.is_zero():
                out[n] = v
        return USeries(rctx.spec_ctx, out, self.prec)


def _poly_grade(coeffs) -> tuple | None:
    """The grade of every coefficient when each is a polynomial (a fraction
    with denominator 1) of that one grade, else None."""
    grade = None
    for s in coeffs:
        if len(s.terms) != 1:
            return None
        ((g, c),) = s.terms.items()
        if grade is None:
            grade = g
        if g != grade or not c.den.is_one():
            return None
    return grade


def _lincomb_prec(terms, prec) -> float:
    """min(prec, f.prec + k over every (c, f, k) in terms); inf if none."""
    P = math.inf if prec is None else prec
    for _, f, k in terms:
        if f.prec is not None and f.prec + k < P:
            P = f.prec + k
    return P


def _packed_sums(packer, terms, prec, acc: dict) -> dict | None:
    """Accumulate sum c * u^k * f over the terms below prec into packed
    rows, ``acc[grade][n][j]`` for the grade of c f, and return acc; or
    None, with acc untouched, when a series has a fraction or mixes
    grades, or when a scalar is not a polynomial of one grade.  Terms of
    different grades go to different tables.  Each distinct series is
    packed once and each scalar once per term."""
    series: dict = {}
    work = []
    for c, f, k in terms:
        if not f.c or (c is not None and not c.terms):
            continue
        s = series.get(id(f))
        if s is None:
            gf = _poly_grade(f.c.values())
            if gf is None:
                return None
            # [series, grade, lowest shift, packed rows, index of last term]
            s = series[id(f)] = [f, gf, k, None, 0]
        elif k < s[2]:
            s[2] = k
        s[4] = len(work)
        g = s[1]
        if c is not None:
            if len(c.terms) != 1:
                return None
            ((gc, r),) = c.terms.items()
            if not r.den.is_one():
                return None
            g = (g[0] + gc[0], g[1] + gc[1])
            c = None if r.num.is_one() else r.num
        work.append((c, s, k, g))
    # a series is packed at its first term, below prec minus its lowest
    # shift, and let go after its last, so few packed series live at once
    for i, (c, s, k, g) in enumerate(work):
        f, gf, kmin, packed, last = s
        if packed is None:
            packed = s[3] = [(n, packer.pack(fc.terms[gf].num))
                             for n, fc in sorted(f.c.items()) if n + kmin < prec]
        if i == last:
            s[3] = None
        a = None if c is None else packer.pack(c)
        table = acc.get(g)
        if table is None:
            table = acc[g] = {}
        for n, b in packed:
            n += k
            if n >= prec:
                break
            rows = table.get(n)
            if rows is None:
                rows = table[n] = {}
            if a is None:
                for j, r in b[0]:
                    rows[j] = rows.get(j, 0) ^ r
            else:
                packer.mul_into(rows, a, b)
    return acc


def _unpack_sums(ring, packer, acc: dict) -> dict:
    """{n: GradedScalar} from the packed rows ``acc[grade][n][j]``, one
    ``Poly`` per grade and output exponent; zero sums are left out."""
    out: dict = {}
    for g, table in acc.items():
        for n, rows in table.items():
            p = packer.unpack(ring, [(j, r) for j, r in rows.items() if r])[0]
            if not p.is_zero():
                c = RatFunc(p, None, reduce=False)
                if n in out:
                    out[n].terms[g] = c
                else:
                    out[n] = GradedScalar(ring, {g: c})
    return out


def _packed_lincomb(ctx: Context, terms, prec) -> dict | None:
    """The coefficients below prec of ``USeries.lincomb(ctx, terms)``
    through the packed F_2 codec (``_packed_sums``), or None when the
    field is not F_2 or an extension of it, or when the packed sums
    decline the terms (the schoolbook takes those).  Each output
    coefficient is unpacked once per grade."""
    packer = _f2_packer(ctx.ring.field)
    if packer is None:
        return None
    acc = _packed_sums(packer, terms, prec, {})
    return None if acc is None else _unpack_sums(ctx.ring, packer, acc)


def _poly_solve(ring, x: dict, f: list, rel: int, code: int = 1) -> dict:
    """``polys._solve`` for Poly coefficients: {n: y_n} for n < rel of the
    series y with f y = x, for x = {n: Poly}, f = [(k, Poly f_k)] with
    k >= 1 in increasing k, and 1/f_0 the constant of code ``code``.

    Over F_2 and its extensions F_2[x]/(m) the recurrence runs on packed
    rows (``polys._F2Packer``): x and f are packed once, each y_n is
    unpacked once, and the minus signs are XORs.  Elsewhere it is
    ``_solve`` on the Polys."""
    packer = _f2_packer(ring.field)
    if packer is None:
        lead_inv = None if code == 1 else Poly(ring, {(0, 0): code})
        return _solve(x, f, rel, lead_inv)
    fp = [(k, packer.pack(c)) for k, c in f]
    y: dict = {}
    for n in range(rel):
        xn = x.get(n)
        acc = dict(packer.pack(xn)[0]) if xn is not None else {}
        for k, a in fp:
            if k > n:
                break
            b = y.get(n - k)
            if b is not None:
                packer.mul_into(acc, a, b[1])
        rows = [(j, r) for j, r in acc.items() if r]
        if not rows:
            continue
        if code != 1:
            rows = packer.multiples([rows, None, None])[code]
        y[n] = packer.unpack(ring, rows)
    return {n: p for n, (p, _) in y.items()}


def u_scale(ctx: Context, a, prec: int) -> USeries:
    """The series of u(a z): invert the Carlitz action on 1/u.

    Built once per monic through ``ctx.memo_upto``: solved for the
    representative r of a's Frobenius orbit (``Context.orbit_rep``) and
    read as ``conjugate(u(r z), j)`` for a = sigma^j(r); on a context over
    F_{q^d} with an F_q parent it is the parent's series read through
    ``embed_series``."""
    if not a or a[-1] != ctx.base_field.one:
        raise ValueError("a must be monic")
    d = len(a) - 1
    if d == 0:
        return USeries.u(ctx).truncate(prec)

    def build():
        if ctx.parent is not None:
            return embed_series(ctx, u_scale(ctx.parent, a, prec))
        r, j = ctx.orbit_rep(a)
        if j:
            return conjugate(u_scale(ctx, r, prec), j)
        Q = ctx.q ** d
        coeffs = ctx.carlitz_coeffs(a)
        # C_a(1/u) = u^(-Q) * sum_i [a]_i u^(Q - q^i)
        P = USeries(
            ctx,
            {Q - ctx.q ** i: GradedScalar.from_poly(c)
             for i, c in enumerate(coeffs) if not c.is_zero()},
        )
        rel = max(prec - Q, 1)
        return P.inverse(rel).shift(Q).truncate(prec)

    return ctx.memo_upto(("u_scale", a), prec, build)


def _map_polys(ctx: Context, f: USeries, fn) -> USeries:
    """f over ctx with fn applied to the numerator and denominator of every
    fraction of every coefficient; exponents, grades and precision stay.
    No gcd is taken, so fn must keep each fraction canonical, as a field
    embedding or automorphism applied to the coefficients does."""
    ring = ctx.ring
    return USeries(ctx, {
        n: GradedScalar(ring, {g: RatFunc(fn(r.num), fn(r.den), reduce=False)
                               for g, r in c.terms.items()})
        for n, c in f.c.items()}, f.prec)


def embed_series(ctx: Context, f: USeries) -> USeries:
    """A series over the F_q context ``ctx.parent`` read over ctx's field
    F_{q^d}.  An element of F_q has the same code in F_{q^d}, so each
    polynomial keeps its coefficients and only changes ring.  Each
    fraction keeps its form with no gcd, since a gcd over F_q is one over
    F_{q^d} and a denominator whose lead is 1 keeps that lead."""
    ring = ctx.ring
    return _map_polys(ctx, f, lambda p: Poly(ring, p.c))


def conjugate(f: USeries, j: int) -> USeries:
    """sigma^j(f) for sigma: x -> x^p on the F_q coefficients only, on an
    F_q context: theta, t, the exponents of u and the grades stay.  An
    automorphism of F_q fixes 1 and keeps a gcd trivial, so every fraction
    stays canonical.  Not ``_frobenius``, the p-power map, which also
    scales exponents."""
    if not j:
        return f
    ctx = f.ctx
    sig = ctx.sigma(j)
    return _map_polys(ctx, f, lambda p: Poly(
        p.ring, {m: sig[v] for m, v in p.c.items()}))


def orbit_sum(ctx: Context, classes: dict, prec: int) -> USeries:
    """sum over s of Tr_s(sum c * u^k * f over classes[s]), below prec,
    with Tr_s = sum_{j<s} sigma^j and the sums as in ``USeries.lincomb``.

    ``classes[s]`` lists the (c, f, k) terms of the representatives of the
    Frobenius orbits of size s (``Context.orbits_below``); when each term
    satisfies sigma(term(a)) = term(sigma(a)), this is the sum over every
    monic.  A single class of size 1 (every context without orbits) is
    one ``lincomb``.  Over F_{2^e} each class is accumulated into packed
    rows, mapped slot by slot by Tr_s (F_2-linear, so
    ``_F2Packer.map_slots`` with the images of the x^k), and XORed into
    one total, which is unpacked once per output coefficient.  Other
    fields, and terms the packed sums decline, take one ``lincomb`` per
    class and add its s conjugates."""
    if list(classes) == [1]:
        return USeries.lincomb(ctx, classes[1], prec)
    P = _lincomb_prec([t for terms in classes.values() for t in terms], prec)
    packer = _f2_packer(ctx.ring.field)
    if packer is not None:
        total: dict = {}
        for s, terms in classes.items():
            acc = _packed_sums(packer, terms, P, total if s == 1 else {})
            if acc is None:
                break
            if s == 1:
                continue
            images = [0] * packer.e         # Tr_s(x^k), added as codes
            for j in range(s):
                sig = ctx.sigma(j)
                for k in range(packer.e):
                    images[k] ^= sig[1 << k]
            for g, table in acc.items():
                out = total.setdefault(g, {})
                for n, rows in table.items():
                    row_out = out.setdefault(n, {})
                    for j, r in rows.items():
                        row_out[j] = row_out.get(j, 0) ^ packer.map_slots(
                            r, images)
        else:
            return USeries(ctx, _unpack_sums(ctx.ring, packer, total),
                           None if P == math.inf else P)
    out = USeries.zero(ctx, prec)
    for s, terms in classes.items():
        f = USeries.lincomb(ctx, terms, prec)
        for j in range(s):       # one conjugate alive at a time
            out = out + conjugate(f, j)
    return out


def scale_arg(f: USeries, a, prec: int | None = None) -> USeries:
    """f(z) -> f(a z) on u-expansions, for monic a.

    The result is known to ``target = min(Q * prec(f), prec)`` with
    Q = q^(deg a).  Since S = u(a z) = u^Q + ..., the term u^n of f lands at
    order >= Q n, so only the exponents n < ceil(target / Q) can reach the
    kept part; f is cut there before the substitution."""
    ctx = f.ctx
    d = len(a) - 1
    if d == 0:
        return f if prec is None else f.truncate(prec)
    Q = ctx.q ** d
    if f.prec is None and prec is None:
        raise PrecisionError("scaling an exact series needs a target precision")
    target = int(min(Q * f._p(), prec if prec is not None else math.inf))
    lowest = min(f.val(), 0)
    S = u_scale(ctx, a, target + (1 - lowest) * Q)
    out = f.truncate(-(-target // Q)).substitute(S)
    return out.truncate(target)


def _frobenius(f, j: int):
    """f^(p^j) for a Poly f in characteristic p: every exponent times p^j
    and every coefficient through the field's Frobenius (the identity on
    the prime field)."""
    field = f.ring.field
    m = field.char ** j
    j %= field.e
    if j:
        return Poly(f.ring, {(i * m, l * m): field.frobenius(v, j)
                             for (i, l), v in f.c.items()})
    return Poly(f.ring, {(i * m, l * m): v for (i, l), v in f.c.items()})


def _power_of_y(ctx: Context, a, Y: dict, e: int, rel: int) -> USeries:
    """The series Y^e known below u^rel, Y = 1 / P_a for monic a of degree d,
    P_a = sum_i [a]_i u^(Q - q^i), Q = q^d, and Y = {n: Poly} known below
    u^rel at least.

    With e = sum_j e_j p^j and j0 the place of the top digit, Y^e is the
    twist Frob^(j0)(Y) divided once by Frob^j(P_a) = sum_i [a]_i^(p^j)
    u^(p^j (Q - q^i)) for each other unit of the digits.  Each division
    is ``_poly_solve`` over the d terms of positive degree.  Kept per
    (a, e) by ``ctx.memo_upto``: the recurrence fixes y_n from the terms
    below n, so a build to a higher rel cut to rel is the build to rel."""
    def build():
        ring, p, q = ctx.ring, ctx.p, ctx.q
        digits = []
        rest = e
        while rest:
            digits.append(rest % p)
            rest //= p
        j0 = len(digits) - 1
        digits[j0] -= 1
        m = p ** j0
        x = {n * m: _frobenius(c, j0) for n, c in Y.items() if n * m < rel}
        coeffs, d = ctx.carlitz_coeffs(a), len(a) - 1
        divisors = [[(p ** j * (q ** d - q ** i), _frobenius(coeffs[i], j))
                     for i in range(d - 1, -1, -1) if not coeffs[i].is_zero()]
                    for j, ej in enumerate(digits) for _ in range(ej)]
        for f in divisors:
            x = _poly_solve(ring, x, f, rel)
        return USeries(ctx, {n: GradedScalar.from_poly(c) for n, c in x.items()},
                       rel)

    return ctx.memo_upto(("Y^e", a, e), rel, build)


def goss_series(ctx: Context, L, k: int, a, prec: int) -> USeries:
    """G_k(u(a z)) for monic a, from the series S = u(a z) that ``u_scale``
    gives below u^prec, prec > Q = q^(deg a).

    u(a z) = u^Q Y with Y = 1 / P_a, so the term c_e X^e of G_k is
    c_e u^(eQ) Y^e, which ``_power_of_y`` takes without a series product.
    The result equals sum_e c_e S^e by dense powers of S, coefficient for
    coefficient and in precision: prec + (e_min - 1) Q, e_min the lowest
    X-exponent of G_k (S^e is known to prec + (e - 1) Q)."""
    S = u_scale(ctx, a, prec)
    if k == 1:
        return S
    g = goss_poly(ctx, L, k).coeffs
    Q = ctx.q ** (len(a) - 1)
    out = prec + (min(g) - 1) * Q
    Y = {n - Q: c.grade_part(0, 0).num for n, c in S.c.items()}
    terms = [(c, e * Q, _power_of_y(ctx, a, Y, e, out - e * Q))
             for e, c in sorted(g.items()) if e * Q < out]
    if len(terms) == 1 and terms[0][0].is_one():
        ((_, n, y),) = terms
        return y.shift(n)
    return USeries.lincomb(ctx, [(GradedScalar.from_rat(c), y, n)
                                 for c, n, y in terms], out)


def trace_div(f: USeries, p) -> USeries:
    """sum over b in A(deg p) of f((z + b)/p), through the torsion Goss
    polynomials: u^n -> G_{p,n}(p u)."""
    ctx = f.ctx
    if f.c and f.val() < 0:
        raise ValueError("trace over cosets needs a non-negative valuation")
    d = len(p) - 1
    Q = ctx.q ** d
    L = torsion_lattice(ctx, p)
    P = f._p()
    prec_out = None if P == math.inf else math.ceil((P - 1) / Q) + 1
    pp = GradedScalar.from_poly(ctx.apoly(p))
    ppowers = {0: GradedScalar.one(ctx.ring)}

    def ppow(e):
        if e not in ppowers:
            ppowers[e] = ppow(e - 1) * pp
        return ppowers[e]

    out: dict = {}
    for n, cn in f.c.items():
        if n == 0:
            continue  # |A(d)| = q^d kills constants in characteristic p
        g = goss_poly(ctx, L, n)
        for e, c in g.coeffs.items():
            if prec_out is not None and e >= prec_out:
                continue
            v = cn * GradedScalar.from_rat(c) * ppow(e)
            if e in out:
                s = out[e] + v
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            elif not v.is_zero():
                out[e] = v
    return USeries(ctx, out, prec_out)


def _binom_neg(m: int, r: int, p: int) -> int:
    """binomial(-m, r) mod p."""
    if m > 0:
        return (-1) ** r * _lucas_binom(m + r - 1, r, p) % p
    return _lucas_binom(-m, r, p)


def dz(f: USeries, n: int) -> USeries:
    """n-th divided-power derivative in z of a u-expansion.

    With ehat = pi*eps and e the period-lattice exponential,
    1/u(z + eps) = 1/u + e(ehat), so u(z + eps)^m = u^m (1 + u e(ehat))^(-m),
    and the ehat^n coefficient of e(ehat)^r is [X^(r+1)]G_(n+1).  Hence
        D^(n) f = pi^n sum_r [X^(r+1)]G_(n+1) u^r sum_m binom(-m, r) c_m u^m,
    where r >= 1 for n >= 1: the unknown tail of f moves up at least one
    order, so the output is known to f.prec + 1 (exact stays exact).
    """
    if n == 0:
        return f
    ctx = f.ctx
    terms = []
    for x, c in goss_poly(ctx, period_lattice(ctx), n + 1).coeffs.items():
        r = x - 1
        fr = {m: cm if b == 1 else cm * GradedScalar.from_int(ctx.ring, b)
              for m, cm in f.c.items()
              if (b := _binom_neg(m, r, ctx.p))}
        terms.append((GradedScalar.from_rat(c, n), USeries(ctx, fr, f.prec), r))
    return USeries.lincomb(ctx, terms, None if f.prec is None else f.prec + 1)
