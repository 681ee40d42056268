"""The graded coefficient ring F_q(theta, t)[pi^{+-1}, om^{+-1}].

``pi`` is the period symbol (the fundamental period of the rank-1 module)
and ``om`` the Anderson-Thakur unit.  Both are treated as free graded
units subject to the twist rules

    tau(pi) = pi^q,        tau(om) = (t - theta) om,

and to the residue data of ``om`` at the points t = theta^(q^j): the
polar part there is pi^(q^j) / ((theta^(q^j) - t) D_j), which is what
`eval_theta_power` consumes.  A scalar is a finitely supported map from
grades (a, b) = (pi-exponent, om-exponent) to rational functions.
"""

from __future__ import annotations

from .errors import EvaluationPoleError, MixedGradeError, NotTauImageError
from .polys import Poly, PolyRing, RatFunc, _pow


class GradedScalar:
    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_rat(c: RatFunc, pi: int = 0, om: int = 0) -> "GradedScalar":
        if c.is_zero():
            return GradedScalar(c.ring, {})
        return GradedScalar(c.ring, {(pi, om): c})

    @staticmethod
    def from_poly(p: Poly, pi: int = 0, om: int = 0) -> "GradedScalar":
        return GradedScalar.from_rat(RatFunc(p, None, reduce=False), pi, om)

    @staticmethod
    def zero(ring: PolyRing) -> "GradedScalar":
        return GradedScalar(ring, {})

    @staticmethod
    def one(ring: PolyRing) -> "GradedScalar":
        return GradedScalar(ring, {(0, 0): RatFunc(ring.one, None, reduce=False)})

    @staticmethod
    def from_int(ring: PolyRing, n: int) -> "GradedScalar":
        return GradedScalar.from_poly(ring.from_int(n))

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and (0, 0) in self.terms and self.terms[(0, 0)].is_one()

    def single_grade(self):
        """((pi, om), coefficient) when supported on one grade, else None."""
        if len(self.terms) != 1:
            return None
        ((g, c),) = self.terms.items()
        return g, c

    def grade_part(self, pi, om) -> RatFunc:
        return self.terms.get((pi, om), RatFunc(self.ring.zero, None, reduce=False))

    def rational_part(self) -> RatFunc:
        """The grade-(0,0) component."""
        return self.grade_part(0, 0)

    def grades(self):
        return set(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, GradedScalar)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self.terms.items()))))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms):
            c = self.terms[(a, b)]
            s = f"({c})"
            if a:
                s += f"*pi^{a}"
            if b:
                s += f"*om^{b}"
            parts.append(s)
        return " + ".join(parts)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for g, c in other.terms.items():
            if g in out:
                s = out[g] + c
                if s.is_zero():
                    del out[g]
                else:
                    out[g] = s
            else:
                out[g] = c
        return GradedScalar(self.ring, out)

    def __neg__(self):
        return GradedScalar(self.ring, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return GradedScalar(self.ring, {})
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                g = (a1 + a2, b1 + b2)
                prod = c1 * c2
                if g in out:
                    s = out[g] + prod
                    if s.is_zero():
                        del out[g]
                    else:
                        out[g] = s
                elif not prod.is_zero():
                    out[g] = prod
        return GradedScalar(self.ring, out)

    def mul_rat(self, c: RatFunc):
        if c.is_zero():
            return GradedScalar(self.ring, {})
        return GradedScalar(self.ring, {g: v * c for g, v in self.terms.items()})

    def inv(self):
        if not self.terms:
            raise ZeroDivisionError("inverse of zero scalar")
        sg = self.single_grade()
        if sg is None:
            raise MixedGradeError("inverse of a mixed-grade scalar")
        (a, b), c = sg
        return GradedScalar(self.ring, {(-a, -b): c.inv()})

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        return _pow(self, n, GradedScalar.one(self.ring))

    # -- twist -----------------------------------------------------------

    def tau(self, q: int):
        """Coefficient twist: theta -> theta^q, pi^a -> pi^(qa),
        om^b -> (t-theta)^b om^b."""
        ring = self.ring
        tm = RatFunc(ring.t - ring.theta, None, reduce=False)
        out = {}
        for (a, b), c in self.terms.items():
            v = c.tau(q)
            if b:
                v = v * tm ** b
            if not v.is_zero():
                out[(q * a, b)] = v
        return GradedScalar(ring, out)

    def untau(self, q: int):
        """Inverse of `tau`; raises NotTauImageError off the image."""
        ring = self.ring
        tm = RatFunc(ring.t - ring.theta, None, reduce=False)
        out = {}
        for (a, b), c in self.terms.items():
            if a % q:
                raise NotTauImageError(f"pi-grade {a} not divisible by {q}")
            v = c * tm ** (-b) if b else c
            num = _theta_root(v.num, q)
            den = _theta_root(v.den, q)
            w = RatFunc(num, den)
            if w.tau(q) != v:
                raise NotTauImageError(f"coefficient {v} is not a twist image")
            out[(a // q, b)] = w
        return GradedScalar(ring, out)

    # -- hyperderivative in t ------------------------------------------------

    def hyperderiv_t(self, n: int):
        """Divided-power t-derivative; defined only on om-grade 0."""
        if n == 0:
            return self
        out = {}
        for (a, b), c in self.terms.items():
            if b:
                raise MixedGradeError("t-hyperderivative of a scalar with om-grade != 0")
            v = c.hyperderiv_t(n)
            if not v.is_zero():
                out[(a, b)] = v
        return GradedScalar(self.ring, out)


def _theta_root(p: Poly, q: int) -> Poly:
    """Inverse of theta -> theta^q on a polynomial."""
    out = {}
    for i, j, v in p.terms():
        if i % q:
            raise NotTauImageError(f"theta exponent {i} not divisible by {q}")
        out[(i // q, j)] = v
    return Poly(p.ring, out)


def eval_theta_power(x: GradedScalar, j: int, ctx) -> GradedScalar:
    """Specialize t at theta^(q^j).

    om^b carries a pole of order b there; a term c * pi^a * om^b needs
    ord_t(c) >= b at the point.  At exact order the limit is
    (-1)^b * (c/(t-s)^b)(s) * (pi^(q^j)/D_j)^b; above it the term dies.
    """
    ring = x.ring
    q = ctx.q
    s = Poly(ring, {(q ** j, 0): ring.field.one})
    t_minus_s = ring.t - s
    out = GradedScalar.zero(ring)
    for (a, b), c in x.terms.items():
        num, den = c.num, c.den
        alpha = num.t_order_at(s)
        beta = den.t_order_at(s)
        ord_c = alpha - beta
        if ord_c < b:
            raise EvaluationPoleError(
                f"uncancelled pole at t = theta^(q^{j}): order {ord_c} < om-grade {b}"
            )
        if ord_c > b:
            continue
        num0 = num.exact_div(t_minus_s ** alpha) if alpha else num
        den0 = den.exact_div(t_minus_s ** beta) if beta else den
        val = RatFunc(num0.subs_t_poly(s), den0.subs_t_poly(s))
        if b % 2:
            val = -val
        if b:
            dj = RatFunc(ctx.D(j), None, reduce=False)
            val = val * dj ** (-b)
        out = out + GradedScalar.from_rat(val, pi=a + b * q ** j, om=0)
    return out


def eval_root(x: GradedScalar, rctx) -> GradedScalar:
    """Specialize t at a root of unity; period grades stay opaque symbols."""
    ring2 = rctx.spec_ring
    zeta = rctx.zeta_power
    out = {}
    for (a, b), c in x.terms.items():
        den = c.den.subs_t_elt(ring2, zeta)
        if den.is_zero():
            raise EvaluationPoleError("denominator vanishes at the chosen root")
        num = c.num.subs_t_elt(ring2, zeta)
        v = RatFunc(num, den)
        if not v.is_zero():
            out[(a, b)] = v
    return GradedScalar(ring2, out)
