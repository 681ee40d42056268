"""Hecke operators on the gauge pairs, and the first eigenforms.

The operator at a monic prime p acts coset by coset; on the second gauge
coordinate two correction terms appear, produced by the functional
equation of the Anderson generating function.  The weight-one series is
an eigenform with eigenvalue p; the cuspidal h F* shares that eigenvalue
one weight up, and the weight-(q+2) form is checked experimentally.
"""

from carlitz_vmf.context import Context
from carlitz_vmf.forms import gen_h
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.vmf import eis1, eis_q, hecke, legendre_fstar

q = 3
N = 30
ctx = Context(q)

theta = (ctx.base_field.zero, ctx.base_field.one)
theta1 = (ctx.base_field.from_int(1), ctx.base_field.one)

e1 = eis1(ctx, N)
for p in (theta, theta1):
    T = hecke(ctx, p, e1)
    expect = e1.scale(GradedScalar.from_poly(ctx.apoly(p)))
    print(f"T_p E_1 == p E_1 at p={p}:", T.first_difference(expect) is None)

eqf = eis_q(ctx, N)
T = hecke(ctx, theta, eqf)
print("T_p E_q == p^q E_q:",
      T.first_difference(
          eqf.scale(GradedScalar.from_poly(ctx.apoly(theta) ** q))) is None)

fstar, _, _ = legendre_fstar(ctx, N)
hf = fstar.mul_classical(gen_h(ctx, N))
T = hecke(ctx, theta, hf)
print("T_p(h F*) == p h F*:",
      T.first_difference(hf.scale(GradedScalar.from_poly(ctx.apoly(theta)))) is None)

# total multiplicativity
both = hecke(ctx, theta, hecke(ctx, theta1, e1))
expect = e1.scale(GradedScalar.from_poly(ctx.apoly(theta) * ctx.apoly(theta1)))
print("T_p T_q E_1 == pq E_1:", both.first_difference(expect) is None)

# the experimental weight q+2 eigenvalue
he1 = e1.mul_classical(gen_h(ctx, N))
T = hecke(ctx, theta, he1)
expect = he1.scale(GradedScalar.from_poly(ctx.apoly(theta) ** 2))
d = T.first_difference(expect)
print("\nexperimental: T_p(h E_1) vs p^2 h E_1:",
      "equal to computed precision" if d is None else f"differs at {d[:2]}")
