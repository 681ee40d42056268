"""The weak weight -1 pair and the twisted difference equations.

Dividing the weight-one series by the cusp form and untwisting recovers
the two coordinate series of the Legendre-type pair.  Both satisfy
twisted difference equations of order two; the one for the second
coordinate carries an explicit inhomogeneous term built from the first.
"""

from carlitz_vmf.carlitz import b_poly_twist
from carlitz_vmf.context import Context
from carlitz_vmf.forms import gen_Delta, gen_g
from carlitz_vmf.polys import RatFunc
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.vmf import (eis1, legendre_fstar, tau_omega_inv, tau_vmf,
                             det_pair, lambda_1)
from carlitz_vmf.forms import gen_h

q = 3
N = 30
ctx = Context(q)

fstar, d2, d3 = legendre_fstar(ctx, N)
print("first coordinate series (negated):")
print("  d2 =", d2, "\n")
print("second gauge coordinate:")
print("  d3 =", d3, "\n")

# the Wronskian-type pairing against the twist
h = gen_h(ctx, N)
pairing = det_pair(fstar, tau_vmf(fstar))
expect = h.series.inverse().scale(lambda_1(ctx))
print("det[F*, tau F*] == lambda_1 / h:", pairing.series.eq_to_prec(expect))

# the second-order twisted equation for d3
g = gen_g(ctx, N).series
Delta = gen_Delta(ctx, N).series
b0 = b_poly_twist(ctx, 1, 0)  # t - theta
b1 = b_poly_twist(ctx, 1, 1)  # t - theta^q
inner = d2 + (d2 - g * d2.tau()).scale(
    GradedScalar.from_rat(RatFunc(ctx.ring.one, b1))).shift(-(q - 1))
psi = inner.shift(-1).scale(tau_omega_inv(ctx))
rhs = (Delta * d3.tau().tau()).scale(GradedScalar.from_poly(b1)) \
    + g * d3.tau() + psi
print("d3 == (t - theta^q) Delta tau^2(d3) + g tau(d3) + psi:",
      d3.eq_to_prec(rhs))

# and the weight-one series' own difference equation, in gauge form
Y = eis1(ctx, N).scale(GradedScalar.from_poly(-b0, 0, 1))
tY = tau_vmf(Y)
ttY = tau_vmf(tY)
DeltaB = Delta.scale(GradedScalar.from_poly(b1))
ok = all(
    getattr(ttY, c).eq_to_prec(getattr(Y, c) * DeltaB + getattr(tY, c) * g ** q)
    for c in ("h1", "h3"))
print("tau^2(E_1/L) == (t - theta^q) Delta (E_1/L) + g^q tau(E_1/L):", ok)
