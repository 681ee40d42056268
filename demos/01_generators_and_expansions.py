"""Classical generators and their u-expansions.

Builds the generators g, h, Delta, E over F_3[theta] as exact truncated
u-expansions, prints their leading terms, and confirms the two classical
identities that tie them together: the expansion of g with its long gap,
and Delta = -h^(q-1).
"""

from carlitz_vmf.context import Context
from carlitz_vmf.forms import gen_Delta, gen_E, gen_g, gen_h, gen_h_derivation

q = 3
N = 40
ctx = Context(q)

g = gen_g(ctx, N)
h = gen_h(ctx, N)
Delta = gen_Delta(ctx, N)
E = gen_E(ctx, N)

print(f"working over F_{q}(theta), truncation O(u^{N})\n")
print("g      =", g.series, "\n")
print("h      =", h.series, "\n")
print("Delta  =", Delta.series, "\n")
print("E      =", E.series, "\n")

print("weight/type: g", (g.weight, g.type_), " h", (h.weight, h.type_),
      " Delta", (Delta.weight, Delta.type_), " E", (E.weight, E.type_))

# the gap in g: between u^(q-1) and u^((q-1)(q^2-q+1)) nothing survives
v = q - 1
gap = [n for n in range(v + 1, v * (q * q - q + 1))
       if not g.series.coeff(n).is_zero()]
print("\nnonzero g-coefficients inside the gap:", gap or "none")

# Delta against the h-power
print("Delta == -h^(q-1):",
      Delta.series.eq_to_prec(-(h.series ** (q - 1))))

# h has two independent constructions: the monic-indexed expansion
# -sum a^q u(az) (gen_h) and the weight-raising derivation of g; they
# agree coefficient by coefficient
h2 = gen_h_derivation(ctx, N)
print("h from the derivation == h from the monic expansion:",
      h2.series.eq_to_prec(h.series))
