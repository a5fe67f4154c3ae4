"""Localization sums: the K-theoretic trace and equivariant integrals.

The trace of a class Phi(P) is the sum over fixed points of
Phi(P(alpha)) / prod_{j off alpha}(1 - U_j(alpha)); for Phi = 1 this is the
holomorphic Euler characteristic of the structure sheaf.  The cohomological
integral is the analogous residue sum with the additive parameters, and the
map-space integral extends it to spaces of degree-d spheres.
"""

from fractions import Fraction

from qtoric.exprs import parse_expression
from qtoric.localization import cohomology_integral, ktheory_trace, map_space_integral
from qtoric.models import hirzebruch, projective_space
from qtoric.scalars import sample_context

f1 = hirzebruch()
ctx = sample_context(f1.N, seed=5)

print("trace of 1 on the Hirzebruch surface (several samples):")
for i in range(3):
    c = sample_context(f1.N, seed=5, index=i)
    print(f"  sample {i}: {ktheory_trace(f1, lambda env: Fraction(1), c)}")
print()

phi = parse_expression("3*P1^2*P2 - P1 + 5/2")
print(f"trace of {'3*P1^2*P2 - P1 + 5/2'!r}: {ktheory_trace(f1, phi, ctx)}")
print("(a sample-dependent exact rational; rerun with another seed to see it move)")
print()

p1 = projective_space(1)
ctx1 = sample_context(p1.N, seed=9)
print("equivariant integrals over the projective line:")
print(f"  integral of 1 (dimension axiom): "
      f"{cohomology_integral(p1, lambda e: Fraction(1), ctx1)}")
point = parse_expression("p1 - l2")
print(f"  integral of the point class: {cohomology_integral(p1, point, ctx1)}")
print()

print("integration over the space of degree-1 spheres in the line:")
print(f"  integral of 1: {map_space_integral(p1, (1,), lambda e: Fraction(1), ctx1)}")
top = parse_expression("(p1 - l1)*(p1 - l2)*(p1 - l2 - z)")
print(f"  integral of a top class: {map_space_integral(p1, (1,), top, ctx1)}")
print(f"  degree 0 reduces to the plain integral: "
      f"{map_space_integral(p1, (0,), point, ctx1) == cohomology_integral(p1, point, ctx1)}")
