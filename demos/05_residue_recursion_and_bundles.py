"""Simple poles in q and the recursion connecting neighboring fixed points.

Away from roots of unity, the poles of a component's coefficients sit at the
inverse m-th roots of the cotangent character of an invariant sphere.  With
the character sampled as an exact m-th power, both the residue and its
predicted value through the neighbor component are exact rationals, and the
proportionality constant doubles as an equivariant Euler class computed
independently from binary-form weights.
"""

from qtoric.models import hirzebruch, projective_space
from qtoric.recursion import (
    all_orbits,
    edge_euler_class,
    edge_euler_class_from_forms,
    root_context,
    verify_residue_recursion,
)
from qtoric.scalars import sample_context
from qtoric.series import BundleData, component_series, truncation_box
from qtoric.toric import enumerate_fixed_points

f1 = hirzebruch()
box = truncation_box(f1, 3)
print("all eight edges of the Hirzebruch fixed-point graph, m = 1 and 2:")
for orbit in all_orbits(f1):
    for m in (1, 2):
        report = verify_residue_recursion(f1, orbit, m, box, seed=41)
        print(f"  alpha {report['alpha']} --j0={report['j0']}--> beta {report['beta']}"
              f"  m={m}: recursion ok = {report['ok']},"
              f" euler oracle agrees = {report['euler_oracle_agrees']}")
print()

p1 = projective_space(1)
orbit = all_orbits(p1)[0]
ctx, mu = root_context(p1, orbit, 2, seed=43)
u = orbit.alpha.u_values(ctx.Lambda)  # the U values at the orbit's alpha end
c_formula = edge_euler_class(p1, orbit, 2, u, mu)
c_oracle = edge_euler_class_from_forms(p1, orbit, 2, u, mu)
print(f"double cover of the line's orbit: mu = {mu}")
print(f"  Euler class from the residue arrangement: {c_formula}")
print(f"  Euler class from binary-form weights:     {c_oracle}")
print()

p2 = projective_space(2)
box2 = truncation_box(p2, 4)
ctx2 = sample_context(p2.N, seed=47)
even = BundleData(exponents=((1, 2),), parity="E")
odd = BundleData(exponents=((1, 2),), parity="PiE")
print("split bundle O(1) + O(2) over the plane: twisted series factors")
fp = enumerate_fixed_points(p2)[0]
plain = component_series(p2, fp, box2, ctx2)
series = component_series(p2, fp, box2, ctx2, bundle=even)
odd_series = component_series(p2, fp, box2, ctx2, bundle=odd)
for d in [(0,), (1,), (2,)]:
    fe = series.coefficient(d) / plain.coefficient(d)
    fo = odd_series.coefficient(d) / plain.coefficient(d)
    print(f"  degree {d}: even factor * odd factor = {fe * fo}")
print(f"  twisted component constant term: {series.coefficient((0,))}")
