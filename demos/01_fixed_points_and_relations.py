"""Walk through the combinatorial layer on the first Hirzebruch surface.

The model is the 2 x 4 matrix whose columns are the divisor classes
u_1 = u_2 = p_1, u_3 = p_2, u_4 = p_2 - p_1, together with a chamber point in
the open first quadrant.  Everything below is exact.
"""

from qtoric import (
    degree_pairing,
    enumerate_fixed_points,
    format_monomial,
    kirwan_relations,
    mori_cone_membership,
    mori_generators,
    sample_context,
    spectrum_point_count,
    verify_relations_at_fixed_points,
)
from qtoric.models import hirzebruch

data = hirzebruch()
names = data.lambda_names

print(f"model {data.name}: K={data.K}, N={data.N}, omega={data.omega}")
print()

print("fixed points (column subsets whose cone contains omega):")
# P_i and U_j are Laurent monomials in the parameters, stored as exponent tuples.
for fp in enumerate_fixed_points(data):
    one_based = tuple(j + 1 for j in fp.J)
    p_str = ", ".join(format_monomial(m, names) for m in fp.p_monomials)
    u_str = ", ".join(format_monomial(m, names) for m in fp.u_monomials)
    print(f"  J = {one_based}  det = {fp.det:+d}   P = ({p_str})   U = ({u_str})")
print()

print("degree pairings D_j(d) = sum_i d_i m_ij:")
for d in [(1, 0), (0, 1), (1, 1)]:
    print(f"  D({d}) = {degree_pairing(data, d)}")
print()

print("effective-cone membership of d = (1, 0), per fixed point:")
# d lies in alpha's dual cone iff D_j(d) >= 0 for every j in J(alpha).
pairing = degree_pairing(data, (1, 0))
for fp in enumerate_fixed_points(data):
    print(f"  alpha = {tuple(j+1 for j in fp.J)}: {all(pairing[j] >= 0 for j in fp.J)}")
overall = mori_cone_membership(data, (1, 0))
print(f"  overall: {overall};  cone generators: {mori_generators(data)}")
print()

print("minimal multiplicative relations (empty-intersection subsets):")
for rel in kirwan_relations(data):
    factors = " * ".join(f"(1 - U_{j+1})" for j in rel)
    print(f"  {factors} = 0")

ctx = sample_context(data.N, seed=7)
report = verify_relations_at_fixed_points(data, ctx)
print(f"relations vanish on every fixed point: {report['ok']}")
count = spectrum_point_count(data, ctx)
print(f"isolated solutions of the relation equations at a generic sample: {count}")
