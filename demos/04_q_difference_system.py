"""The finite-difference system satisfied by the series family.

In the coordinate representation the shift operator of each Novikov variable
acts on a fixed-point component by Q_i -> q Q_i followed by multiplication
with P_i(alpha); the series then satisfies, for each basis direction, an
exact operator identity whose factors are 1 - q^{-r} U_j(shift word).
"""

from qtoric.models import hirzebruch, projective_space
from qtoric.qdiff import (
    gamma_reconstruction,
    verify_coh_relation,
    verify_dq_system,
    verify_shifted_identity,
)
from qtoric.scalars import sample_context
from qtoric.series import assemble_cohomological_series, assemble_series, truncation_box
from qtoric.toric import enumerate_fixed_points

p1 = projective_space(1)
box = truncation_box(p1, 4)
ctx = sample_context(p1.N, seed=33)
family = assemble_series(p1, box, ctx)
report = verify_dq_system(p1, family, ctx)
print("projective line: (1 - U_1(op))(1 - U_2(op)) I = Q I")
for check in report["checks"]:
    print(f"  {check['label']}: ok = {check['ok']}")
print()

f1 = hirzebruch()
box = truncation_box(f1, 5)
ctx = sample_context(f1.N, seed=35)
family = assemble_series(f1, box, ctx)
print("Hirzebruch surface, the two rearranged equations in coordinate form:")
first = verify_shifted_identity(f1, family, ctx, lhs_factors=[(0, 0), (1, 0)],
                                shift_i=0, rhs_factors=[(3, 0)])
second = verify_shifted_identity(f1, family, ctx, lhs_factors=[(2, 0), (3, 0)],
                                 shift_i=1, rhs_factors=[])
print(f"  (1-U_1)(1-U_2) I = Q_1 (1-U_4) I : ok = {first['ok']}")
print(f"  (1-U_3)(1-U_4) I = Q_2 I         : ok = {second['ok']}")
print()

print("Gamma-ratio operators rebuild each component from the point series:")
for fp in enumerate_fixed_points(f1):
    rebuilt, direct = gamma_reconstruction(f1, fp, box, ctx)
    print(f"  alpha = {tuple(j+1 for j in fp.J)}: {rebuilt == direct}")
print()

print("cohomological degree-shift relations (division-free arrangement):")
coh_family = assemble_cohomological_series(f1, box, ctx)
for d0 in [(1, 0), (0, 1), (1, 1)]:
    ok = verify_coh_relation(f1, d0, coh_family, ctx)["ok"]
    print(f"  Q^{d0} relation: ok = {ok}")
