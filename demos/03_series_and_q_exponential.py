"""The q-hypergeometric series attached to each fixed point.

Per fixed point, the coefficient of Q^d is a product of universal finite
ratios; the piece supported on the fixed point's own cone collapses to the
point-target series, which satisfies an exact q-exponential identity: the
plain sum over the cone equals the exponential of divided powers.
"""

from qtoric.models import hirzebruch
from qtoric.scalars import sample_context
from qtoric.series import (
    NovikovSeries,
    adams,
    assemble_series,
    point_series,
    series_exp,
    truncation_box,
)
from qtoric.toric import enumerate_fixed_points

data = hirzebruch()
box = truncation_box(data, 3)
ctx = sample_context(data.N, seed=21)

print(f"series on the box of effective degrees with pairing <= {box.bound}:")
family = assemble_series(data, box, ctx)
for J, series in sorted(family.items()):
    label = tuple(j + 1 for j in J)
    support = tuple(sorted(series.coeffs))
    print(f"  alpha = {label}: {len(support)} nonzero coefficients, "
          f"support {support}")
print(f"  note alpha = (2, 4) has no Q^(1,0) term: that degree pairs to -1 "
      f"with its own column 4 (coefficient {family[(1, 3)].coefficient((1, 0))})")
print()

print("q-exponential identity at each fixed point (exact, sampled q):")
# q_monomials are the dual-cone generators Q_j, exponent tuples over Q_1..Q_K.
for fp in enumerate_fixed_points(data):
    pair = point_series(fp.q_monomials, box, ctx)
    print(f"  alpha = {tuple(j+1 for j in fp.J)}: sum form == exp form: "
          f"{pair.sum_form == pair.exp_form}")
print()

print("the same identity rebuilt through Adams operations (sampled q):")
# tau has q-free coefficients, so Psi^k only moves degrees (Q^g -> Q^{kg});
# the q -> q^k coupling is the weight 1/k(1-q^k).
fp = enumerate_fixed_points(data)[0]
pair = point_series(fp.q_monomials, box, ctx)
tau = NovikovSeries(box, {g: 1 for g in fp.q_monomials})
arg = {}
k = 1
while True:
    term = adams(tau, k)
    if not term.coeffs:
        break
    for d, c in term.scale(1 / (k * (1 - ctx.q ** k))).coeffs.items():
        arg[d] = arg.get(d, 0) + c
    k += 1
print(f"  exp(sum_k Psi^k(tau)/k(1-q^k)) == both forms: "
      f"{series_exp(NovikovSeries(box, arg)) == pair.exp_form == pair.sum_form}")
