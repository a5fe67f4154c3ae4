"""Relation words and the cohomological relation evaluated afresh at every degree.

``word_multiplier`` is the multiplier of a relation word at one degree d,
prod over its factors (j, r) of 1 - q^{sum_i m_ij d_i - r} prod_i
P_i(alpha)^{m_ij} / Lambda_j, with every power and product rebuilt at each
degree; ``apply_word`` scales a series by it.  ``verify_coh_relation``
rebuilds both sides' products of small factors at every degree of every
fixed point from ``degree_pairing``.  ``qtoric.qdiff`` builds each distinct
multiplier or product once per call and looks it up; these are the formulas
it must agree with at every box degree.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from qtoric.qdiff import CheckResult
from qtoric.scalars import SampleContext, TruncationError
from qtoric.series import NovikovSeries
from qtoric.toric import (
    FixedPoint,
    ToricData,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
)


def word_multiplier(data: ToricData, fp: FixedPoint, factors: Sequence[tuple[int, int]],
                    ctx: SampleContext):
    """The word's multiplier as a function of the degree d."""
    pvals = fp.p_values(ctx.Lambda)
    columns = [[row[j] for row in data.m] for j, _ in factors]
    terms = [(column, r, prod(map(pow, pvals, column), start=1 / ctx.Lambda[j]))
             for column, (j, r) in zip(columns, factors)]

    def multiplier(d):
        return prod(1 - ctx.q ** (sum(m * x for m, x in zip(column, d)) - r) * weight
                    for column, r, weight in terms)
    return multiplier


def apply_word(series: NovikovSeries, data: ToricData, fp: FixedPoint,
               factors: Sequence[tuple[int, int]], ctx: SampleContext) -> NovikovSeries:
    multiplier = word_multiplier(data, fp, factors, ctx)
    return series.map_with_degree(lambda d, c: c * multiplier(d))


def verify_coh_relation(data: ToricData, d0: Sequence[int],
                        family: dict[tuple[int, ...], NovikovSeries],
                        ctx: SampleContext) -> dict:
    """Q^{d0} I = (relation word) I, both sides' products rebuilt at every degree."""
    d0 = tuple(int(x) for x in d0)
    steps = degree_pairing(data, d0)
    checks = []
    box = next(iter(family.values())).box
    for fp in enumerate_fixed_points(data):
        series = family[fp.J]
        uvals = divisor_values(data, fp, ctx.Lambda)
        failures = []
        for d in box.degrees:
            try:
                lhs = series.coefficient(tuple(x - y for x, y in zip(d, d0)))
            except TruncationError:
                continue
            bases = [u - D * ctx.z for u, D in zip(uvals, degree_pairing(data, d))]
            lhs *= prod(b - s * ctx.z for b, step in zip(bases, steps) for s in range(1, 1 - step))
            rhs = series.coefficient(d) * prod(b + s * ctx.z
                                               for b, step in zip(bases, steps) for s in range(step))
            if lhs != rhs:
                failures.append((d, lhs, rhs))
        checks.append(CheckResult(
            label=f"Q^{d0} relation at alpha={tuple(j + 1 for j in fp.J)}",
            ok=not failures, failures=failures))
    return {"ok": all(c.ok for c in checks), "checks": [c.as_dict() for c in checks]}
