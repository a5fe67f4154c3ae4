"""Component coefficients as per-degree products of whole tables, for the tests.

``ratio_products`` tabulates every column's universal ratio over the depths
the box needs (``ratio_table`` at a numeric q or z, ``root_table`` for the
leading terms at a root point q0) and multiplies the N table entries of each
degree.  It shares the factors with ``qtoric.series``'s walk over the box,
but none of the walk: no neighbours, no crossed depths, no zero test.
``bundle_factor`` is a bundle's fibre contribution at one degree, each
summand's ratio rebuilt from r = 1 by a ``ratio_table`` of its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Sequence

from qtoric.scalars import (
    LeadingTerm,
    PoleError,
    SampleContext,
    ratio_table,
    root_factor,
)
from qtoric.series import BundleData
from qtoric.toric import FixedPoint, ToricData, degree_pairing, divisor_values


def divide(a: LeadingTerm, b: LeadingTerm) -> LeadingTerm:
    """The leading term of a quotient: orders subtract and leads divide."""
    return LeadingTerm(a.order - b.order, a.lead / b.lead)


def root_table(u_value, depths, q0) -> dict[int, LeadingTerm]:
    """``ratio_table``'s leading terms at q = q0 (1 + eps), by the same running product."""
    kernel = root_factor(u_value, q0)

    def factor(r):
        num, den, order = kernel(r)
        return LeadingTerm(order, Fraction(num, den))
    depths = set(depths)
    table = {0: LeadingTerm(0, Fraction(1))}
    value = table[0]
    for r in range(1, max(depths, default=0) + 1):
        value = divide(value, factor(r))
        table[r] = value
    value = table[0]
    for r in range(0, min(depths, default=0), -1):
        value *= factor(r)
        table[r - 1] = value
    return table


def ratio_products(data, fp, box, table) -> dict:
    """prod_j table(j, depths)[D_j(d)] at every box degree d in alpha's dual cone.

    ``table(j, depths)`` is called once per column, in column order, with the
    depths of the kept degrees only.
    """
    kept = {}
    for d in box.degrees:
        pairing = degree_pairing(data, d)
        if all(pairing[j] >= 0 for j in fp.J):
            kept[d] = pairing
    tables = [table(j, {pairing[j] for pairing in kept.values()}) for j in range(data.N)]
    return {d: reduce(mul, (t[D] for t, D in zip(tables, pairing)))
            for d, pairing in kept.items()}


def component_coefficients(data, fp, box, ctx) -> dict:
    uvals = fp.u_values(ctx.Lambda)
    return ratio_products(data, fp, box, lambda j, depths: ratio_table(uvals[j], depths, ctx.q))


def cohomological_coefficients(data, fp, box, ctx) -> dict:
    uvals = divisor_values(data, fp, ctx.Lambda)
    return ratio_products(data, fp, box,
                          lambda j, depths: ratio_table(uvals[j], depths, z=ctx.z))


def residues(data, fp, box, ctx, q0) -> dict:
    uvals = fp.u_values(ctx.Lambda)
    terms = ratio_products(data, fp, box, lambda j, depths: root_table(uvals[j], depths, q0))
    return {d: term.residue() for d, term in terms.items()}


def bundle_factor(data: ToricData, fp: FixedPoint, bundle: BundleData,
                  d: Sequence[int], ctx: SampleContext) -> Fraction:
    """The fiber contribution at one degree: prod_a of the ratio of lam V_a at
    depth Delta_a, to the power +-1."""
    pvals = fp.p_values(ctx.Lambda)
    fibers = bundle.fiber_values(pvals)
    deltas = bundle.delta(d)
    out = Fraction(1)
    for a in range(bundle.L):
        fr = ratio_table(ctx.lam * fibers[a], (deltas[a],), ctx.q)[deltas[a]]
        if bundle.parity == "E":
            out = out * fr
        else:
            if fr == 0:
                raise PoleError(0, ctx.lam * fibers[a])
            out = out / fr
    return out


def bundle_coefficients(data, fp, box, ctx, bundle) -> dict:
    """``component_coefficients`` times ``bundle_factor``, degree by degree in box order."""
    return {d: c * bundle_factor(data, fp, bundle, d, ctx)
            for d, c in component_coefficients(data, fp, box, ctx).items()}
