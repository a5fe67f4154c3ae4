"""Finite-difference operators on truncated series and the system checks.

In the coordinate representation each Novikov variable acts by multiplication
and each P_i by the shift Q_i -> q Q_i followed by multiplication with the
fixed-point value P_i(alpha); the commutation P_i Q_i = q Q_i P_i holds on the
nose.  So the U_j words act diagonally: a relation word scales the
coefficient at Q^d once, by the product over its factors 1 - q^{-r} U_j of
1 - q^{sum_i m_ij d_i - r} prod_i P_i(alpha)^{m_ij} / Lambda_j, read from the
P-monomials and the matrix rather than from U_j(alpha) and D_j(d), which
build the components it checks.  The checks compute their own exponents and
depths (never the box's cached pairings), and build each distinct multiplier
or product of small factors once per call, so a degree costs one lookup and
one big-by-small product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from typing import Sequence

from .scalars import SampleContext, TruncationError, ratio_table
from .series import (
    NovikovSeries,
    TruncationBox,
    component_series,
    point_sum_form,
)
from .toric import (
    FixedPoint,
    ToricData,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    mori_cone_membership,
)


def apply_translation(series: NovikovSeries, i: int, q) -> NovikovSeries:
    """Q_i -> q Q_i: the coefficient at d picks up q^{d_i}."""
    return series.map_with_degree(lambda d, c: c * q ** d[i])


def apply_p(series: NovikovSeries, i: int, fp: FixedPoint, ctx: SampleContext,
            power: int = 1) -> NovikovSeries:
    """The shift operator P_i on an alpha-component, composed ``power`` times.

    One application is translate-then-scale by P_i(alpha); negative powers
    compose the exact inverse (scale by P_i(alpha)^{-1}, then untranslate).
    """
    p_value = fp.p_monomials[i].evaluate(ctx.Lambda)
    out = series
    for _ in range(abs(power)):
        if power > 0:
            out = apply_translation(out, i, ctx.q).scale(p_value)
        else:
            out = apply_translation(out.scale(1 / p_value), i, 1 / ctx.q)
    return out


def apply_word(series: NovikovSeries, data: ToricData, fp: FixedPoint,
               factors: Sequence[tuple[int, int]], ctx: SampleContext) -> NovikovSeries:
    """The relation word prod (1 - q^{-r} U_j) over ``factors``' (j, r) pairs, in one pass.

    U_j = prod_i P_i^{m_ij} / Lambda_j, and each P_i translates Q_i -> q Q_i
    and scales by P_i(alpha), so at each degree d the coefficient is
    multiplied once by the product over the factors t = (j, r) of
    1 - q^{k_t - r} w_t, with k_t = sum_i m_ij d_i read from column j of the
    matrix and w_t = prod_i P_i(alpha)^{m_ij} / Lambda_j from the P-monomials
    (the operator side), not from U_j(alpha) or the pairings D_j(d), which
    keeps the check independent of the components.  The multiplier depends
    on d only through the exponent tuple (k_t), so each distinct tuple's
    product is built once per call and looked up at every later degree.
    """
    pvals = fp.p_values(ctx.Lambda)
    columns = [[(i, row[j]) for i, row in enumerate(data.m) if row[j]] for j, _ in factors]
    terms = [(r, prod((pvals[i] ** m for i, m in column), start=1 / ctx.Lambda[j]))
             for column, (j, r) in zip(columns, factors)]

    @cache
    def multiplier(ks):
        return prod(1 - ctx.q ** (k - r) * weight for k, (r, weight) in zip(ks, terms))
    return series.map_with_degree(lambda d, c: c * multiplier(
        tuple(sum(m * d[i] for i, m in column) for column in columns)))


def shift_by_degree(series: NovikovSeries, d0: Sequence[int]) -> NovikovSeries:
    """Multiplication by Q^{d0}, represented on the same box.

    Each stored degree d is re-keyed to d + d0 and kept when the box holds
    it.  Stored coefficients all lie in the box, and a degree outside the box
    or the effective cone reads 0, so the result's coefficient at every box
    degree d is the input's at d - d0.
    """
    moved = ((tuple(x + y for x, y in zip(d, d0)), c) for d, c in series.coeffs.items())
    return NovikovSeries(series.box, {d: c for d, c in moved if series.box.contains(d)},
                         series.mode)


@dataclass
class CheckResult:
    label: str
    ok: bool
    failures: list

    def as_dict(self) -> dict:
        failures = [{"degree": list(d), "lhs": str(a), "rhs": str(b)} for d, a, b in self.failures]
        return {"label": self.label, "ok": self.ok, "failures": failures}


def _compare(label: str, lhs: NovikovSeries, rhs: NovikovSeries,
             degrees: Sequence[tuple[int, ...]]) -> CheckResult:
    """Compare two series of one box at ``degrees``, all of them box degrees."""
    failures = []
    for d in degrees:
        a = lhs.coeffs.get(d, 0)
        b = rhs.coeffs.get(d, 0)
        if a != b:
            failures.append((d, a, b))
    return CheckResult(label=label, ok=not failures, failures=failures)


def verify_dq_system(data: ToricData, family: dict[tuple[int, ...], NovikovSeries],
                     ctx: SampleContext) -> dict:
    """Check the finite-difference system on every fixed-point component.

    For each basis direction i the displayed relation is rearranged (the
    negative-exponent ratio factors cross the equation) and the right-hand word
    commuted through Q_i by U_j Q_i = q^{m_ij} Q_i U_j, into

        prod_{j: m_ij > 0} prod_{r=0}^{m_ij - 1} (1 - q^{-r} U_j)  I
            = Q_i prod_{j: m_ij < 0} prod_{r=0}^{-m_ij - 1} (1 - q^{-r} U_j)  I,

    which ``verify_shifted_identity`` checks exactly, one row of the matrix at a time.
    """
    checks = []
    for i, row in enumerate(data.m):
        lhs = [(j, r) for j, mij in enumerate(row) for r in range(mij)]
        rhs = [(j, r) for j, mij in enumerate(row) for r in range(-mij)]
        checks += verify_shifted_identity(data, family, ctx, lhs, i, rhs)["checks"]
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def verify_shifted_identity(data: ToricData, family: dict[tuple[int, ...], NovikovSeries],
                            ctx: SampleContext, lhs_factors: Sequence[tuple[int, int]],
                            shift_i: int, rhs_factors: Sequence[tuple[int, int]]) -> dict:
    """Check an identity of the form (prod lhs factors) I = Q_i (prod rhs factors) I.

    Factors are (column j, exponent r) pairs standing for 1 - q^{-r} U_j(...);
    the right-hand word is applied before the Novikov shift, exactly as written.
    With e_i effective the shift reads only lower degrees, so every degree of
    the components' own box is checked.
    """
    checks = []
    box = next(iter(family.values())).box
    e_i = tuple(1 if k == shift_i else 0 for k in range(data.K))
    if not mori_cone_membership(data, e_i)[0]:
        raise TruncationError(
            f"basis degree e_{shift_i+1} leaves the effective cone; "
            "the shifted side is not representable on a truncated box"
        )
    for fp in enumerate_fixed_points(data):
        series = family[fp.J]
        lhs = apply_word(series, data, fp, lhs_factors, ctx)
        rhs = shift_by_degree(apply_word(series, data, fp, rhs_factors, ctx), e_i)
        name = f"relation Q_{shift_i+1} at alpha={tuple(j + 1 for j in fp.J)}"
        checks.append(_compare(name, lhs, rhs, box.degrees))
    return {"ok": all(c.ok for c in checks), "checks": [c.as_dict() for c in checks]}


def apply_gamma_ratio(series: NovikovSeries, data: ToricData, j: int, lam_value,
                      ctx: SampleContext) -> NovikovSeries:
    """The ratio of Gamma-operator symbols attached to column j, in finite form.

    Acting on Q^d it multiplies by finite_ratio(lam, D_j(d), q), read from one
    table over the depths of the support; no infinite products are ever
    materialized.
    """
    depth = {d: degree_pairing(data, d)[j] for d in series.coeffs}
    table = ratio_table(lam_value, depth.values(), ctx.q)
    return series.map_with_degree(lambda d, c: c * table[depth[d]])


def gamma_reconstruction(data: ToricData, fp: FixedPoint, box: TruncationBox,
                         ctx: SampleContext) -> tuple[NovikovSeries, NovikovSeries]:
    """Rebuild the fixed-point component from the point series.

    Applying, for every column off the fixed point, the Gamma-ratio operator
    with weight U_j(alpha) to the point-series sum form must reproduce the
    component series exactly.  Only the sum form is built: its agreement with
    the q-exponential is ``point_series``'s own check.
    """
    rebuilt = point_sum_form(fp.q_monomials, box, ctx)
    uvals = fp.u_values(ctx.Lambda)
    for j in range(data.N):
        if j not in fp.J:
            rebuilt = apply_gamma_ratio(rebuilt, data, j, uvals[j], ctx)
    return rebuilt, component_series(data, fp, box, ctx)


# ---------------------------------------------------------------------------
# Cohomological degree-shift relation.
# ---------------------------------------------------------------------------


def verify_coh_relation(data: ToricData, d0: Sequence[int],
                        family: dict[tuple[int, ...], NovikovSeries],
                        ctx: SampleContext) -> dict:
    """Check Q^{d0} I = (relation word) I on every cohomological component in ``family``.

    The relation word for column j with D_j(d0) = step contributes
    prod_{s=0}^{step-1}(u-op + s z), and for step < 0 the inverse finite
    product prod_{s=1}^{-step}(u-op - s z)^{-1}; the degree reading acts as
    u_j(alpha) - z D_j(d).  The inverse factors move across the equation, so the
    comparison stays division-free; each side meets the coefficient as one product:

        prod_{step_j < 0} [...] (Q^{d0} I)  =  prod_{step_j > 0} [...] I.

    The depths D_j(d) come from this module's own ``degree_pairing``, once per
    call and only at the columns each side steps; per fixed point each side's
    product is built once per distinct depth tuple.
    """
    d0 = tuple(int(x) for x in d0)
    steps = degree_pairing(data, d0)
    # Column j contributes u_j - z (D_j(d) - s) for s in shifts[j], on the
    # left when its step is negative and on the right when it is positive.
    shifts = [range(step, 0) if step < 0 else range(step) for step in steps]
    sides = ([j for j, step in enumerate(steps) if step < 0],
             [j for j, step in enumerate(steps) if step > 0])
    box = next(iter(family.values())).box
    depths = [tuple(tuple(pairing[j] for j in cols) for cols in sides)
              for pairing in (degree_pairing(data, d) for d in box.degrees)]
    checks = []
    for fp in enumerate_fixed_points(data):
        series = family[fp.J]
        uvals = divisor_values(data, fp, ctx.Lambda)

        @cache
        def product(side, depth):
            return prod(uvals[j] - (D - s) * ctx.z
                        for j, D in zip(sides[side], depth) for s in shifts[j])

        failures = []
        for d, (left, right) in zip(box.degrees, depths):
            try:
                lhs = series.coefficient(tuple(x - y for x, y in zip(d, d0)))
            except TruncationError:
                continue
            lhs *= product(0, left)
            rhs = series.coeffs.get(d, 0) * product(1, right)
            if lhs != rhs:
                failures.append((d, lhs, rhs))
        checks.append(CheckResult(
            label=f"Q^{d0} relation at alpha={tuple(j + 1 for j in fp.J)}",
            ok=not failures, failures=failures))
    return {"ok": all(c.ok for c in checks), "checks": [c.as_dict() for c in checks]}
