"""Finite-difference operators on truncated series and the system checks.

In the coordinate representation each Novikov variable acts by multiplication
and each P_i by the shift Q_i -> q Q_i followed by multiplication with the
fixed-point value P_i(alpha); the commutation P_i Q_i = q Q_i P_i holds on the
nose.  Operators built from the U_j words act diagonally in the degree basis,
which keeps every verification exact and truncation-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import SampleContext, TruncationError, ratio_table
from .series import (
    NovikovSeries,
    TruncationBox,
    cohomological_series,
    component_series,
    point_series,
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


def apply_u_word(series: NovikovSeries, data: ToricData, fp: FixedPoint, j: int,
                 ctx: SampleContext) -> NovikovSeries:
    """U_j as an operator word: the P_i shifts per the matrix column, then Lambda_j^{-1}."""
    out = series
    for i in range(data.K):
        mij = data.m[i][j]
        if mij:
            out = apply_p(out, i, fp, ctx, power=mij)
    return out.scale(1 / ctx.Lambda[j])


def apply_factor(series: NovikovSeries, data: ToricData, fp: FixedPoint, j: int,
                 r: int, ctx: SampleContext) -> NovikovSeries:
    """One relation factor: series - q^{-r} * (U_j word)(series)."""
    shifted = apply_u_word(series, data, fp, j, ctx).scale(Fraction(ctx.q) ** (-r))
    return series - shifted


def shift_by_degree(series: NovikovSeries, d0: Sequence[int]) -> NovikovSeries:
    """Multiplication by Q^{d0}, represented on the same box.

    The result's coefficient at d is the input's at d - d0; degrees pushed
    beyond the box raise only when they would actually be consulted, via the
    usual coefficient lookup, so this builds the representable part.
    """
    out = {}
    for d in series.box.degrees:
        prev = tuple(x - y for x, y in zip(d, d0))
        c = _lookup(series, prev)
        if c is not None:
            out[d] = c
    return NovikovSeries(series.box, out, series.mode)


def _lookup(series: NovikovSeries, d):
    try:
        return series.coefficient(d)
    except TruncationError:
        return None


@dataclass
class CheckResult:
    label: str
    ok: bool
    failures: list

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "ok": self.ok,
            "failures": [
                {"degree": list(d), "lhs": str(a), "rhs": str(b)}
                for d, a, b in self.failures
            ],
        }


def _compare(label: str, lhs: NovikovSeries, rhs: NovikovSeries,
             degrees: Sequence[tuple[int, ...]]) -> CheckResult:
    failures = []
    for d in degrees:
        a = lhs.coefficient(d)
        b = rhs.coefficient(d)
        if a != b:
            failures.append((d, a, b))
    return CheckResult(label=label, ok=not failures, failures=failures)


def verify_dq_system(data: ToricData, family: dict[tuple[int, ...], NovikovSeries],
                     ctx: SampleContext, verify_bound=None) -> dict:
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
        checks += verify_shifted_identity(data, family, ctx, lhs, i, rhs,
                                          verify_bound)["checks"]
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def verify_shifted_identity(data: ToricData, family: dict[tuple[int, ...], NovikovSeries],
                            ctx: SampleContext, lhs_factors: Sequence[tuple[int, int]],
                            shift_i: int, rhs_factors: Sequence[tuple[int, int]],
                            verify_bound=None) -> dict:
    """Check an identity of the form (prod lhs factors) I = Q_i (prod rhs factors) I.

    Factors are (column j, exponent r) pairs standing for 1 - q^{-r} U_j(...);
    the right-hand word is applied before the Novikov shift, exactly as written.
    With e_i effective the shift reads only lower degrees, so the components
    need to reach the verification bound and no further.
    """
    checks = []
    some_box = next(iter(family.values())).box
    bound = some_box.bound if verify_bound is None else Fraction(verify_bound)
    if bound > some_box.bound:
        raise TruncationError(
            f"insufficient truncation: verification to {bound} needs components "
            f"built to at least {bound}, have {some_box.bound}"
        )
    e_i = tuple(1 if k == shift_i else 0 for k in range(data.K))
    if not mori_cone_membership(data, e_i)[0]:
        raise TruncationError(
            f"basis degree e_{shift_i+1} leaves the effective cone; "
            "the shifted side is not representable on a truncated box"
        )
    degrees = [d for d in some_box.degrees if some_box.pairing(d) <= bound]
    for fp in enumerate_fixed_points(data):
        series = family[fp.J]
        lhs = series
        for j, r in lhs_factors:
            lhs = apply_factor(lhs, data, fp, j, r, ctx)
        pre = series
        for j, r in rhs_factors:
            pre = apply_factor(pre, data, fp, j, r, ctx)
        rhs = shift_by_degree(pre, e_i)
        name = f"relation Q_{shift_i+1} at alpha={tuple(j + 1 for j in fp.J)}"
        checks.append(_compare(name, lhs, rhs, degrees))
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
    component series exactly.
    """
    sum_form, _ = point_series(fp.q_monomials, box, ctx)
    uvals = fp.u_values(ctx.Lambda)
    rebuilt = sum_form
    for j in range(data.N):
        if j in fp.J:
            continue
        rebuilt = apply_gamma_ratio(rebuilt, data, j, uvals[j], ctx)
    direct = component_series(data, fp, box, ctx)
    return rebuilt, direct


# ---------------------------------------------------------------------------
# Cohomological degree-shift relation.
# ---------------------------------------------------------------------------


def verify_coh_relation(data: ToricData, d0: Sequence[int], box: TruncationBox,
                        ctx: SampleContext) -> dict:
    """Check Q^{d0} I = (relation word) I on every cohomological component.

    The relation word for column j with D_j(d0) = step contributes
    prod_{s=0}^{step-1}(u-op + s z), and for step < 0 the inverse finite
    product prod_{s=1}^{-step}(u-op - s z)^{-1}; the degree reading acts as
    u_j(alpha) - z D_j(d).  The inverse factors are moved across the equation
    so the comparison stays division-free:

        prod_{step_j < 0} [...] (Q^{d0} I)  =  prod_{step_j > 0} [...] I.
    """
    d0 = tuple(int(x) for x in d0)
    steps = degree_pairing(data, d0)
    checks = []
    for fp in enumerate_fixed_points(data):
        series = cohomological_series(data, fp, box, ctx)
        uvals = divisor_values(data, fp, ctx.Lambda)
        failures = []
        for d in box.degrees:
            pairing = degree_pairing(data, d)
            rhs = series.coefficient(d)
            prev = tuple(x - y for x, y in zip(d, d0))
            lhs = _lookup(series, prev)
            if lhs is None:
                continue
            for j in range(data.N):
                base = uvals[j] - pairing[j] * ctx.z
                if steps[j] > 0:
                    for s in range(steps[j]):
                        rhs *= base + s * ctx.z
                elif steps[j] < 0:
                    for s in range(1, -steps[j] + 1):
                        lhs *= base - s * ctx.z
            if lhs != rhs:
                failures.append((d, lhs, rhs))
        checks.append(CheckResult(
            label=f"Q^{d0} relation at alpha={tuple(j + 1 for j in fp.J)}",
            ok=not failures, failures=failures))
    return {"ok": all(c.ok for c in checks), "checks": [c.as_dict() for c in checks]}
