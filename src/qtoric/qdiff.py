"""Finite-difference operators on truncated series and the system checks.

In the coordinate representation each Novikov variable acts by multiplication
and each P_i by the shift Q_i -> q Q_i followed by multiplication with the
fixed-point value P_i(alpha); the commutation P_i Q_i = q Q_i P_i holds on the
nose.  So the U_j words act diagonally: a relation word scales the
coefficient at Q^d once, by the product over its factors 1 - q^{-r} U_j of
1 - q^{sum_i m_ij d_i - r} prod_i P_i(alpha)^{m_ij} / Lambda_j, read from the
P-monomials and the matrix rather than from U_j(alpha) and D_j(d), which
build the components it checks.  The checks compute their own exponents and
depths (never the box's cached pairings) once per call, build each distinct
multiplier or product of small factors once per fixed point, as a product of
the integer kernels' pairs (``scalars.binomial``, ``scalars.linear``), and
make one pass over the box per fixed point with no intermediate series.  A
degree's check c L = c' R, of two coefficients and two such small products,
is one reduction (``_agree``): c' times the pair R/L, normalised once,
against c; two big coefficients are never multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .scalars import (
    SampleContext,
    TruncationError,
    binomial,
    linear,
    power_product,
    ratio_table,
)
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
    multiplied once by ``_word_multiplier`` at the exponents ``_word_exponents``.
    """
    multiplier = _word_multiplier(data, fp.p_values(ctx.Lambda), factors, ctx)
    exponents = _word_exponents(data, factors, series.coeffs)
    return NovikovSeries(series.box, {d: c * Fraction(*multiplier(ks)) for (d, c), ks
                                      in zip(series.coeffs.items(), exponents)}, series.mode)


def _word_exponents(data: ToricData, factors: Sequence[tuple[int, int]],
                    degrees) -> list[tuple[int, ...]]:
    """Per degree d, the exponents k_t = sum_i m_ij d_i of the factors t = (j, r),
    read from column j of the matrix."""
    columns = [[(i, row[j]) for i, row in enumerate(data.m) if row[j]] for j, _ in factors]
    return [tuple(sum(m * d[i] for i, m in column) for column in columns) for d in degrees]


def _word_multiplier(data: ToricData, p_values: Sequence, factors: Sequence[tuple[int, int]],
                     ctx: SampleContext):
    """ks -> prod_t 1 - q^{k_t - r} w_t over the factors t = (j, r), each distinct
    ks built once as one unnormalised pair of ints, with w_t = prod_i
    P_i(alpha)^{m_ij} / Lambda_j from the P-values (the operator side), not
    U_j(alpha): the check stays independent of the components."""
    terms = [(r, binomial(power_product((*p_values, ctx.Lambda[j]),
                                        (*(row[j] for row in data.m), -1)), ctx.q))
             for j, r in factors]

    @cache
    def multiplier(ks):
        num = den = 1
        for k, (r, f) in zip(ks, terms):
            n, d = f(k - r)
            num, den = num * n, den * d
        return num, den
    return multiplier


def _agree(c, left, c_other, right) -> bool:
    """c L == c_other R, for rationals c and c_other and the unnormalised int
    pairs ``left`` = L and ``right`` = R, by one big-by-small reduction:
    c_other times the pair R/L, normalised once, against c.  Where L = 0 it
    is c_other R == 0."""
    left_num, left_den = left
    right_num, right_den = right
    if not left_num:
        return not (c_other and right_num)
    return c_other * Fraction(right_num * left_den, right_den * left_num) == c


@dataclass
class CheckResult:
    label: str
    ok: bool
    failures: list

    def as_dict(self) -> dict:
        failures = [{"degree": list(d), "lhs": str(a), "rhs": str(b)} for d, a, b in self.failures]
        return {"label": self.label, "ok": self.ok, "failures": failures}


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
    the components' own box is checked: the right side at d is the word at
    d - e_i (``box.predecessors``) times the coefficient there, or 0 off the box.
    Each degree is one ``_agree``; a failing one reports both sides in full.
    """
    box = next(iter(family.values())).box
    e_i = tuple(1 if k == shift_i else 0 for k in range(data.K))
    if not mori_cone_membership(data, e_i)[0]:
        raise TruncationError(
            f"basis degree e_{shift_i+1} leaves the effective cone; "
            "the shifted side is not representable on a truncated box"
        )
    lhs_exponents = _word_exponents(data, lhs_factors, box.degrees)
    rhs_exponents = _word_exponents(data, rhs_factors, box.degrees)
    shifted = [next(((box.degrees[prev], rhs_exponents[prev]) for prev, i in predecessors
                     if i == shift_i), (None, None)) for predecessors in box.predecessors]
    checks = []
    for fp in enumerate_fixed_points(data):
        coeffs = family[fp.J].coeffs
        p_values = fp.p_values(ctx.Lambda)
        lhs_word = _word_multiplier(data, p_values, lhs_factors, ctx)
        rhs_word = _word_multiplier(data, p_values, rhs_factors, ctx)
        failures = []
        for d, ks, (source, source_ks) in zip(box.degrees, lhs_exponents, shifted):
            c, c_source = coeffs.get(d, 0), coeffs.get(source, 0)
            if c or c_source:
                left = lhs_word(ks)
                right = rhs_word(source_ks) if c_source else (0, 1)
                if not _agree(c, left, c_source, right):
                    failures.append((d, c * Fraction(*left), c_source * Fraction(*right)))
        checks.append(CheckResult(
            label=f"relation Q_{shift_i+1} at alpha={tuple(j + 1 for j in fp.J)}",
            ok=not failures, failures=failures))
    return {"ok": all(c.ok for c in checks), "checks": [c.as_dict() for c in checks]}


def apply_gamma_ratio(series: NovikovSeries, data: ToricData, j: int, lam_value,
                      ctx: SampleContext, pairings: dict | None = None) -> NovikovSeries:
    """The ratio of Gamma-operator symbols attached to column j, in finite form.

    Acting on Q^d it multiplies by finite_ratio(lam, D_j(d), q), read from one
    table over the depths of the support; no infinite products are ever
    materialized.  ``pairings`` maps each support degree d to this module's
    ``degree_pairing(data, d)``; it is computed here when not given.
    """
    if pairings is None:
        pairings = {d: degree_pairing(data, d) for d in series.coeffs}
    depth = {d: pairings[d][j] for d in series.coeffs}
    table = ratio_table(lam_value, depth.values(), ctx.q)
    return series.map_with_degree(lambda d, c: c * table[depth[d]])


def gamma_reconstruction(data: ToricData, fp: FixedPoint, box: TruncationBox,
                         ctx: SampleContext) -> tuple[NovikovSeries, NovikovSeries]:
    """Rebuild the fixed-point component from the point series.

    Applying, for every column off the fixed point, the Gamma-ratio operator
    with weight U_j(alpha) to the point-series sum form must reproduce the
    component series exactly.  Only the sum form is built: its agreement with
    the q-exponential is ``point_series``'s own check.  Each support degree's
    ``degree_pairing`` is computed once, for every column.
    """
    rebuilt = point_sum_form(fp.q_monomials, box, ctx)
    pairings = {d: degree_pairing(data, d) for d in rebuilt.coeffs}
    uvals = fp.u_values(ctx.Lambda)
    for j in range(data.N):
        if j not in fp.J:
            rebuilt = apply_gamma_ratio(rebuilt, data, j, uvals[j], ctx, pairings)
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

    The depths D_j(d) come from this module's own ``degree_pairing``, and each
    degree's source d - d0 is classified (a box degree, an exact zero, or
    beyond the bound, where nothing is checked), once per call; per fixed
    point each side's product is built once per distinct depth tuple, as a
    pair of ints from the kernels ``u_j - r z`` (``scalars.linear``), and each
    degree is one ``_agree``.
    """
    d0 = tuple(int(x) for x in d0)
    steps = degree_pairing(data, d0)
    # Column j contributes u_j - z (D_j(d) - s) for s in shifts[j], on the
    # left when its step is negative and on the right when it is positive.
    shifts = [range(step, 0) if step < 0 else range(step) for step in steps]
    sides = ([j for j, step in enumerate(steps) if step < 0],
             [j for j, step in enumerate(steps) if step > 0])
    box = next(iter(family.values())).box
    rows = []
    for d in box.degrees:
        source = tuple(x - y for x, y in zip(d, d0))
        if source in box.keys or not box.beyond(source):
            pairing = degree_pairing(data, d)
            # An exact zero's source is None, which no series stores.
            rows.append((d, box.keys.get(source),
                         *(tuple(pairing[j] for j in cols) for cols in sides)))
    checks = []
    for fp in enumerate_fixed_points(data):
        coeffs = family[fp.J].coeffs
        kernels = [linear(u, ctx.z) for u in divisor_values(data, fp, ctx.Lambda)]

        @cache
        def product(side, depth):
            num = den = 1
            for j, D in zip(sides[side], depth):
                for s in shifts[j]:
                    n, m = kernels[j](D - s)
                    num, den = num * n, den * m
            return num, den

        failures = []
        for d, source, left, right in rows:
            c, c_source = coeffs.get(d, 0), coeffs.get(source, 0)
            if c or c_source:
                right_product = product(1, right)
                left_product = product(0, left) if c_source else (0, 1)
                if not _agree(c, right_product, c_source, left_product):
                    failures.append((d, c_source * Fraction(*left_product),
                                     c * Fraction(*right_product)))
        checks.append(CheckResult(
            label=f"Q^{d0} relation at alpha={tuple(j + 1 for j in fp.J)}",
            ok=not failures, failures=failures))
    return {"ok": all(c.ok for c in checks), "checks": [c.as_dict() for c in checks]}
