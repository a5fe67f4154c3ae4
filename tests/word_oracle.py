"""Relation words and the cohomological relation evaluated afresh at every degree.

``word_multiplier`` is the multiplier of a relation word at one degree d,
prod over its factors (j, r) of 1 - q^{sum_i m_ij d_i - r} prod_i
P_i(alpha)^{m_ij} / Lambda_j, with every power and product rebuilt at each
degree; ``apply_word`` scales a series by it, and ``verify_shifted_identity``
compares two whole series built from it.  ``verify_coh_relation``
rebuilds both sides' products of small factors at every degree of every
fixed point from ``degree_pairing``, and ``k_relation_failures`` does the
same with the words for the K-theoretic relation of any shift.
``qtoric.qdiff`` builds each distinct multiplier or product once per call
and looks it up; these are the formulas it must agree with at every box
degree.  ``apply_word_table`` scales a series by the check's own per-call
table (``qdiff._Word``), one multiplier per distinct exponent tuple.

The operators a word is made of: ``apply_translation`` (Q_i -> q Q_i),
``apply_p`` (the shift operator P_i, composed ``power`` times), and
``shift_by_degree``, Q^{d0} as a re-keyed series, the composable form the
operator tests build words from.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from qtoric.qdiff import _binomials, _exponents, _Word
from qtoric.scalars import SampleContext, TruncationError, power_product
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
    return NovikovSeries(series.box, {d: c * multiplier(d) for d, c in series.coeffs.items()})


def apply_translation(series: NovikovSeries, i: int, q) -> NovikovSeries:
    """Q_i -> q Q_i: the coefficient at d picks up q^{d_i}."""
    return NovikovSeries(series.box, {d: c * q ** d[i] for d, c in series.coeffs.items()})


def apply_p(series: NovikovSeries, i: int, fp: FixedPoint, ctx: SampleContext,
            power: int = 1) -> NovikovSeries:
    """The shift operator P_i on an alpha-component, composed ``power`` times.

    One application is translate-then-scale by P_i(alpha); negative powers
    compose the exact inverse (scale by P_i(alpha)^{-1}, then untranslate).
    """
    p_value = power_product(ctx.Lambda, fp.p_monomials[i])
    out = series
    for _ in range(abs(power)):
        if power > 0:
            out = apply_translation(out, i, ctx.q).scale(p_value)
        else:
            out = apply_translation(out.scale(1 / p_value), i, 1 / ctx.q)
    return out


def apply_word_table(series: NovikovSeries, data: ToricData, fp: FixedPoint,
                     factors: Sequence[tuple[int, int]], ctx: SampleContext) -> NovikovSeries:
    """The relation word prod (1 - q^{-r} U_j) over ``factors``' (j, r) pairs, in one pass.

    U_j = prod_i P_i^{m_ij} / Lambda_j, and each P_i translates Q_i -> q Q_i
    and scales by P_i(alpha), so at each degree d the coefficient is
    multiplied once by prod 1 - q^{D_j(d) - r} w_j, the relation check's
    K-theoretic product at the word's exponents.
    """
    word, exponents = _Word(_binomials(data, fp, ctx), factors), _exponents(data, factors)
    return NovikovSeries(series.box, {d: c * Fraction(*word[exponents(d)])
                                      for d, c in series.coeffs.items()})


def verify_shifted_identity(data: ToricData, family: dict[tuple[int, ...], NovikovSeries],
                            ctx: SampleContext, lhs_factors: Sequence[tuple[int, int]],
                            shift_i: int, rhs_factors: Sequence[tuple[int, int]]) -> dict:
    """(lhs word) I = Q_i (rhs word) I, each side built as a whole series first."""
    e_i = tuple(int(k == shift_i) for k in range(data.K))
    checks = []
    for fp in enumerate_fixed_points(data):
        series = family[fp.J]
        lhs = apply_word(series, data, fp, lhs_factors, ctx)
        rhs = shift_by_degree(apply_word(series, data, fp, rhs_factors, ctx), e_i)
        failures = [_failure(d, lhs.coefficient(d), rhs.coefficient(d))
                    for d in series.box.degrees if lhs.coefficient(d) != rhs.coefficient(d)]
        checks.append(_check(f"relation Q_{shift_i+1}", fp, failures))
    return _report(checks)


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
        uvals = divisor_values(fp, ctx.Lambda)
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
                failures.append(_failure(d, lhs, rhs))
        checks.append(_check(f"Q^{d0} relation", fp, failures))
    return _report(checks)


def _failure(d: Sequence[int], lhs, rhs) -> dict:
    """A failing degree as a report lists it: d and both sides as text."""
    return {"degree": list(d), "lhs": str(lhs), "rhs": str(rhs)}


def _check(name: str, fp: FixedPoint, failures: list[dict]) -> dict:
    return {"label": f"{name} at alpha={tuple(j + 1 for j in fp.J)}",
            "ok": not failures, "failures": failures}


def _report(checks: list[dict]) -> dict:
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def k_relation_failures(data: ToricData, d0: Sequence[int],
                        family: dict[tuple[int, ...], NovikovSeries],
                        ctx: SampleContext) -> list[list[dict]]:
    """Per fixed point, the degrees d where the K-theoretic relation of the
    shift d0 fails: the word of the factors (j, s), 0 <= s < D_j(d0), times
    the coefficient at d against the word of the factors (j, s),
    D_j(d0) <= s < 0, times the coefficient at d - d0, both words rebuilt at d
    and a source beyond the bound skipped."""
    steps = degree_pairing(data, d0)
    left = [(j, s) for j, step in enumerate(steps) for s in range(step)]
    right = [(j, s) for j, step in enumerate(steps) for s in range(step, 0)]
    out = []
    for fp in enumerate_fixed_points(data):
        series = family[fp.J]
        left_word = word_multiplier(data, fp, left, ctx)
        right_word = word_multiplier(data, fp, right, ctx)
        failures = []
        for d in series.box.degrees:
            try:
                rhs = series.coefficient(tuple(x - y for x, y in zip(d, d0))) * right_word(d)
            except TruncationError:
                continue
            lhs = series.coefficient(d) * left_word(d)
            if lhs != rhs:
                failures.append(_failure(d, lhs, rhs))
        out.append(failures)
    return out


def shift_by_degree(series: NovikovSeries, d0: Sequence[int]) -> NovikovSeries:
    """Multiplication by Q^{d0}, represented on the same box.

    Each stored degree d is re-keyed to d + d0 and kept when the box holds
    it.  Stored coefficients all lie in the box, and a degree outside the box
    or the effective cone reads 0, so the result's coefficient at every box
    degree d is the input's at d - d0.
    """
    moved = ((tuple(x + y for x, y in zip(d, d0)), c) for d, c in series.coeffs.items())
    return NovikovSeries(series.box, {d: c for d, c in moved if series.box.contains(d)})
