"""Checks of the q-difference system and the degree-shift relations, and the
Gamma-ratio reconstruction of a component.

In the coordinate representation each Novikov variable acts by multiplication
and each P_i by the shift Q_i -> q Q_i followed by multiplication with the
fixed-point value P_i(alpha); the commutation P_i Q_i = q Q_i P_i holds on the
nose.  So the U_j words act diagonally, and the q-difference system and the
cohomological degree-shift relations are relations of one shape: for a shift
l with pairing D(l), at every box degree d,

    prod_{D_j(l) > 0} prod_{0 <= s < D_j(l)} f_j(D_j(d) - s)  c_d
        = prod_{D_j(l) < 0} prod_{D_j(l) <= s < 0} f_j(D_j(d) - s)  c_{d - l}.

K-theory reads f_j(k) = 1 - q^k w_j (``scalars.binomial``), with w_j = prod_i
P_i(alpha)^{m_ij} / Lambda_j from the P-monomials rather than U_j(alpha),
which builds the components it checks; cohomology reads f_j(k) = u_j(alpha)
- k z (``scalars.linear``).  One loop (``_verify_shift``) checks either
kernel: it reads the depths D_j(d) off the matrix (never the box's cached
pairings) and classifies each source d - l (a box degree, an exact zero, or
beyond the bound and skipped) once per call, builds each side's product once
per fixed point and distinct exponent tuple, as a pair of ints, and decides
each degree by one exact division (``_agree``): with c = N/D reduced, c L =
c' R iff D divides B and A = (B // D) N for the int products A and B of c'
and the pairs, so no ``Fraction`` is built, no gcd is taken, and two big
coefficients are never multiplied.  An absent coefficient is None.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable, Sequence

from .scalars import SampleContext, binomial, linear, power_product, ratio_table
from .series import NovikovSeries, TruncationBox, component_series, point_sum_form
from .toric import (
    FixedPoint,
    ToricData,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    integral_degree,
)

Factors = Sequence[tuple[int, int]]


def gamma_reconstruction(data: ToricData, fp: FixedPoint, box: TruncationBox,
                         ctx: SampleContext) -> tuple[NovikovSeries, NovikovSeries]:
    """Rebuild the fixed-point component from the point series.

    Applying, for every column j off the fixed point, the Gamma-ratio operator
    with weight U_j(alpha) to the point-series sum form must reproduce the
    component series exactly.  On Q^d that operator multiplies by the finite
    ratio of U_j(alpha) at depth D_j(d), read from one ``ratio_table`` per
    column over the depths of the sum form's support (``box.pairings``), so no
    infinite product is materialized; each coefficient then takes all of its
    ratios in one pass.  Only the sum form is built: its agreement with the
    q-exponential is ``point_series``'s own check.
    """
    sum_form = point_sum_form(fp.q_monomials, box, ctx)
    depths = [box.pairings[d] for d in sum_form.coeffs]
    uvals = fp.u_values(ctx.Lambda)
    tables = [(j, ratio_table(uvals[j], (depth[j] for depth in depths), ctx.q))
              for j in range(data.N) if j not in fp.J]
    rebuilt = {d: prod((table[depth[j]] for j, table in tables), start=c)
               for (d, c), depth in zip(sum_form.coeffs.items(), depths)}
    return NovikovSeries(box, rebuilt), component_series(data, fp, box, ctx)


# ---------------------------------------------------------------------------
# The relation check.
# ---------------------------------------------------------------------------


def verify_dq_system(data: ToricData, family: dict[tuple[int, ...], NovikovSeries],
                     ctx: SampleContext) -> dict:
    """Check the finite-difference system on every fixed-point component.

    For each basis direction i the displayed relation is rearranged (the
    negative-exponent ratio factors cross the equation) and the right-hand word
    commuted through Q_i by U_j Q_i = q^{m_ij} Q_i U_j, into the relation of
    the shift e_i, whose pairing D(e_i) is row i of the matrix:

        prod_{j: m_ij > 0} prod_{s=0}^{m_ij - 1} (1 - q^{D_j(d) - s} w_j)  c_d
            = prod_{j: m_ij < 0} prod_{s=m_ij}^{-1} (1 - q^{D_j(d) - s} w_j)  c_{d - e_i}.
    """
    kernels = {fp.J: _binomials(data, fp, ctx) for fp in enumerate_fixed_points(data)}
    checks = []
    for i, row in enumerate(data.m):
        e_i = tuple(int(k == i) for k in range(data.K))
        checks += _verify_shift(data, family, e_i, *_relation_sides(row),
                                lambda fp: kernels[fp.J], f"relation Q_{i+1}")
    return _report(checks)


def verify_shifted_identity(data: ToricData, family: dict[tuple[int, ...], NovikovSeries],
                            ctx: SampleContext, lhs_factors: Factors,
                            shift_i: int, rhs_factors: Factors) -> dict:
    """Check an identity of the form (prod lhs factors) I = Q_i (prod rhs factors) I.

    Factors are (column j, exponent r) pairs standing for 1 - q^{-r} U_j(...);
    the right-hand word is applied before the Novikov shift, exactly as
    written, so at d it reads the depths at d - e_i: its factor (j, r) is
    the check's (j, r + m_ij).  A failing degree reports both sides in full.
    """
    e_i = tuple(int(k == shift_i) for k in range(data.K))
    right = [(j, r + data.m[shift_i][j]) for j, r in rhs_factors]
    return _report(_verify_shift(data, family, e_i, lhs_factors, right,
                                 lambda fp: _binomials(data, fp, ctx), f"relation Q_{shift_i+1}"))


def verify_coh_relation(data: ToricData, d0: Sequence[int],
                        family: dict[tuple[int, ...], NovikovSeries],
                        ctx: SampleContext) -> dict:
    """Check Q^{d0} I = (relation word) I on every cohomological component in ``family``.

    The relation word for column j with D_j(d0) = step contributes
    prod_{s=0}^{step-1}(u-op + s z), and for step < 0 the inverse finite
    product prod_{s=1}^{-step}(u-op - s z)^{-1}; the degree reading acts as
    u_j(alpha) - z D_j(d).  The inverse factors move across the equation, so the
    comparison stays division-free:

        prod_{step_j < 0} [...] (Q^{d0} I)  =  prod_{step_j > 0} [...] I,

    the relation of the shift d0 with the kernels u_j - k z, reported with the
    shifted side as the lhs.  A non-integral d0 is a ValueError.
    """
    d0 = integral_degree(d0)
    return _report(_verify_shift(
        data, family, d0, *_relation_sides(degree_pairing(data, d0)),
        lambda fp: [linear(u, ctx.z) for u in divisor_values(fp, ctx.Lambda)],
        f"Q^{d0} relation", swap=True))


def _report(checks: list[dict]) -> dict:
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _relation_sides(steps: Sequence[int]) -> tuple[list, list]:
    """The two sides of the relation of a shift l with pairing D(l) = ``steps``:
    the factors (j, s), 0 <= s < D_j(l), and (j, s), D_j(l) <= s < 0."""
    return ([(j, s) for j, step in enumerate(steps) for s in range(step)],
            [(j, s) for j, step in enumerate(steps) for s in range(step, 0)])


def _verify_shift(data: ToricData, family: dict[tuple[int, ...], NovikovSeries],
                  shift: Sequence[int], left: Factors, right: Factors,
                  kernels_at: Callable[[FixedPoint], list], name: str,
                  swap: bool = False) -> list[dict]:
    """Check c_d L(d) = c_{d - shift} R(d) at every box degree d, per fixed point.

    A side is a list of factors (j, s), each f_j(D_j(d) - s) with f_j the
    fixed point's kernel ``kernels_at(fp)[j]``.  The source d - shift is a
    box degree, an exact zero (off the effective cone), or beyond the bound,
    where d is not checked.  A failure reports d, c_d L and c_{d - shift} R,
    the two sides swapped when ``swap`` is set.
    """
    box = next(iter(family.values())).box
    left_exponents, right_exponents = _exponents(data, left), _exponents(data, right)
    # Every d pairs at most the bound, so d - shift can pair above it only
    # when the shift pairs negatively.
    reaches_beyond = box.pairing(shift) < 0
    rows = []
    for d in box.degrees:
        source = tuple(x - y for x, y in zip(d, shift))
        if source in box.position or not (reaches_beyond and box.beyond(source)):
            rows.append((d, source, left_exponents(d), right_exponents(d)))
    checks = []
    for fp in enumerate_fixed_points(data):
        get = family[fp.J].coeffs.get
        kernels = kernels_at(fp)
        left_word, right_word = _Word(kernels, left), _Word(kernels, right)
        failures = []
        for d, source, left_ks, right_ks in rows:
            c, c_source = get(d), get(source)
            if c is None and c_source is None:
                continue
            lhs = left_word[left_ks]
            rhs = (0, 1) if c_source is None else right_word[right_ks]
            if not _agree(c, lhs, c_source, rhs):
                sides = [str(Fraction(*side) * (0 if coeff is None else coeff))
                         for coeff, side in ((c, lhs), (c_source, rhs))]
                shown_lhs, shown_rhs = sides[::-1] if swap else sides
                failures.append({"degree": list(d), "lhs": shown_lhs, "rhs": shown_rhs})
        checks.append({"label": f"{name} at alpha={tuple(j + 1 for j in fp.J)}",
                       "ok": not failures, "failures": failures})
    return checks


def _binomials(data: ToricData, fp: FixedPoint, ctx: SampleContext) -> list:
    """Per column j, the kernel k -> 1 - q^k w_j with w_j = prod_i
    P_i(alpha)^{m_ij} / Lambda_j from the P-values (the operator side), not
    U_j(alpha): the check stays independent of the components."""
    p_values = fp.p_values(ctx.Lambda)
    return [binomial(power_product((*p_values, ctx.Lambda[j]), (*(row[j] for row in data.m), -1)),
                     ctx.q) for j in range(data.N)]


def _exponents(data: ToricData, factors: Factors) -> Callable[[Sequence[int]], tuple]:
    """d -> the exponents D_j(d) - s of the factors (j, s), each depth
    D_j(d) = sum_i m_ij d_i read from column j of the matrix."""
    columns = [([(i, row[j]) for i, row in enumerate(data.m) if row[j]], s) for j, s in factors]
    return lambda d: tuple(sum(m * d[i] for i, m in column) - s for column, s in columns)


class _Word(dict):
    """ks -> prod_t f_j(k_t) over the factors t = (j, s), f_j = ``kernels[j]``,
    read by key: each distinct ks is built once, on first read, as one
    unnormalised pair of ints."""

    def __init__(self, kernels: list, factors: Factors):
        super().__init__()
        self.terms = [kernels[j] for j, _ in factors]

    def __missing__(self, ks):
        num = den = 1
        for f, k in zip(self.terms, ks):
            n, d = f(k)
            num, den = num * n, den * d
        self[ks] = num, den
        return num, den


def _agree(c, left, c_other, right) -> bool:
    """c L == c_other R, for the int pairs ``left`` = L and ``right`` = R and
    nonzero rationals c and c_other, None standing for an absent (zero)
    coefficient, by one exact division and no ``Fraction``.

    Where both sides are nonzero, write c = N/D in lowest terms and c_other R / L
    = A/B with A = N_o R_num L_den and B = D_o R_den L_num (B != 0).  Then
    N/D = A/B iff D divides B and A = (B // D) N: N B = A D makes D divide N B,
    hence B, as N and D are coprime.  No gcd is taken: where the sides agree,
    B // D = gcd(A, B) divides R_den L_num R_num L_den, so each product is a
    big coefficient times ints the size of the pairs.
    """
    left_num, left_den = left
    right_num, right_den = right
    if c_other is None or not right_num:
        return c is None or not left_num
    if c is None or not left_num:
        return False
    k, rest = divmod(c_other.denominator * (right_den * left_num), c.denominator)
    return not rest and c_other.numerator * (right_num * left_den) == k * c.numerator
