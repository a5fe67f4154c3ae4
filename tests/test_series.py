from fractions import Fraction
from types import SimpleNamespace

import pytest

from qtoric import series as series_module
from qtoric.scalars import PoleError, TruncationError, sample_context
from qtoric.series import (
    BundleData,
    NovikovSeries,
    adams,
    assemble_series,
    bundle_factor,
    cohomological_series,
    component_series,
    constant_series,
    multiply,
    point_series,
    series_exp,
    truncation_box,
)
from qtoric.toric import (
    ToricData,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    fixed_point,
)


def test_box_membership_and_bounds(f1):
    box = truncation_box(f1, 3)
    assert box.contains((1, 2))
    assert not box.contains((2, 2))   # pairing 4 > 3
    assert not box.contains((-1, 0))  # not effective


def test_series_lookup_semantics(p1):
    box = truncation_box(p1, 2)
    s = constant_series(box)
    assert s.coefficient((0,)) == 1
    assert s.coefficient((1,)) == 0      # inside the box, absent
    assert s.coefficient((-5,)) == 0     # outside the effective cone
    with pytest.raises(TruncationError):
        s.coefficient((3,))              # effective but beyond the bound
    with pytest.raises(TruncationError):
        NovikovSeries(box, {(3,): Fraction(1)})  # stored degrees must fit the box


def test_in_bound_lookups_skip_the_cone_test(f1, monkeypatch):
    # The box holds every effective degree up to its bound, so an in-bound
    # degree outside it reads 0 without a cone-membership test.
    s = constant_series(truncation_box(f1, 3))

    def fail(data, d):
        raise AssertionError(f"cone membership consulted for {d}")

    monkeypatch.setattr(series_module, "mori_cone_membership", fail)
    assert s.coefficient((-1, 2)) == 0   # pairing 1 <= 3, not effective
    monkeypatch.undo()
    with pytest.raises(TruncationError):
        s.coefficient((4, 0))            # effective, pairing 4 > 3


def test_point_series_chain_p1(p1):
    box = truncation_box(p1, 3)
    ctx = sample_context(p1.N, 5)
    q = ctx.q
    pair = point_series([(1,)], box, ctx)
    expected = [
        Fraction(1),
        1 / (1 - q),
        1 / ((1 - q) * (1 - q ** 2)),
        1 / ((1 - q) * (1 - q ** 2) * (1 - q ** 3)),
    ]
    assert [pair.sum_form.coefficient((d,)) for d in range(4)] == expected
    assert pair.sum_form == pair.exp_form


def test_point_series_empty_list(p1):
    box = truncation_box(p1, 4)
    ctx = sample_context(p1.N, 5)
    pair = point_series([], box, ctx)
    assert pair.sum_form == constant_series(box) == pair.exp_form


def test_exp_form_degree_two_identity(p1):
    # Hand-expanded second coefficient of the exponential:
    # (1/2)(1/(1-q))^2 + (1/2)(1/(1-q^2)) must equal 1/((1-q)(1-q^2)).
    ctx = sample_context(p1.N, 9)
    q = ctx.q
    lhs = Fraction(1, 2) * (1 / (1 - q)) ** 2 + Fraction(1, 2) / (1 - q ** 2)
    assert lhs == 1 / ((1 - q) * (1 - q ** 2))
    box = truncation_box(p1, 2)
    pair = point_series([(1,)], box, ctx)
    assert pair.exp_form.coefficient((2,)) == lhs


def test_point_series_identity_all_models(all_models):
    for data in all_models:
        box = truncation_box(data, 5)
        for sample in range(3):
            ctx = sample_context(data.N, 31, sample)
            for fp in enumerate_fixed_points(data):
                pair = point_series(fp.q_monomials, box, ctx)
                assert pair.sum_form == pair.exp_form


def test_point_series_dependent_monomials(p1):
    # A repeated monomial: the sum over pairs against the squared exponential.
    box = truncation_box(p1, 4)
    ctx = sample_context(p1.N, 97)
    q = ctx.q
    pair = point_series([(1,), (1,)], box, ctx)
    assert pair.sum_form == pair.exp_form
    # degree-1 coefficient is 2/(1-q): one copy from each summand
    assert pair.sum_form.coefficient((1,)) == 2 / (1 - q)


def test_component_p1_alpha1(p1):
    # coefficient of Q^d at alpha = {1} is 1/[(q;q)_d prod_{r<=d}(1 - q^r U)]
    # with U = U_2(alpha) = L1/L2.
    box = truncation_box(p1, 4)
    ctx = sample_context(p1.N, 13)
    q = ctx.q
    u = ctx.Lambda[0] / ctx.Lambda[1]
    series = component_series(p1, fixed_point(p1, (0,)), box, ctx)
    for d in range(5):
        denom = Fraction(1)
        for r in range(1, d + 1):
            denom *= (1 - q ** r) * (1 - q ** r * u)
        assert series.coefficient((d,)) == 1 / denom


def test_component_degree_zero_is_one(all_models):
    for data in all_models:
        box = truncation_box(data, 2)
        ctx = sample_context(data.N, 41)
        zero = tuple(0 for _ in range(data.K))
        for fp in enumerate_fixed_points(data):
            assert component_series(data, fp, box, ctx).coefficient(zero) == 1


def test_component_kill_rule_f1(f1):
    box = truncation_box(f1, 3)
    ctx = sample_context(f1.N, 43)
    series = component_series(f1, fixed_point(f1, (1, 3)), box, ctx)
    assert series.coefficient((1, 0)) == 0  # D_4 = -1 with 4 on the fixed point


def test_component_pole_beside_a_coincidental_zero_raises():
    # F_1 with its columns reordered so that the negative column comes first.
    # At d = (2, 0) on alpha = (2, 4) the depths are (-2, 2, 2, 0): with
    # U_1 = q the numerator factor 1 - q^{-1} U_1 vanishes, and with
    # U_3 = q^{-2} so does the denominator factor 1 - q^2 U_3.  The degree is
    # in alpha's dual cone, so the pole is raised rather than multiplied by 0.
    data = ToricData(m=((-1, 1, 1, 0), (1, 0, 0, 1)), omega=(1, 1), name="f1-permuted")
    box = truncation_box(data, 2)
    assert box.contains((2, 0))
    ctx = sample_context(data.N, 43)
    q = ctx.q
    fp = SimpleNamespace(J=(1, 3), u_values=lambda _: (q, Fraction(1), q ** -2, Fraction(1)))
    with pytest.raises(PoleError) as info:
        component_series(data, fp, box, ctx)
    assert (info.value.r, info.value.value) == (2, q ** -2)


def test_component_support_is_dual_cone(all_models):
    for data in all_models:
        box = truncation_box(data, 4)
        ctx = sample_context(data.N, 47)
        for fp in enumerate_fixed_points(data):
            series = component_series(data, fp, box, ctx)
            expected = {
                d for d in box.degrees
                if all(degree_pairing(data, d)[j] >= 0 for j in fp.J)
            }
            assert set(series.support()) == expected


def test_component_matches_displayed_split(f1):
    # Oracle: the split form 1/prod_{j in J} (q; q)_{D_j} times the
    # off-point finite ratios, written out independently.
    box = truncation_box(f1, 3)
    ctx = sample_context(f1.N, 53)
    q = ctx.q
    for fp in enumerate_fixed_points(f1):
        series = component_series(f1, fp, box, ctx)
        uvals = fp.u_values(ctx.Lambda)
        for d in box.degrees:
            pairing = degree_pairing(f1, d)
            if any(pairing[j] < 0 for j in fp.J):
                assert series.coefficient(d) == 0
                continue
            value = Fraction(1)
            for j in fp.J:
                for r in range(1, pairing[j] + 1):
                    value /= 1 - q ** r
            for j in range(f1.N):
                if j in fp.J:
                    continue
                if pairing[j] >= 0:
                    for r in range(1, pairing[j] + 1):
                        value /= 1 - q ** r * uvals[j]
                else:
                    for r in range(pairing[j] + 1, 1):
                        value *= 1 - q ** r * uvals[j]
            assert series.coefficient(d) == value


def test_assemble_family(f1, p1):
    box = truncation_box(f1, 2)
    ctx = sample_context(f1.N, 59)
    family = assemble_series(f1, box, ctx)
    assert len(family) == 4
    # bound 0: every component is the constant series 1
    tiny = truncation_box(f1, 0)
    for series in assemble_series(f1, tiny, ctx).values():
        assert series == constant_series(tiny)
    # swapping the two parameters of the line exchanges its two components
    box1 = truncation_box(p1, 3)
    ctx1 = sample_context(p1.N, 61)
    swapped = ctx1.__class__(q=ctx1.q, Lambda=(ctx1.Lambda[1], ctx1.Lambda[0]),
                             lam=ctx1.lam, z=ctx1.z)
    fam = assemble_series(p1, box1, ctx1)
    fam_swapped = assemble_series(p1, box1, swapped)
    assert fam[(0,)].coeffs == fam_swapped[(1,)].coeffs
    assert fam[(1,)].coeffs == fam_swapped[(0,)].coeffs


def test_bundle_reciprocity_and_normalization(p2):
    box = truncation_box(p2, 5)
    ctx = sample_context(p2.N, 67)
    even = BundleData(exponents=((1, 2),), parity="E")
    odd = BundleData(exponents=((1, 2),), parity="PiE")
    zero = (0,)
    for fp in enumerate_fixed_points(p2):
        sE = component_series(p2, fp, box, ctx, bundle=even)
        sP = component_series(p2, fp, box, ctx, bundle=odd)
        assert sE.coefficient(zero) == 1 and sP.coefficient(zero) == 1
        for d in box.degrees:
            fE = bundle_factor(p2, fp, even, d, ctx)
            fP = bundle_factor(p2, fp, odd, d, ctx)
            assert fE * fP == 1


def test_bundle_delta():
    bundle = BundleData(exponents=((1, 2),), parity="E")
    assert bundle.delta((3,)) == (3, 6)
    assert bundle.L == 2
    with pytest.raises(ValueError):
        BundleData(exponents=((1,),), parity="X")


def test_adams_degree_map(p1):
    box = truncation_box(p1, 6)
    ctx = sample_context(p1.N, 71)
    s = NovikovSeries(box, {(1,): Fraction(3), (2,): Fraction(5)})
    doubled = adams(s, 2)
    assert doubled.coefficient((2,)) == 3
    assert doubled.coefficient((4,)) == 5
    assert doubled.coefficient((1,)) == 0
    assert adams(s, 1).coeffs == s.coeffs
    with pytest.raises(ValueError):
        adams(s, 0)


def test_adams_rebuilds_exp_form(p1):
    # exp(sum_k adams(tau, k) / k(1-q^k)) at a sampled q equals both forms:
    # tau's coefficients are q-free, so Adams moves degrees and the q -> q^k
    # coupling is the weight 1/k(1-q^k).
    box = truncation_box(p1, 5)
    ctx = sample_context(p1.N, 73)
    fp = fixed_point(p1, (0,))
    pair = point_series(fp.q_monomials, box, ctx)
    tau = NovikovSeries(box, {g: Fraction(1) for g in fp.degree_generators})
    arg = None
    k = 1
    while True:
        term = adams(tau, k)
        if not term.coeffs:
            break
        term = term.scale(1 / (k * (1 - ctx.q ** k)))
        arg = term if arg is None else arg + term
        k += 1
    assert k == 6
    assert series_exp(arg) == pair.exp_form == pair.sum_form


def test_cohomological_series_matches_explicit_product_f1(f1, p1):
    # Every box degree against prod_j prod_{r<=0}(u_j - rz) / prod_{r<=D_j}(u_j - rz),
    # multiplied out factor by factor; off alpha's dual cone the r = 0
    # factor u_j = 0 (j in J(alpha)) kills the coefficient.
    box = truncation_box(f1, 4)
    ctx = sample_context(f1.N, 83)
    z = ctx.z
    for fp in enumerate_fixed_points(f1):
        series = cohomological_series(f1, fp, box, ctx)
        u = divisor_values(f1, fp, ctx.Lambda)
        assert series.mode == "coh"
        for d in box.degrees:
            expected = Fraction(1)
            for j, depth in enumerate(degree_pairing(f1, d)):
                for r in range(depth + 1, 1):
                    expected *= u[j] - r * z
                for r in range(1, depth + 1):
                    expected /= u[j] - r * z
            assert series.coefficient(d) == expected
            dead = any(degree_pairing(f1, d)[j] < 0 for j in fp.J)
            assert dead == (expected == 0)
    # The hand value on P^1 at alpha = (1): Q^1 has coefficient 1/(z (l2 - l1 + z)).
    ctx = sample_context(p1.N, 83)
    l1, l2, z = ctx.Lambda[0], ctx.Lambda[1], ctx.z
    series = cohomological_series(p1, fixed_point(p1, (0,)), truncation_box(p1, 2), ctx)
    assert series.coefficient((0,)) == 1
    assert series.coefficient((1,)) == 1 / (z * (l2 - l1 + z))


def test_series_multiply_and_exp(p1):
    box = truncation_box(p1, 4)
    s = NovikovSeries(box, {(1,): Fraction(1)})
    sq = multiply(s, s)
    assert sq.coefficient((2,)) == 1 and sq.coefficient((1,)) == 0
    e = series_exp(s)
    assert e.coefficient((3,)) == Fraction(1, 6)
    with pytest.raises(ValueError):
        series_exp(constant_series(box))
