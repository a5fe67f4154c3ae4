import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtoric.series
from helpers import add, constant_series, fixed_point
from qtoric import cli
from qtoric.models import bundled_model_names, load_bundled_model, parse_model_text
from qtoric.qdiff import (
    _agree,
    apply_gamma_ratio,
    gamma_reconstruction,
    verify_coh_relation,
    verify_dq_system,
    verify_shifted_identity,
)
from qtoric.scalars import TruncationError, ratio_table, sample_context
from qtoric.series import (
    NovikovSeries,
    assemble_cohomological_series,
    assemble_series,
    truncation_box,
)
from qtoric.toric import (
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    mori_cone_membership,
)
from word_oracle import (
    apply_p,
    apply_translation,
    apply_word_table,
    shift_by_degree,
    word_multiplier,
)


def random_series(box, seed):
    rng = random.Random(seed)
    coeffs = {
        d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in box.degrees
    }
    return NovikovSeries(box, coeffs)


def u_word_factor(series, data, fp, j, r, ctx):
    """1 - q^{-r} U_j as an operator word: one apply_p per nonzero m_ij."""
    out = series
    for i in range(data.K):
        if data.m[i][j]:
            out = apply_p(out, i, fp, ctx, power=data.m[i][j])
    return add(series, out.scale(-1 / ctx.Lambda[j]).scale(Fraction(ctx.q) ** (-r)))


def pairings(data, series):
    """``degree_pairing`` at each support degree, as ``apply_gamma_ratio`` reads it."""
    return {d: degree_pairing(data, d) for d in series.coeffs}


def shift_by_lookup(series, d0):
    """Q^{d0} read per box degree: the coefficient at d - d0, where it is defined."""
    out = {}
    for d in series.box.degrees:
        prev = tuple(x - y for x, y in zip(d, d0))
        try:
            out[d] = series.coefficient(prev)
        except TruncationError:
            pass
    return NovikovSeries(series.box, out, series.mode)


def test_translation_basics(f1):
    box = truncation_box(f1, 3)
    ctx = sample_context(f1.N, 3)
    const = constant_series(box)
    assert apply_translation(const, 0, ctx.q) == const
    single = NovikovSeries(box, {(2, 0): Fraction(1)})
    assert apply_translation(single, 0, ctx.q).coefficient((2, 0)) == ctx.q ** 2
    assert apply_translation(single, 1, ctx.q).coefficient((2, 0)) == 1


def test_translations_commute(f1):
    box = truncation_box(f1, 3)
    ctx = sample_context(f1.N, 5)
    s = random_series(box, 7)
    ab = apply_translation(apply_translation(s, 0, ctx.q), 1, ctx.q)
    ba = apply_translation(apply_translation(s, 1, ctx.q), 0, ctx.q)
    assert ab == ba


def test_apply_p_on_constant(p1):
    box = truncation_box(p1, 2)
    ctx = sample_context(p1.N, 7)
    fp = fixed_point(p1, (0,))
    out = apply_p(constant_series(box), 0, fp, ctx)
    assert out.coefficient((0,)) == ctx.Lambda[0]  # P_1(alpha) = L1


def test_p_q_commutation(all_models):
    # P_i Q_i = q Q_i P_i and P_i Q_j = Q_j P_i for i != j, on random series.
    for data in all_models:
        box = truncation_box(data, 3)
        ctx = sample_context(data.N, 11)
        fp = enumerate_fixed_points(data)[0]
        for trial in range(10):
            s = random_series(box, trial)
            for i in range(data.K):
                for ip in range(data.K):
                    e = tuple(1 if k == ip else 0 for k in range(data.K))
                    lhs = apply_p(shift_by_degree(s, e), i, fp, ctx)
                    rhs = shift_by_degree(apply_p(s, i, fp, ctx), e)
                    twist = ctx.q if i == ip else 1
                    assert lhs == rhs.scale(twist)


def test_apply_p_twice_normal_form(p1):
    box = truncation_box(p1, 3)
    ctx = sample_context(p1.N, 13)
    fp = fixed_point(p1, (0,))
    s = random_series(box, 5)
    twice = apply_p(apply_p(s, 0, fp, ctx), 0, fp, ctx)
    p_val = fp.p_values(ctx.Lambda)[0]
    via_word = apply_translation(apply_translation(s, 0, ctx.q), 0, ctx.q)
    assert twice == via_word.scale(p_val ** 2)


def test_apply_p_inverse_roundtrip(f1):
    box = truncation_box(f1, 3)
    ctx = sample_context(f1.N, 17)
    fp = fixed_point(f1, (0, 2))
    s = random_series(box, 9)
    assert apply_p(apply_p(s, 1, fp, ctx), 1, fp, ctx, power=-1) == s


def test_operators_never_enlarge_support(f1):
    # Diagonal words keep the support; a Novikov shift moves it by its degree.
    box = truncation_box(f1, 3)
    ctx = sample_context(f1.N, 71)
    fp = fixed_point(f1, (0, 2))
    s = NovikovSeries(box, {(1, 0): Fraction(2), (0, 1): Fraction(3)})
    for out in (apply_translation(s, 0, ctx.q),
                apply_p(s, 0, fp, ctx),
                apply_word_table(s, f1, fp, [(1, 0)], ctx),
                apply_gamma_ratio(s, 1, Fraction(2, 5), ctx.q, pairings(f1, s))):
        assert set(out.coeffs) <= set(s.coeffs)
    shifted = shift_by_degree(s, (1, 0))
    assert set(shifted.coeffs) == {(2, 0), (1, 1)}


@pytest.mark.parametrize("name", bundled_model_names())
def test_diagonal_factor_matches_the_operator_word(name):
    # Every fixed point, column and r in {-1, 0, 1}; F_1's -1 entry composes
    # the inverse shift.
    data = load_bundled_model(name).data
    box = truncation_box(data, 3)
    ctx = sample_context(data.N, 83)
    for fp in enumerate_fixed_points(data):
        for trial in range(3):
            s = random_series(box, trial)
            for j in range(data.N):
                for r in (-1, 0, 1):
                    assert (apply_word_table(s, data, fp, [(j, r)], ctx)
                            == u_word_factor(s, data, fp, j, r, ctx)), (fp.J, j, r)


@pytest.mark.parametrize("name", [*bundled_model_names(), "dp6"])
def test_a_word_equals_its_factors(name, request):
    # Each row's full word (every (j, r) with 0 <= r < |m_ij|), and the same
    # word with every r raised by one, in one pass against the composition of
    # its one-factor words and against its apply_p words.
    data = request.getfixturevalue(name) if name == "dp6" else load_bundled_model(name).data
    box = truncation_box(data, 3)
    ctx = sample_context(data.N, 79)
    s = random_series(box, 5)
    for fp in enumerate_fixed_points(data):
        for row in data.m:
            full = [(j, r) for j, mij in enumerate(row) for r in range(abs(mij))]
            for word in (full, [(j, r + 1) for j, r in full]):
                one_pass = apply_word_table(s, data, fp, word, ctx)
                composed = operator_word = s
                for j, r in word:
                    composed = apply_word_table(composed, data, fp, [(j, r)], ctx)
                    operator_word = u_word_factor(operator_word, data, fp, j, r, ctx)
                assert one_pass == composed == operator_word, (fp.J, word)
                assert one_pass != apply_word_table(s, data, fp, word[1:], ctx), (fp.J, word)


@pytest.mark.parametrize("name", bundled_model_names())
def test_shift_by_degree_matches_the_box_lookup(name):
    # Every d0 in {-1, 0, 1}^K, non-effective shifts included, on a dense and
    # on a sparse series.
    data = load_bundled_model(name).data
    box = truncation_box(data, 3)
    dense = random_series(box, 89)
    sparse = NovikovSeries(box, dict(list(dense.coeffs.items())[::3]))
    for d0 in itertools.product((-1, 0, 1), repeat=data.K):
        for s in (dense, sparse):
            assert shift_by_degree(s, d0) == shift_by_lookup(s, d0), d0


def _off_by_one_pairing(monkeypatch):
    """Make the series' D_1(d) one too large for d != 0; the checks keep theirs."""
    honest = qtoric.series.degree_pairing

    def skewed(data, d):
        pairing = honest(data, d)
        if any(d):
            pairing = (pairing[0] + 1,) + tuple(pairing[1:])
        return pairing

    monkeypatch.setattr(qtoric.series, "degree_pairing", skewed)


def _doubled(series):
    """The series with its first nonconstant stored coefficient doubled, and that degree."""
    d = next(d for d in sorted(series.coeffs) if any(d))
    return NovikovSeries(series.box, {**series.coeffs, d: 2 * series.coeffs[d]},
                         series.mode), d


def _failed_degrees(report):
    return {tuple(f["degree"]) for c in report["checks"] for f in c["failures"]}


@pytest.mark.parametrize("name", ["p2", "f1"])
def test_checks_fail_when_the_series_pairing_is_wrong(name, monkeypatch):
    data = load_bundled_model(name).data
    box = truncation_box(data, 4)
    ctx = sample_context(data.N, 97)
    _off_by_one_pairing(monkeypatch)
    # The box reads the series' pairing on first use, after the patch.
    dq = verify_dq_system(data, assemble_series(data, box, ctx), ctx)
    assert not dq["ok"]
    e_1 = tuple(1 if k == 0 else 0 for k in range(data.K))
    family = assemble_cohomological_series(data, box, ctx)
    coh = verify_coh_relation(data, e_1, family, ctx)
    assert not coh["ok"]
    for report in (dq, coh):
        assert any(any(d) for d in _failed_degrees(report))


@pytest.mark.parametrize("name", ["p2", "f1"])
def test_checks_report_a_doubled_coefficient(name):
    data = load_bundled_model(name).data
    box = truncation_box(data, 4)
    ctx = sample_context(data.N, 101)
    family = assemble_series(data, box, ctx)
    fp = enumerate_fixed_points(data)[0]
    family[fp.J], d = _doubled(family[fp.J])
    report = verify_dq_system(data, family, ctx)
    assert not report["ok"]
    assert d in _failed_degrees(report)
    coh = assemble_cohomological_series(data, box, ctx)
    coh[fp.J], d_coh = _doubled(coh[fp.J])
    reports = [verify_coh_relation(data, tuple(int(k == i) for k in range(data.K)), coh, ctx)
               for i in range(data.K)]
    assert not any(r["ok"] for r in reports)
    assert d_coh in set().union(*map(_failed_degrees, reports))


BIG = 2 ** 10_000 + 7
coefficients = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 20)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(-BIG, BIG).filter(bool)))
small_pairs = st.tuples(st.integers(-30, 30), st.integers(-30, 30).filter(bool))


@given(c=coefficients, left=small_pairs, c_other=coefficients, right=small_pairs,
       balanced=st.booleans())
@example(c=Fraction(BIG, 3), left=(2, -3), c_other=Fraction(-BIG, 2), right=(4, 1),
         balanced=True)
@example(c=Fraction(BIG, 3), left=(0, -3), c_other=Fraction(-BIG, 2), right=(0, 7),
         balanced=False)
@example(c=0, left=(5, 7), c_other=Fraction(BIG), right=(0, -1), balanced=False)
# 1/2 * 3 against 1 * 1: A = 1 = (3 // 2) * 1, but 2 does not divide B = 3.
@example(c=Fraction(1, 2), left=(3, 1), c_other=Fraction(1), right=(1, 1), balanced=False)
@settings(max_examples=300, deadline=None)
def test_one_exact_division_is_the_two_product_compare(c, left, c_other, right, balanced):
    # Zero coefficients (int or Fraction, passed as None, the absent
    # coefficient), zero multipliers, negative denominators and 10k-bit
    # coefficients; ``balanced`` makes both sides equal.
    if balanced and left[0]:
        c = c_other * Fraction(*right) / Fraction(*left)
    assert _agree(c or None, left, c_other or None, right) == (
        c * Fraction(*left) == c_other * Fraction(*right))


def _mutated_top(series, mutate):
    """The series with its last support degree in box order mutated, and that degree.

    Every box degree after it pairs higher with the ample class, so neither
    d + e_i nor d + d0 holds a nonzero coefficient: only the check at d reads it.
    """
    d = max(series.coeffs, key=series.box.degrees.index)
    mutated = {**series.coeffs, d: mutate(series.coeffs[d])}
    return NovikovSeries(series.box, mutated, series.mode), d


def _times_p_plus_one(c, p=101):
    """c (p + 1), the least p >= 101 with p + 1 prime to c's denominator: the
    denominator is unchanged, so only the numerator compare of the check
    catches it."""
    while gcd(p + 1, c.denominator) != 1:
        p += 1
    mutant = c * (p + 1)
    assert mutant.denominator == c.denominator
    return mutant


def _over_p(c, p=101):
    """c / p, the least p >= 101 prime to c's numerator: the numerator is
    unchanged, so only the divisibility of the check catches it."""
    while gcd(p, c.numerator) != 1:
        p += 1
    mutant = c / p
    assert mutant.numerator == c.numerator
    return mutant


def _fails_exactly_at_the_mutated_degree(name, mutate):
    # Each row's check fails at exactly the mutated degree, unless the word
    # that multiplies it there vanishes; the other fixed points still pass.
    data = load_bundled_model(name).data
    box = truncation_box(data, 4)
    ctx = sample_context(data.N, 103)
    fixed = enumerate_fixed_points(data)
    for fp in fixed:
        family = assemble_series(data, box, ctx)
        family[fp.J], d = _mutated_top(family[fp.J], mutate)
        caught = False
        for i, row in enumerate(data.m):
            lhs = [(j, r) for j, mij in enumerate(row) for r in range(mij)]
            rhs = [(j, r) for j, mij in enumerate(row) for r in range(-mij)]
            report = verify_shifted_identity(data, family, ctx, lhs, i, rhs)
            visible = word_multiplier(data, fp, lhs, ctx)(d) != 0
            for other, check in zip(fixed, report["checks"]):
                failed = [tuple(f["degree"]) for f in check["failures"]]
                assert failed == ([d] if other is fp and visible else []), (fp.J, i)
            caught |= visible
            if data.K == 1:
                assert visible
        assert caught, fp.J

        coh = assemble_cohomological_series(data, box, ctx)
        coh[fp.J], d = _mutated_top(coh[fp.J], mutate)
        uvals = divisor_values(data, fp, ctx.Lambda)
        caught = False
        for i in range(data.K):
            d0 = tuple(int(k == i) for k in range(data.K))
            report = verify_coh_relation(data, d0, coh, ctx)
            # The right side multiplies the coefficient at d by prod_{step_j > 0}
            # prod_{s < step_j} (u_j - D_j(d) z + s z).
            visible = all(u - D * ctx.z + s * ctx.z != 0
                          for u, D, step in zip(uvals, degree_pairing(data, d),
                                                degree_pairing(data, d0))
                          for s in range(step))
            for other, check in zip(fixed, report["checks"]):
                failed = [tuple(f["degree"]) for f in check["failures"]]
                assert failed == ([d] if other is fp and visible else []), (fp.J, i)
            caught |= visible
        assert caught, fp.J


@pytest.mark.parametrize("name", bundled_model_names())
def test_a_coefficient_scaled_by_one_plus_one_over_p_fails_at_that_degree(name):
    _fails_exactly_at_the_mutated_degree(name, lambda c: c * Fraction(102, 101))


@pytest.mark.parametrize("mutate", [_times_p_plus_one, _over_p], ids=["times p+1", "over p"])
@pytest.mark.parametrize("name", bundled_model_names())
def test_a_coefficient_with_one_side_of_its_fraction_changed_fails_at_that_degree(name, mutate):
    # The relation check compares c = N/D with A/B by D | B and A = (B // D) N.
    # Times p + 1 leaves D, so D | B still holds and only A != (B // D) N
    # catches it; over p leaves N and makes D p, which divides B only when p
    # divides the old quotient B // D.
    _fails_exactly_at_the_mutated_degree(name, mutate)


def test_dq_system_all_models(p1, p2, f1):
    for data in (p1, p2, f1):
        box = truncation_box(data, 4)
        ctx = sample_context(data.N, 19)
        family = assemble_series(data, box, ctx)
        report = verify_dq_system(data, family, ctx)
        assert report["ok"], report


def test_dq_degree_zero_shell(p1):
    # The relation's constant term: the left word kills the constant
    # coefficient because 1 - U_j(alpha) = 0 on the fixed point.
    box = truncation_box(p1, 2)
    ctx = sample_context(p1.N, 23)
    fp = fixed_point(p1, (0,))
    series = assemble_series(p1, box, ctx)[fp.J]
    lhs = apply_word_table(series, p1, fp, [(0, 0), (1, 0)], ctx)
    assert lhs.coefficient((0,)) == 0


def test_f1_displayed_equations(f1):
    # In coordinate form: (1-U_1)(1-U_2) I = Q_1 (1-U_4) I and
    # (1-U_3)(1-U_4) I = Q_2 I, checked to degree 4 from components built to 4.
    box = truncation_box(f1, 4)
    ctx = sample_context(f1.N, 31)
    family = assemble_series(f1, box, ctx)
    first = verify_shifted_identity(f1, family, ctx, lhs_factors=[(0, 0), (1, 0)],
                                    shift_i=0, rhs_factors=[(3, 0)])
    second = verify_shifted_identity(f1, family, ctx, lhs_factors=[(2, 0), (3, 0)],
                                     shift_i=1, rhs_factors=[])
    assert first["ok"], first
    assert second["ok"], second


def test_factor_commutes_through_the_shift(f1):
    # (1 - q^{-r} U_j) Q_i = Q_i (1 - q^{-(r - m_ij)} U_j): verify_dq_system
    # applies its right-hand word before the shift instead of after it.
    box = truncation_box(f1, 4)
    ctx = sample_context(f1.N, 61)
    family = assemble_series(f1, box, ctx)
    for fp in enumerate_fixed_points(f1):
        s = family[fp.J]
        for i in range(f1.K):
            e_i = tuple(1 if k == i else 0 for k in range(f1.K))
            for j in range(f1.N):
                for r in (-1, 0, 1):
                    after = apply_word_table(shift_by_degree(s, e_i), f1, fp, [(j, r)], ctx)
                    before = shift_by_degree(
                        apply_word_table(s, f1, fp, [(j, r - f1.m[i][j])], ctx), e_i)
                    assert after == before, (fp.J, i, j, r)


def test_gamma_ratio_single_degree(p1):
    box = truncation_box(p1, 3)
    ctx = sample_context(p1.N, 37)
    lam = Fraction(3, 7)
    s = NovikovSeries(box, {(2,): Fraction(1)})
    out = apply_gamma_ratio(s, 0, lam, ctx.q, pairings(p1, s))  # D_1(d) = d = 2
    q = ctx.q
    assert out.coefficient((2,)) == 1 / ((1 - lam * q) * (1 - lam * q ** 2))
    assert out.coefficient((2,)) == ratio_table(lam, (2,), q)[2]


def test_gamma_ratio_identity_when_depth_zero(f1):
    # Degrees pairing to zero with the chosen column are untouched.
    box = truncation_box(f1, 2)
    ctx = sample_context(f1.N, 41)
    s = NovikovSeries(box, {(0, 1): Fraction(5)})  # D_1((0,1)) = 0
    assert apply_gamma_ratio(s, 0, Fraction(2, 3), ctx.q, pairings(f1, s)) == s


def test_gamma_reconstruction_all_alpha(p1, f1):
    for data in (p1, f1):
        box = truncation_box(data, 4)
        ctx = sample_context(data.N, 43)
        for fp in enumerate_fixed_points(data):
            rebuilt, direct = gamma_reconstruction(data, fp, box, ctx)
            assert rebuilt == direct


def test_coh_relations(p1, f1):
    for data in (p1, f1):
        box = truncation_box(data, 4)
        ctx = sample_context(data.N, 47)
        family = assemble_cohomological_series(data, box, ctx)
        for i in range(data.K):
            d0 = tuple(1 if k == i else 0 for k in range(data.K))
            assert verify_coh_relation(data, d0, family, ctx)["ok"]
    # a non-basis direction and a negative direction
    ctx = sample_context(f1.N, 53)
    family = assemble_cohomological_series(f1, truncation_box(f1, 4), ctx)
    assert verify_coh_relation(f1, (1, 1), family, ctx)["ok"]
    ctxn = sample_context(p1.N, 59)
    family = assemble_cohomological_series(p1, truncation_box(p1, 4), ctxn)
    assert verify_coh_relation(p1, (-1,), family, ctxn)["ok"]


def test_coh_relation_rejects_a_non_integral_shift(p1):
    # Q^{1/2} is not a Novikov monomial: it is not read as Q^0, nor Q^{3/2} as Q^1.
    ctx = sample_context(p1.N, 59)
    family = assemble_cohomological_series(p1, truncation_box(p1, 4), ctx)
    for d0, text in (((Fraction(1, 2),), "1/2"), ((Fraction(3, 2),), "3/2")):
        with pytest.raises(ValueError, match=rf"^degree \({text}\) is not integral$"):
            verify_coh_relation(p1, d0, family, ctx)
    assert verify_coh_relation(p1, (Fraction(1),), family, ctx) == verify_coh_relation(
        p1, (1,), family, ctx)


# F_1 in a basis whose second row e_2 = (-1, -1, 1, 2) is not effective.
F1_SKEW = "name f1_skew\nmatrix 2 4\n1 1 0 -1\n-1 -1 1 2\nomega 2 1\n"


def test_verify_dq_checks_a_basis_row_off_the_effective_cone(tmp_path, capsys):
    # The source d - e_2 is a box degree or an exact zero, never beyond the
    # bound, so every degree is checked, and the relation holds.
    data = parse_model_text(F1_SKEW).data
    assert not mori_cone_membership(data, (0, 1))
    path = tmp_path / "f1_skew.model"
    path.write_text(F1_SKEW)
    assert cli.main(["verify-dq", str(path), "--deg", "6", "--samples", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    checks = report["result"]["checks"]
    # 2 samples x 2 rows x 4 fixed points
    assert len(checks) == 16 and all(c["ok"] for c in checks)
    assert sum("relation Q_2" in c["label"] for c in checks) == 8


@pytest.mark.parametrize("mode", ["k", "coh"])
def test_a_scaled_coefficient_fails_the_row_off_the_effective_cone(mode):
    # Each support coefficient of each component in turn, scaled by 1 + 1/101:
    # the e_2 relation fails at that degree exactly when the word on its side
    # is nonzero there, elsewhere at most at d + e_2, which reads it too, and
    # the scaling is caught at one of the two for most coefficients.
    data = parse_model_text(F1_SKEW).data
    box = truncation_box(data, 9)
    ctx = sample_context(data.N, 107)
    row = data.m[1]
    lhs = [(j, r) for j, mij in enumerate(row) for r in range(mij)]
    rhs = [(j, r) for j, mij in enumerate(row) for r in range(-mij)]
    assemble = assemble_series if mode == "k" else assemble_cohomological_series
    family = assemble(data, box, ctx)
    checked = caught = 0
    for fp in enumerate_fixed_points(data):
        uvals = divisor_values(data, fp, ctx.Lambda)
        for d, c in family[fp.J].coeffs.items():
            scaled = {**family, fp.J: NovikovSeries(
                box, {**family[fp.J].coeffs, d: c * Fraction(102, 101)}, mode)}
            if mode == "k":
                report = verify_shifted_identity(data, scaled, ctx, lhs, 1, rhs)
                visible = word_multiplier(data, fp, lhs, ctx)(d) != 0
            else:
                report = verify_coh_relation(data, (0, 1), scaled, ctx)
                visible = all(u - (D - s) * ctx.z != 0
                              for u, D, step in zip(uvals, degree_pairing(data, d), row)
                              for s in range(step))
            for other, check in zip(enumerate_fixed_points(data), report["checks"]):
                failed = {tuple(f["degree"]) for f in check["failures"]}
                if other is not fp:
                    assert not failed, (fp.J, d)
                else:
                    assert (d in failed) == visible, (fp.J, d)
                    assert failed <= {d, (d[0], d[1] + 1)}, (fp.J, d)
                    caught += bool(failed)
            checked += 1
    assert caught >= checked * 3 // 4, (caught, checked)
