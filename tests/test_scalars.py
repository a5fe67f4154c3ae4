from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import Ratio, finite_ratio_sym, q_factor, residue_at
from ratio_oracle import linear_table
from qtoric.scalars import (
    DoublePoleError,
    PoleError,
    binomial,
    linear,
    power_product,
    ratio_factor,
    ratio_table,
    root_factor,
    sample_context,
    with_resampling,
)

fractions = st.fractions(min_value=-5, max_value=5).filter(lambda f: f not in (0, 1, -1))
small_ints = st.integers(min_value=-4, max_value=4)


signed_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=50).filter(bool)


@given(u=st.one_of(signed_fractions, st.integers(-5, 5)), q=signed_fractions,
       r=st.integers(min_value=-30, max_value=30))
@settings(max_examples=200, deadline=None)
def test_binomial_matches_the_plain_factor(u, q, r):
    num, den = binomial(u, q)(r)
    assert type(num) is int and type(den) is int and den != 0
    assert Fraction(num, den) == 1 - q ** r * u


@given(q=signed_fractions)
@settings(max_examples=30, deadline=None)
def test_binomial_kill_rule_is_an_exact_zero(q):
    for u in (1, Fraction(1)):
        num, den = binomial(u, q)(0)
        assert num == 0 and den != 0


@given(u=st.one_of(signed_fractions, st.integers(-5, 5)), z=signed_fractions,
       r=st.integers(min_value=-30, max_value=30))
@settings(max_examples=200, deadline=None)
def test_linear_matches_the_plain_factor(u, z, r):
    num, den = linear(u, z)(r)
    assert type(num) is int and type(den) is int and den != 0
    assert Fraction(num, den) == u - r * z


@given(u=st.one_of(signed_fractions, st.integers(-5, 5)), x=signed_fractions,
       r=st.integers(min_value=-12, max_value=12), additive=st.booleans(),
       vanish=st.booleans())
@settings(max_examples=300, deadline=None)
def test_ratio_factor_pairs_match_the_fraction_formula(u, x, r, additive, vanish):
    # The pair is the Fraction factor; a vanishing factor is a pole (r > 0,
    # the same PoleError(r, u)) or the kill rule's exact zero (r <= 0).
    if vanish:
        u = r * x if additive else x ** -r
    if additive:
        expected, mode = u - r * x, {"z": x}
    else:
        expected, mode = 1 - x ** r * u, {"q": x}
    factor = ratio_factor(u, **mode)
    if r > 0 and expected == 0:
        with pytest.raises(PoleError) as info:
            factor(r)
        assert (info.value.r, info.value.value) == (r, u)
        return
    num, den = factor(r)
    assert Fraction(num, den) == expected
    assert (num == 0) == (expected == 0)


def test_ratio_factor_kill_rule_and_poles():
    q, z = Fraction(2, 3), Fraction(1, 4)
    assert ratio_factor(1, q)(0)[0] == 0 and ratio_factor(0, z=z)(0)[0] == 0
    for u, mode in ((q ** -3, {"q": q}), (3 * z, {"z": z})):
        with pytest.raises(PoleError) as info:
            ratio_factor(u, **mode)(3)
        assert (info.value.r, info.value.value) == (3, u)
    # A negative r that vanishes is a numerator factor: an exact zero, no pole.
    num, _ = ratio_factor(q ** 2, q)(-2)
    assert num == 0


@given(u=st.one_of(signed_fractions, st.just(Fraction(1))), q0=signed_fractions,
       r=st.integers(min_value=-12, max_value=12))
@settings(max_examples=200, deadline=None)
def test_root_factor_is_the_leading_term(u, q0, r):
    # 1 - q^r u at q = q0 (1 + eps): its value where that is nonzero, else -r eps.
    num, den, order = root_factor(u, q0)(r)
    value = 1 - q0 ** r * u
    if value:
        assert (order, Fraction(num, den)) == (0, value)
    else:
        assert (num, den, order) == (-r, 1, 1)


@given(values=st.lists(signed_fractions, min_size=1, max_size=5),
       exps=st.lists(st.integers(-4, 4), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_monomial_value_matches_the_plain_product(values, exps):
    values = (values * len(exps))[:len(exps)]
    expected = prod((v ** e for v, e in zip(values, exps)), start=Fraction(1))
    assert power_product(values, exps) == expected
    assert type(power_product(values, exps)) is Fraction


def test_finite_ratio_cases():
    q = Fraction(2, 3)
    u = Fraction(5, 7)
    assert ratio_table(u, (0,), q)[0] == 1
    assert ratio_table(Fraction(1), (2,), q)[2] == 1 / ((1 - q) * (1 - q ** 2))
    assert ratio_table(u, (-1,), q)[-1] == 1 - u


def test_finite_ratio_kill_rule():
    # U = 1 with negative depth hits the r = 0 numerator factor: exact zero.
    assert ratio_table(Fraction(1), (-1,), Fraction(1, 2))[-1] == 0
    assert ratio_table(Fraction(1), (-3,), Fraction(1, 2))[-3] == 0


def test_finite_ratio_pole_error_carries_data():
    # 1 - q^1 u = 0 at u = 1/q
    q = Fraction(1, 2)
    with pytest.raises(PoleError) as info:
        ratio_table(Fraction(2), (1,), q)
    assert info.value.r == 1
    assert info.value.value == 2


@given(u=fractions, q=fractions, depth=small_ints, extra=small_ints)
@settings(max_examples=60, deadline=None)
def test_finite_ratio_telescoping(u, q, depth, extra):
    # The ratio of u at depth D + E is its ratio at D times the ratio of u q^D at E.
    try:
        whole = ratio_table(u, (depth + extra,), q)[depth + extra]
        left = ratio_table(u, (depth,), q)[depth]
        right = ratio_table(u * q ** depth, (extra,), q)[extra]
    except PoleError:
        return
    assert whole == left * right


def test_finite_ratio_symbolic_matches_evaluated():
    u = Fraction(3, 5)
    for depth in range(-3, 4):
        sym = finite_ratio_sym(u, depth)
        for q in (Fraction(2, 7), Fraction(-3, 4)):
            assert sym.evaluate(q) == ratio_table(u, (depth,), q)[depth]


def direct_ratio(factor, depth):
    """prod_{r=depth+1}^{0} f(r) / prod_{r=1}^{depth} f(r), term by term."""
    return (Fraction(prod(factor(r) for r in range(depth + 1, 1)))
            / prod(factor(r) for r in range(1, depth + 1)))


@given(u=fractions, x=fractions, depths=st.sets(st.integers(-5, 6), min_size=1, max_size=4),
       additive=st.booleans())
@settings(max_examples=120, deadline=None)
def test_ratio_table_matches_direct_product(u, x, depths, additive):
    # x is q (factors 1 - q^r u, ``ratio_table``) or z (factors u - r z, the
    # oracle's ``linear_table``); small fractions put u on a z-pole often, so
    # both outcomes are exercised.
    if additive:
        def factor(r):
            return u - r * x
        tabulate = linear_table
    else:
        def factor(r):
            return 1 - x ** r * u
        tabulate = ratio_table
    poles = [r for r in range(1, max(depths) + 1) if factor(r) == 0]
    if poles:
        with pytest.raises(PoleError) as info:
            tabulate(u, depths, x)
        assert (info.value.r, info.value.value) == (poles[0], u)
        return
    table = tabulate(u, depths, x)
    assert depths <= set(table)
    for depth, value in table.items():
        assert value == direct_ratio(factor, depth)


def test_ratio_table_kill_rule():
    # The r = 0 numerator factor vanishes at u = 1 (q) and u = 0 (z): every
    # negative depth is an exact zero, every other depth is regular.
    q, z = Fraction(2, 7), Fraction(-3, 5)
    table = ratio_table(1, {-3, 4}, q)
    assert [table[d] for d in (-3, -2, -1)] == [0, 0, 0]
    assert table[0] == 1
    assert table[4] == 1 / prod(1 - q ** r for r in range(1, 5))   # 1/(q; q)_4
    table = linear_table(0, {-2, 3}, z)
    assert [table[d] for d in (-2, -1, 0)] == [0, 0, 1]
    assert table[3] == 1 / (factorial(3) * (-z) ** 3)


def test_ratio_table_pole_is_raised_when_reached():
    # u = q^{-3} puts the pole on the r = 3 denominator factor: depths below 3
    # are returned, any request that reaches 3 raises PoleError(3, u).
    q, z = Fraction(2, 3), Fraction(1, 4)
    for tabulate, u, x, factor in ((ratio_table, q ** -3, q, lambda r: 1 - q ** r * q ** -3),
                                   (linear_table, 3 * z, z, lambda r: 3 * z - r * z)):
        table = tabulate(u, {-4, 2}, x)
        assert all(table[d] == direct_ratio(factor, d) for d in range(-4, 3))
        for depths in ({3}, {0, 5}, {-1, 2, 3}):
            with pytest.raises(PoleError) as info:
                tabulate(u, depths, x)
            assert (info.value.r, info.value.value) == (3, u)


def test_residue_simple_pole():
    # f = 1/(1-2q): residue of f dq/q at q = 1/2 is -1
    f = Ratio([1], [1, -2])
    assert residue_at(f, Fraction(1, 2)) == -1


def test_residue_no_pole_is_zero():
    f = Ratio([1], [1, -2])
    assert residue_at(f, Fraction(1, 3)) == 0


def test_residue_root_point_value():
    # f = 1/(1 - q^m lam) with lam = mu^m: residue of f dq/q at 1/mu is -1/m.
    for m in (1, 2, 3):
        mu = Fraction(5, 3)
        lam = mu ** m
        f = Ratio([1]) / q_factor(m, lam)
        assert residue_at(f, 1 / mu) == Fraction(-1, m)


def test_residue_double_pole_raises():
    f = Ratio([1], [1, -2]) / Ratio([1, -2])
    with pytest.raises(DoublePoleError):
        residue_at(f, Fraction(1, 2))


def test_residue_cancels_common_factors_before_counting_the_pole():
    # (1 - 2q) / ((1 - 2q)(1 + q)) has a removable singularity at q = 1/2.
    q0, vanishing = Fraction(1, 2), Ratio([1, -2])
    removable = vanishing / (vanishing * Ratio([1, 1]))
    assert residue_at(removable, q0) == 0
    assert residue_at(vanishing * vanishing / vanishing, q0) == 0
    # One more 1/(1 - 2q) leaves 1/((1 - 2q)(1 + q)), whose residue is
    # 1/(q0 * -2 * (1 + q0)) = -2/3.
    assert residue_at(removable / vanishing, q0) == Fraction(-2, 3)
    # Two more leave a double pole after the one cancellation.
    with pytest.raises(DoublePoleError):
        residue_at(removable / vanishing / vanishing, q0)


def test_residue_matches_numeric_limit():
    # (q - q0) f(q) / q evaluated near q0 converges to the residue.
    import random

    rng = random.Random(5)
    for _ in range(10):
        a = Fraction(rng.randint(2, 9), rng.randint(2, 9))
        b = Fraction(rng.randint(2, 9), rng.randint(11, 19))
        q0 = Fraction(rng.randint(1, 7), rng.randint(8, 13))
        f = Ratio([a]) / (q_factor(1, 1 / q0) * q_factor(1, b))
        if 1 / b == q0:
            continue
        res = residue_at(f, q0)
        approx = []
        for k in (6, 9):
            eps = Fraction(1, 10 ** k)
            q = q0 + eps
            approx.append((q - q0) * f.evaluate(q) / q)
        assert abs(approx[1] - res) < abs(approx[0] - res) or approx[0] == res
        assert abs(approx[1] - res) <= Fraction(1, 10 ** 6)


def test_sample_context_reproducible():
    a = sample_context(4, 11, 2)
    b = sample_context(4, 11, 2)
    c = sample_context(4, 11, 3)
    assert a == b
    assert a != c
    assert len(set(a.Lambda)) == 4
    assert a.q not in (0, 1, -1)
    assert a.z != 0


def test_with_resampling_retries_until_generic():
    calls = []

    def fn(ctx):
        calls.append(ctx)
        if len(calls) < 3:
            raise PoleError(0, 1)
        return 42

    value, ctx = with_resampling(lambda t: sample_context(2, 1, t), fn)
    assert value == 42 and len(calls) == 3


def test_with_resampling_reports_persistent_failure():
    def fn(ctx):
        raise PoleError(0, 1)

    with pytest.raises(PoleError):
        with_resampling(lambda t: sample_context(2, 1, t), fn)
