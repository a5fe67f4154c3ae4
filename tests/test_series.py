import random
import re
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratio_oracle
from helpers import add, constant_series, fixed_point, multiply
from qtoric import qdiff, scalars, toric
from qtoric import series as series_module
from qtoric.models import (
    bundled_model_names,
    hirzebruch,
    load_bundled_model,
    product_of_lines,
    projective_space,
)
from qtoric.recursion import all_orbits, root_context
from qtoric.scalars import (
    DoublePoleError,
    PoleError,
    TruncationError,
    sample_context,
    with_resampling,
)
from qtoric.series import (
    BundleData,
    NovikovSeries,
    TruncationBox,
    adams,
    assemble_series,
    cohomological_series,
    component_residues,
    component_series,
    point_series,
    point_sum_form,
    series_exp,
    truncation_box,
)
from qtoric.toric import (
    InvalidModelError,
    ToricData,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
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


def test_lookup_rejects_a_non_integral_degree(p1):
    # A coordinate is never truncated to a neighbouring degree's.
    s = NovikovSeries(truncation_box(p1, 2), {(0,): Fraction(7), (1,): Fraction(3)})
    for d, text in (((Fraction(1, 2),), "(1/2)"), ((1.9,), "(1.9)")):
        with pytest.raises(ValueError, match=re.escape(f"degree {text} is not integral")) as info:
            s.coefficient(d)
        assert not isinstance(info.value, TruncationError)
    assert s.coefficient((Fraction(1),)) == 3 and s.coefficient((0.0,)) == 7


def test_lookup_rejects_a_degree_of_the_wrong_length(f1):
    # The pairing with the ample class would zip (1,) and (1, 0, 0) down to
    # the in-bound (1,) and read 0; the degree's length is checked first.
    s = constant_series(truncation_box(f1, 3))
    for d in ((1,), (1, 0, 0), (9, 0, 0)):
        with pytest.raises(InvalidModelError, match="^degree must have 2 coordinates$"):
            s.coefficient(d)
    assert s.coefficient((1, 0)) == 0


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


def test_off_box_reads_enumerate_no_fixed_points(f1, monkeypatch):
    # Building the box keeps the cone's facet normals; the cone test of an
    # off-box degree reads them alone, never the fixed points.
    box = truncation_box(f1, 3)
    s = constant_series(box)

    def fail(data):
        raise AssertionError("fixed points enumerated")

    monkeypatch.setattr(toric, "enumerate_fixed_points", fail)
    assert box.beyond((4, 0))
    assert not box.beyond((-1, 5))       # pairing 4 > 3, not effective
    with pytest.raises(TruncationError):
        s.coefficient((4, 0))            # effective, pairing 4 > 3
    assert s.coefficient((-1, 5)) == 0


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


def test_a_root_of_unity_q_is_a_pole_of_the_sum_form(p1):
    # q = -1 makes 1 - q^2 vanish; the sum form's ratio table meets it first,
    # in ratio_factor, before the exp form divides by it.
    ctx = sample_context(p1.N, 5)._replace(q=Fraction(-1))
    with pytest.raises(PoleError) as caught:
        point_series([(1,)], truncation_box(p1, 3), ctx)
    assert (caught.value.r, caught.value.value) == (2, 1)
    assert caught.traceback[-1].frame.code.raw.co_name == "factor"


def test_a_monomial_pairing_to_zero_is_refused_by_the_sum_form(p1):
    with pytest.raises(InvalidModelError,
                       match="^every point-series monomial must pair positively with ample$"):
        point_sum_form([(0,)], truncation_box(p1, 3), sample_context(p1.N, 5))


def test_a_negative_bound_keeps_no_degree(p1):
    assert truncation_box(p1, -1).degrees == ()


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


def test_component_raises_the_first_pole_in_column_order():
    # The same permuted F_1 with two poles: U_1 = q^{-3} has one at r = 3,
    # reached first at d = (0, 3), and U_3 = q^{-1} one at r = 1, reached at
    # d = (1, 0), earlier in the box.  Both routes tabulate every column's
    # factors before any product, so both raise the column-1 pole.
    data = ToricData(m=((-1, 1, 1, 0), (1, 0, 0, 1)), omega=(1, 1), name="f1-permuted")
    box = truncation_box(data, 3)
    ctx = sample_context(data.N, 43)
    q = ctx.q
    fp = SimpleNamespace(J=(1, 3), u_values=lambda _: (q ** -3, Fraction(1), q ** -1, Fraction(1)))
    assert box.degrees.index((1, 0)) < box.degrees.index((0, 3))
    raised = []
    for route in (component_series, ratio_oracle.component_coefficients):
        with pytest.raises(PoleError) as info:
            route(data, fp, box, ctx)
        raised.append((info.value.r, info.value.value))
    assert raised == [(3, q ** -3)] * 2


def _model(name, *blocks):
    """The product of the toric models given by their charge matrices."""
    width = sum(len(rows[0]) for rows in blocks)
    m, start = [], 0
    for rows in blocks:
        m += [(0,) * start + row + (0,) * (width - start - len(row)) for row in rows]
        start += len(rows[0])
    return ToricData(m=tuple(m), omega=(1,) * len(m), name=name)


LINE, PLANE = ((1, 1),), ((1, 1, 1),)


def _f(a):
    return ((1, 1, 0, -a), (0, 0, 1, 1))


# The bundled models and the generated families of the benchmark's workloads.
WALK_MODELS = (
    [load_bundled_model(name).data for name in bundled_model_names()]
    + [_model(f"f{a}", _f(a)) for a in range(6)]
    + [_model(f"p{n}", ((1,) * (n + 1),)) for n in range(1, 6)]
    + [_model(f"pp2_{a}{b}", ((1, 1, 1, 0, -a, -b), (0, 0, 0, 1, 1, 1)))
       for a, b in ((0, 1), (1, 1), (0, 2), (1, 2))]
    + [_model("p1x3", LINE, LINE, LINE), _model("p1x4", LINE, LINE, LINE, LINE),
       _model("p1xp1xp2", LINE, LINE, PLANE), _model("p1xp2xp2", LINE, PLANE, PLANE),
       _model("f1xp1", _f(1), LINE), _model("f2xp1", _f(2), LINE)]
)
WALK_BOUNDS = {1: 6, 2: 5, 3: 4, 4: 3}


def _outcome(fn):
    """The value of fn(), or the class and message of the error it raised."""
    try:
        return fn()
    except (DoublePoleError, PoleError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("data", WALK_MODELS, ids=lambda data: data.name)
def test_walk_matches_per_degree_products(data):
    # The walk over the box against the per-degree products of whole tables,
    # at every box degree: numeric q, z, and the leading terms at root points.
    box = truncation_box(data, WALK_BOUNDS[data.K])
    ctx = sample_context(data.N, 29)
    for fp in enumerate_fixed_points(data):
        for route, oracle in ((component_series, ratio_oracle.component_coefficients),
                              (cohomological_series, ratio_oracle.cohomological_coefficients)):
            series = route(data, fp, box, ctx)
            expected = oracle(data, fp, box, ctx)
            assert {d: series.coefficient(d) for d in box.degrees} == \
                {d: expected.get(d, 0) for d in box.degrees}, (route.__name__, fp.J)
    for orbit in all_orbits(data):
        for m in (1, 2):
            rctx, mu = root_context(data, orbit, m, seed=29)
            u = orbit.alpha.u_values(rctx.Lambda)
            got = _outcome(lambda: component_residues(data, orbit.alpha, box, u, 1 / mu))
            expected = _outcome(lambda: ratio_oracle.residues(data, orbit.alpha, box, rctx,
                                                              1 / mu))
            assert got == expected, (orbit.alpha.J, orbit.j0, m)


def _dense(box, values):
    """``values`` at every box degree, 0 where it has no entry."""
    return {d: values.get(d, 0) for d in box.degrees}


def _crafted_draws(xs):
    """The crafted fixed points of the f1-permuted model: 60 draws of the two
    off-point columns' U values, each a power x^k (k from -2 to 3) or a
    generic rational, yielded per draw for each x of ``xs`` in turn."""
    rng = random.Random(7)
    for _ in range(60):
        ks = [rng.randint(-2, 3) if rng.random() < 0.7 else None for _ in range(2)]
        for x in xs:
            u0, u2 = (Fraction(rng.randint(2, 9), 7) if k is None else x ** k for k in ks)
            yield x, ks, SimpleNamespace(J=(1, 3),
                                         u_values=lambda _, u=(u0, Fraction(1), u2, Fraction(1)): u)


CRAFTED_ROWS = pytest.mark.parametrize(
    "rows", [((-1, 1, 1, 0), (1, 0, 0, 1)), ((1, 0, 0, 1), (-1, 1, 1, 0))],
    ids=["f1-permuted", "f1-permuted-swapped"])


@CRAFTED_ROWS
def test_walk_matches_per_degree_products_beside_crafted_zeros_and_poles(rows):
    # Off-point columns with U = x^k, where x = 1/q (numeric q) or x = mu (the
    # root point q0 = 1/mu), have the factor 1 - q^r U vanish at r = k: poles
    # (k > 0), zeros (k < 0) and, at k = 0, a zero like the kill rule's,
    # inside alpha's dual cone.  With the rows swapped the walk reaches some
    # degrees through a neighbour whose depth rises past that r = 0 zero.
    data = ToricData(m=rows, omega=(1, 1), name="f1-permuted")
    box = truncation_box(data, 4)
    ctx = sample_context(data.N, 47)
    mu = Fraction(5, 3)
    routes = {
        1 / ctx.q: (lambda fp: component_series(data, fp, box, ctx).coeffs,
                    lambda fp: {d: c for d, c in
                                ratio_oracle.component_coefficients(data, fp, box, ctx).items()
                                if c != 0}),
        # The oracle keeps an exact zero's residue as 0; the walk leaves it out.
        mu: (lambda fp: _dense(box, component_residues(data, fp, box,
                                                        fp.u_values(ctx.Lambda), 1 / mu)),
             lambda fp: _dense(box, ratio_oracle.residues(data, fp, box, ctx, 1 / mu))),
    }
    seen = set()
    for x, ks, fp in _crafted_draws(routes):
        walk, oracle = routes[x]
        got, expected = _outcome(lambda: walk(fp)), _outcome(lambda: oracle(fp))
        assert got == expected, (x, ks)
        seen.add(type(got) if isinstance(got, dict) else got[0])
    assert seen == {dict, PoleError, DoublePoleError}


@CRAFTED_ROWS
def test_the_walk_leaves_exactly_the_exact_zeros_out(rows):
    # Over the crafted draws above: the residues have an entry exactly where
    # the oracle's leading term has a nonzero lead, and the series exactly
    # where the oracle's coefficient is nonzero, so an in-cone exact zero
    # (an off-point column with U = 1) is left out by both routes.
    data = ToricData(m=rows, omega=(1, 1), name="f1-permuted")
    box = truncation_box(data, 4)
    ctx = sample_context(data.N, 47)
    mu = Fraction(5, 3)

    def nonzero_leads(fp):
        # The oracle's residues raise where the walk's do: a pole of order 2 or more.
        ratio_oracle.residues(data, fp, box, ctx, 1 / mu)
        u = fp.u_values(ctx.Lambda)
        terms = ratio_oracle.ratio_products(
            data, fp, box, lambda j, depths: ratio_oracle.root_table(u[j], depths, 1 / mu))
        return {d for d, term in terms.items() if term.lead != 0}

    routes = {
        1 / ctx.q: (lambda fp: set(component_series(data, fp, box, ctx).coeffs),
                    lambda fp: {d for d, c in
                                ratio_oracle.component_coefficients(data, fp, box, ctx).items()
                                if c != 0}),
        mu: (lambda fp: set(component_residues(data, fp, box, fp.u_values(ctx.Lambda), 1 / mu)),
             nonzero_leads),
    }
    zeros = set()
    for x, ks, fp in _crafted_draws(routes):
        walk, oracle = routes[x]
        got, expected = _outcome(lambda: walk(fp)), _outcome(lambda: oracle(fp))
        assert got == expected, (x, ks)
        if isinstance(got, set):
            zeros |= {(x, d) for d in box.degrees
                      if d not in got and all(D >= 0 for D in (degree_pairing(data, d)[j]
                                                               for j in fp.J))}
    # Both routes meet exact zeros inside alpha's dual cone.
    assert {x for x, _ in zeros} == set(routes)


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
            assert set(series.coeffs) == expected


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
            fE = ratio_oracle.bundle_factor(p2, fp, even, d, ctx)
            fP = ratio_oracle.bundle_factor(p2, fp, odd, d, ctx)
            assert fE * fP == 1


# Split bundles for the walk: (base, fibre exponents, K rows by L summands).
BUNDLES = [
    ("p2", ((1, 2),)),                 # O(1) + O(2) over P^2
    ("p2", ((-1, 2),)),                # O(-1) + O(2): a negative fibre degree
    ("p1", ((-2, 1),)),                # O(-2) + O(1) over P^1
    ("f1", ((1, -1), (2, 1))),         # F_1, a 2-row block with a negative entry
    ("p1xp1", ((1, 0), (1, 1))),       # P^1 x P^1
]
BUNDLE_BASES = {"p1": projective_space(1), "p2": projective_space(2), "f1": hirzebruch(),
                "p1xp1": product_of_lines()}


@pytest.mark.parametrize("parity", ["E", "PiE"])
@pytest.mark.parametrize("base, exponents", BUNDLES, ids=lambda x: str(x))
def test_bundle_walk_matches_the_oracle(base, exponents, parity):
    # The fibres as walk columns against the per-degree oracle (the component
    # times bundle_factor), at every box degree.
    data = BUNDLE_BASES[base]
    bundle = BundleData(exponents=exponents, parity=parity)
    box = truncation_box(data, 8 if data.K == 1 else 5)
    ctx = sample_context(data.N, 31)
    for fp in enumerate_fixed_points(data):
        series = component_series(data, fp, box, ctx, bundle=bundle)
        expected = ratio_oracle.bundle_coefficients(data, fp, box, ctx, bundle)
        assert {d: series.coefficient(d) for d in box.degrees} == \
            {d: expected.get(d, 0) for d in box.degrees}, fp.J


@pytest.mark.parametrize("base, exponents", BUNDLES, ids=lambda x: str(x))
def test_bundle_reciprocity_through_the_walk(base, exponents):
    # E * PiE = (untwisted)^2 at every box degree.
    data = BUNDLE_BASES[base]
    box = truncation_box(data, 8 if data.K == 1 else 5)
    ctx = sample_context(data.N, 37)
    for fp in enumerate_fixed_points(data):
        plain, even, odd = (component_series(data, fp, box, ctx, bundle=bundle) for bundle in
                            (None, BundleData(exponents, "E"), BundleData(exponents, "PiE")))
        for d in box.degrees:
            assert even.coefficient(d) * odd.coefficient(d) == plain.coefficient(d) ** 2, d


# Split bundles read as toric columns: (base, fibre exponents, K rows by L summands).
COLUMN_BUNDLES = [
    ("p2", ((1, 2),)),                 # O(1) + O(2) over P^2
    ("p2", ((-3,),)),                  # O(-3), the total space K_{P^2}
    ("p2", ((-1, 2),)),                # O(-1) + O(2)
    ("p1", ((-1, -1),)),               # O(-1) + O(-1), the resolved conifold
    ("p1", ((-2, 1),)),                # O(-2) + O(1)
    ("f1", ((1, -1), (0, 2))),         # F_1, a 2-row block with a negative entry
    ("p1xp1", ((1,), (1,))),           # O(1, 1) over P^1 x P^1
    ("p1xp1", ((-1, 2), (1, -1))),     # O(-1, 1) + O(2, -1)
]


@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize("base, exponents", COLUMN_BUNDLES, ids=str)
def test_a_bundle_summand_is_one_more_toric_column(base, exponents, seed):
    # Summand a, with exponents l_{.a}, is the column l_{.a} of the total space,
    # and its fibre weight lam V_a(alpha) is that column's U value at
    # Lambda_{N+a} = 1/lam. The total space may not be compact, so it is not
    # walked: each base fixed point is extended from its own basis. The column
    # route equals the E twist, and times the PiE twist gives the untwisted
    # series squared, at every box degree.
    data = BUNDLE_BASES[base]
    ext = ToricData([row + l for row, l in zip(data.m, exponents)], data.omega)
    box = truncation_box(data, 4)
    ext_box = TruncationBox(data=ext, ample=box.ample, bound=box.bound, degrees=box.degrees)

    def check(ctx):
        ext_ctx = ctx._replace(Lambda=ctx.Lambda + (1 / ctx.lam,) * len(exponents[0]))
        for fp in enumerate_fixed_points(data):
            ext_fp = toric._build_fixed_point(ext, fp.J, fp.det,
                                              [[fp.det * x for x in r] for r in fp.q_monomials])
            columns = component_series(ext, ext_fp, ext_box, ext_ctx)
            plain, even, odd = (component_series(data, fp, box, ctx, bundle=bundle) for bundle in
                                (None, BundleData(exponents, "E"), BundleData(exponents, "PiE")))
            assert columns.coeffs == even.coeffs, fp.J
            for d in box.degrees:
                assert odd.coefficient(d) * columns.coefficient(d) == \
                    plain.coefficient(d) ** 2, (fp.J, d)

    with_resampling(lambda t: sample_context(data.N, seed, t), check)


def _crafted_fibres(p2, toric, s, t):
    """A fixed point of P^2 (J = (0,)) with the given off-point U values, P(alpha) = q^t,
    and a context with lam = q^s: summand a of exponent l_a has lam V_a = q^(s + t l_a),
    so its factor 1 - q^r lam V_a vanishes at r = -(s + t l_a)."""
    ctx = sample_context(p2.N, 43)
    fp = SimpleNamespace(J=(0,), u_values=lambda _: (Fraction(1), *toric),
                         p_values=lambda _: (ctx.q ** t,))
    return fp, ctx._replace(lam=ctx.q ** s)


def test_bundle_walk_raises_the_oracles_first_error_at_crafted_poles(p2):
    # Fibre factors vanishing at r > 0 (an E or PiE pole), at r <= 0 (a PiE
    # pole, an E zero) and beside toric poles: the walk raises what the
    # per-degree oracle raises first (toric columns, then box order, then
    # fibre order), or gives its coefficients.
    box = truncation_box(p2, 7)
    q = sample_context(p2.N, 43).q
    rng = random.Random(11)
    seen = set()
    for _ in range(150):
        toric = [q ** -rng.randint(1, 9) if rng.random() < 0.15
                 else Fraction(rng.randint(2, 9), 7) for _ in range(2)]
        fp, ctx = _crafted_fibres(p2, toric, rng.randint(-6, 3), rng.randint(-3, 3))
        bundle = BundleData(exponents=(rng.choice([(1, 2), (2, 1), (-1, 2), (1, -1)]),),
                            parity=rng.choice(["E", "PiE"]))
        got = _outcome(lambda: component_series(p2, fp, box, ctx, bundle=bundle).coeffs)
        expected = _outcome(lambda: {
            d: c for d, c in ratio_oracle.bundle_coefficients(p2, fp, box, ctx, bundle).items()
            if c != 0})
        assert got == expected, (toric, bundle)
        seen.add(dict if isinstance(got, dict) else "r = 0" if " q^0 " in got[1] else "r > 0")
    assert seen == {dict, "r > 0", "r = 0"}, seen


def test_bundle_poles_reached_in_the_opposite_order_of_the_fibres(p2):
    # Summand 0 (Delta = d) vanishes at r = 4, summand 1 (Delta = 2d) at r = 5:
    # degree 3 reaches summand 1's pole first, so it is the one raised.
    box = truncation_box(p2, 6)
    fp, ctx = _crafted_fibres(p2, (Fraction(2, 7), Fraction(3, 7)), -3, -1)
    for parity in ("E", "PiE"):
        bundle = BundleData(exponents=((1, 2),), parity=parity)
        with pytest.raises(PoleError) as exc:
            component_series(p2, fp, box, ctx, bundle=bundle)
        assert (exc.value.r, exc.value.value) == (5, ctx.q ** -5)
        assert _outcome(lambda: ratio_oracle.bundle_coefficients(p2, fp, box, ctx, bundle)) \
            == (PoleError, str(exc.value))


def test_bundle_pie_zero_at_nonpositive_r_is_a_pole(p2):
    # O(-1): Delta = -d crosses r = 0 at d = 1, where lam V = 1; E keeps the
    # zero (every coefficient past degree 0 vanishes), PiE raises PoleError(0, 1).
    box = truncation_box(p2, 4)
    fp, ctx = _crafted_fibres(p2, (Fraction(2, 7), Fraction(3, 7)), 1, 1)
    even = component_series(p2, fp, box, ctx, bundle=BundleData(((-1, 0),), "E"))
    assert list(even.coeffs) == [(0,)]
    with pytest.raises(PoleError) as exc:
        component_series(p2, fp, box, ctx, bundle=BundleData(((-1, 0),), "PiE"))
    assert (exc.value.r, exc.value.value) == (0, 1)


def test_bundle_factor_count_is_linear_in_the_bound(p2, monkeypatch):
    # Every factor 1 - q^r u the component evaluates, toric and fibre, is one
    # call of the integer kernel: a walk computes each crossed factor once, so
    # doubling the bound doubles the count.
    calls = []
    honest = scalars.binomial

    def counting(*args, **kwargs):
        factor = honest(*args, **kwargs)

        def counted(r):
            calls.append(r)
            return factor(r)
        return counted

    monkeypatch.setattr(scalars, "binomial", counting)
    ctx = sample_context(p2.N, 53)
    fp = enumerate_fixed_points(p2)[0]
    counts = {}
    for bound in (20, 40):
        calls.clear()
        for parity in ("E", "PiE"):
            component_series(p2, fp, truncation_box(p2, bound), ctx,
                             bundle=BundleData(((1, 2),), parity))
        counts[bound] = len(calls)
    assert 0 < counts[40] <= 2 * counts[20], counts


class _CountedInt(int):
    """A kernel pair's denominator that counts the products it enters: a factor
    enters a step's product (multiplied or divided in) by exactly one product
    with its denominator, and int * _CountedInt calls this ``__rmul__`` first."""

    def __new__(cls, value, count):
        self = super().__new__(cls, value)
        self.count = count
        return self

    def __rmul__(self, other):
        self.count.append(1)
        return int(other) * int(self)


def test_walk_builds_each_step_once(monkeypatch):
    # On (P^1)^3 a step in direction i moves the two columns of the i-th line
    # from depth d_i - 1 to d_i, so a walk to bound b builds 3 b distinct steps
    # of two small factors each: 60 at b = 10, 120 at b = 20, where rebuilding
    # every degree's step takes 2 (#box - 1) = 570 and 3540.
    data = _model("p1x3", LINE, LINE, LINE)
    ctx = sample_context(data.N, 7)
    fp = enumerate_fixed_points(data)[0]
    count = []
    honest = scalars.binomial

    def counting(*args, **kwargs):
        factor = honest(*args, **kwargs)

        def counted(r):
            num, den = factor(r)
            return num, _CountedInt(den, count)
        return counted

    monkeypatch.setattr(scalars, "binomial", counting)
    counts, walked = {}, []
    for bound in (10, 20):
        count.clear()
        walked.append(component_series(data, fp, truncation_box(data, bound), ctx))
        counts[bound] = len(count)
    monkeypatch.undo()
    assert counts == {10: 60, 20: 120}
    for series in walked:
        assert series == component_series(data, fp, series.box, ctx)


def test_bundle_delta():
    bundle = BundleData(exponents=((1, 2),), parity="E")
    assert bundle.delta((3,)) == (3, 6)
    assert bundle.L == 2
    with pytest.raises(ValueError):
        BundleData(exponents=((1,),), parity="X")


def test_a_bundle_with_too_few_rows_is_refused(f1):
    # One row on a K = 2 model: no IndexError inside the walk, and delta does
    # not zip (1, 5) down to its first coordinate.
    bundle = BundleData(exponents=((1,),))
    ctx = sample_context(f1.N, 5)
    with pytest.raises(InvalidModelError, match="bundle has 1 rows, K = 2"):
        assemble_series(f1, truncation_box(f1, 2), ctx, bundle=bundle)
    with pytest.raises(InvalidModelError, match="degree must have 1 coordinates"):
        bundle.delta((1, 5))


def test_a_bundle_with_too_many_rows_is_refused(f1):
    # A third row would be ignored by the walk and by delta.
    bundle = BundleData(exponents=((1,), (2,), (3,)))
    ctx = sample_context(f1.N, 5)
    with pytest.raises(InvalidModelError, match="bundle has 3 rows, K = 2"):
        assemble_series(f1, truncation_box(f1, 2), ctx, bundle=bundle)
    with pytest.raises(InvalidModelError, match="degree must have 3 coordinates"):
        bundle.delta((1, 5))


def test_a_bundle_with_ragged_rows_is_refused():
    # As ToricData refuses its matrix: delta((1, 5)) would index past the short row.
    with pytest.raises(InvalidModelError, match="^bundle rows have unequal lengths$"):
        BundleData(((1, 2), (3,)))


def test_a_non_integral_degree_is_refused_by_bundles_and_point_series(p1):
    # Q^{3/2} is not a Novikov monomial: it is not read as Q^1.
    bundle = BundleData(exponents=((1, 2),))
    with pytest.raises(ValueError, match=r"^degree \(3/2\) is not integral$"):
        bundle.delta((Fraction(3, 2),))
    assert bundle.delta((Fraction(3),)) == bundle.delta((3,)) == (3, 6)
    box = truncation_box(p1, 3)
    ctx = sample_context(p1.N, 5)
    with pytest.raises(ValueError, match=r"^degree \(1/2\) is not integral$"):
        point_series([(Fraction(1, 2),)], box, ctx)
    assert point_series([(Fraction(1),)], box, ctx) == point_series([(1,)], box, ctx)


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
    tau = NovikovSeries(box, {g: Fraction(1) for g in fp.q_monomials})
    arg = None
    k = 1
    while True:
        term = adams(tau, k)
        if not term.coeffs:
            break
        term = term.scale(1 / (k * (1 - ctx.q ** k)))
        arg = term if arg is None else add(arg, term)
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


def exp_by_powers(s):
    """exp(s) as sum_n s^n / n!, each power one more ``multiply``, until a power is 0."""
    out = power = constant_series(s.box, 1)
    n = 0
    while True:
        n += 1
        power = multiply(power, s)
        if not power.coeffs:
            return out
        out = add(out, power.scale(Fraction(1, factorial(n))))


@st.composite
def sparse_arguments(draw):
    """Two series with vanishing constant term on one rank-2 box (P^1 x P^1 or F_1)."""
    data = draw(st.sampled_from([product_of_lines(), hirzebruch()]))
    box = truncation_box(data, draw(st.integers(1, 5)))
    nonzero = box.degrees[1:]
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=7)

    def argument():
        support = draw(st.lists(st.sampled_from(nonzero), max_size=4, unique=True))
        return NovikovSeries(box, {d: draw(coefficients) for d in support})
    return argument(), argument()


@settings(max_examples=150, deadline=None)
@given(args=sparse_arguments())
def test_series_exp_matches_the_power_sum(args):
    a, b = args
    assert series_exp(a) == exp_by_powers(a)
    assert series_exp(add(a, b)) == multiply(series_exp(a), series_exp(b))


def test_gamma_reconstruction_builds_no_exponential(monkeypatch):
    def fail(s):
        raise AssertionError("the exp form was built")

    monkeypatch.setattr(series_module, "series_exp", fail)
    for data in (projective_space(2), hirzebruch()):
        box = truncation_box(data, 4)
        ctx = sample_context(data.N, 37)
        for fp in enumerate_fixed_points(data):
            rebuilt, direct = qdiff.gamma_reconstruction(data, fp, box, ctx)
            assert rebuilt == direct
