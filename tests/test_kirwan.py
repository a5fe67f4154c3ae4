from fractions import Fraction
from itertools import combinations
from math import prod

from qtoric import cli, kirwan
from qtoric.kirwan import (
    has_empty_intersection,
    kirwan_relations,
    spectrum_point_count,
    verify_relations_at_fixed_points,
)
from qtoric.scalars import DegenerateSampleError, sample_context, with_resampling
from qtoric.toric import ToricData, divisor_values, enumerate_fixed_points


def relation_sets(data):
    return list(kirwan_relations(data))


def test_empty_intersection_examples(f1):
    assert has_empty_intersection(f1, (0, 1)) is True     # u1 u2 = 0
    assert has_empty_intersection(f1, (0, 2)) is False    # meets nothing off {2,4}
    assert has_empty_intersection(f1, (2, 3)) is True     # u3 u4 = 0


def test_relations_f1(f1):
    assert relation_sets(f1) == [(0, 1), (2, 3)]


def test_relations_p1_p2(p1, p2):
    assert relation_sets(p1) == [(0, 1)]
    # brute force oracle for the plane: subsets hitting every fixed point
    fps = [set(fp.J) for fp in enumerate_fixed_points(p2)]
    brute = []
    for size in range(1, 4):
        for subset in combinations(range(3), size):
            if any(set(prev) <= set(subset) for prev in brute):
                continue
            if all(set(subset) & points for points in fps):
                brute.append(subset)
    assert relation_sets(p2) == brute == [(0, 1, 2)]


def test_relations_minimality(all_models):
    for data in all_models:
        for relation in kirwan_relations(data):
            for drop in relation:
                smaller = tuple(j for j in relation if j != drop)
                if smaller:
                    assert not has_empty_intersection(data, smaller)


def test_verification_at_fixed_points(all_models):
    for data in all_models:
        ctx = sample_context(data.N, 17)
        report = verify_relations_at_fixed_points(data, ctx)
        assert report["ok"], report


def test_f1_nonequivariant_presentation(f1):
    # The two relation products, expanded as polynomials in p_1, p_2 with the
    # parameters switched off, are p_1^2 and p_2(p_2 - p_1).
    def linear_form(j):
        return tuple(f1.m[i][j] for i in range(2))

    def multiply(forms):
        acc = {(0, 0): Fraction(1)}
        for form in forms:
            nxt = {}
            for (a, b), c in acc.items():
                for i, coeff in enumerate(form):
                    if coeff:
                        key = (a + (i == 0), b + (i == 1))
                        nxt[key] = nxt.get(key, Fraction(0)) + c * coeff
            acc = nxt
        return {k: v for k, v in acc.items() if v}

    rel1, rel2 = kirwan_relations(f1)
    assert multiply([linear_form(j) for j in rel1]) == {(2, 0): 1}
    assert multiply([linear_form(j) for j in rel2]) == {(0, 2): 1, (1, 1): -1}


def test_spectrum_count_matches_fixed_points(all_models):
    for data in all_models:
        expected = len(enumerate_fixed_points(data))
        for i in range(20):
            count, _ = with_resampling(
                lambda t, i=i: sample_context(data.N, 23, i * 50 + t),
                lambda c: spectrum_point_count(data, c),
            )
            assert count == expected


def test_spectrum_count_degenerate_sample(p1):
    ctx = sample_context(p1.N, 1)
    collided = ctx.__class__(q=ctx.q, Lambda=(Fraction(2), Fraction(2)),
                             lam=ctx.lam, z=ctx.z)
    try:
        spectrum_point_count(p1, collided)
    except DegenerateSampleError:
        return
    raise AssertionError("expected a degenerate-sample error")


def test_relations_are_computed_once_per_model(monkeypatch, capsys):
    # A model no other test builds, so the cache starts cold for it.
    data = ToricData(m=((1, 1, 0, -4), (0, 0, 1, 1)), omega=(1, 1), name="f4-kirwan")
    calls = []
    monkeypatch.setattr(kirwan, "has_empty_intersection",
                        lambda d, subset: calls.append(subset) or has_empty_intersection(d, subset))
    first = kirwan_relations(data)
    assert calls and kirwan_relations(data) is first
    once = len(calls)
    model = cli.ModelFile(data=data, sha256="0" * 64)
    flags = cli.build_parser().parse_args(["kirwan", "f4", "--samples", "3"])
    report = cli.run_command("kirwan", model, flags)
    assert report["ok"] and len(calls) == once


def product_verdicts(data, ctx, relations):
    """The verdicts from the two relation products themselves."""
    out = []
    for relation in relations:
        for fp in enumerate_fixed_points(data):
            uvals = fp.u_values(ctx.Lambda)
            dvals = divisor_values(data, fp, ctx.Lambda)
            out.append(bool(set(relation) & set(fp.J))
                       and prod(1 - uvals[j] for j in relation) == 0
                       and prod(dvals[j] for j in relation) == 0)
    return out


def test_vanishing_factor_verdicts_match_the_products(all_models, monkeypatch):
    # Every subset of up to two columns stands in for a relation, so that
    # most verdicts are false; they must equal the products' verdicts.
    for data in all_models:
        ctx = sample_context(data.N, 29)
        subsets = [c for size in (1, 2) for c in combinations(range(data.N), size)]
        monkeypatch.setattr(kirwan, "kirwan_relations", lambda d, subsets=subsets: subsets)
        report = verify_relations_at_fixed_points(data, ctx)
        verdicts = [check["ok"] for check in report["checks"]]
        assert verdicts == product_verdicts(data, ctx, subsets)
        assert True in verdicts and False in verdicts and report["ok"] is False
