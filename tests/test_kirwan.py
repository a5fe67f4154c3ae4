import json
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from kirwan_oracle import has_empty_intersection, minimal_transversals, scan_relations
from test_mori_cone import blown_up_fans, fan_surface

from qtoric import cli, kirwan
from qtoric.kirwan import kirwan_relations, verify_relations_at_fixed_points
from qtoric.models import resolve_model
from qtoric.scalars import DegenerateSampleError, sample_context
from qtoric.toric import ToricData, divisor_values, enumerate_fixed_points

DATA = Path(__file__).parent / "data"


@pytest.fixture
def oracle_models(all_models, dp6):
    return [*all_models, dp6, *(resolve_model(str(DATA / f"{name}.model")).data
                                for name in ("surface8", "threefold7", "threefold7x2"))]


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
    assert relation_sets(p2) == list(scan_relations(p2)) == [(0, 1, 2)]


def test_relations_minimality(all_models):
    for data in all_models:
        for relation in kirwan_relations(data):
            for drop in relation:
                smaller = tuple(j for j in relation if j != drop)
                if smaller:
                    assert not has_empty_intersection(data, smaller)


def test_relations_are_the_subset_scan(oracle_models):
    # The same tuples in the same order as the 2^N - 1 subset scan.
    for data in oracle_models:
        assert kirwan_relations(data) == scan_relations(data), data.name


def test_relations_block_exactly_the_fixed_points(oracle_models):
    # Blocker duality (Edmonds and Fulkerson): the minimal transversals of the
    # relations are the fixed points' index sets again, so the relations are
    # complete; without any one relation the duality fails.
    for data in oracle_models:
        relations = kirwan_relations(data)
        points = {fp.J for fp in enumerate_fixed_points(data)}
        assert minimal_transversals(data.N, relations) == points, data.name
        for i in range(len(relations)):
            fewer = relations[:i] + relations[i + 1:]
            assert minimal_transversals(data.N, fewer) != points, (data.name, relations[i])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan=blown_up_fans(3, 8))
def test_surface_relations_are_the_non_adjacent_ray_pairs(fan):
    # On a smooth complete surface of N >= 4 rays the primitive collections
    # are the pairs of non-adjacent rays; on P^2 it is all three rays.
    rays, h = fan
    n = len(rays)
    expected = [(i, j) for i, j in combinations(range(n), 2) if j - i not in (1, n - 1)]
    assert list(kirwan_relations(fan_surface(rays, h))) == (expected if n >= 4 else [(0, 1, 2)])


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


def collided_context(data, seed):
    """The seed's first context with every parameter set to 2, so that on P^1
    both fixed points' P values meet."""
    ctx = sample_context(data.N, seed)
    return ctx._replace(Lambda=(Fraction(2),) * data.N)


def test_spectrum_count_degenerate_sample(p1):
    # Two branches meeting at one point make the sample degenerate: the
    # relation check raises before it checks anything.
    with pytest.raises(DegenerateSampleError, match="two branches met at the same solution"):
        verify_relations_at_fixed_points(p1, collided_context(p1, 1))


def test_kirwan_resamples_a_collided_first_context(p1, monkeypatch, capsys):
    # The command skips the collided context, says why, and checks the next one.
    def contexts(n, seed, index=0):
        return collided_context(p1, seed) if index == 0 else sample_context(n, seed, index)

    monkeypatch.setattr(cli, "sample_context", contexts)
    assert cli.main(["kirwan", "p1", "--samples", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["resamples"] == [
        {"index": 0, "reason": "DegenerateSampleError: two branches met at the same solution"}]
    assert report["result"]["spectrum_points"] == report["result"]["fixed_points"] == 2


def test_relations_are_computed_once_per_model():
    # A model no other test builds, so the cache starts cold for it.
    data = ToricData(m=((1, 1, 0, -4), (0, 0, 1, 1)), omega=(1, 1), name="f4-kirwan")
    before = kirwan_relations.cache_info().misses
    first = kirwan_relations(data)
    assert kirwan_relations(data) is first
    once = kirwan_relations.cache_info().misses
    assert once == before + 1
    model = cli.ModelFile(data=data, sha256="0" * 64)
    flags = cli.build_parser().parse_args(["kirwan", "f4", "--samples", "3"])
    report = cli.run_command("kirwan", model, flags)
    assert report["ok"] and kirwan_relations.cache_info().misses == once


def product_verdicts(data, ctx, relations):
    """The verdicts from the two relation products themselves."""
    out = []
    for relation in relations:
        for fp in enumerate_fixed_points(data):
            uvals = fp.u_values(ctx.Lambda)
            dvals = divisor_values(fp, ctx.Lambda)
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
