import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from linalg_oracle import solve_square
from test_word_tables import MODELS, model
from qtoric.exprs import parse_expression
from qtoric.kirwan import kirwan_relations
from qtoric.localization import cohomology_integral, ktheory_trace, map_space_integral
from qtoric.scalars import PoleError, SampleContext, sample_context, with_resampling
from qtoric.toric import (
    ToricData,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    equivariant_p_values,
)


def test_trace_of_one_is_one(all_models):
    for data in all_models:
        for i in range(5):
            value, _ = with_resampling(
                lambda t, i=i: sample_context(data.N, 3, i * 40 + t),
                lambda c: ktheory_trace(data, lambda env: Fraction(1), c),
            )
            assert value == 1


def test_trace_p1_two_term_cancellation(p1):
    # 1/(1 - L2/L1) + 1/(1 - L1/L2) = 1, the hand-checkable case.
    ctx = sample_context(p1.N, 7)
    a, b = ctx.Lambda
    assert 1 / (1 - b / a) + 1 / (1 - a / b) == 1
    assert ktheory_trace(p1, lambda env: Fraction(1), ctx) == 1


def test_trace_f1_four_term_display(f1):
    # The four-term residue sum written out independently, with the fourth
    # numerator argument L2*L4 (the garbled factor in the source display).
    def display(phi, L):
        L1, L2, L3, L4 = L
        return (phi(L1, L3) / ((1 - L1 / L2) * (1 - L3 / (L1 * L4)))
                + phi(L2, L3) / ((1 - L2 / L1) * (1 - L3 / (L2 * L4)))
                + phi(L1, L1 * L4) / ((1 - L1 / L2) * (1 - L1 * L4 / L3))
                + phi(L2, L2 * L4) / ((1 - L2 / L1) * (1 - L2 * L4 / L3)))

    rng = random.Random(11)
    for sample in range(5):
        ctx = sample_context(f1.N, 13, sample)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]

        def phi(a, b, c=coeffs):
            return c[0] * a ** 2 * b + c[1] * a + c[2]

        lib = ktheory_trace(f1, lambda env: phi(env["P1"], env["P2"]), ctx)
        assert lib == display(phi, ctx.Lambda)


def test_trace_kirwan_class_vanishes(all_models):
    for data in all_models:
        ctx = sample_context(data.N, 17)
        for relation in kirwan_relations(data):
            def phi(env, J=relation.J):
                out = Fraction(1)
                for j in J:
                    u = Fraction(1)
                    for i in range(data.K):
                        u *= env[f"P{i+1}"] ** data.m[i][j]
                    out *= 1 - u / env[f"L{j+1}"]
                return out

            assert ktheory_trace(data, phi, ctx) == 0


def test_trace_expression_tree(f1):
    ctx = sample_context(f1.N, 19)
    expr = parse_expression("3*P1^2*P2 - 1/2*P2 + 5")
    def phi(env):
        return 3 * env["P1"] ** 2 * env["P2"] - Fraction(1, 2) * env["P2"] + 5
    assert ktheory_trace(f1, expr, ctx) == ktheory_trace(f1, phi, ctx)


def test_integral_dimension_axiom(p1, f1):
    ctx = sample_context(p1.N, 23)
    assert cohomology_integral(p1, lambda env: Fraction(1), ctx) == 0
    rng = random.Random(29)
    ctx4 = sample_context(f1.N, 23)
    for _ in range(5):
        a, b, c = (Fraction(rng.randint(-5, 5)) for _ in range(3))
        # degree < K = 2 in the p's: constants and linear forms integrate to 0
        assert cohomology_integral(f1, lambda e: a * e["p1"] + b * e["p2"] + c, ctx4) == 0


def test_integral_point_class_is_one(p1):
    ctx = sample_context(p1.N, 31)
    assert cohomology_integral(p1, lambda e: e["p1"] - e["l2"], ctx) == 1
    assert cohomology_integral(p1, lambda e: e["p1"] - e["l1"], ctx) == 1


def test_integral_zero_dimensional_case():
    data = ToricData(m=((1, 0), (0, 1)), omega=(Fraction(1), Fraction(1)))
    ctx = sample_context(2, 37)
    assert cohomology_integral(data, lambda e: Fraction(1), ctx) == 1


def test_map_space_degree_zero_reduces(p1, f1):
    for data in (p1, f1):
        ctx = sample_context(data.N, 41)
        zero = tuple(0 for _ in range(data.K))
        for phi in (lambda e: Fraction(1),
                    lambda e: e["p1"] - e["l2"],
                    lambda e: (e["p1"] + 2) * (e["p1"] - e["l1"])):
            assert map_space_integral(data, zero, phi, ctx) == \
                cohomology_integral(data, phi, ctx)


def test_map_space_p1_degree_one(p1):
    ctx = sample_context(p1.N, 43)
    assert map_space_integral(p1, (1,), lambda e: Fraction(1), ctx) == 0

    def top(e):
        return (e["p1"] - e["l1"]) * (e["p1"] - e["l2"]) * (e["p1"] - e["l2"] - e["z"])

    # regression value, frozen from the four-pole hand computation
    assert map_space_integral(p1, (1,), top, ctx) == 1
    other = sample_context(p1.N, 47)
    assert map_space_integral(p1, (1,), top, other) == 1


def test_map_space_f1_with_obstruction(f1):
    # D = (1, 1, 0, -1): two of the four fixed points drop out and column 4
    # contributes an obstruction factor; a dimension-matched class gives a
    # sample-independent rational.
    def top(e):
        u1 = e["p1"] - e["l1"]
        u2 = e["p1"] - e["l2"]
        u3 = e["p2"] - e["l3"]
        return u1 * u2 * u3

    values = set()
    for seed in (53, 59, 61):
        ctx = sample_context(f1.N, seed)
        values.add(map_space_integral(f1, (1, 0), top, ctx))
    assert len(values) == 1


def test_map_space_coincident_poles_raise(p1):
    ctx = sample_context(p1.N, 67)
    degenerate = SampleContext(q=ctx.q, Lambda=ctx.Lambda, lam=ctx.lam, z=Fraction(0))
    with pytest.raises(PoleError):
        map_space_integral(p1, (1,), lambda e: Fraction(1), degenerate)


def test_trace_pole_resampling(p1):
    # L1 = L2 makes 1 - U_2(alpha) vanish: the trace must flag the sample.
    bad = SampleContext(q=Fraction(1, 2), Lambda=(Fraction(3), Fraction(3)),
                        lam=Fraction(2), z=Fraction(1))
    with pytest.raises(PoleError):
        ktheory_trace(p1, lambda env: Fraction(1), bad)


def solved_p_values(data, fp, rhs):
    """sum_i p_i m_ij = rhs[j] for j in J, by elimination."""
    return tuple(solve_square([[data.m[i][j] for i in range(data.K)] for j in fp.J],
                              [rhs[j] for j in fp.J]))


def solved_divisor_values(data, p, lambdas):
    return tuple(sum(p[i] * data.m[i][j] for i in range(data.K)) - lambdas[j]
                 for j in range(data.N))


@pytest.mark.parametrize("name", MODELS)
def test_additive_values_match_the_solved_system(name):
    data, _ = model(name)
    for seed in (3, 17, 29):
        ctx = sample_context(data.N, seed)
        for fp in enumerate_fixed_points(data):
            p = solved_p_values(data, fp, ctx.Lambda)
            assert equivariant_p_values(data, fp, ctx.Lambda) == p
            assert divisor_values(data, fp, ctx.Lambda) == solved_divisor_values(data, p, ctx.Lambda)


def solved_map_space_integral(data, d, phi, ctx):
    """The residue sum over shift assignments, each pole point p* solved afresh."""
    pairing = degree_pairing(data, d)
    total = Fraction(0)
    for fp in enumerate_fixed_points(data):
        if any(pairing[j] < 0 for j in fp.J):
            continue
        for shifts in itertools.product(*(range(pairing[j] + 1) for j in fp.J)):
            rhs = list(ctx.Lambda)
            for j, r in zip(fp.J, shifts):
                rhs[j] += r * ctx.z
            pstar = solved_p_values(data, fp, rhs)
            u = solved_divisor_values(data, pstar, ctx.Lambda)
            env = {f"p{i + 1}": x for i, x in enumerate(pstar)}
            env.update({f"l{j + 1}": x for j, x in enumerate(ctx.Lambda)}, z=ctx.z)
            numerator = phi(env)
            denom = Fraction(fp.det)
            for j in range(data.N):
                numerator *= prod(u[j] + r * ctx.z for r in range(1, 1 - pairing[j]))
                denom *= prod(u[j] - r * ctx.z for r in range(pairing[j] + 1)
                              if (j, r) not in zip(fp.J, shifts))
            total += numerator / denom
    return total


@pytest.mark.parametrize("name", MODELS)
def test_map_space_integral_matches_the_solved_pole_points(name):
    # The degrees with coordinates in {0, 1, 2} (in {0, 1} from rank 3 on),
    # negative pairings included, and a class that reads every p_i and z.
    data, _ = model(name)
    ctx = sample_context(data.N, 31)

    def phi(env):
        return prod(env[f"p{i + 1}"] + i + 1 for i in range(data.K)) + env["z"] * env["l1"]
    for d in itertools.product(range(3 if data.K < 3 else 2), repeat=data.K):
        assert map_space_integral(data, d, phi, ctx) == solved_map_space_integral(data, d, phi, ctx), d
