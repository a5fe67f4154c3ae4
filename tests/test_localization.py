import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import localization_oracle as oracle
from linalg_oracle import solve_square
from test_extra_models import EXTRA, SWAPPED_QUADRIC
from test_mori_cone import SURFACE8, blown_up_fans, fan_surface
from test_mori_cone import models as family_rows
from test_word_tables import MODELS, model
from qtoric.exprs import ZeroDivisorError, parse_expression
from qtoric.kirwan import kirwan_relations
from qtoric.models import bundled_model_names, resolve_model
from qtoric.localization import (
    cohomology_integral,
    ktheory_trace,
    map_space_integral,
)
from qtoric.scalars import (
    PoleError,
    SampleContext,
    cotangent_pair,
    power_pair,
    sample_context,
    with_resampling,
)
from qtoric.toric import (
    ToricData,
    _weighted_sums,
    degree_pairing,
    divisor_values,
    enumerate_fixed_points,
    mori_generators,
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
            def phi(env, J=relation):
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


# Per model: a grading positive on every column, and nef degrees a.
SECTION_CASES = {
    "p1": ((1,), [(0,), (1,), (2,), (5,)]),
    "p2": ((1,), [(1,), (2,), (3,)]),
    "p1xp1": ((1, 1), [(1, 0), (1, 2), (2, 1), (0, 3)]),
    "f1": ((1, 2), [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2)]),
    "p2_o1_o2": ((1,), [(2,)]),
}


@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize("name", SECTION_CASES)
def test_trace_of_a_nef_line_bundle_is_its_sections(name, seed):
    # For nef a, the higher cohomology of the line bundle of P^-a vanishes
    # (Demazure), so its trace is the character of its sections, the Cox-ring
    # monomials of degree a: sum over k >= 0 with m k = a of prod_j L_j^-k_j.
    grading, degrees = SECTION_CASES[name]
    data = resolve_model(name).data
    ctx = sample_context(data.N, seed)
    for a in degrees:
        assert all(sum(x * y for x, y in zip(a, g)) >= 0 for g in mori_generators(data))
        phi = parse_expression("*".join(f"P{i + 1}^-{x}" for i, x in enumerate(a)))
        sections = sum(prod(lam ** -kj for lam, kj in zip(ctx.Lambda, k))
                       for k in oracle.cox_sections(data, a, grading))
        assert ktheory_trace(data, phi, ctx) == sections, a


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


LOOP_CASES = [("p1", (1,)), ("p1", (2,)), ("p2", (1,)), ("p2", (2,)),
              ("p1xp1", (1, 0)), ("p1xp1", (1, 1)), ("p1xp1", (2, 1)),
              ("f1", (0, 1)), ("f1", (1, 1)), ("f1", (1, 2))]


@pytest.mark.parametrize("name, d", LOOP_CASES)
def test_map_space_integral_is_the_loop_pairing(name, d):
    # Localizing on X_d splits d = d' + d'' between the sphere's two poles:
    # the integral is the pairing of the I-function at -z with itself at z.
    # Where some D_j(d) < 0 (f1 at (1, 0) and (2, 1)) the obstruction
    # factors are not this pairing, so those degrees are left out.  Classes
    # below dim X_d = sum_j (D_j(d) + 1) - K integrate to 0 on both sides.
    data = resolve_model(name).data
    pairing = degree_pairing(data, d)
    assert min(pairing) >= 0
    dim = sum(x + 1 for x in pairing) - data.K
    forms = (" + ".join(f"{i + 2}*p{i + 1}" for i in range(data.K)) + " + l1 - z",
             "p1 - 3*l2 + 2*z")
    phis = [parse_expression(f"({form})^{power}") for form in forms for power in (dim, dim + 1)]
    for seed in (11, 23):
        ctx = sample_context(data.N, seed)
        assert [map_space_integral(data, d, phi, ctx) for phi in phis] == \
            oracle.loop_pairing(data, d, phis, ctx), seed


def test_map_space_refuses_a_non_integral_degree(p1, f1):
    # The degree-3/2 sphere space is not the degree-1 one.
    ctx = sample_context(p1.N, 43)

    def top(e):
        return (e["p1"] - e["l1"]) * (e["p1"] - e["l2"]) * (e["p1"] - e["l2"] - e["z"])
    for d, text in (((Fraction(3, 2),), "3/2"), ((Fraction(1, 2),), "1/2")):
        with pytest.raises(ValueError, match=rf"^degree \({text}\) is not integral$"):
            map_space_integral(p1, d, top, ctx)
    assert map_space_integral(p1, (Fraction(1),), top, ctx) == 1
    ctx = sample_context(f1.N, 53)
    assert map_space_integral(f1, (Fraction(1), Fraction(0)), top, ctx) == \
        map_space_integral(f1, (1, 0), top, ctx)


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
            assert _weighted_sums(fp.p_monomials, ctx.Lambda) == p
            assert divisor_values(fp, ctx.Lambda) == solved_divisor_values(data, p, ctx.Lambda)


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
            denom = Fraction(1)
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


# --- integer routes against the Fraction oracle -------------------------------
#
# Each sum builds its terms from ints over the sample's common denominator;
# ``localization_oracle`` is the Fraction route it replaced.  Values, and the
# PoleError or ZeroDivisorError that ends a sum, must be the same.

NAMED = {}
for candidate in [model(name)[0] for name in MODELS] + EXTRA:  # F_1 is bundled too: once per matrix
    if all(candidate.m != other.m for other in NAMED.values()):
        NAMED[candidate.name] = candidate
toric_models = st.one_of(
    st.sampled_from(sorted(NAMED)).map(NAMED.get),
    family_rows.map(lambda rows: ToricData(m=rows, omega=(1,) * len(rows))),
)
# A small pool makes values collide, so that poles and zero divisors occur;
# generic values give nonzero sums.
SMALL = [Fraction(n, d) for n in (1, 2, 3, -1, -2) for d in (1, 2, 3)]
generic = st.fractions(min_value=-20, max_value=20, max_denominator=60).filter(bool)
nonzero = st.one_of(st.sampled_from(SMALL), generic)


@st.composite
def contexts(draw, n):
    """Nonzero lambdas and q (multiplicative parameters), and any z."""
    return SampleContext(q=draw(nonzero), Lambda=tuple(draw(nonzero) for _ in range(n)),
                         lam=Fraction(2), z=draw(st.one_of(nonzero, st.just(Fraction(0)))))


@st.composite
def classes(draw, symbols, depth=3):
    """The text of a random class expression over ``symbols``."""
    kinds = ["number", "symbol", "symbol"]
    if depth:
        kinds += ["negation", "power", "sum", "product", "quotient"]
    kind = draw(st.sampled_from(kinds))
    if kind == "number":
        return str(draw(st.integers(0, 9)))
    if kind == "symbol":
        return draw(st.sampled_from(symbols))
    a = draw(classes(symbols, depth - 1))
    if kind == "negation":
        return f"-({a})"
    if kind == "power":
        return f"({a})^{draw(st.integers(-2, 3))}"
    b = draw(classes(symbols, depth - 1))
    op = {"sum": draw(st.sampled_from("+-")), "product": "*", "quotient": "/"}[kind]
    return f"({a}) {op} ({b})"


def symbols(data, p, lam):
    return ([f"{p}{i + 1}" for i in range(data.K)]
            + [f"{lam}{j + 1}" for j in range(data.N)] + ["q", "z"])


def outcome(fn, *args):
    """The value, or the type, text and pole data of the error that ended it."""
    try:
        value = fn(*args)
    except (PoleError, ZeroDivisionError) as exc:
        return type(exc), str(exc), getattr(exc, "r", None), getattr(exc, "value", None)
    assert type(value) in (Fraction, tuple)
    return value


def tree_walk(expr):
    return lambda env: oracle.evaluate_tree(expr.tree, env)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(draw=st.data())
def test_integer_routes_match_the_fraction_oracle(draw):
    data = draw.draw(toric_models)
    ctx = draw.draw(contexts(data.N))
    reach = range(-1, 3) if data.K <= 2 else range(-1, 2)
    d = draw.draw(st.tuples(*[st.sampled_from(reach)] * data.K))
    # Over a linear form in the p's, so that a sum is not 0 for dimension reasons.
    linear_form = "+".join(f"{draw.draw(st.integers(1, 3))}*p{i + 1}" for i in range(data.K))
    additive = parse_expression(f"({draw.draw(classes(symbols(data, 'p', 'l')))}) / "
                                f"({linear_form} - {draw.draw(st.integers(0, 5))}*z - 1)")
    assert outcome(map_space_integral, data, d, additive, ctx) == \
        outcome(oracle.map_space_integral, data, d, tree_walk(additive), ctx)
    assert outcome(cohomology_integral, data, additive, ctx) == \
        outcome(oracle.cohomology_integral, data, tree_walk(additive), ctx)
    multiplicative = parse_expression(draw.draw(classes(symbols(data, "P", "L"))))
    assert outcome(ktheory_trace, data, multiplicative, ctx) == \
        outcome(oracle.ktheory_trace, data, tree_walk(multiplicative), ctx)
    for fp in enumerate_fixed_points(data):
        # The kernel on the pairs the trace passes it.
        pairs = [power_pair(ctx.Lambda, fp.u_monomials[j])
                 for j in range(data.N) if j not in fp.J]
        assert outcome(lambda: Fraction(*cotangent_pair(pairs))) == \
            outcome(oracle.cotangent_euler, data, fp, ctx)
        assert _weighted_sums(fp.p_monomials, ctx.Lambda) == \
            oracle.equivariant_p_values(data, fp, ctx.Lambda)
        assert divisor_values(fp, ctx.Lambda) == oracle.divisor_values(fp, ctx.Lambda)


@pytest.mark.parametrize("name", [name for name, data in sorted(NAMED.items())
                                  if min(map(min, data.m)) < 0])
def test_obstruction_degrees_match_the_fraction_oracle(name):
    # Every degree of a small grid with some D_j(d) < 0 on which a fixed point
    # survives (only a negative matrix entry allows one): each term carries
    # obstruction factors u_j + r z.  The class is not a polynomial, so the
    # sums are not 0 for dimension reasons.
    data = NAMED[name]
    ctx = sample_context(data.N, 7)
    text = ("*".join(f"(p{i + 1} + {i + 1})" for i in range(data.K))
            + " + z*l1 - 3/2 + 1/(" + "+".join(f"p{i + 1}" for i in range(data.K)) + " - 7*z)")
    phi = parse_expression(text)
    reach = range(-1, 3) if data.K <= 2 else range(-1, 2)
    fps = enumerate_fixed_points(data)
    obstructed = []
    for d in itertools.product(reach, repeat=data.K):
        pairing = degree_pairing(data, d)
        if min(pairing) < 0 and any(all(pairing[j] >= 0 for j in fp.J) for fp in fps):
            obstructed.append(d)
    assert obstructed
    values = [map_space_integral(data, d, phi, ctx) for d in obstructed]
    assert values == [oracle.map_space_integral(data, d, tree_walk(phi), ctx)
                      for d in obstructed]
    assert any(values)


def test_equal_poles_and_zero_divisors(p1, f1):
    # z = 0 puts two copies of a column on one pole; L1 = L2 a pole of the
    # trace and of the integral; 1/(p1 - l1) a zero divisor at a fixed point,
    # met before the factor loop of the sphere-space sum and after the pole
    # loop of the integral.
    ctx = sample_context(f1.N, 3)
    flat = SampleContext(q=ctx.q, Lambda=ctx.Lambda, lam=ctx.lam, z=Fraction(0))
    equal = SampleContext(q=ctx.q, Lambda=(ctx.Lambda[0],) * 2 + ctx.Lambda[2:],
                          lam=ctx.lam, z=ctx.z)
    divisor = parse_expression("1/(p1 - l1)")
    cases = [
        (map_space_integral, oracle.map_space_integral, (f1, (1, 0), divisor, flat)),
        (map_space_integral, oracle.map_space_integral, (f1, (1, 1), parse_expression("1"), flat)),
        (map_space_integral, oracle.map_space_integral, (f1, (0, 0), divisor, equal)),
        (cohomology_integral, oracle.cohomology_integral, (f1, divisor, equal)),
        (cohomology_integral, oracle.cohomology_integral, (f1, divisor, ctx)),
        (ktheory_trace, oracle.ktheory_trace, (f1, parse_expression("P1"), equal)),
    ]
    seen = set()
    for route, reference, args in cases:
        got = outcome(route, *args)
        walked = args[:-2] + (tree_walk(args[-2]), args[-1])
        assert got == outcome(reference, *walked)
        assert isinstance(got, tuple)
        seen.add(got[0])
    assert seen == {PoleError, ZeroDivisorError}


# --- the order of the columns -------------------------------------------------
#
# Each term is divided by the tangent Euler class at its fixed point alone, so
# the columns written in another order, with the lambdas permuted alike, give
# the same values, also where the order flips the sign of a fixed-point minor.


def permuted(data, ctx, perm):
    """The model with column perm[j] in place j, and the sample's lambdas alike."""
    columns = tuple(tuple(row[j] for j in perm) for row in data.m)
    return (ToricData(m=columns, omega=data.omega),
            ctx._replace(Lambda=tuple(ctx.Lambda[j] for j in perm)))


@pytest.mark.parametrize("name", [*bundled_model_names(), "dp6"])
@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data())
def test_values_do_not_depend_on_the_column_order(name, draw, request):
    data = request.getfixturevalue("dp6") if name == "dp6" else model(name)[0]
    perm = draw.draw(st.permutations(range(data.N)))
    seed = draw.draw(st.integers(0, 99))
    unit = tuple(int(i == 0) for i in range(data.K))
    degrees = [(0,) * data.K, unit, mori_generators(data)[-1]]

    def trace_class(env):
        return prod(env[f"P{i + 1}"] + i + 1 for i in range(data.K))

    def phi(env):  # the lambdas enter symmetrically
        return (prod(env[f"p{i + 1}"] + i + 1 for i in range(data.K))
                + env["z"] * sum(env[f"l{j + 1}"] for j in range(data.N)))

    def values(model_data, ctx):
        return [ktheory_trace(model_data, trace_class, ctx),
                cohomology_integral(model_data, phi, ctx),
                *(map_space_integral(model_data, d, phi, ctx) for d in degrees)]
    expected, ctx = with_resampling(lambda t: sample_context(data.N, seed, t),
                                    lambda c: values(data, c))
    assert values(*permuted(data, ctx, perm)) == expected


def chern_numbers(data, seed):
    """(int 1, int c_1^2, int c_2) with c_1 = sum_j u_j and c_2 = sum_{a<b} u_a u_b,
    where u_j = sum_i m_ij p_i - l_j."""
    def divisors(env):
        return [sum(data.m[i][j] * env[f"p{i + 1}"] for i in range(data.K)) - env[f"l{j + 1}"]
                for j in range(data.N)]
    classes = [lambda env: Fraction(1),
               lambda env: sum(divisors(env)) ** 2,
               lambda env: sum(a * b for a, b in itertools.combinations(divisors(env), 2))]
    return tuple(with_resampling(lambda t: sample_context(data.N, seed, t),
                                 lambda c: cohomology_integral(data, phi, c))[0]
                 for phi in classes)


@pytest.mark.parametrize("seed", [11, 23])
def test_surface_chern_numbers(dp6, seed):
    # On a smooth toric surface with N rays, int c_2 = N (the fixed points)
    # and int c_1^2 = 12 - N (Noether).  dP6 and the 8-ray surface have one
    # minor with det -1, the swapped quadric only such minors.
    assert chern_numbers(dp6, seed) == (0, 6, 6)
    assert chern_numbers(SWAPPED_QUADRIC, seed) == (0, 8, 4)
    assert chern_numbers(fan_surface(*SURFACE8), seed) == (0, 4, 8)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(fan=blown_up_fans(3, 8))
def test_generated_surface_chern_numbers(fan):
    data = fan_surface(*fan)
    assert chern_numbers(data, 11) == (0, 12 - data.N, data.N)
