"""The recursion coefficient's int-pair routes against their Fraction oracle.

``qtoric.recursion`` builds both routes of the recursion coefficient, the
residue arrangement and the binary-form weights, from int pairs normalised
once; ``recursion_oracle`` keeps the ``Fraction`` routines they replaced.  On
every orbit of the bundled and extra models, at m = 1, 2, 3 and several seeds
and root indices, each route must give the oracle's value or raise the
oracle's exception with the same arguments.  Crafted contexts, small values
solved to realize the orbit character as mu^m, reach each pole and each
degenerate branch.  The check reads beta by key; each row's right-hand side
is rebuilt here from ``NovikovSeries.coefficient`` and the oracle.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import recursion_oracle as oracle
from test_extra_models import EXTRA
from qtoric.models import bundled_model_names, load_bundled_model
from qtoric.recursion import (
    _check_recursion,
    all_orbits,
    edge_euler_class,
    edge_euler_class_from_forms,
    root_context,
)
from qtoric.scalars import DegenerateSampleError, PoleError, SampleContext
from qtoric.series import component_series, truncation_box

MODELS = [load_bundled_model(name).data for name in bundled_model_names()] + EXTRA
ORBITS = [(data, orbit) for data in MODELS for orbit in all_orbits(data)]
ROUTES = ((edge_euler_class, oracle.edge_euler_class),
          (edge_euler_class_from_forms, oracle.edge_euler_class_from_forms))


def outcome(fn, *args):
    """The value of ``fn(*args)``, or its exception's type, arguments and data."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), exc.args, getattr(exc, "r", None), getattr(exc, "value", None)


def assert_routes_match(data, orbit, m, ctx, mu) -> list:
    """Each route's outcome equals its oracle's; the oracle outcomes."""
    found = []
    u = orbit.alpha.u_values(ctx.Lambda)
    for route, reference in ROUTES:
        expected = outcome(reference, data, orbit, m, ctx, mu)
        assert outcome(route, data, orbit, m, u, mu) == expected
        found.append(expected)
    return found


@settings(max_examples=120, deadline=None, derandomize=True)
@given(edge=st.sampled_from(ORBITS), m=st.integers(1, 3), seed=st.integers(0, 10 ** 6),
       index=st.integers(0, 300))
def test_routes_match_the_fraction_oracle_at_root_contexts(edge, m, seed, index):
    data, orbit = edge
    try:
        ctx, mu = root_context(data, orbit, m, seed, index)
    except DegenerateSampleError:
        return
    c_residue, c_forms = assert_routes_match(data, orbit, m, ctx, mu)
    if not isinstance(c_residue, Fraction):
        return
    box = truncation_box(data, 2 if data.K < 3 else 1)
    try:
        report = _check_recursion(data, orbit, m, box, ctx, mu)
    except ArithmeticError:
        return
    assert report["euler_class"] == str(c_residue)
    assert report["euler_class_oracle"] == str(c_forms)
    # beta read by key against the series' own lookup, which raises beyond the bound.
    beta = component_series(data, orbit.beta, box, ctx._replace(q=1 / mu))
    prefactor = -Fraction(1, m) * oracle.cotangent_euler(data, orbit.alpha, ctx) / c_residue
    for d, row in zip(box.degrees, report["degrees"]):
        assert row["degree"] == list(d)
        source = tuple(x - m * y for x, y in zip(d, orbit.d_ab))
        assert row["rhs"] == str(prefactor * beta.coefficient(source))


def crafted_contexts(data, orbit, m, values=(Fraction(2), Fraction(1, 2), Fraction(-1))):
    """Contexts whose parameters are drawn from ``values`` but one, solved for
    so that the orbit character is mu^m: coincidences such as U_j(alpha) = mu^r
    make the poles and degenerate branches likely."""
    exps = orbit.lambda_char
    solve_j = next(j for j, e in enumerate(exps) if abs(e) == 1)
    for mu in (Fraction(2), Fraction(1, 2), Fraction(-1)):
        for rest in product(values, repeat=data.N - 1):
            lambdas = [*rest[:solve_j], Fraction(1), *rest[solve_j:]]
            other = Fraction(1)
            for j, e in enumerate(exps):
                if j != solve_j and e:
                    other *= lambdas[j] ** e
            lambdas[solve_j] = mu ** m / other if exps[solve_j] == 1 else other / mu ** m
            yield SampleContext(q=Fraction(3), Lambda=tuple(lambdas), lam=Fraction(5),
                                z=Fraction(7)), mu


def branch(found) -> str | None:
    """A name for the exception branch an oracle outcome took."""
    if isinstance(found, Fraction):
        return None
    kind, args, r, value = found
    if kind is PoleError:
        return "pole r > 0" if r else ("cotangent pole" if value == 1 else "pole r <= 0")
    return args[0] if kind is ValueError else args[0].split(",")[0]


def test_crafted_contexts_reach_every_branch_of_both_routes():
    reached = [set(), set()]
    models = [data for data in MODELS if data.N <= 4]
    for data in models:
        for orbit in all_orbits(data)[:3]:
            for m in (1, 2, 3):
                for ctx, mu in crafted_contexts(data, orbit, m):
                    for seen, found in zip(reached, assert_routes_match(data, orbit, m, ctx, mu)):
                        seen.add(branch(found))
                # A mu that does not realize the character.
                ctx, mu = next(crafted_contexts(data, orbit, m))
                for seen, found in zip(reached, assert_routes_match(data, orbit, m, ctx, 3 * mu)):
                    seen.add(branch(found))
    residue, forms = reached
    assert residue >= {None, "pole r > 0", "pole r <= 0", "cotangent pole",
                       "mu is a root of unity",
                       "context does not realize the orbit character as mu^m"}
    assert forms >= {None, "trivial weight in the obstruction range"}
    assert any(name and name.startswith("expected") for name in forms)
