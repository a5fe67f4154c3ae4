from fractions import Fraction

import pytest

from helpers import fixed_point
from linalg_oracle import solve_square
from test_extra_models import EXTRA
from qtoric.models import bundled_model_names, load_bundled_model
from qtoric.recursion import (
    OrbitInvariantError,
    _coefficient_pairs,
    _validate_orbit,
    all_orbits,
    edge_euler_class,
    edge_euler_class_from_forms,
    orbit_data,
    root_context,
    verify_residue_recursion,
)
from qtoric.scalars import power_product, sample_context
from qtoric.series import truncation_box
from qtoric.localization import _cotangent_pair
from qtoric.toric import ToricData, degree_pairing, enumerate_fixed_points


def test_orbit_p1(p1):
    alpha = fixed_point(p1, (0,))
    orbit = orbit_data(p1, alpha, 1)
    assert orbit is not None
    assert orbit.beta.J == (1,)
    assert orbit.j0_prime == 0
    assert orbit.d_ab == (1,)
    # the cotangent character at the alpha end is U_2(alpha) = L1/L2
    assert orbit.lambda_char == (1, -1)


def test_orbit_f1_example(f1):
    alpha = fixed_point(f1, (0, 2))
    orbit = orbit_data(f1, alpha, 1)
    assert orbit is not None
    assert orbit.beta.J == (1, 2)
    assert orbit.j0_prime == 0
    assert degree_pairing(f1, orbit.d_ab) == (1, 1, 0, -1)
    assert degree_pairing(f1, orbit.d_ab)[orbit.j0_prime] == 1


def test_orbit_absent_direction():
    # A column with zero image: the swapped subset has a singular minor, so
    # no orbit leaves in that direction.
    data = ToricData(m=((1, 0, 1),), omega=(Fraction(1),))
    alpha = fixed_point(data, (0,))
    assert orbit_data(data, alpha, 1) is None
    assert orbit_data(data, alpha, 2) is not None


def test_orbit_degrees_match_the_solved_system():
    # d_ab solves D_j(d) = 0 for the shared columns and D_{j0}(d) = 1, whose
    # equations are the columns of beta's minor.
    models = [load_bundled_model(name).data for name in bundled_model_names()] + EXTRA
    for data in models:
        for orbit in all_orbits(data):
            rows = [[data.m[i][j] for i in range(data.K)] for j in orbit.beta.J]
            rhs = [int(j == orbit.j0) for j in orbit.beta.J]
            solved = tuple(solve_square(rows, rhs))
            assert orbit.d_ab == solved, (data.name, orbit.alpha.J, orbit.j0)


def test_orbit_edge_counts(all_models):
    expected = {"p1": 2, "p2": 6, "f1": 8, "p1xp1": 8}
    for data in all_models:
        assert len(all_orbits(data)) == expected[data.name]


def test_orbit_character_inverse_pairing(all_models):
    for data in all_models:
        for orbit in all_orbits(data):
            reverse = orbit_data(data, orbit.beta, orbit.j0_prime)
            assert reverse is not None
            assert reverse.beta.J == orbit.alpha.J
            assert reverse.j0_prime == orbit.j0
            assert all(a + b == 0 for a, b in zip(orbit.lambda_char, reverse.lambda_char))


def test_orbit_monomial_power_rule(all_models):
    for data in all_models:
        for orbit in all_orbits(data):
            pairing = degree_pairing(data, orbit.d_ab)
            for j in range(data.N):
                ratio = tuple(a - b for a, b in zip(orbit.alpha.u_monomials[j],
                                                    orbit.beta.u_monomials[j]))
                assert ratio == tuple(pairing[j] * e for e in orbit.lambda_char)


LINES6 = ToricData(m=tuple(tuple(int(j // 2 == i) for j in range(12)) for i in range(6)),
                  omega=(1,) * 6, name="p1x6")


@pytest.mark.parametrize("data", [*(load_bundled_model(name).data
                                    for name in bundled_model_names()), LINES6],
                         ids=lambda data: data.name)
def test_all_orbits_is_the_per_direction_search(data):
    # The sweep gives, by fixed point and then direction, the edges a
    # brute-force search finds: off alpha in direction j0 not in J(alpha), the
    # one fixed point beta with j0 in J(beta) sharing K - 1 columns with alpha,
    # which j0' leaves.  Every edge satisfies the character power rule as
    # exponent-vector arithmetic states it.
    fixed = enumerate_fixed_points(data)
    expected = []
    for alpha in fixed:
        for j0 in range(data.N):
            if j0 not in alpha.J:
                betas = [beta for beta in fixed if j0 in beta.J
                         and len(set(alpha.J) & set(beta.J)) == data.K - 1]
                assert len(betas) == 1, (alpha.J, j0)
                (j0_prime,) = set(alpha.J) - set(betas[0].J)
                expected.append((alpha.J, betas[0].J, j0, j0_prime))
    orbits = all_orbits(data)
    assert [(o.alpha.J, o.beta.J, o.j0, o.j0_prime) for o in orbits] == expected
    assert len(orbits) == {"p1x6": 384, "p1": 2, "f1": 8, "p1xp1": 8}.get(data.name, 6)
    for orbit in orbits:
        pairing = degree_pairing(data, orbit.d_ab)
        for j in range(data.N):
            assert (tuple(a - b for a, b in zip(orbit.alpha.u_monomials[j],
                                                orbit.beta.u_monomials[j]))
                    == tuple(pairing[j] * e for e in orbit.lambda_char))
        assert orbit.beta.u_monomials[orbit.j0_prime] == tuple(-e for e in orbit.lambda_char)


@pytest.mark.parametrize("name", ["p2", "f1"])
def test_swapped_u_monomials_are_an_orbit_invariant_error(name):
    # Swap two distinct U-monomials of beta away from the leaving column: the
    # character power rule no longer holds, and the orbit is refused.
    data = load_bundled_model(name).data
    for orbit in all_orbits(data):
        us = list(orbit.beta.u_monomials)
        a, b = next((a, b) for a in range(data.N) for b in range(a)
                    if orbit.j0_prime not in (a, b) and us[a] != us[b])
        us[a], us[b] = us[b], us[a]
        swapped = orbit.beta._replace(u_monomials=tuple(us))
        with pytest.raises(OrbitInvariantError):
            _validate_orbit(data, orbit._replace(beta=swapped))


def test_cotangent_euler_values(p1, f1):
    ctx = sample_context(p1.N, 3)
    alpha = fixed_point(p1, (0,))
    u = ctx.Lambda[0] / ctx.Lambda[1]
    assert Fraction(*_cotangent_pair(p1, alpha, ctx)) == 1 - u

    ctx4 = sample_context(f1.N, 3)
    a13 = fixed_point(f1, (0, 2))
    L = ctx4.Lambda
    expected = (1 - L[0] / L[1]) * (1 - L[2] / (L[0] * L[3]))
    assert Fraction(*_cotangent_pair(f1, a13, ctx4)) == expected


def test_cotangent_euler_point_is_one():
    # N = K: no off-point columns, empty product.
    data = ToricData(m=((1, 0), (0, 1)), omega=(Fraction(1), Fraction(1)))
    ctx = sample_context(2, 5)
    fp = enumerate_fixed_points(data)[0]
    assert Fraction(*_cotangent_pair(data, fp, ctx)) == 1


def test_root_context_realizes_power(p1):
    alpha = fixed_point(p1, (0,))
    orbit = orbit_data(p1, alpha, 1)
    for m in (1, 2, 3):
        ctx, mu = root_context(p1, orbit, m, seed=7)
        assert power_product(ctx.Lambda, orbit.lambda_char) == mu ** m
    again, mu2 = root_context(p1, orbit, 2, seed=7)
    ctx2, mu3 = root_context(p1, orbit, 2, seed=7)
    assert again == ctx2 and mu2 == mu3


def test_a_context_off_the_orbit_character_is_refused(f1):
    # root_context realizes the orbit character as mu^m; with mu + 1 in place
    # of mu it is not, and the recursion coefficient refuses the pair.
    orbit = all_orbits(f1)[0]
    ctx, mu = root_context(f1, orbit, 2, seed=5)
    refusal = r"^context does not realize the orbit character as mu\^m$"
    for route in (_coefficient_pairs, edge_euler_class):
        with pytest.raises(ValueError, match=refusal):
            route(f1, orbit, 2, ctx, mu + 1)
    assert edge_euler_class(f1, orbit, 2, ctx, mu) == \
        edge_euler_class_from_forms(f1, orbit, 2, ctx, mu)


def test_euler_class_m1_p1_hand_value(p1):
    # C = (1 - lam)(1 - 1/lam) for the line with m = 1.
    alpha = fixed_point(p1, (0,))
    orbit = orbit_data(p1, alpha, 1)
    ctx, mu = root_context(p1, orbit, 1, seed=11)
    lam = power_product(ctx.Lambda, orbit.lambda_char)
    c = edge_euler_class(p1, orbit, 1, ctx, mu)
    assert c == (1 - lam) * (1 - 1 / lam)


def test_euler_class_two_routes_agree(p1, f1):
    alpha = fixed_point(p1, (0,))
    orbit = orbit_data(p1, alpha, 1)
    for m in (1, 2, 3):
        ctx, mu = root_context(p1, orbit, m, seed=13)
        assert edge_euler_class(p1, orbit, m, ctx, mu) == \
            edge_euler_class_from_forms(p1, orbit, m, ctx, mu)
    for orbit in all_orbits(f1):
        for m in (1, 2):
            ctx, mu = root_context(f1, orbit, m, seed=17)
            assert edge_euler_class(f1, orbit, m, ctx, mu) == \
                edge_euler_class_from_forms(f1, orbit, m, ctx, mu)


def test_recursion_p1(p1):
    box = truncation_box(p1, 4)
    alpha = fixed_point(p1, (0,))
    for m in (1, 2):
        report = verify_residue_recursion(p1, orbit_data(p1, alpha, 1), m, box, seed=19)
        assert report["ok"], report
        assert report["euler_oracle_agrees"]
        assert any(row["lhs"] != "0" for row in report["degrees"])


def test_recursion_f1_one_edge(f1):
    box = truncation_box(f1, 3)
    alpha = fixed_point(f1, (0, 2))
    report = verify_residue_recursion(f1, orbit_data(f1, alpha, 1), 1, box, seed=23)
    assert report["ok"], report
    assert report["beta"] == [2, 3]


def test_recursion_support_consistency(p1):
    # Degrees below the shift must give zero on both sides: the report rows
    # for d < m carry lhs == rhs == 0.
    box = truncation_box(p1, 4)
    alpha = fixed_point(p1, (0,))
    report = verify_residue_recursion(p1, orbit_data(p1, alpha, 1), 2, box, seed=29)
    for row in report["degrees"]:
        if row["degree"][0] < 2:
            assert row["lhs"] == "0" and row["rhs"] == "0"


def test_recursion_rejects_on_point_direction(p1):
    alpha = fixed_point(p1, (0,))
    with pytest.raises(ValueError):
        orbit_data(p1, alpha, 0)
