"""Robustness checks on models beyond the bundled four.

These exercise paths the standard models never hit: a basis with determinant
-1 minors, a matrix entry of absolute value 2 (the second Hirzebruch surface),
and a rank-3 quotient torus.  All the structural identities must keep holding
verbatim; nothing in the K-theoretic layer may silently assume det = +1 or
unit matrix entries.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings

from test_mori_cone import SURFACE9, blown_up_fans, fan_surface, pairing
from qtoric import toric
from qtoric.exprs import parse_expression
from qtoric.kirwan import kirwan_relations, verify_relations_at_fixed_points
from qtoric.localization import cohomology_integral, ktheory_trace, map_space_integral
from qtoric.qdiff import gamma_reconstruction, verify_coh_relation, verify_dq_system
from qtoric.recursion import all_orbits, verify_residue_recursion
from qtoric.scalars import sample_context, with_resampling
from qtoric.series import (
    assemble_cohomological_series,
    assemble_series,
    point_series,
    truncation_box,
)
from qtoric.toric import ToricData, degree_pairing, enumerate_fixed_points

SWAPPED_QUADRIC = ToricData(m=((0, 0, 1, 1), (1, 1, 0, 0)),
                            omega=(Fraction(1), Fraction(1)), name="quadric-swapped")
HIRZEBRUCH2 = ToricData(m=((1, 1, 0, -2), (0, 0, 1, 1)),
                        omega=(Fraction(1), Fraction(1)), name="f2")
TRIPLE_LINE = ToricData(
    m=((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)),
    omega=(Fraction(1), Fraction(1), Fraction(1)), name="p1cubed")

EXTRA = [SWAPPED_QUADRIC, HIRZEBRUCH2, TRIPLE_LINE]


def test_structure_counts():
    assert len(enumerate_fixed_points(SWAPPED_QUADRIC)) == 4
    assert {fp.det for fp in enumerate_fixed_points(SWAPPED_QUADRIC)} == {-1}
    assert [fp.J for fp in enumerate_fixed_points(HIRZEBRUCH2)] == \
        [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert len(enumerate_fixed_points(TRIPLE_LINE)) == 8
    assert list(kirwan_relations(TRIPLE_LINE)) == [(0, 1), (2, 3), (4, 5)]


def test_relations_and_trace():
    for data in EXTRA:
        ctx = sample_context(data.N, 3)
        assert verify_relations_at_fixed_points(data, ctx)["ok"]
        value, _ = with_resampling(
            lambda t: sample_context(data.N, 5, t),
            lambda c: ktheory_trace(data, lambda env: Fraction(1), c),
        )
        assert value == 1


def test_point_series_identity():
    for data in EXTRA:
        bound = 2 if data.K == 3 else 4
        box = truncation_box(data, bound)
        ctx = sample_context(data.N, 7)
        for fp in enumerate_fixed_points(data):
            pair = point_series(fp.q_monomials, box, ctx)
            assert pair.sum_form == pair.exp_form


def test_dq_system():
    for data in EXTRA:
        bound = 2 if data.K == 3 else 4
        box = truncation_box(data, bound)
        ctx = sample_context(data.N, 11)
        family = assemble_series(data, box, ctx)
        report = verify_dq_system(data, family, ctx)
        assert report["ok"], (data.name, report)


def test_gamma_reconstruction():
    for data in EXTRA:
        bound = 2 if data.K == 3 else 3
        box = truncation_box(data, bound)
        ctx = sample_context(data.N, 13)
        for fp in enumerate_fixed_points(data):
            rebuilt, direct = gamma_reconstruction(data, fp, box, ctx)
            assert rebuilt == direct


def test_coh_relations():
    for data in EXTRA:
        bound = 2 if data.K == 3 else 3
        box = truncation_box(data, bound)
        ctx = sample_context(data.N, 17)
        family = assemble_cohomological_series(data, box, ctx)
        for i in range(data.K):
            d0 = tuple(1 if k == i else 0 for k in range(data.K))
            assert verify_coh_relation(data, d0, family, ctx)["ok"], (data.name, d0)


def test_orbit_invariants_and_counts():
    expected_edges = {"quadric-swapped": 8, "f2": 8, "p1cubed": 24}
    for data in EXTRA:
        orbits = all_orbits(data)
        assert len(orbits) == expected_edges[data.name]
        for orbit in orbits:
            pairing = degree_pairing(data, orbit.d_ab)
            assert pairing[orbit.j0] == 1 and pairing[orbit.j0_prime] == 1
            for j in range(data.N):
                ratio = tuple(a - b for a, b in zip(orbit.alpha.u_monomials[j],
                                                    orbit.beta.u_monomials[j]))
                assert ratio == tuple(pairing[j] * e for e in orbit.lambda_char)


def test_f2_pairing_hits_minus_two():
    # The column with entry -2 produces |D_j| = 2 along a basis degree, so the
    # operator words and the character power rule run with non-unit exponents.
    assert degree_pairing(HIRZEBRUCH2, (1, 0)) == (1, 1, 0, -2)


@pytest.mark.parametrize("data", EXTRA, ids=lambda d: d.name)
def test_residue_recursion(data):
    bound = 2 if data.K == 3 else 3
    box = truncation_box(data, bound)
    for orbit in all_orbits(data):
        report = verify_residue_recursion(data, orbit, 1, box, seed=19)
        assert report["ok"], (data.name, report)
        assert report["euler_oracle_agrees"]


def test_recursion_double_cover_f2():
    box = truncation_box(HIRZEBRUCH2, 3)
    for orbit in all_orbits(HIRZEBRUCH2):
        report = verify_residue_recursion(HIRZEBRUCH2, orbit, 2, box, seed=23)
        assert report["ok"], report


def test_euler_characteristic_from_codim_two_classes():
    # For a surface, summing the products of the two off-point divisor
    # values over fixed points computes the Euler characteristic: each term
    # is the tangent Euler class over itself, 1.
    from qtoric.models import hirzebruch, product_of_lines

    for data, chi in [(product_of_lines(), 4), (hirzebruch(), 4), (HIRZEBRUCH2, 4)]:
        ctx = sample_context(data.N, 29)
        assert cohomology_integral(data, c2(data), ctx) == chi


def divisor_classes(data, env):
    """u_j = sum_i m_ij p_i - l_j, the equivariant class of the j-th toric divisor."""
    return [sum(env[f"p{i+1}"] * data.m[i][j] for i in range(data.K)) - env[f"l{j+1}"]
            for j in range(data.N)]


def c1_squared(data):
    """The square of c_1 = sum_j u_j, as a class on the evaluation environment."""
    return lambda env: sum(divisor_classes(data, env)) ** 2


def c2(data):
    """c_2 = sum_{i<j} u_i u_j, as a class on the evaluation environment."""
    def phi(env):
        u = divisor_classes(data, env)
        return sum(u[i] * u[j] for i, j in combinations(range(data.N), 2))
    return phi


@settings(max_examples=15, deadline=None, derandomize=True)
@given(fan=blown_up_fans(3, 10))
@example(fan=SURFACE9)
def test_generated_surface_families(fan):
    # The trace of 1, the Chern numbers, the d = 0 map-space integral, the
    # q-difference system on the box at twice the least curve pairing, and the
    # recursion on every edge.
    data = fan_surface(*fan)
    value, _ = with_resampling(lambda t: sample_context(data.N, 5, t),
                               lambda c: ktheory_trace(data, lambda env: Fraction(1), c))
    assert value == 1
    numbers, _ = with_resampling(lambda t: sample_context(data.N, 3, t), lambda c: [
        cohomology_integral(data, phi, c) for phi in (lambda env: 1, c1_squared(data),
                                                      c2(data))])
    assert numbers == [0, 12 - data.N, data.N]
    phi = parse_expression("p1^2 - 3*l1*z + 5/2")
    zero = (0,) * data.K
    (moved, direct), _ = with_resampling(
        lambda t: sample_context(data.N, 7, t),
        lambda c: (map_space_integral(data, zero, phi, c), cohomology_integral(data, phi, c)))
    assert moved == direct
    bound = 2 * min(pairing(data.omega, g) for g in toric._curve_classes(data))
    box = truncation_box(data, bound)
    report, _ = with_resampling(lambda t: sample_context(data.N, 11, t),
                                lambda c: verify_dq_system(data, assemble_series(data, box, c), c))
    assert report["ok"], report
    for orbit in all_orbits(data):
        for m in (1, 2):
            report = verify_residue_recursion(data, orbit, m, box, seed=19)
            assert report["ok"], (fan, m, report)
