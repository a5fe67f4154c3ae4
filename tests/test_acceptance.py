"""Acceptance criteria, one test per criterion, all exact-rational.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion with its runtime; every comparison below is exact equality, and each
criterion asserts its stated time budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import comb

import ratio_oracle
from helpers import fixed_point
from qtoric.kirwan import kirwan_relations
from qtoric.localization import cohomology_integral, ktheory_trace, map_space_integral
from qtoric.models import hirzebruch, product_of_lines, projective_space
from qtoric.qdiff import (
    gamma_reconstruction,
    verify_coh_relation,
    verify_dq_system,
    verify_shifted_identity,
)
from qtoric.recursion import (
    all_orbits,
    edge_euler_class,
    edge_euler_class_from_forms,
    orbit_data,
    root_context,
    verify_residue_recursion,
)
from qtoric.scalars import sample_context, with_resampling
from qtoric.series import (
    BundleData,
    assemble_cohomological_series,
    assemble_series,
    component_series,
    point_series,
    truncation_box,
)
from qtoric.toric import ToricData, degree_pairing, enumerate_fixed_points

ALL_MODELS = [projective_space(1), projective_space(2), hirzebruch(), product_of_lines()]


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"PASS criterion {number} [{elapsed:.2f}s < {limit_seconds:.0f}s]: {description}")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_1_f1_structure():
    with criterion(1, "F_1 fixed points, relation sets, U-monomial table", 1.0):
        f1 = hirzebruch()
        fps = enumerate_fixed_points(f1)
        assert [fp.J for fp in fps] == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert list(kirwan_relations(f1)) == [(0, 1), (2, 3)]
        # U_1 = P_1/L1, U_2 = P_1/L2, U_3 = P_2/L3, U_4 = P_2 P_1^{-1}/L4:
        # the exponent table is the matrix columns.
        assert list(f1.columns) == [(1, 0), (1, 0), (0, 1), (-1, 1)]
        # restrictions at alpha = {1,3}: U = (1, L1/L2, 1, L3/(L1 L4))
        a13 = fixed_point(f1, (0, 2))
        assert a13.u_monomials == (
            (0, 0, 0, 0),
            (1, -1, 0, 0),
            (0, 0, 0, 0),
            (-1, 0, 1, -1),
        )


def test_criterion_2_residue_trace_display():
    with criterion(2, "F_1 trace matches the four-term residue display", 1.0):
        f1 = hirzebruch()

        def display(phi, L):
            L1, L2, L3, L4 = L
            return (phi(L1, L3) / ((1 - L1 / L2) * (1 - L3 / (L1 * L4)))
                    + phi(L2, L3) / ((1 - L2 / L1) * (1 - L3 / (L2 * L4)))
                    + phi(L1, L1 * L4) / ((1 - L1 / L2) * (1 - L1 * L4 / L3))
                    + phi(L2, L2 * L4) / ((1 - L2 / L1) * (1 - L2 * L4 / L3)))

        rng = random.Random(2024)
        for trial in range(5):
            exps = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)]
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]

            def phi(a, b, exps=exps, coeffs=coeffs):
                return sum(c * a ** e1 * b ** e2 for c, (e1, e2) in zip(coeffs, exps))

            for sample in range(20):
                ctx = sample_context(f1.N, 100 + trial, sample)
                lib = ktheory_trace(f1, lambda env: phi(env["P1"], env["P2"]), ctx)
                assert lib == display(phi, ctx.Lambda)


def test_criterion_3_structure_sheaf_trace():
    with criterion(3, "trace of 1 equals 1 on all four models, 20 samples", 1.0):
        for data in ALL_MODELS:
            for sample in range(20):
                value, _ = with_resampling(
                    lambda t, s=sample: sample_context(data.N, 200, s * 30 + t),
                    lambda c: ktheory_trace(data, lambda env: Fraction(1), c),
                )
                assert value == 1


def test_criterion_4_point_series_identity():
    with criterion(4, "point-series sum form = exp form, bound 8, 5 samples", 30.0):
        for data in ALL_MODELS:
            box = truncation_box(data, 8)
            for sample in range(5):
                ctx = sample_context(data.N, 300, sample)
                for fp in enumerate_fixed_points(data):
                    pair = point_series(fp.q_monomials, box, ctx)
                    assert pair.sum_form == pair.exp_form


def test_criterion_5_gamma_reconstruction():
    with criterion(5, "Gamma-ratio operators rebuild every component, bound 5", 30.0):
        for data in ALL_MODELS:
            box = truncation_box(data, 5)
            ctx = sample_context(data.N, 400)
            for fp in enumerate_fixed_points(data):
                rebuilt, direct = gamma_reconstruction(data, fp, box, ctx)
                assert rebuilt == direct


def test_criterion_6_dq_system():
    with criterion(6, "q-difference system to degree 5; F_1 displayed pair to 4", 120.0):
        for data in ALL_MODELS[:3]:  # the line, the plane, the Hirzebruch surface
            box = truncation_box(data, 5)
            ctx = sample_context(data.N, 500)
            family = assemble_series(data, box, ctx)
            report = verify_dq_system(data, family, ctx)
            assert report["ok"], report
        f1 = ALL_MODELS[2]
        box = truncation_box(f1, 4)
        ctx = sample_context(f1.N, 501)
        family = assemble_series(f1, box, ctx)
        first = verify_shifted_identity(
            f1, family, ctx, lhs_factors=[(0, 0), (1, 0)], shift_i=0,
            rhs_factors=[(3, 0)])
        second = verify_shifted_identity(
            f1, family, ctx, lhs_factors=[(2, 0), (3, 0)], shift_i=1,
            rhs_factors=[])
        assert first["ok"] and second["ok"]


def test_criterion_7_residue_recursion():
    with criterion(7, "residue recursion on every edge, m in {1,2}, degrees to 3", 120.0):
        for data in (ALL_MODELS[0], ALL_MODELS[2]):  # the line and the surface
            box = truncation_box(data, 3 if data.K == 2 else 3)
            for orbit in all_orbits(data):
                for m in (1, 2):
                    report = verify_residue_recursion(data, orbit, m, box, seed=600)
                    assert report["ok"], report
                    assert report["euler_oracle_agrees"]
                    # and the coefficient routes agree on an independent sample
                    ctx, mu = root_context(data, orbit, m, seed=601)
                    u = orbit.alpha.u_values(ctx.Lambda)
                    assert edge_euler_class(data, orbit, m, u, mu) == \
                        edge_euler_class_from_forms(data, orbit, m, u, mu)


def test_criterion_8_orbit_invariants():
    with criterion(8, "orbit character identities on all edges of all models", 1.0):
        for data in ALL_MODELS:
            for orbit in all_orbits(data):
                pairing = degree_pairing(data, orbit.d_ab)
                assert pairing[orbit.j0] == 1 and pairing[orbit.j0_prime] == 1
                for j in range(data.N):
                    ratio = tuple(a - b for a, b in zip(orbit.alpha.u_monomials[j],
                                                        orbit.beta.u_monomials[j]))
                    assert ratio == tuple(pairing[j] * e for e in orbit.lambda_char)
                reverse = orbit_data(data, orbit.beta, orbit.j0_prime)
                assert reverse is not None
                assert all(a + b == 0 for a, b in zip(orbit.lambda_char, reverse.lambda_char))


def test_criterion_9_cohomological_mode():
    with criterion(9, "map-space integrals and degree-shift relations", 30.0):
        p1, f1 = ALL_MODELS[0], ALL_MODELS[2]
        for data in (p1, f1):
            ctx = sample_context(data.N, 700)
            zero = tuple(0 for _ in range(data.K))
            for phi in (lambda e: Fraction(1),
                        lambda e: e["p1"] - e["l1"],
                        lambda e: (e["p1"] - e["l2"]) * (e["p1"] + 3)):
                assert map_space_integral(data, zero, phi, ctx) == \
                    cohomology_integral(data, phi, ctx)
            family = assemble_cohomological_series(data, truncation_box(data, 4), ctx)
            for i in range(data.K):
                d0 = tuple(1 if k == i else 0 for k in range(data.K))
                assert verify_coh_relation(data, d0, family, ctx)["ok"]
        ctx = sample_context(p1.N, 701)
        assert cohomology_integral(p1, lambda e: e["p1"] - e["l2"], ctx) == 1


def test_criterion_10_bundle_series():
    with criterion(10, "bundle and super-bundle series over the plane, bound 5", 10.0):
        p2 = ALL_MODELS[1]
        box = truncation_box(p2, 5)
        ctx = sample_context(p2.N, 800)
        even = BundleData(exponents=((1, 2),), parity="E")
        odd = BundleData(exponents=((1, 2),), parity="PiE")
        zero = (0,)
        for fp in enumerate_fixed_points(p2):
            series_even = component_series(p2, fp, box, ctx, bundle=even)
            series_odd = component_series(p2, fp, box, ctx, bundle=odd)
            assert series_even.coefficient(zero) == 1
            assert series_odd.coefficient(zero) == 1
            for d in box.degrees:
                factor_even = ratio_oracle.bundle_factor(p2, fp, even, d, ctx)
                factor_odd = ratio_oracle.bundle_factor(p2, fp, odd, d, ctx)
                assert factor_even * factor_odd == 1


def test_criterion_11_rank_four_box():
    with criterion(11, "(P^1)^4 box at bound 8 holds C(12, 4) = 495 degrees", 2.0):
        lines = ToricData(
            m=tuple(tuple(int(j // 2 == i) for j in range(8)) for i in range(4)),
            omega=(1, 1, 1, 1),
        )
        box = truncation_box(lines, 8)
        assert len(box.degrees) == comb(12, 4) == 495
        assert box.degrees == tuple(sorted(
            (d for d in product(range(9), repeat=4) if sum(d) <= 8),
            key=lambda d: (sum(d), d),
        ))
