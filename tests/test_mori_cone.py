"""The Mori cone by facet normals against the brute-force Caratheodory oracle.

``qtoric.toric`` decides membership by the integer facet normals of the
effective-curve cone; ``cone_oracle`` searches generator subsets.  The
del Pezzo surface dP6 is the model whose cone is strictly larger than the
union of its fixed points' cones, and Hypothesis draws Hirzebruch surfaces,
projective bundles over P^1 and P^2, their products, and smooth surfaces
blown up from P^2 and F_a.  The cone is built from the torus-invariant curve
classes; the oracle's reference is the union of the fixed points' dual-cone
generators.
"""

import time
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cone_oracle import (
    cofactor_facets,
    dual_cone_union,
    extreme_rays,
    in_cone,
    primitive,
    rectangle_box,
    union_extreme_rays,
    union_facets,
)
from helpers import dual_cone_flags
from qtoric import toric
from qtoric.models import bundled_model_names, resolve_model
from qtoric.series import truncation_box
from qtoric.toric import (
    InvalidModelError,
    ToricData,
    box_degrees,
    degree_pairing,
    enumerate_fixed_points,
    mori_cone_membership,
    mori_generators,
)


def raw_generators(data):
    return dual_cone_union(data)


def pairing(ample, d):
    return sum(Fraction(a) * x for a, x in zip(ample, d))


def oracle_box(data, ample, bound, member=None):
    """Effective degrees up to ``bound`` from the symmetric candidate box.

    |d_i| <= bound * max_g |g_i| / <ample, g> holds for every effective d, so
    the box is complete without any one-sided refinement; the oracle filters.
    """
    gens = raw_generators(data)
    member = member if member is not None else (lambda d: in_cone(gens, d))
    limits = [max(Fraction(abs(g[i])) / pairing(ample, g) for g in gens) * bound
              for i in range(data.K)]
    grid = product(*[range(-int(lim), int(lim) + 1) for lim in limits])
    found = [d for d in grid if pairing(ample, d) <= bound and member(d)]
    return sorted(found, key=lambda d: (pairing(ample, d), d))


def test_dp6_cone_shape(dp6):
    assert len(enumerate_fixed_points(dp6)) == 6
    assert len(raw_generators(dp6)) == 9
    assert len(toric._mori_facets(dp6)) == 5
    assert set(toric._mori_facets(dp6)) == set(cofactor_facets(toric._curve_classes(dp6), 4))


def test_dp6_membership_matches_oracle(dp6):
    gens = raw_generators(dp6)
    grid = list(product(range(-2, 3), repeat=4))
    assert [mori_cone_membership(dp6, d) for d in grid] == [in_cone(gens, d) for d in grid]
    # Effective degrees that no single fixed point's cone holds.
    hull_only = [d for d in product(range(-1, 3), repeat=4)
                 if mori_cone_membership(dp6, d) and not any(dual_cone_flags(dp6, d))]
    assert len(hull_only) == 39
    assert all(in_cone(gens, d) for d in hull_only)


def test_dp6_box_degrees_match_oracle(dp6):
    gens = raw_generators(dp6)
    seen = {}

    def member(d):
        if d not in seen:
            seen[d] = in_cone(gens, d)
        return seen[d]

    for bound in range(4):
        assert box_degrees(dp6, dp6.omega, bound) == oracle_box(dp6, dp6.omega, bound, member)


def test_dp6_mori_generators_are_the_minus_one_curves(dp6):
    rays = mori_generators(dp6)
    assert rays == extreme_rays(raw_generators(dp6))
    # The curve of the j-th hexagon divisor meets itself in -1 and its two
    # neighbours in +1.
    minus_one_curves = set()
    for j in range(6):
        pairing_j = [0] * 6
        pairing_j[j], pairing_j[(j - 1) % 6], pairing_j[(j + 1) % 6] = -1, 1, 1
        minus_one_curves.add(tuple(pairing_j))
    assert {degree_pairing(dp6, ray) for ray in rays} == minus_one_curves


def test_oracle_in_cone_basics(p1xp1):
    gens = [(1, 0), (0, 1)]
    cases = {(3, 5): True, (0, 0): True, (-1, 2): False, (4, 0): True}
    for target, expected in cases.items():
        assert in_cone(gens, target) is expected
        # P^1 x P^1 has exactly this cone.
        assert mori_cone_membership(p1xp1, target) is expected


def test_oracle_in_cone_needs_combination(dp6):
    # (1, 1) needs both generators of a non-orthant cone
    gens = [(2, 1), (1, 2)]
    assert in_cone(gens, (1, 1))
    assert not in_cone(gens, (1, 0))
    # On dP6, (-1, 1, 1, 1) is a sum of generators of different fixed points.
    assert mori_cone_membership(dp6, (-1, 1, 1, 1))
    assert not any(dual_cone_flags(dp6, (-1, 1, 1, 1)))
    assert in_cone(raw_generators(dp6), (-1, 1, 1, 1))
    assert not any(in_cone(fp.q_monomials, (-1, 1, 1, 1))
                   for fp in enumerate_fixed_points(dp6))


def test_cone_normals_and_rays_are_primitive(all_models, dp6):
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((3,)) == (1,)
    for data in all_models + [dp6]:
        for vec in toric._mori_facets(data) + tuple(mori_generators(data)):
            assert primitive(vec) == vec


def test_mori_generators_drop_interior(all_models, dp6):
    assert sorted(extreme_rays([(1, 0), (0, 1), (1, 1), (2, 0)])) == [(0, 1), (1, 0)]
    for data in all_models + [dp6]:
        assert mori_generators(data) == extreme_rays(raw_generators(data))
        assert mori_generators(data) == union_extreme_rays(data)
    # dP6 has 9 generators, 3 of them inside the cone.
    assert len(raw_generators(dp6)) - len(mori_generators(dp6)) == 3


def test_generators_must_span(monkeypatch):
    flat = ToricData(m=((1, 1, 0, 0), (0, 0, 1, 1)), omega=(1, 1), name="flat-generators")
    monkeypatch.setattr(toric, "_curve_classes", lambda data: ((1, 1), (2, 2)))
    with pytest.raises(InvalidModelError, match="span"):
        toric._mori_facets(flat)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("spec", [*bundled_model_names(), str(DATA / "surface8.model"),
                                  str(DATA / "threefold7.model")])
def test_facets_match_the_cofactor_route(spec):
    data = resolve_model(spec).data
    classes = toric._curve_classes(data)
    assert set(toric._mori_facets(data)) == set(cofactor_facets(classes, data.K))
    assert mori_generators(data) == extreme_rays(classes)


@st.composite
def pointed_generators(draw):
    """Distinct primitive vectors in Z^K, K = 3 or 4, that span it and pair
    positively with a drawn positive functional: a pointed, full-dimensional
    cone.  The entries are small, so many classes share a facet."""
    k = draw(st.integers(3, 4))
    w = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    gens = []
    for v in draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                           min_size=k, max_size=k + 6)):
        s = sum(a * x for a, x in zip(w, v))
        g = primitive(v if s > 0 else [-x for x in v])
        if s and g not in gens:
            gens.append(g)
    assume(rank(gens) == k)
    return gens


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gens=pointed_generators())
@example(gens=[(2, 0, 1), (1, 1, -1), (2, 1, -2), (1, 2, -1), (1, 0, 1)])
def test_random_cones_match_the_cofactor_route(gens):
    # The classes arrive as ``_curve_classes`` would give them.  The example
    # needs the classes tight on a kept ray to join its tight set.
    k = len(gens[0])
    data = ToricData(m=tuple(tuple(int(i == j) for j in range(k)) for i in range(k)),
                     omega=(1,) * k, name="random-cone")
    with mock.patch.object(toric, "_curve_classes", lambda data: tuple(gens)):
        toric._mori_facets.cache_clear()
        try:
            assert set(toric._mori_facets(data)) == set(cofactor_facets(gens, k))
            assert mori_generators(data) == extreme_rays(gens)
        finally:
            toric._mori_facets.cache_clear()


@pytest.mark.parametrize("bound", [2, -1])
def test_one_ample_check_for_both_entry_points(f1, bound):
    ample = (Fraction(1), Fraction(-5))
    with pytest.raises(InvalidModelError) as direct:
        box_degrees(f1, ample, bound)
    with pytest.raises(InvalidModelError) as boxed:
        truncation_box(f1, bound, ample)
    assert str(direct.value) == str(boxed.value)
    assert "ample class must pair positively" in str(direct.value)


# Generated families.


def hirzebruch_rows(a):
    return ((1, 1, 0, -a), (0, 0, 1, 1))


def projective_bundle_rows(n, a):
    """P(O + O(a)) over P^n."""
    return ((1,) * (n + 1) + (0, -a), (0,) * (n + 1) + (1, 1))


def product_rows(first, second):
    """The charge matrix of a product: the two matrices block-diagonally."""
    return (tuple(row + (0,) * len(second[0]) for row in first)
            + tuple((0,) * len(first[0]) + row for row in second))


factors = st.one_of(
    st.integers(0, 6).map(hirzebruch_rows),
    st.builds(projective_bundle_rows, st.integers(1, 2), st.integers(0, 4)),
)
models = st.one_of(factors, st.tuples(factors, factors).map(lambda f: product_rows(*f)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rows=models, bound=st.integers(0, 3))
def test_generated_models_match_oracle(rows, bound):
    data = ToricData(m=rows, omega=(1,) * len(rows))
    gens = raw_generators(data)
    reach = 2 if data.K == 2 else 1
    for d in product(range(-reach, reach + 1), repeat=data.K):
        assert mori_cone_membership(data, d) == in_cone(gens, d)
    if data.K == 4:
        bound = min(bound, 2)
    assert box_degrees(data, data.omega, bound) == oracle_box(data, data.omega, bound)



def sheared(rows, s):
    """The same model in the basis p_1, p_2 + s p_1: the charge matrix T M for
    T the shear of the first two rows.  Degrees change by T^-T, so the Mori
    generators gain negative coordinates; omega and ample classes change by T."""
    if len(rows) < 2:
        return rows
    return (rows[0], tuple(s * x + y for x, y in zip(rows[0], rows[1])), *rows[2:])


weight = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=models, shear=st.integers(-2, 2), weights=st.lists(weight, min_size=4, max_size=4),
       bound=st.fractions(min_value=0, max_value=Fraction(7, 2), max_denominator=4))
def test_fractional_ample_and_bound_match_oracle(rows, shear, weights, bound):
    # A positive ample class of the unsheared model pairs positively with its
    # generators, and so does its image under the shear with the new ones.
    k = len(rows)
    ample, omega = tuple(weights[:k]), (1,) * k
    if k >= 2:
        ample = (ample[0], shear * ample[0] + ample[1], *ample[2:])
        omega = (1, shear + 1, *omega[2:])
    data = ToricData(m=sheared(rows, shear), omega=omega)
    if k == 4:
        bound = min(bound, 1)
    assert box_degrees(data, ample, bound) == oracle_box(data, ample, bound)


def test_fractional_bound_on_a_sheared_surface():
    # F_2 with p_2 + p_1 as second class: generators with negative
    # coordinates, so the lower end of an interval is a ceil below 0, here of
    # -21/2 at the bound 7/2.
    data = ToricData(m=sheared(hirzebruch_rows(2), 1), omega=(1, 2))
    ample = (Fraction(3, 2), Fraction(11, 6))
    assert any(min(g) < 0 for g in raw_generators(data))
    for bound in (Fraction(7, 2), Fraction(5, 3), 3, 0):
        assert box_degrees(data, ample, bound) == oracle_box(data, ample, bound)
    assert min(d[0] for d in box_degrees(data, ample, Fraction(7, 2))) == -10


@pytest.mark.parametrize("name, bounds", [("surface8", range(5)), ("threefold7x2", range(3))])
def test_box_degrees_match_the_rectangle(name, bounds):
    # The symmetric grid of ``oracle_box`` takes minutes at K = 6 and 8; the
    # rectangle the projection replaced takes seconds, and sorts the same way.
    data = resolve_model(str(DATA / f"{name}.model")).data
    for bound in bounds:
        assert box_degrees(data, data.omega, bound) == rectangle_box(data, data.omega, bound)


def test_surface8_box_within_budget():
    # The rectangle took 16-22 s for these 534 degrees.
    data = resolve_model(str(DATA / "surface8.model")).data
    start = time.perf_counter()
    degrees = box_degrees(data, data.omega, 6)
    elapsed = time.perf_counter() - start
    assert len(degrees) == 534
    assert elapsed < 0.5, f"the bound-6 box took {elapsed:.2f} s"


# Smooth toric surfaces from their fans.


def fan_surface(rays, h):
    """The smooth surface of the complete fan with ``rays`` in counterclockwise order.

    v_0, v_1 are a basis, so v_j = x_j v_0 + y_j v_1, and the row
    e_j - x_j e_0 - y_j e_1 (j >= 2) is a relation among the rays: these
    K = N - 2 rows are the charge matrix.  omega = sum_j h_j m_{.j} is the class
    of sum_j h_j D_j, ample when h_{j-1} + h_{j+1} - b_j h_j > 0 for every j.
    """
    (a, b), (c, d) = rays[0], rays[1]
    assert a * d - b * c == 1
    n = len(rays)
    rows = []
    for j, (vx, vy) in enumerate(rays[2:], start=2):
        x, y = vx * d - vy * c, a * vy - b * vx
        rows.append(tuple(-x if k == 0 else -y if k == 1 else int(k == j) for k in range(n)))
    b_all = self_intersections(rays)
    assert all(h[j - 1] + h[(j + 1) % n] - b_all[j] * h[j] > 0 for j in range(n))
    omega = tuple(sum(hj * row[j] for j, hj in enumerate(h)) for row in rows)
    return ToricData(m=tuple(rows), omega=omega)


def self_intersections(rays):
    """b_j with v_{j-1} + v_{j+1} = b_j v_j: the curve of ray j meets itself in -b_j."""
    n, out = len(rays), []
    for j, v in enumerate(rays):
        w = tuple(x + y for x, y in zip(rays[j - 1], rays[(j + 1) % n]))
        b = w[0] // v[0] if v[0] else w[1] // v[1]
        assert w == (b * v[0], b * v[1])
        out.append(b)
    return out


def curve_pairings(rays):
    """The pairings D_k(C_j) = e_{j-1} - b_j e_j + e_{j+1} of the N curves."""
    n = len(rays)
    out = []
    for j, b in enumerate(self_intersections(rays)):
        vec = [0] * n
        vec[j - 1] += 1
        vec[(j + 1) % n] += 1
        vec[j] -= b
        out.append(tuple(vec))
    return out


@st.composite
def blown_up_fans(draw, min_rays, max_rays):
    """(rays, h): P^2 or F_a, blown up at torus-fixed points until it has
    between ``min_rays`` and ``max_rays`` rays.

    A blow-up inserts v_i + v_{i+1} between v_i and v_{i+1}.  2h on the old
    rays and 2(h_i + h_{i+1}) - 1 on the new one stay ample: the new curve gets
    pairing 1, and an old pairing c >= 1 becomes 2c, or 2c - 1 next to it.
    """
    a = draw(st.integers(-1, 3))
    if a < 0:
        rays, h = [(1, 0), (0, 1), (-1, -1)], [1, 0, 0]
    else:
        rays, h = [(1, 0), (0, 1), (-1, a), (0, -1)], [1, 0, 0, 1]
    for _ in range(draw(st.integers(max(0, min_rays - len(rays)), max_rays - len(rays)))):
        i = draw(st.integers(0, len(rays) - 1))
        nxt = (i + 1) % len(rays)
        h = [2 * x for x in h]
        h.insert(i + 1, h[i] + h[nxt] - 1)
        rays.insert(i + 1, (rays[i][0] + rays[nxt][0], rays[i][1] + rays[nxt][1]))
    return rays, h


def rank(vectors):
    """The rank of a list of integer vectors, by exact elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_fan_surface_rebuilds_the_bundled_charge_matrices(p2, f1):
    assert fan_surface([(1, 0), (0, 1), (-1, -1)], [1, 0, 0]).m == p2.m
    # F_1's fan in the order (1, 0), (0, 1), (-1, 1), (0, -1).
    assert fan_surface([(1, 0), (0, 1), (-1, 1), (0, -1)], [1, 0, 0, 1]).m == \
        ((1, -1, 1, 0), (0, 1, 0, 1))


SURFACE8 = ([(1, 0), (0, 1), (-1, -1), (-2, -3), (-1, -2), (0, -1), (1, -1), (2, -1)],
            [0, 0, 12, 25, 14, 5, 3, 2])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(fan=blown_up_fans(3, 6), bound=st.integers(0, 3))
def test_generated_surfaces_match_the_union_oracle(fan, bound):
    # Up to 6 rays the oracle's facets, from every (K - 1)-subset of the
    # union, are cheap: the facets, the extreme rays in order (by the
    # cofactor route and by Caratheodory's), and the box at the bound times
    # the least pairing of omega with a curve class, filtered by the
    # oracle's facets.
    rays, h = fan
    data = fan_surface(rays, h)
    classes = toric._curve_classes(data)
    assert sorted(degree_pairing(data, g) for g in classes) == sorted(set(curve_pairings(rays)))
    facets = union_facets(data)
    assert set(toric._mori_facets(data)) == facets
    assert mori_generators(data) == union_extreme_rays(data) == extreme_rays(raw_generators(data))
    bound *= min(pairing(data.omega, g) for g in classes)

    def member(d):
        return all(sum(x * y for x, y in zip(n, d)) >= 0 for n in facets)
    assert box_degrees(data, data.omega, bound) == oracle_box(data, data.omega, bound, member)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(fan=blown_up_fans(7, 8))
def test_generated_surfaces_with_seven_and_eight_rays(fan):
    # The oracle's facets take seconds to minutes here: independent checks.
    rays, h = fan
    data = fan_surface(rays, h)
    classes = toric._curve_classes(data)
    assert len(classes) == data.N
    assert sorted(degree_pairing(data, g) for g in classes) == sorted(curve_pairings(rays))
    facets = toric._mori_facets(data)
    assert all(sum(x * y for x, y in zip(n, g)) >= 0
               for n in facets for g in raw_generators(data))
    for n in facets:
        tight = [g for g in classes if sum(x * y for x, y in zip(n, g)) == 0]
        assert rank(tight) == data.K - 1


def test_surface8_cone():
    # The 8 curve classes against the 37 generators of the union.
    data = fan_surface(*SURFACE8)
    committed = resolve_model(str(Path(__file__).parent / "data" / "surface8.model")).data
    assert (committed.m, committed.omega) == (data.m, data.omega)
    assert len(enumerate_fixed_points(data)) == 8
    assert len(raw_generators(data)) == 37
    assert len(toric._curve_classes(data)) == 8
    assert len(mori_generators(data)) == 7


def test_threefold7_squared_cone_within_budget():
    # K = 8 and 18 classes.  The cone of a product is the product of the
    # cones: its facets and its generators are the factor's, padded with
    # zeros on one side or the other.  The factor's come from the reference
    # routes at K = 4.
    factor = resolve_model(str(DATA / "threefold7.model")).data
    data = resolve_model(str(DATA / "threefold7x2.model")).data
    assert data.m == tuple(r + (0,) * 7 for r in factor.m) + tuple((0,) * 7 + r for r in factor.m)
    assert data.omega == factor.omega * 2
    assert len(enumerate_fixed_points(data)) == 100
    assert len(toric._curve_classes(data)) == 18
    toric._mori_facets.cache_clear()
    start = time.perf_counter()
    facets = toric._mori_facets(data)
    rays = mori_generators(data)
    elapsed = time.perf_counter() - start
    classes = toric._curve_classes(factor)
    zero = (0,) * 4
    factor_facets = cofactor_facets(classes, 4)
    assert sorted(facets) == sorted([f + zero for f in factor_facets]
                                    + [zero + f for f in factor_facets])
    gens = extreme_rays(classes)
    assert len(gens) == 5
    assert sorted(rays) == sorted([g + zero for g in gens] + [zero + g for g in gens])
    assert elapsed < 0.5, f"the K = 8 cone took {elapsed:.2f} s"


def test_dropping_one_curve_class_changes_the_dp6_cone(dp6, monkeypatch):
    classes = toric._curve_classes(dp6)
    assert len(classes) == 6
    rays = extreme_rays(raw_generators(dp6))
    for i, dropped in enumerate(classes):
        monkeypatch.setattr(toric, "_curve_classes",
                            lambda data, i=i: classes[:i] + classes[i + 1:])
        toric._mori_facets.cache_clear()
        assert mori_generators(dp6) != rays
        assert not mori_cone_membership(dp6, dropped)
    toric._mori_facets.cache_clear()
